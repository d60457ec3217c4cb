(* The register-file/RAM idiom of report section 5.1: an array of REG
   words addressed with NUM, written under a write-enable guard.  Dumps a
   VCD waveform of the transaction trace.

   Run with:  dune exec examples/memory_trace.exe *)

open Zeus

let () =
  let design = compile_exn (Corpus.ram ~abits:4 ~wbits:8) in
  Fmt.pr "16x8 RAM built from REG: %s@."
    (Netlist.stats design.Elaborate.netlist);
  let sim = Sim.create design in
  let port = Testbench.port design in
  let maddr = port "m.addr" and data = port "m.data" and we = port "m.we"
  and q = port "m.q" in
  let vcd = Vcd.create sim [ maddr; data; we; q ] in
  let step () =
    Sim.step sim;
    Vcd.sample vcd
  in
  let write addr v =
    Sim.set_int sim maddr addr;
    Sim.set_int sim data v;
    Sim.set_int sim we 1;
    step ();
    Fmt.pr "  write [%2d] <- %3d@." addr v
  in
  let read addr =
    Sim.set_int sim we 0;
    Sim.set_int sim maddr addr;
    step ();
    let v = Sim.get_int sim q in
    Fmt.pr "  read  [%2d] -> %a@." addr Fmt.(option ~none:(any "UNDEF") int) v;
    v
  in
  write 0 17;
  write 5 171;
  write 15 255;
  ignore (read 0);
  ignore (read 5);
  ignore (read 9);
  (* never written: UNDEF *)
  write 5 1;
  ignore (read 5);
  ignore (read 15);
  let path = Filename.temp_file "zeus_ram" ".vcd" in
  Vcd.to_file vcd path;
  Fmt.pr "waveform written to %s (%d bytes)@." path
    (String.length (Vcd.contents vcd));
  match Sim.runtime_errors sim with
  | [] -> Fmt.pr "no runtime violations.@."
  | errs -> Fmt.pr "%d runtime errors!@." (List.length errs)
