(* The sequential-machine corpus under the Testbench and Wave tools: a
   binary counter and an LFSR observed as ASCII waveforms, and a
   table-driven verification run.

   Run with:  dune exec examples/counter_scope.exe *)

open Zeus

let () =
  (* 4-bit counter on the scope *)
  let design = compile_exn (Corpus_fsm.counter 4) in
  let sim = Sim.create design in
  let port = Testbench.port design in
  let en = port "c.en" in
  let wave =
    Wave.create sim
      [ en; port "c.value"; port "c.value[4]"; port "c.value[3]" ]
  in
  Sim.set_int sim en 1;
  Sim.reset sim;
  for cyc = 1 to 24 do
    Sim.set_int sim en (Bool.to_int (cyc < 18));
    Sim.step sim;
    Wave.sample wave
  done;
  Fmt.pr "4-bit counter (en drops at cycle 18):@.%s@." (Wave.render wave);

  (* LFSR state sequence *)
  let design = compile_exn Corpus_fsm.lfsr4 in
  let sim = Sim.create design in
  let wave = Wave.create sim [ Testbench.port design "l.q" ] in
  Sim.set_int sim (Testbench.port design "l.en") 1;
  Sim.reset sim;
  for _ = 1 to 16 do
    Sim.step sim;
    Wave.sample wave
  done;
  Fmt.pr "4-bit LFSR (maximal period 15):@.%s@." (Wave.render_values wave);

  (* table-driven verification with the Testbench harness *)
  let design = compile_exn Corpus_fsm.serial_adder in
  let tb = Testbench.create design in
  let port = Testbench.port design in
  let pa = port "sa.a" and pb = port "sa.b" and ps = port "sa.s" in
  Testbench.reset tb;
  (* 3 + 5 bit-serially, LSB first: a=110..., b=101... *)
  List.iter
    (fun (a, b, s) ->
      Testbench.set tb pa a;
      Testbench.set tb pb b;
      Testbench.clock tb;
      Testbench.expect_int tb ps s)
    [
      (1, 1, 0); (* 1+1 = 0 carry 1 *)
      (1, 0, 0); (* 1+0+c = 0 carry 1 *)
      (0, 1, 0); (* 0+1+c = 0 carry 1 *)
      (0, 0, 1); (* 0+0+c = 1 *)
    ];
  Fmt.pr "serial adder 3+5 (expect 8 = 0001 LSB-first):@.";
  Testbench.report Fmt.stdout tb
