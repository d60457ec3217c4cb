(* A microcoded program on the AM2901 bit-slice ALU (report abstract):
   compute the Fibonacci sequence modulo 16 in the register file.

   Register plan: r1 = F(k-1), r2 = F(k); each iteration microexecutes
     r3 <- r1 + r2    (source AB, function ADD, dest RAMF at B=3)
     r1 <- r2 + 0     (source AB with A=2,B=1? — use DA via Y...)
   Moves are done as "ADD with zero": source ZB reads (0, B), dest RAMF
   writes into B... which would overwrite the source, so moves go
   through Y-less RAM writes: RAMF at a different B with source ZA.

   Run with:  dune exec examples/am2901_fibonacci.exe *)

open Zeus

let () =
  let design = compile_exn Corpus.am2901 in
  let sim = Sim.create design in
  let port = Testbench.port design in
  let pi = port "alu.i" and pa = port "alu.a" and pb = port "alu.b"
  and pd = port "alu.d" and pcin = port "alu.cin" and py = port "alu.y" in
  let exec ?(i = 0) ?(a = 0) ?(b = 0) ?(d = 0) ?(cin = 0) () =
    Sim.set_int sim pi i;
    Sim.set_int sim pa a;
    Sim.set_int sim pb b;
    Sim.set_int sim pd d;
    Sim.set_int sim pcin cin;
    Sim.step sim;
    Sim.get_int sim py
  in
  (* octal instruction encoding: src | fn | dest *)
  let load_const ~reg v = exec ~i:0o703 ~b:reg ~d:v () in
  (* r[b] <- r[a] + r[b] : source AB (1), ADD (0), RAMF (3) *)
  let add_into ~a ~b = exec ~i:0o103 ~a ~b () in
  (* r[b] <- 0 + r[a] : source ZA (4), ADD, RAMF writes B *)
  let move ~from_ ~to_ = exec ~i:0o403 ~a:from_ ~b:to_ () in
  ignore (load_const ~reg:1 0);
  (* r1 = F(0) = 0 *)
  ignore (load_const ~reg:2 1);
  (* r2 = F(1) = 1 *)
  Fmt.pr "Fibonacci mod 16 on the AM2901:@.  F(0)=0 F(1)=1";
  for k = 2 to 12 do
    ignore (move ~from_:2 ~to_:3);
    (* r3 = F(k-1) *)
    ignore (add_into ~a:1 ~b:3);
    (* r3 = F(k-2) + F(k-1) = F(k) *)
    ignore (move ~from_:2 ~to_:1);
    (* r1 = F(k-1) *)
    let y = move ~from_:3 ~to_:2 (* r2 = F(k); Y shows the moved value *) in
    Fmt.pr " F(%d)=%a" k Fmt.(option ~none:(any "?") int) y
  done;
  Fmt.pr "@.";
  match Sim.runtime_errors sim with
  | [] -> Fmt.pr "no runtime violations in %d cycles.@." (Sim.cycle_count sim)
  | errs -> Fmt.pr "%d runtime errors!@." (List.length errs)
