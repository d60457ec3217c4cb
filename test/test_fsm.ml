(* The sequential-machine corpus (counter, shift register, LFSR, serial
   adder, Gray counter, NUM-based multiplexor) against golden models. *)

open Zeus

(* a single-bit port's value *)
let one_bit sim p =
  match Sim.get sim p with
  | [ v ] -> v
  | l -> Alcotest.failf "%s: %d bits" p.Sim.path (List.length l)

let logic = Alcotest.testable Logic.pp Logic.equal

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

let no_errors name sim =
  match Sim.runtime_errors sim with
  | [] -> ()
  | e :: _ ->
      Alcotest.failf "%s: runtime error %s: %s" name e.Sim.err_net
        e.Sim.err_message

(* ---- counter ---- *)

let test_counter_counts () =
  let d = compile (Corpus_fsm.counter 8) in
  let p_en = Testbench.port d "c.en" in
  let p_value = Testbench.port d "c.value" in
  let sim = Sim.create d in
  Sim.set_int sim p_en 1;
  Sim.reset sim;
  for expect = 0 to 300 do
    Sim.step sim;
    Alcotest.(check (option int))
      (Printf.sprintf "count %d" expect)
      (Some (expect land 255))
      (Sim.get_int sim p_value)
  done;
  no_errors "counter" sim

let test_counter_enable () =
  let d = compile (Corpus_fsm.counter 4) in
  let p_en = Testbench.port d "c.en" in
  let p_value = Testbench.port d "c.value" in
  let sim = Sim.create d in
  Sim.set_int sim p_en 1;
  Sim.reset sim;
  Sim.step_n sim 5;
  Alcotest.(check (option int)) "counted to 4" (Some 4)
    (Sim.get_int sim p_value);
  Sim.set_int sim p_en 0;
  Sim.step_n sim 10;
  Alcotest.(check (option int)) "held while disabled" (Some 5)
    (Sim.get_int sim p_value)

let test_counter_wraps () =
  let d = compile (Corpus_fsm.counter 3) in
  let p_en = Testbench.port d "c.en" in
  let p_value = Testbench.port d "c.value" in
  let sim = Sim.create d in
  Sim.set_int sim p_en 1;
  Sim.reset sim;
  Sim.step_n sim 9;
  (* value visible at cycle 9 is count 8 mod 8 = 0 *)
  Alcotest.(check (option int)) "wrapped" (Some 0) (Sim.get_int sim p_value)

(* ---- shift register ---- *)

let test_shiftreg () =
  let d = compile (Corpus_fsm.shift_register 8) in
  let p_en = Testbench.port d "sr.en" in
  let p_d = Testbench.port d "sr.d" in
  let p_q = Testbench.port d "sr.q" in
  let sim = Sim.create d in
  Sim.set_int sim p_en 1;
  Sim.set_int sim p_d 0;
  Sim.reset sim;
  let stream = [ true; true; false; true; false; false; true; true ] in
  List.iter
    (fun b ->
      Sim.set_int sim p_d (Bool.to_int b);
      Sim.step sim)
    stream;
  Sim.set_int sim p_en 0;
  Sim.step sim;
  (* q[1] is the last bit shifted in, q[8] the first *)
  let want = List.rev stream in
  let got = List.map (fun v -> Logic.equal v Logic.One) (Sim.get sim p_q) in
  Alcotest.(check (list bool)) "register contents" want got;
  no_errors "shiftreg" sim

(* ---- LFSR ---- *)

let test_lfsr_period () =
  let d = compile Corpus_fsm.lfsr4 in
  let p_en = Testbench.port d "l.en" in
  let p_q = Testbench.port d "l.q" in
  let sim = Sim.create d in
  Sim.set_int sim p_en 1;
  Sim.reset sim;
  Sim.step sim;
  let states = ref [] in
  for _ = 1 to 15 do
    (match Sim.get_int sim p_q with
    | Some v -> states := v :: !states
    | None -> Alcotest.fail "undefined LFSR state");
    Sim.step sim
  done;
  let states = List.rev !states in
  (* maximal-length: all 15 non-zero states visited exactly once *)
  Alcotest.(check int) "distinct states" 15
    (List.length (List.sort_uniq compare states));
  Alcotest.(check bool) "never zero" true (not (List.mem 0 states));
  (* period 15: state repeats *)
  Alcotest.(check (option int)) "wraps to start" (Some (List.hd states))
    (Sim.get_int sim p_q);
  no_errors "lfsr" sim

(* ---- serial adder ---- *)

let test_serial_adder () =
  (* add 13-bit numbers bit-serially, LSB first *)
  let add a b =
    let d = compile Corpus_fsm.serial_adder in
    let p_a = Testbench.port d "sa.a" in
    let p_b = Testbench.port d "sa.b" in
    let p_s = Testbench.port d "sa.s" in
    let sim = Sim.create d in
    Sim.set_int sim p_a 0;
    Sim.set_int sim p_b 0;
    Sim.reset sim;
    let result = ref 0 in
    for bit = 0 to 13 do
      Sim.set_int sim p_a ((a lsr bit) land 1);
      Sim.set_int sim p_b ((b lsr bit) land 1);
      Sim.step sim;
      if Logic.equal (one_bit sim p_s) Logic.One then
        result := !result lor (1 lsl bit)
    done;
    !result
  in
  List.iter
    (fun (a, b) ->
      Alcotest.(check int) (Printf.sprintf "%d+%d" a b) (a + b) (add a b))
    [ (0, 0); (1, 1); (3, 5); (1000, 7000); (4095, 4095); (8191, 1) ]

let prop_serial_adder =
  QCheck.Test.make ~count:25 ~name:"serial_adder_random"
    QCheck.(pair (int_bound 4000) (int_bound 4000))
    (fun (a, b) ->
      let d = compile Corpus_fsm.serial_adder in
      let p_a = Testbench.port d "sa.a" in
      let p_b = Testbench.port d "sa.b" in
      let p_s = Testbench.port d "sa.s" in
      let sim = Sim.create d in
      Sim.set_int sim p_a 0;
      Sim.set_int sim p_b 0;
      Sim.reset sim;
      let result = ref 0 in
      for bit = 0 to 13 do
        Sim.set_int sim p_a ((a lsr bit) land 1);
        Sim.set_int sim p_b ((b lsr bit) land 1);
        Sim.step sim;
        if Logic.equal (one_bit sim p_s) Logic.One then
          result := !result lor (1 lsl bit)
      done;
      !result = a + b)

(* ---- Gray counter ---- *)

let test_gray_counter () =
  let d = compile (Corpus_fsm.gray_counter 4) in
  let p_en = Testbench.port d "gc.en" in
  let p_g = Testbench.port d "gc.g" in
  let sim = Sim.create d in
  Sim.set_int sim p_en 1;
  Sim.reset sim;
  let prev = ref None in
  for step = 1 to 32 do
    Sim.step sim;
    match Sim.get_int sim p_g with
    | None -> Alcotest.failf "undefined gray output at step %d" step
    | Some g ->
        (match !prev with
        | Some p when step > 1 ->
            let diff = p lxor g in
            (* consecutive Gray codes differ in exactly one bit *)
            Alcotest.(check bool)
              (Printf.sprintf "one-bit change at step %d (%x->%x)" step p g)
              true
              (diff <> 0 && diff land (diff - 1) = 0)
        | _ -> ());
        prev := Some g
  done;
  no_errors "gray" sim

(* ---- NUM-based multiplexor ---- *)

let test_muxn () =
  let d = compile (Corpus_fsm.muxn ~inputs:8 ~selbits:3) in
  let p_d = Testbench.port d "m.d" in
  let p_sel = Testbench.port d "m.sel" in
  let p_z = Testbench.port d "m.z" in
  let sim = Sim.create d in
  let data = 0b10110010 in
  (* d[0] is the MSB of the poked integer (index order) *)
  Sim.set_int sim p_d data;
  for sel = 0 to 7 do
    Sim.set_int sim p_sel sel;
    Sim.step sim;
    let want = (data lsr (7 - sel)) land 1 = 1 in
    Alcotest.check logic
      (Printf.sprintf "select %d" sel)
      (Logic.of_bool want)
      (one_bit sim p_z)
  done;
  no_errors "muxn" sim

(* ---- arbiter (RANDOM, "for describing bistable elements") ---- *)

let test_arbiter_exclusive () =
  let d = compile Corpus_fsm.arbiter in
  let p_req1 = Testbench.port d "arb.req1" in
  let p_req2 = Testbench.port d "arb.req2" in
  let p_gnt1 = Testbench.port d "arb.gnt1" in
  let p_gnt2 = Testbench.port d "arb.gnt2" in
  let sim = Sim.create ~seed:11 d in
  let grants1 = ref 0 and grants2 = ref 0 in
  for _ = 1 to 200 do
    Sim.set_int sim p_req1 1;
    Sim.set_int sim p_req2 1;
    Sim.step sim;
    let g1 = Logic.equal (one_bit sim p_gnt1) Logic.One in
    let g2 = Logic.equal (one_bit sim p_gnt2) Logic.One in
    (* mutual exclusion, and exactly one grant under contention *)
    Alcotest.(check bool) "exactly one grant" true (g1 <> g2);
    if g1 then incr grants1 else incr grants2
  done;
  (* the RANDOM coin resolves ties both ways *)
  Alcotest.(check bool)
    (Printf.sprintf "both sides win sometimes (%d/%d)" !grants1 !grants2)
    true
    (!grants1 > 20 && !grants2 > 20);
  no_errors "arbiter" sim;
  (* single requests are granted deterministically *)
  Sim.set_int sim p_req1 1;
  Sim.set_int sim p_req2 0;
  Sim.step sim;
  Alcotest.check logic "solo request 1" Logic.One (one_bit sim p_gnt1);
  Sim.set_int sim p_req1 0;
  Sim.set_int sim p_req2 1;
  Sim.step sim;
  Alcotest.check logic "solo request 2" Logic.One (one_bit sim p_gnt2)

let test_run_until () =
  (* Sim.run_until: wait for the counter to reach 10 *)
  let d = compile (Corpus_fsm.counter 8) in
  let p_en = Testbench.port d "c.en" in
  let p_value = Testbench.port d "c.value" in
  let sim = Sim.create d in
  Sim.set_int sim p_en 1;
  Sim.reset sim;
  (match Sim.run_until sim ~max:50 (fun s -> Sim.get_int s p_value = Some 10) with
  | Some cycles -> Alcotest.(check int) "reached 10" 11 cycles
  | None -> Alcotest.fail "timeout");
  match Sim.run_until sim ~max:3 (fun s -> Sim.get_int s p_value = Some 200) with
  | None -> ()
  | Some _ -> Alcotest.fail "should have timed out"

let test_all_compile () =
  List.iter
    (fun (name, src) ->
      match Zeus.compile src with
      | Ok _ -> ()
      | Error diags ->
          Alcotest.failf "%s: %a" name Fmt.(list Diag.pp) diags)
    Corpus_fsm.all_named

let () =
  Alcotest.run "fsm"
    [
      ( "counter",
        [
          Alcotest.test_case "counts" `Quick test_counter_counts;
          Alcotest.test_case "enable" `Quick test_counter_enable;
          Alcotest.test_case "wraps" `Quick test_counter_wraps;
        ] );
      ("shiftreg", [ Alcotest.test_case "stream" `Quick test_shiftreg ]);
      ("lfsr", [ Alcotest.test_case "maximal period" `Quick test_lfsr_period ]);
      ( "serial_adder",
        [
          Alcotest.test_case "directed" `Quick test_serial_adder;
          QCheck_alcotest.to_alcotest prop_serial_adder;
        ] );
      ("gray", [ Alcotest.test_case "one-bit steps" `Quick test_gray_counter ]);
      ("muxn", [ Alcotest.test_case "selection" `Quick test_muxn ]);
      ( "arbiter",
        [ Alcotest.test_case "mutual exclusion" `Quick test_arbiter_exclusive ]
      );
      ( "run_until",
        [ Alcotest.test_case "predicate wait" `Quick test_run_until ] );
      ("corpus", [ Alcotest.test_case "all compile" `Quick test_all_compile ]);
    ]
