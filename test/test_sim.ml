(* The firing simulator of section 8: gate evaluation, registers,
   multiplex resolution, runtime checks, the evaluation-sequence trace,
   and the equivalence of the three engines (firing, the cross-cycle
   incremental engine and the bytecode-compiled one) with each other
   and with the independent sweeping reference evaluator [Sweep]. *)

open Zeus

let logic = Alcotest.testable Logic.pp Logic.equal

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

(* a batch these tests build is well-formed *)
let run_batch ?jobs ?lanes ?snapshots tmpl runs =
  match Sim.run_batch ?jobs ?lanes ?snapshots tmpl runs with
  | Ok r -> r
  | Error m -> Alcotest.fail m

let simple_gate op =
  compile
    (Printf.sprintf
       "TYPE t = COMPONENT (IN a,b: boolean; OUT y: boolean) IS BEGIN y := \
        %s(a,b) END; SIGNAL s: t;"
       op)

let eval2 d a b =
  let sim = Sim.create d in
  Sim.poke sim "s.a" [ a ];
  Sim.poke sim "s.b" [ b ];
  Sim.step sim;
  Sim.peek_bit sim "s.y"

let test_gate_sim () =
  let d = simple_gate "AND" in
  Alcotest.check logic "and 1 1" Logic.One (eval2 d Logic.One Logic.One);
  Alcotest.check logic "and 0 U" Logic.Zero (eval2 d Logic.Zero Logic.Undef);
  let d = simple_gate "NAND" in
  Alcotest.check logic "nand 1 1" Logic.Zero (eval2 d Logic.One Logic.One);
  let d = simple_gate "XOR" in
  Alcotest.check logic "xor 1 0" Logic.One (eval2 d Logic.One Logic.Zero);
  let d = simple_gate "EQUAL" in
  Alcotest.check logic "equal 0 0" Logic.One (eval2 d Logic.Zero Logic.Zero)

let test_unpoked_inputs_undef () =
  let d = simple_gate "OR" in
  let sim = Sim.create d in
  Sim.step sim;
  Alcotest.check logic "OR(U,U)" Logic.Undef (Sim.peek_bit sim "s.y");
  Sim.poke sim "s.a" [ Logic.One ];
  Sim.step sim;
  (* early firing: OR fires 1 even though b is UNDEF *)
  Alcotest.check logic "OR(1,U)" Logic.One (Sim.peek_bit sim "s.y")

(* ---- registers (section 5.1) ---- *)

let reg_design =
  "TYPE t = COMPONENT (IN d,en: boolean; OUT q: boolean) IS SIGNAL r: REG; \
   BEGIN IF en THEN r.in := d END; q := r.out END; SIGNAL s: t;"

let test_reg_delay () =
  let d = compile reg_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.en" true;
  Sim.poke_bool sim "s.d" true;
  Sim.step sim;
  (* q is last cycle's input: still UNDEF *)
  Alcotest.check logic "initial out" Logic.Undef (Sim.peek_bit sim "s.q");
  Sim.step sim;
  Alcotest.check logic "one cycle later" Logic.One (Sim.peek_bit sim "s.q")

let test_reg_holds_value () =
  let d = compile reg_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.en" true;
  Sim.poke_bool sim "s.d" true;
  Sim.step sim;
  (* disable: the input gets NOINFL, the register keeps its value *)
  Sim.poke_bool sim "s.en" false;
  Sim.step sim;
  Sim.step sim;
  Sim.step sim;
  Alcotest.check logic "held" Logic.One (Sim.peek_bit sim "s.q")

let test_reg_same_cycle_read_write () =
  (* "in the same clock cycle the in port is assigned and the stored
     value is read at the out port" — a toggle flip-flop *)
  let d =
    compile
      "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS SIGNAL r: REG; \
       BEGIN IF RSET THEN r.in := 0 ELSE r.in := XOR(r.out,a) END; q := \
       r.out END; SIGNAL s: t;"
  in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.a" true;
  Sim.reset sim;
  Sim.step sim;
  Alcotest.check logic "t1" Logic.Zero (Sim.peek_bit sim "s.q")
  |> fun () ->
  Sim.step sim;
  Alcotest.check logic "t2" Logic.One (Sim.peek_bit sim "s.q");
  Sim.step sim;
  Alcotest.check logic "t3" Logic.Zero (Sim.peek_bit sim "s.q")

(* ---- multiplex resolution and the runtime check ---- *)

let mux_design =
  "TYPE t = COMPONENT (IN b,c,x,y: boolean; m: multiplex) IS BEGIN IF b \
   THEN m := x END; IF c THEN m := y END END; SIGNAL s: t;"

let test_mux_single_drive () =
  let d = compile mux_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" true;
  Sim.poke_bool sim "s.c" false;
  Sim.poke_bool sim "s.x" true;
  Sim.poke_bool sim "s.y" false;
  Sim.step sim;
  Alcotest.check logic "selected x" Logic.One (Sim.peek_bit sim "s.m");
  Alcotest.(check int) "no runtime errors" 0
    (List.length (Sim.runtime_errors sim))

let test_mux_no_drive_noinfl () =
  let d = compile mux_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" false;
  Sim.poke_bool sim "s.c" false;
  Sim.poke_bool sim "s.x" true;
  Sim.poke_bool sim "s.y" false;
  Sim.step sim;
  Alcotest.check logic "high impedance" Logic.Noinfl (Sim.peek_bit sim "s.m")

let test_mux_conflict_detected () =
  (* both guards on: the "burning transistors" runtime check fires *)
  let d = compile mux_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" true;
  Sim.poke_bool sim "s.c" true;
  Sim.poke_bool sim "s.x" true;
  Sim.poke_bool sim "s.y" false;
  Sim.step sim;
  Alcotest.(check bool) "conflict reported" true
    (Sim.runtime_errors sim <> []);
  Alcotest.check logic "forced UNDEF" Logic.Undef (Sim.peek_bit sim "s.m")

let test_mux_undef_guard () =
  (* IF with UNDEF condition drives UNDEF (section 8) *)
  let d = compile mux_design in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.c" false;
  Sim.poke_bool sim "s.x" true;
  Sim.poke_bool sim "s.y" false;
  (* b left undefined *)
  Sim.step sim;
  Alcotest.check logic "undef guard" Logic.Undef (Sim.peek_bit sim "s.m")

let test_if_else_exclusive () =
  let d =
    compile
      "TYPE t = COMPONENT (IN b,x,y: boolean; OUT z: boolean) IS BEGIN IF b \
       THEN z := x ELSE z := y END END; SIGNAL s: t;"
  in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" false;
  Sim.poke_bool sim "s.x" true;
  Sim.poke_bool sim "s.y" false;
  Sim.step sim;
  Alcotest.check logic "else branch" Logic.Zero (Sim.peek_bit sim "s.z");
  Alcotest.(check int) "exclusive" 0 (List.length (Sim.runtime_errors sim));
  Sim.poke_bool sim "s.b" true;
  Sim.step sim;
  Alcotest.check logic "then branch" Logic.One (Sim.peek_bit sim "s.z")

let test_elsif_chain () =
  let d =
    compile
      "TYPE bo2 = ARRAY[1..2] OF boolean; t = COMPONENT (IN a: bo2; OUT z: \
       ARRAY[1..2] OF boolean) IS BEGIN IF EQUAL(a,(0,0)) THEN z := (0,1) \
       ELSIF EQUAL(a,(0,1)) THEN z := (1,0) ELSIF EQUAL(a,(1,0)) THEN z := \
       (1,1) ELSE z := (0,0) END END; SIGNAL s: t;"
  in
  let sim = Sim.create d in
  List.iter
    (fun (input, want) ->
      Sim.poke_int sim "s.a" input;
      Sim.step sim;
      Alcotest.(check (option int))
        (Printf.sprintf "increment %d" input)
        (Some want) (Sim.peek_int sim "s.z"))
    [ (0, 1); (1, 2); (2, 3); (3, 0) ];
  Alcotest.(check int) "no conflicts" 0 (List.length (Sim.runtime_errors sim))

(* ---- boolean conversion on reads ---- *)

let test_noinfl_reads_undef_on_boolean () =
  let d =
    compile
      "TYPE t = COMPONENT (IN b,x: boolean; OUT z: boolean) IS SIGNAL m: \
       multiplex; BEGIN IF b THEN m := x END; z := m END; SIGNAL s: t;"
  in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" false;
  Sim.poke_bool sim "s.x" true;
  Sim.step sim;
  (* m is NOINFL; the boolean z reads UNDEF through the amplifier *)
  Alcotest.check logic "amplified" Logic.Undef (Sim.peek_bit sim "s.z")

(* ---- RANDOM (predefined, section 7) ---- *)

let test_random_deterministic () =
  let d =
    compile
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS BEGIN y := \
       AND(a,RANDOM()) END; SIGNAL s: t;"
  in
  let run seed =
    let sim = Sim.create ~seed d in
    Sim.poke_bool sim "s.a" true;
    List.init 20 (fun _ ->
        Sim.step sim;
        Sim.peek_bit sim "s.y")
  in
  Alcotest.(check bool) "same seed same stream" true (run 1 = run 1);
  Alcotest.(check bool) "streams contain both values" true
    (let s = run 7 in
     List.exists (Logic.equal Logic.One) s
     && List.exists (Logic.equal Logic.Zero) s)

(* ---- evaluation trace (E5) ---- *)

let test_trace_section8 () =
  let d = compile Corpus.section8_example in
  let sim = Sim.create d in
  Sim.set_trace sim true;
  List.iter
    (fun (p, v) -> Sim.poke_bool sim p v)
    [ ("top.a", true); ("top.b", true); ("top.cc", false); ("top.x", true);
      ("top.y", false); ("top.rin", true) ];
  Sim.step sim;
  let trace = Sim.trace_last_cycle sim in
  let fired_names = List.map fst trace in
  (* inputs fire before the gated output *)
  let idx name =
    let rec go i = function
      | [] -> Alcotest.failf "%s did not fire" name
      | n :: _ when n = name -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 fired_names
  in
  Alcotest.(check bool) "a before out" true (idx "top.a" < idx "top.out");
  Alcotest.(check bool) "x before out" true (idx "top.x" < idx "top.out");
  Alcotest.check logic "out value" Logic.One (Sim.peek_bit sim "top.out");
  (* rout is r.out: UNDEF in cycle 1, rin's value in cycle 2 *)
  Alcotest.check logic "rout cycle1" Logic.Undef (Sim.peek_bit sim "top.rout");
  Sim.step sim;
  Alcotest.check logic "rout cycle2" Logic.One (Sim.peek_bit sim "top.rout")

let test_section8_conflict_case () =
  (* x=1 and y=1 with AND(a,b) <> cc: the paper's own trace would drive
     out twice — the runtime check reports it (E9) *)
  let d = compile Corpus.section8_example in
  let sim = Sim.create d in
  List.iter
    (fun (p, v) -> Sim.poke_bool sim p v)
    [ ("top.a", true); ("top.b", true); ("top.cc", false); ("top.x", true);
      ("top.y", true); ("top.rin", false) ];
  Sim.step sim;
  Alcotest.(check bool) "double drive detected" true
    (Sim.runtime_errors sim <> [])

(* ---- engine equivalence (the section 8 claim) ---- *)

(* path pokes as the (net id, value) pokes of [Sweep.run] *)
let net_pokes d pokes =
  List.concat_map
    (fun (p, vs) ->
      match Elaborate.resolve_path d p with
      | Ok ids -> List.combine ids vs
      | Error msg -> Alcotest.fail msg)
    pokes

let sweep_orders = [ Sweep.Fixpoint; Sweep.Relaxation ]

(* runtime errors as the sorted (cycle, net, code) set [Sweep] reports *)
let sorted_errors errs =
  List.sort compare
    (List.map
       (fun (e : Sim.runtime_error) ->
         (e.Sim.err_cycle, e.Sim.err_net, e.Sim.err_code))
       errs)

(* every engine and both sweep orders reach one final snapshot *)
let engines_agree_on src ~inputs ~cycles =
  let d = compile src in
  let run engine =
    let sim = Sim.create ~engine d in
    List.iter (fun (p, v) -> Sim.poke sim p [ v ]) inputs;
    Sim.step_n sim cycles;
    Sim.snapshot sim
  in
  let sweep order =
    let pokes =
      net_pokes d (List.map (fun (p, v) -> (p, [ v ])) inputs)
      :: List.init (cycles - 1) (fun _ -> [])
    in
    List.nth (Sweep.run ~order d pokes).Sweep.snaps (cycles - 1)
  in
  let f = run Sim.Firing in
  List.for_all (fun e -> run e = f) Sim.all_engines
  && List.for_all (fun o -> sweep o = f) sweep_orders

let test_engines_agree_adder () =
  Alcotest.(check bool) "adder" true
    (engines_agree_on (Corpus.adder_n 8)
       ~inputs:
         [ ("adder.cin", Logic.One) ]
       ~cycles:1)

(* corpus-wide: every design, random stimulus on every top-level input
   pin, several cycles — all three engines bit-identical *)
let test_engines_agree_corpus () =
  List.iter
    (fun (name, src) ->
      let d = compile src in
      let inputs = Graph.top_input_nets d in
      let rng = Random.State.make [| 77 |] in
      let stimulus =
        List.init 4 (fun _ ->
            List.map
              (fun _ ->
                if Random.State.bool rng then Logic.One else Logic.Zero)
              inputs)
      in
      let run engine =
        let sim = Sim.create ~engine d in
        List.map
          (fun vec ->
            Sim.poke_nets sim inputs vec;
            Sim.step sim;
            Sim.snapshot sim)
          stimulus
      in
      let f = run Sim.Firing in
      List.iter
        (fun engine ->
          Alcotest.(check bool)
            (name ^ ": firing = " ^ Sim.engine_name engine)
            true
            (run engine = f))
        [ Sim.Incremental; Sim.Compiled ];
      let pokes = List.map (List.combine inputs) stimulus in
      List.iter
        (fun order ->
          Alcotest.(check bool)
            (name ^ ": firing = " ^ Sweep.order_name order)
            true
            ((Sweep.run ~order d pokes).Sweep.snaps = f))
        sweep_orders)
    Corpus.all_named

let test_engines_agree_blackjack () =
  Alcotest.(check bool) "blackjack" true
    (engines_agree_on Corpus.blackjack
       ~inputs:[ ("bj.ycard", Logic.One) ]
       ~cycles:5)

let prop_engines_agree_random_inputs =
  QCheck.Test.make ~count:50 ~name:"engines_agree_random_adder_inputs"
    QCheck.(triple (int_bound 255) (int_bound 255) bool)
    (fun (a, b, cin) ->
      let d = compile (Corpus.adder_n 8) in
      let run engine =
        let sim = Sim.create ~engine d in
        Sim.poke_int_lsb sim "adder.a" a;
        Sim.poke_int_lsb sim "adder.b" b;
        Sim.poke_bool sim "adder.cin" cin;
        Sim.step sim;
        (Sim.peek_int_lsb sim "adder.s", Sim.peek_bit sim "adder.cout")
      in
      let r1 = run Sim.Firing in
      List.for_all (fun e -> run e = r1) Sim.all_engines
      && fst r1 = Some ((a + b + if cin then 1 else 0) land 255))

(* Drive-conflict re-propagation: the section 8 example one gate deeper.
   The first driving value (x=1) lets NOT and AND consumers fire before
   the second driver turns m into UNDEF — without the re-propagation
   pass, z and w would keep the stale values of the first drive, and
   differ between engines. *)
let test_conflict_repropagates_downstream () =
  let d =
    compile
      "TYPE t = COMPONENT (IN b,c,x,y: boolean; OUT z,w: boolean) IS SIGNAL \
       m: multiplex; BEGIN IF b THEN m := x END; IF c THEN m := y END; z := \
       NOT(m); w := AND(z,z) END; SIGNAL s: t;"
  in
  List.iter
    (fun engine ->
      let sim = Sim.create ~engine d in
      Sim.poke_bool sim "s.b" true;
      Sim.poke_bool sim "s.c" true;
      Sim.poke_bool sim "s.x" true;
      Sim.poke_bool sim "s.y" false;
      Sim.step sim;
      let n = Sim.engine_name engine in
      Alcotest.check logic (n ^ ": z re-fired") Logic.Undef
        (Sim.peek_bit sim "s.z");
      Alcotest.check logic (n ^ ": w re-fired") Logic.Undef
        (Sim.peek_bit sim "s.w");
      Alcotest.(check bool) (n ^ ": conflict reported") true
        (Sim.runtime_errors sim <> []))
    Sim.all_engines

(* Standing conflicts are re-reported every cycle by every engine,
   including the incremental one (which otherwise does no work on a
   quiescent cycle). *)
let test_conflict_reported_each_cycle () =
  let d = compile mux_design in
  List.iter
    (fun engine ->
      let sim = Sim.create ~engine d in
      Sim.poke_bool sim "s.b" true;
      Sim.poke_bool sim "s.c" true;
      Sim.poke_bool sim "s.x" true;
      Sim.poke_bool sim "s.y" false;
      Sim.step_n sim 3;
      Alcotest.(check int)
        (Sim.engine_name engine ^ ": one error per cycle")
        3
        (List.length (Sim.runtime_errors sim)))
    Sim.all_engines

(* A combinational cycle (a check error, but still simulatable): the
   sweeping reference ends — unresolved classes read UNDEF, as in the
   firing evaluator's fallback — and agrees with Firing for every value
   of the input *)
let test_sweep_combinational_cycle () =
  let src =
    "TYPE t = COMPONENT (IN a: boolean; OUT z1,z2: boolean) IS SIGNAL p,q: \
     boolean; BEGIN p := AND(a,q); q := OR(p,a); z1 := p; z2 := q END; \
     SIGNAL s: t;"
  in
  let d =
    match Zeus.elaborate_with_diags src with
    | Some d, _ -> d
    | None, diags -> Alcotest.failf "parse: %a" Fmt.(list Diag.pp) diags
  in
  List.iter
    (fun a ->
      let sim = Sim.create d in
      Sim.poke sim "s.a" [ a ];
      Sim.step sim;
      List.iter
        (fun order ->
          let r = Sweep.run ~order d [ net_pokes d [ ("s.a", [ a ]) ] ] in
          Alcotest.(check bool)
            (Fmt.str "a=%a: %s = firing" Logic.pp a (Sweep.order_name order))
            true
            (r.Sweep.snaps = [ Sim.snapshot sim ]))
        sweep_orders)
    [ Logic.Zero; Logic.One; Logic.Undef ]

(* Sim.reset must not clobber the testbench's poke of RSET: holding the
   design in reset by poking RSET=1 survives a reset pulse. *)
let test_reset_restores_rset_poke () =
  let d =
    compile
      "TYPE t = COMPONENT (IN a: boolean; OUT q: boolean) IS SIGNAL r: REG; \
       BEGIN IF RSET THEN r.in := 0 ELSE r.in := XOR(r.out,a) END; q := \
       r.out END; SIGNAL s: t;"
  in
  List.iter
    (fun engine ->
      let n = Sim.engine_name engine in
      let sim = Sim.create ~engine d in
      Sim.poke_bool sim "s.a" true;
      Sim.poke sim "RSET" [ Logic.One ];
      Sim.step_n sim 2;
      Alcotest.check logic (n ^ ": held in reset") Logic.Zero
        (Sim.peek_bit sim "s.q");
      Sim.reset sim;
      (* the explicit One poke is restored, not overwritten with Zero *)
      Sim.step_n sim 2;
      Alcotest.check logic (n ^ ": still held after reset pulse") Logic.Zero
        (Sim.peek_bit sim "s.q");
      Sim.unpoke sim "RSET";
      Sim.step_n sim 2;
      Alcotest.check logic (n ^ ": toggles once released") Logic.One
        (Sim.peek_bit sim "s.q"))
    Sim.all_engines

(* The incremental engine does zero work on fully quiescent cycles and
   still reports the right values. *)
let test_incremental_quiescent_zero_visits () =
  let d = compile (Corpus.adder_n 16) in
  let sim = Sim.create ~engine:Sim.Incremental d in
  Sim.poke_int_lsb sim "adder.a" 1234;
  Sim.poke_int_lsb sim "adder.b" 4321;
  Sim.poke_bool sim "adder.cin" false;
  Sim.step sim;
  (* cold start: full evaluation *)
  Sim.step sim;
  (* first warm cycle: consumes the stale seed marks *)
  let v = Sim.node_visits sim in
  Sim.step_n sim 5;
  Alcotest.(check int) "quiescent cycles visit no nodes" v
    (Sim.node_visits sim);
  Alcotest.(check (option int)) "sum still right" (Some 5555)
    (Sim.peek_int_lsb sim "adder.s");
  (* a one-bit change wakes only a small cone *)
  Sim.poke_bool sim "adder.cin" true;
  Sim.step sim;
  Alcotest.(check (option int)) "incremental update" (Some 5556)
    (Sim.peek_int_lsb sim "adder.s")

(* The dirty-cone pass runs over preallocated storage: with every
   header of routing(16) re-poked each cycle the incremental engine
   visits thousands of nodes per step, and a visit must allocate
   (next to) nothing.  Busy stretches run through the compiled program,
   whose cycles must not allocate per visit either; the measured window
   alternates busy and one-header phases, so it covers cone cycles,
   program cycles and the switches both ways.  The warm-up ends in
   program mode, so the one-time compile and plane allocation fall
   outside the window.  Only [Sim.step] is measured, not the pokes. *)
let test_incremental_step_allocation () =
  let d = compile (Corpus.routing_network 16) in
  let sim = Sim.create ~engine:Sim.Incremental d in
  let headers =
    Array.init 16 (fun i ->
        match Elaborate.resolve_path d (Printf.sprintf "net.input[%d]" i) with
        | Ok nets -> nets
        | Error msg -> Alcotest.fail msg)
  in
  let poke i c =
    let v = ((7 * i) + (13 * c)) land 1023 in
    Sim.poke_nets sim headers.(i)
      (Cval.sctree_leaves (Cval.bin v (List.length headers.(i))))
  in
  let poke_all c = Array.iteri (fun i _ -> poke i c) headers in
  (* cold start, then busy cycles until the program runs *)
  for c = 0 to 7 do
    poke_all c;
    Sim.step sim
  done;
  Alcotest.(check bool) "warm-up ends in program mode" true
    (Sim.program_cycles sim > 0);
  let words = ref 0.0 and visits = ref 0 in
  let p0 = Sim.program_cycles sim in
  for c = 8 to 67 do
    if (c - 8) / 10 mod 2 = 0 then poke_all c else poke (c land 15) c;
    let v0 = Sim.node_visits sim in
    let w0 = Gc.minor_words () in
    Sim.step sim;
    words := !words +. (Gc.minor_words () -. w0);
    visits := !visits + (Sim.node_visits sim - v0)
  done;
  let program = Sim.program_cycles sim - p0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d program and %d cone cycles measured" program
       (60 - program))
    true
    (program > 0 && program < 60);
  let per_visit = !words /. float_of_int (max 1 !visits) in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f minor words per visit over %d visits" per_visit
       !visits)
    true
    (!visits > 0 && per_visit < 1.0)

(* Busy phases hand the incremental engine's cycles to the compiled
   program on most designs of the dense/sparse/quiet scenario (whose
   counters test/golden/incremental_switch.txt locks), while a run whose
   cone stays small — one data bit of a 256-word RAM toggling, the
   pattern of the sim-sparse benchmark — never leaves the cone pass.
   The other engines report no program cycles.  A committed program
   cycle counts the nodes the program evaluated: on routing(16)'s dense
   phase it adds [visits_per_cycle], as a compiled handle stepping the
   same cycles does. *)
let test_incremental_program_mode () =
  let switched =
    List.filter
      (fun (_, src) ->
        let before = ref 0 in
        let sim =
          Switch_scenario.run
            ~on_restart:(fun sim -> before := Sim.program_cycles sim)
            (compile src)
        in
        !before + Sim.program_cycles sim > 0)
      Switch_scenario.designs
  in
  let n = List.length Switch_scenario.designs in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d designs switch" (List.length switched) n)
    true
    (2 * List.length switched > n && List.mem_assoc "routing16" switched);
  let d = compile (Corpus.ram ~abits:8 ~wbits:16) in
  List.iter
    (fun engine ->
      let sim = Sim.create ~engine d in
      Sim.poke_int sim "m.addr" 251;
      Sim.poke_int sim "m.data" 3765;
      Sim.poke_bool sim "m.we" true;
      let widest = ref 0 in
      for c = 0 to 59 do
        Sim.poke_bool sim "m.data[12]" (c land 1 = 1);
        let v0 = Sim.node_visits sim in
        Sim.step sim;
        (* from cycle 2 on, the written word has settled in q *)
        if c >= 2 then widest := max !widest (Sim.node_visits sim - v0)
      done;
      Alcotest.(check int)
        (Sim.engine_name engine ^ ": sparse run, no program cycles")
        0 (Sim.program_cycles sim);
      (* the cone pass pays for what changed: the one write driver
         whose guard is 1 and the read path of the register it changed,
         not the 256 drivers on either side *)
      if engine = Sim.Incremental then
        Alcotest.(check bool)
          (Printf.sprintf "at most 4 visits per warm cycle, saw %d" !widest)
          true (!widest <= 4))
    Sim.all_engines;
  let d = compile (Corpus.routing_network 16) in
  let inc = Sim.create ~engine:Sim.Incremental d
  and cmp = Sim.create ~engine:Sim.Compiled d in
  let per_cycle =
    match Sim.compiled_program cmp with
    | Some p -> p.Bytecode.visits_per_cycle
    | None -> Alcotest.fail "routing16 compiles"
  in
  let committed = ref 0 in
  for c = 0 to 29 do
    for i = 0 to 15 do
      let path = Printf.sprintf "net.input[%d]" i in
      let v = ((7 * i) + (13 * c)) land 1023 in
      Sim.poke_int inc path v;
      Sim.poke_int cmp path v
    done;
    let p0 = Sim.program_cycles inc in
    let vi = Sim.node_visits inc and vc = Sim.node_visits cmp in
    Sim.step inc;
    Sim.step cmp;
    if Sim.program_cycles inc > p0 then begin
      incr committed;
      Alcotest.(check (pair int int))
        (Printf.sprintf "cycle %d: program and compiled visits" c)
        (per_cycle, per_cycle)
        (Sim.node_visits inc - vi, Sim.node_visits cmp - vc)
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d committed program cycles checked" !committed)
    true (!committed >= 20)

(* The switch is invisible: per cycle, the scenario's incremental run
   gives the snapshot, toggle total and register states of a firing
   run, which never switches — and the same runtime errors, as per-cycle
   sets (the firing engine reports them in firing order), and activity
   ranking before the restart and at the end. *)
let test_switch_invisible () =
  let error (e : Sim.runtime_error) =
    Printf.sprintf "%d %s %s: %s" e.Sim.err_cycle e.Sim.err_code e.Sim.err_net
      e.Sim.err_message
  in
  List.iter
    (fun (name, src) ->
      let d = compile src in
      let observe engine =
        let cycles = Array.make Switch_scenario.cycles ([||], 0, []) in
        let reports = ref [] in
        let report sim =
          let errors =
            List.sort compare (List.map error (Sim.runtime_errors sim))
          in
          reports := (errors, Sim.activity ~top:max_int sim) :: !reports
        in
        let sim =
          Switch_scenario.run ~engine ~on_restart:report
            ~on_cycle:(fun c sim ->
              cycles.(c) <-
                (Sim.snapshot sim, Sim.total_toggles sim, Sim.reg_states sim))
            d
        in
        report sim;
        (cycles, List.rev !reports)
      in
      let firing_cycles, firing_reports = observe Sim.Firing
      and cycles, reports = observe Sim.Incremental in
      Array.iteri
        (fun c expected ->
          Alcotest.(check
                      (triple (array (option logic)) int
                         (list (pair string logic))))
            (Printf.sprintf "%s: cycle %d snapshot, toggles, registers" name c)
            expected cycles.(c))
        firing_cycles;
      Alcotest.(check (list (pair (list string) (list (pair string int)))))
        (name ^ ": errors and activity before the restart and at the end")
        firing_reports reports)
    Switch_scenario.designs

(* Both fast engines trace alike: with the trace held on for the whole
   scenario, an incremental and a compiled handle list the same changed
   nets, in the same (class) order, on every warm cycle — the cycles
   the incremental engine runs through its program included.  (A cold
   cycle, the first of each run, is a firing pass that lists every net
   in firing order.) *)
let test_fast_engines_trace_alike () =
  let program_cycles = ref 0 and compared = ref 0 in
  List.iter
    (fun (name, src) ->
      let d = compile src in
      let observe engine =
        let traces = Array.make Switch_scenario.cycles []
        and in_program = Array.make Switch_scenario.cycles false in
        let before = ref 0 in
        ignore
          (Switch_scenario.run ~engine ~traced:(fun _ -> true)
             ~on_cycle:(fun c sim ->
               traces.(c) <- Sim.trace_last_cycle sim;
               in_program.(c) <- Sim.program_cycles sim > !before;
               before := Sim.program_cycles sim)
             ~on_restart:(fun _ -> before := 0)
             d);
        (traces, in_program)
      in
      let traces, in_program = observe Sim.Incremental
      and compiled, _ = observe Sim.Compiled in
      Array.iteri
        (fun c trace ->
          if c <> 0 && c <> Switch_scenario.restart_at then begin
            incr compared;
            if in_program.(c) then incr program_cycles;
            Alcotest.(check (list (pair string logic)))
              (Printf.sprintf "%s: cycle %d trace" name c)
              compiled.(c) trace
          end)
        traces)
    Switch_scenario.designs;
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d warm cycles compared ran the program"
       !program_cycles !compared)
    true (!program_cycles > 0)

(* A program stretch commits a cycle that changes two or more
   registers: counter(16) under a random enable and an occasional reset
   enters the program, where a carry changes several registers at once,
   and every cycle still matches the firing engine. *)
let test_program_commits_multi_register () =
  let d = compile (Corpus_fsm.counter 16) in
  let inc = Sim.create ~engine:Sim.Incremental d and fir = Sim.create d in
  let rand = Random.State.make [| 1 |] in
  let committed = ref 0 in
  for c = 0 to 199 do
    let en = Random.State.bool rand and rset = Random.State.int rand 8 = 0 in
    List.iter
      (fun sim ->
        Sim.poke_bool sim "c.en" en;
        Sim.poke_bool sim "RSET" rset)
      [ inc; fir ];
    let regs = Sim.reg_states inc and p0 = Sim.program_cycles inc in
    Sim.step inc;
    Sim.step fir;
    let changed =
      List.fold_left2
        (fun n (_, a) (_, b) -> if Logic.equal a b then n else n + 1)
        0 regs (Sim.reg_states inc)
    in
    if Sim.program_cycles inc > p0 && changed >= 2 then incr committed;
    Alcotest.(check
                (triple (array (option logic)) int (list (pair string logic))))
      (Printf.sprintf "cycle %d: snapshot, toggles, registers" c)
      (Sim.snapshot fir, Sim.total_toggles fir, Sim.reg_states fir)
      (Sim.snapshot inc, Sim.total_toggles inc, Sim.reg_states inc)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d committed program cycles changed two or more registers"
       !committed)
    true (!committed > 0)

(* The live-edge walk: a changed class schedules exactly the consumers
   a per-edge guard test would.  The design is ram(128x16) plus a bank
   of inverters, whose toggling makes cycles busy enough to enter the
   program, and a one-edge guarded copy.  The toggled data bit's 128
   write-driver edges start mid-word in the walk's bitset (62 edges a
   word) and span three or more words.  The stimulus moves the address
   every few cycles, toggles [we] and unpokes an address bit, so the
   write guards pass through 0, 1 and UNDEF (the read drivers then
   conflict); it runs a busy stretch that enters and leaves the program
   with the write guards changed inside it, and restarts mid-run.
   Every cycle the incremental handle matches a firing one on snapshot,
   errors and toggles, and every warm cone cycle visits exactly the
   nodes with a changed input, less the drivers whose guard, another
   class, held 0 (section 8). *)
let live_edge_bank = 400

let live_edge_design =
  Printf.sprintf
    {zeus|
TYPE word = ARRAY[1..16] OF boolean;
ram = COMPONENT (IN addr: ARRAY[1..7] OF boolean; IN data: word;
                 IN we: boolean; OUT q: word;
                 IN x: ARRAY[1..%d] OF boolean;
                 OUT y: ARRAY[1..%d] OF boolean;
                 IN e, s: boolean; OUT z: boolean) IS
SIGNAL mem: ARRAY[0..127] OF ARRAY[1..16] OF REG;
BEGIN
  IF we THEN mem[NUM(addr)].in := data END;
  q := mem[NUM(addr)].out;
  FOR i := 1 TO %d DO y[i] := NOT(x[i]) END;
  IF e THEN z := s END
END;
SIGNAL m: ram;
|zeus}
    live_edge_bank live_edge_bank live_edge_bank

let test_live_edge_walk () =
  let d = compile live_edge_design in
  let inc = Sim.create ~engine:Sim.Incremental d and fir = Sim.create d in
  let g = Sim.graph inc in
  let data_bit = 2 in
  let c =
    match Elaborate.resolve_path d (Printf.sprintf "m.data[%d]" data_bit) with
    | Ok [ id ] -> g.Graph.canon.(id)
    | _ -> Alcotest.fail "m.data bit"
  in
  let lo = g.Graph.cons_off.(c) and hi = g.Graph.cons_off.(c + 1) in
  Alcotest.(check bool)
    (Printf.sprintf "edges [%d, %d) start mid-word and span three words" lo hi)
    true
    (hi - lo = 128 && lo mod 62 <> 0 && ((hi - 1) / 62) - (lo / 62) >= 2);
  (* the class values of a snapshot, and the nodes a warm cone cycle
     from [prev] to [cur] must visit *)
  let value snap c = snap.(g.Graph.rep.(c)) in
  let expected_visits prev cur =
    let changed c = value prev c <> value cur c in
    Array.fold_left
      (fun n node ->
        let visited =
          match node with
          | Graph.Ndriver
              { guard = Some (Netlist.Snet gc); source = Netlist.Snet s; _ }
            when gc <> s
                 && value cur gc = Some Logic.Zero
                 && not (changed gc) ->
              false
          | node ->
              List.exists
                (function
                  | Netlist.Snet i -> changed i | Netlist.Sconst _ -> false)
                (Graph.node_inputs node)
        in
        if visited then n + 1 else n)
      0 g.Graph.nodes
  in
  let both f = List.iter f [ inc; fir ] in
  let addresses = [| 100; 5; 127; 64; 0; 70; 33 |] in
  let program = ref 0 and cone = ref 0 in
  let run () =
    let prev = ref [||] in
    for c = 0 to 79 do
      (* the address moves every 3 cycles, [we] drops every 4th *)
      both (fun sim ->
          if c mod 3 = 0 then
            Sim.poke_int sim "m.addr"
              addresses.(c / 3 mod Array.length addresses);
          Sim.poke_bool sim "m.we" (c mod 4 <> 3 || (c >= 24 && c < 40));
          Sim.poke_bool sim
            (Printf.sprintf "m.data[%d]" data_bit)
            (c land 1 = 1);
          (* [s]'s one edge, under [e], a guard of one edge *)
          Sim.poke_bool sim "m.s" (c land 1 = 0);
          Sim.poke_bool sim "m.e" (c mod 10 < 3);
          if c = 0 then Sim.poke_int sim "m.data" 0xbeef;
          (* an UNDEF address bit: two write guards read UNDEF *)
          if c = 10 then Sim.unpoke sim "m.addr[4]";
          (* busy: the whole inverter bank toggles on cycles 21-43, so
             the run enters the program; [we] stays 1 from cycle 24
             while the address moves, so write guards change there *)
          Sim.poke sim "m.x"
            (List.init live_edge_bank (fun _ ->
                 Logic.of_bool (c >= 20 && c < 44 && c land 1 = 1))));
      let p0 = Sim.program_cycles inc and v0 = Sim.node_visits inc in
      both Sim.step;
      let snap = Sim.snapshot inc in
      let errors sim =
        List.map
          (fun (e : Sim.runtime_error) ->
            Printf.sprintf "%d %s %s" e.Sim.err_cycle e.Sim.err_code
              e.Sim.err_net)
          (Sim.runtime_errors sim)
      in
      Alcotest.(check
                  (triple (array (option logic)) (list string) int))
        (Printf.sprintf "cycle %d: snapshot, errors, toggles" c)
        (Sim.snapshot fir, errors fir, Sim.total_toggles fir)
        (snap, errors inc, Sim.total_toggles inc);
      if Sim.program_cycles inc > p0 then incr program
      else if c > 0 then begin
        incr cone;
        Alcotest.(check int)
          (Printf.sprintf "cycle %d: cone visits" c)
          (expected_visits !prev snap)
          (Sim.node_visits inc - v0)
      end;
      prev := snap
    done
  in
  run ();
  both Sim.restart;
  run ();
  Alcotest.(check bool)
    (Printf.sprintf "%d program and %d warm cone cycles, drive conflicts"
       !program !cone)
    true
    (!program > 0 && !cone > 100 && Sim.runtime_errors fir <> [])

(* Snapshots are identical across the three engines and both sweep
   orders on random multi-cycle poke sequences over designs that
   include drive conflicts, registers and aliasing — with UNDEF in the
   stimulus alphabet, and runtime-error sets agreeing too.  Half the
   runs are long enough (12-24 cycles) for the incremental engine to
   switch to its compiled program and back.  Failures print the design
   name and stimulus, and shrink to a minimal poke sequence (fewer
   cycles, shorter vectors, values toward 0). *)
let identity_pool =
  [|
    ("mux", mux_design);
    ("reg", reg_design);
    ("section8", Corpus.section8_example);
    ("adder4", Corpus.adder_n 4);
    ("blackjack", Corpus.blackjack);
  |]

let identity_gen =
  QCheck.Gen.(
    pair
      (int_bound (Array.length identity_pool - 1))
      (frequency
         [
           (1, list_size (1 -- 6) (list_size (0 -- 8) (int_bound 2)));
           (1, list_size (12 -- 24) (list_size (0 -- 8) (int_bound 2)));
         ]))

(* per cycle, the (net, value) pokes a stimulus vector spreads over the
   design's top-level inputs *)
let identity_pokes d stimulus =
  let inputs = Graph.top_input_nets d in
  let lv = function 0 -> Logic.Zero | 1 -> Logic.One | _ -> Logic.Undef in
  List.map
    (fun vec ->
      List.concat
        (List.mapi
           (fun i id ->
             match List.nth_opt vec (i mod max 1 (List.length vec)) with
             | Some v -> [ (id, lv v) ]
             | None -> [])
           inputs))
    stimulus

let identity_run engine d pokes =
  let sim = Sim.create ~engine d in
  let snaps =
    List.map
      (fun cycle_pokes ->
        List.iter (fun (id, v) -> Sim.poke_nets sim [ id ] [ v ]) cycle_pokes;
        Sim.step sim;
        Sim.snapshot sim)
      pokes
  in
  (sim, snaps)

(* every engine and both sweep orders give the same per-cycle snapshots
   and the same runtime errors *)
let identity_holds d pokes =
  let run engine =
    let sim, snaps = identity_run engine d pokes in
    (snaps, sorted_errors (Sim.runtime_errors sim))
  in
  let sweep order =
    let r = Sweep.run ~order d pokes in
    (r.Sweep.snaps, List.sort compare r.Sweep.errors)
  in
  let r0 = run Sim.Firing in
  List.for_all (fun e -> run e = r0) Sim.all_engines
  && List.for_all (fun o -> sweep o = r0) sweep_orders

let prop_snapshot_identity =
  let print (di, stimulus) =
    Printf.sprintf "design %s, stimulus [%s]"
      (fst identity_pool.(di))
      (String.concat "; "
         (List.map
            (fun vec ->
              String.concat ""
                (List.map
                   (function 0 -> "0" | 1 -> "1" | _ -> "U")
                   vec))
            stimulus))
  in
  let shrink =
    QCheck.Shrink.(
      pair nil (list ~shrink:(list ~shrink:int)))
  in
  QCheck.Test.make ~count:40 ~name:"snapshot_identity_all_engines"
    (QCheck.make ~print ~shrink identity_gen)
    (fun (di, stimulus) ->
      let d = compile (snd identity_pool.(di)) in
      identity_holds d (identity_pokes d stimulus))

(* Directed identity cases at the edges of the cone pass's guard rule,
   which skips a driver whose source changed while its guard, another
   class, reads 0: a guard that is its own source; a guard four gates
   above its source that falls 1 -> 0, then rises 0 -> 1, in the cycle
   its source changes; a conflicted source under a 0 guard (the firing
   engine's re-propagation applies the rule too); an UNDEF guard, and a
   multiplex guard reading NOINFL, which must still drive UNDEF. *)
let guard_rule_cases =
  let z = Logic.Zero and o = Logic.One and u = Logic.Undef in
  [
    ( "guard is the source",
      "TYPE t = COMPONENT (IN d: boolean; o: multiplex) IS BEGIN IF d \
       THEN o := d END END; SIGNAL s: t;",
      [ [ ("s.d", o) ]; [ ("s.d", z) ]; [ ("s.d", o) ]; [ ("s.d", u) ];
        [ ("s.d", z) ]; [ ("s.d", o) ] ] );
    ( "guard above its source",
      "TYPE t = COMPONENT (IN a, s, b, c, p, q: boolean; OUT w: boolean; \
       o, y: multiplex) IS SIGNAL g: boolean; x: multiplex; r: \
       REG; BEGIN g := NOT(NOT(NOT(NOT(a)))); IF g THEN o := s END; IF \
       NOT(g) THEN o := NOT(s) END; IF g THEN r.in := s END; w := r.out; \
       IF b THEN x := p END; IF c THEN x := q END; IF g THEN y := x END \
       END; SIGNAL s: t;",
      [
        [ ("s.a", o); ("s.s", z); ("s.b", z); ("s.c", z); ("s.p", o);
          ("s.q", z) ];
        [ ("s.a", z); ("s.s", o) ] (* the guard falls as s changes *);
        [ ("s.s", z) ];
        [ ("s.a", o); ("s.s", o) ] (* the guard rises as s changes *);
        [ ("s.a", z); ("s.b", o); ("s.c", o) ] (* x conflicts under 0 *);
        [ ("s.p", z) ];
        [ ("s.a", o); ("s.q", o) ];
        [ ("s.c", z); ("s.s", z) ];
      ] );
    ( "undefined guard",
      "TYPE t = COMPONENT (IN a, c, s: boolean; o, y: multiplex) IS \
       SIGNAL m: multiplex; BEGIN IF a THEN o := s END; IF c THEN m := a \
       END; IF m THEN y := s END END; SIGNAL s: t;",
      [
        [ ("s.a", z); ("s.c", o); ("s.s", o) ];
        [ ("s.a", u); ("s.s", z) ] (* o and y read UNDEF *);
        [ ("s.s", o) ];
        [ ("s.a", z); ("s.c", z) ] (* m floats: y reads UNDEF *);
        [ ("s.s", z) ];
        [ ("s.a", o); ("s.c", o) ];
      ] );
  ]

let test_guard_rule_identity () =
  List.iter
    (fun (name, src, cycles) ->
      let d = compile src in
      let pokes =
        List.map
          (fun line -> net_pokes d (List.map (fun (p, v) -> (p, [ v ])) line))
          cycles
      in
      Alcotest.(check bool) name true (identity_holds d pokes))
    guard_rule_cases

(* The identity property's generator reaches the incremental engine's
   program mode: of 40 cases drawn with a fixed seed, some run cycles
   through the compiled program. *)
let test_identity_gen_switches () =
  let rand = Random.State.make [| 0 |] in
  let switched =
    List.filter
      (fun (di, stimulus) ->
        let d = compile (snd identity_pool.(di)) in
        let sim, _ = identity_run Sim.Incremental d (identity_pokes d stimulus) in
        Sim.program_cycles sim > 0)
      (QCheck.Gen.generate ~rand ~n:40 identity_gen)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 40 runs switch" (List.length switched))
    true
    (List.length switched > 0)

(* firing does strictly less work than the sweeping baselines (E8) *)
let test_firing_fewer_visits () =
  let d = compile (Corpus.adder_n 32) in
  let sim = Sim.create d in
  Sim.poke_int_lsb sim "adder.a" 123456789;
  Sim.poke_int_lsb sim "adder.b" 987654321;
  Sim.poke_bool sim "adder.cin" false;
  Sim.step sim;
  let f = Sim.node_visits sim in
  let pokes =
    net_pokes d
      [
        ("adder.a", Sim.peek sim "adder.a");
        ("adder.b", Sim.peek sim "adder.b");
        ("adder.cin", [ Logic.Zero ]);
      ]
  in
  let visits order = (Sweep.run ~order d [ pokes ]).Sweep.visits in
  let fx = visits Sweep.Fixpoint and rx = visits Sweep.Relaxation in
  Alcotest.(check bool)
    (Printf.sprintf "firing(%d) < fixpoint(%d)" f fx)
    true (f < fx);
  Alcotest.(check bool)
    (Printf.sprintf "fixpoint(%d) <= relaxation(%d)" fx rx)
    true (fx <= rx)

(* A standing drive conflict, seen by the sweeping reference: the same
   snapshots as Firing and the same Z101 (cycle, net) set — reported
   once per cycle, on the conflicted net only *)
let test_sweep_drive_conflict () =
  let d = compile mux_design in
  let stim =
    [ [ ("s.b", [ Logic.One ]); ("s.c", [ Logic.One ]); ("s.x", [ Logic.One ]);
        ("s.y", [ Logic.Zero ]) ];
      []; [ ("s.c", [ Logic.Zero ]) ]; [ ("s.c", [ Logic.One ]) ] ]
  in
  let sim = Sim.create d in
  let snaps =
    List.map
      (fun pokes ->
        List.iter (fun (p, v) -> Sim.poke sim p v) pokes;
        Sim.step sim;
        Sim.snapshot sim)
      stim
  in
  let firing = sorted_errors (Sim.runtime_errors sim) in
  Alcotest.(check (list (triple int string string)))
    "firing: z101 on m in cycles 0, 1 and 3"
    [ (0, "s.m", "Z101"); (1, "s.m", "Z101"); (3, "s.m", "Z101") ]
    firing;
  List.iter
    (fun order ->
      let r = Sweep.run ~order d (List.map (net_pokes d) stim) in
      let name = Sweep.order_name order in
      Alcotest.(check bool) (name ^ ": snapshots = firing") true
        (r.Sweep.snaps = snaps);
      Alcotest.(check (list (triple int string string)))
        (name ^ ": z101 set = firing") firing
        (List.sort compare r.Sweep.errors))
    sweep_orders

(* Restart + re-entry on one warm incremental handle: [Sim.restart]
   returns the simulator to power-up, so two consecutive runs on the
   same handle must give identical cycle-for-cycle traces — residual
   dirty-set, conflict-list or epoch state from run 1 must not leak into
   run 2 — and both must match a fresh firing handle.  A mid-run
   [Sim.reset] (RSET pulse) before the restart makes the residual state
   as dirty as it gets. *)
let test_incremental_restart_reentry () =
  let d = compile Corpus.section8_example in
  let pokes =
    [ [ ("top.a", true); ("top.b", true); ("top.x", true); ("top.y", false) ];
      [ ("top.cc", true) ];
      [ ("top.a", false) ];
      [ ("top.rin", true) ];
      [] ]
  in
  let run_once sim =
    let snaps =
      List.map
        (fun vec ->
          List.iter (fun (p, v) -> Sim.poke_bool sim p v) vec;
          Sim.step sim;
          Sim.snapshot sim)
        pokes
    in
    Sim.reset sim;
    (* leave conflict / dirty machinery mid-flight before re-entry *)
    (snaps, List.length (Sim.runtime_errors sim))
  in
  let isim = Sim.create ~engine:Sim.Incremental d in
  let first = run_once isim in
  Sim.restart isim;
  let second = run_once isim in
  Alcotest.(check bool) "restart + re-entry: identical traces" true
    (first = second);
  let fsim = Sim.create ~engine:Sim.Firing d in
  Alcotest.(check bool) "matches a fresh firing run" true
    (run_once fsim = first)

(* ---- parallelism ---- *)

(* The RANDOM stream is a pure function of (seed, net, cycle): the
   same seed gives the same stream on every engine and in every lane of
   a batch sharded over any domain count, and different seeds
   diverge. *)
let test_parallel_random_stream () =
  let d =
    compile
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS BEGIN y := \
       AND(a,RANDOM()) END; SIGNAL s: t;"
  in
  let run ~engine ~seed =
    let sim = Sim.create ~engine ~seed d in
    Sim.poke_bool sim "s.a" true;
    List.init 24 (fun _ ->
        Sim.step sim;
        Sim.snapshot sim)
  in
  let reference = run ~engine:Sim.Firing ~seed:7 in
  List.iter
    (fun engine ->
      Alcotest.(check bool)
        (Sim.engine_name engine ^ ": same RANDOM stream")
        true
        (run ~engine ~seed:7 = reference))
    Sim.all_engines;
  let runs =
    List.init 4 (fun _ ->
        { Sim.br_stim = [| [ ("s.a", [ Logic.One ]) ] |]; br_cycles = 24;
          br_seed = None; br_watch = [] })
  in
  List.iter
    (fun jobs ->
      let tmpl = Sim.create ~engine:Sim.Compiled ~seed:7 d in
      let results, _ = run_batch ~jobs ~snapshots:true tmpl runs in
      List.iter
        (fun (res : Sim.batch_result) ->
          Alcotest.(check bool)
            (Printf.sprintf "batch jobs=%d: same RANDOM stream" jobs)
            true
            (res.Sim.bres_snaps = reference))
        results)
    [ 1; 2; 4 ];
  Alcotest.(check bool) "different seeds diverge" true
    (run ~engine:Sim.Incremental ~seed:8 <> reference)

(* ---- the compiled engine ---- *)

(* Restart + re-entry on one compiled handle: [Sim.restart] must return
   the store's registers and pokes to power-up, so two
   consecutive runs give identical cycle-for-cycle traces — and both
   match a fresh incremental handle. *)
let test_compiled_restart_reentry () =
  let d = compile Corpus.section8_example in
  let pokes =
    [ [ ("top.a", true); ("top.b", true); ("top.x", true); ("top.y", false) ];
      [ ("top.cc", true) ];
      [ ("top.a", false) ];
      [ ("top.rin", true) ];
      [] ]
  in
  let run_once sim =
    let snaps =
      List.map
        (fun vec ->
          List.iter (fun (p, v) -> Sim.poke_bool sim p v) vec;
          Sim.step sim;
          Sim.snapshot sim)
        pokes
    in
    Sim.reset sim;
    (snaps, List.length (Sim.runtime_errors sim))
  in
  let csim = Sim.create ~engine:Sim.Compiled d in
  let first = run_once csim in
  Sim.restart csim;
  let second = run_once csim in
  Alcotest.(check bool) "restart + re-entry: identical traces" true
    (first = second);
  let isim = Sim.create ~engine:Sim.Incremental d in
  Alcotest.(check bool) "matches a fresh incremental run" true
    (run_once isim = first)

(* A single run is a one-run group of the bit-sliced store, whose bits
   1..62 carry noise: every op computes them, and [lnot] sets them.
   Here the register [t] (REG(0)) toggles in every bit while the poked
   inputs read UNDEF above bit 0, so the NAND/NOT chains flip their
   upper bits on cycles where run 0's bit holds still.  Any one-run read
   that looked past bit 0 — the change sweep (toggles, activity, trace),
   a peek or snapshot, the register read after the latch, the planes a
   hand-over primes and reads back — would show here against the firing
   engine: compiled handles with the trace on throughout and for three
   cycles, and an incremental one whose busy stretches switch into the
   program, trace three cycles there, leave it in an idle stretch (only
   [t] toggles), enter again and restart. *)
let noisy_design =
  {zeus|
TYPE noisy = COMPONENT (IN a: ARRAY[1..8] OF boolean;
                        OUT q: ARRAY[1..8] OF boolean) IS
SIGNAL t: REG(0);
       n1, n2, n3: ARRAY[1..8] OF boolean;
BEGIN
  t.in := NOT(t.out);
  FOR i := 1 TO 8 DO n1[i] := NAND(a[i], t.out) END;
  FOR i := 1 TO 8 DO n2[i] := NOT(n1[i]) END;
  FOR i := 1 TO 8 DO n3[i] := NAND(n2[i], t.out, a[9-i]) END;
  q := n3
END;

SIGNAL s: noisy;
|zeus}

let test_one_run_reads_run_0 () =
  let d = compile noisy_design in
  let cycles = 60 and restart_at = 40 in
  (* per cycle: 0..7 of the inputs poked, the trace on or off *)
  let idle c = c >= 22 && c < 30 in
  let pokes c =
    if idle c then
      (* every input low: only [t] toggles, and the program hands back *)
      List.init 8 (fun i -> (Printf.sprintf "s.a[%d]" (i + 1), false))
    else if c mod 20 >= 14 then [] (* quiet *)
    else
      List.init 8 (fun i ->
          (Printf.sprintf "s.a[%d]" (i + 1), ((c * 5) + (i * 3)) mod 7 < 3))
  in
  let traced c = c >= 18 && c < 21 in
  (* the trace's changed nets, sorted: the firing engine lists every
     net it fired, so its changes are read against the previous cycle *)
  let changed last trace =
    let now = List.sort_uniq compare trace in
    let fresh =
      List.filter (fun (n, v) -> Hashtbl.find_opt last n <> Some v) now
    in
    List.iter (fun (n, v) -> Hashtbl.replace last n v) now;
    fresh
  in
  let observe engine ~trace_all =
    let sim = Sim.create ~engine d in
    let last = Hashtbl.create 64 in
    let rows =
      List.init cycles (fun c ->
          if c = restart_at then begin
            Sim.restart sim;
            Hashtbl.reset last
          end;
          Sim.set_trace sim (trace_all || traced c);
          List.iter (fun (p, v) -> Sim.poke_bool sim p v) (pokes c);
          Sim.step sim;
          let trace =
            if not (trace_all || traced c) then []
            else if engine = Sim.Firing then
              changed last (Sim.trace_last_cycle sim)
            else List.sort compare (Sim.trace_last_cycle sim)
          in
          let row =
            ( (Sim.snapshot sim, Sim.peek sim "s.q"),
              Sim.total_toggles sim,
              Sim.reg_states sim,
              Sim.activity ~top:max_int sim,
              trace )
          in
          (row, Sim.program_cycles sim))
    in
    (List.map fst rows, Array.of_list (List.map snd rows))
  in
  let reference, _ = observe Sim.Firing ~trace_all:true in
  let check name ~trace_all (rows, _) =
    List.iteri
      (fun c ((snap, toggles, regs, act, trace), (snap', toggles', regs', act', trace')) ->
        let what = Printf.sprintf "%s, cycle %d: " name c in
        Alcotest.(check (pair (array (option logic)) (list logic)))
          (what ^ "snapshot and peek") snap snap';
        Alcotest.(check int) (what ^ "toggles") toggles toggles';
        Alcotest.(check (list (pair string logic))) (what ^ "registers") regs regs';
        Alcotest.(check (list (pair string int))) (what ^ "activity") act act';
        if trace_all || traced c then
          Alcotest.(check (list (pair string logic))) (what ^ "trace") trace
            trace')
      (List.combine reference rows)
  in
  check "compiled" ~trace_all:true (observe Sim.Compiled ~trace_all:true);
  check "compiled, traced cycles 18-20" ~trace_all:false
    (observe Sim.Compiled ~trace_all:false);
  let ((_, program) as inc) = observe Sim.Incremental ~trace_all:false in
  check "incremental" ~trace_all:false inc;
  (* program cycles before the trace and on its three cycles, none late
     in the idle stretch, more between it and the restart (which zeroes
     the count), and after the restart *)
  Alcotest.(check (list bool))
    "the program ran in all four stretches and left in the idle one"
    [ true; true; true; true; true ]
    [ program.(17) > 0; program.(20) = program.(17) + 3;
      program.(29) = program.(27); program.(restart_at - 1) > program.(29);
      program.(cycles - 1) > 0 ]

(* Program-shape stats: only the compiled engine reports them, every
   counter except the compile time is a pure function of the design,
   and the opcode counts are consistent. *)
let test_compiled_stats_deterministic () =
  let d = compile (Corpus.adder_n 16) in
  let shape () =
    match Sim.compiled_program (Sim.create ~engine:Sim.Compiled d) with
    | None -> Alcotest.fail "compiled engine must report stats"
    | Some p ->
        (Array.length p.Bytecode.ops, p.Bytecode.scalar_ops,
         p.Bytecode.vector_ops, p.Bytecode.vector_lanes,
         p.Bytecode.visits_per_cycle)
  in
  let ((ops, scalar, vector, lanes, visits) as a) = shape () in
  Alcotest.(check bool) "stats are deterministic" true (a = shape ());
  Alcotest.(check bool) "program is non-empty" true (ops > 0);
  Alcotest.(check int) "scalar + vector = ops" ops (scalar + vector);
  Alcotest.(check bool) "wide input seeds vectorized" true (lanes > 0);
  Alcotest.(check bool) "program encodes every node" true (visits > 0);
  let other = Sim.create ~engine:Sim.Incremental d in
  Alcotest.(check bool) "other engines report no compiled stats" true
    (Option.is_none (Sim.compiled_program other))

(* ---- VCD output ---- *)

let test_vcd' () =
  let d = compile (Corpus.adder_n 4) in
  let sim = Sim.create d in
  let vcd = Vcd.create sim [ "adder.a"; "adder.s"; "adder.cout" ] in
  Sim.poke_int_lsb sim "adder.a" 5;
  Sim.poke_int_lsb sim "adder.b" 3;
  Sim.poke_bool sim "adder.cin" false;
  Sim.step sim;
  Vcd.sample vcd;
  let out = Vcd.contents vcd in
  let contains needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "enddefinitions" true (contains "$enddefinitions");
  Alcotest.(check bool) "var adder_a" true (contains "adder_a");
  Alcotest.(check bool) "timestamp" true (contains "#1")

(* Identifier codes across the 94-ary rollover: every code printable,
   all distinct (a collision would silently merge two signals in any
   viewer), and the boundary values spelled as expected. *)
let test_vcd_id_codes () =
  Alcotest.(check string) "93 is the last single char" "~" (Vcd.id_code 93);
  Alcotest.(check string) "94 rolls over" "!!" (Vcd.id_code 94);
  Alcotest.(check string) "95" "!\"" (Vcd.id_code 95);
  Alcotest.(check int) "94^2 is two chars" 2
    (String.length (Vcd.id_code ((94 * 94) - 1)));
  Alcotest.(check int) "94^2 + 94 is three chars" 3
    (String.length (Vcd.id_code ((94 * 94) + 94)));
  let n = (94 * 94) + 200 in
  let seen = Hashtbl.create n in
  for i = 0 to n - 1 do
    let code = Vcd.id_code i in
    Alcotest.(check bool)
      (Printf.sprintf "code %d (%s) is fresh" i code)
      false (Hashtbl.mem seen code);
    Hashtbl.replace seen code ();
    String.iter
      (fun c ->
        if c < '!' || c > '~' then
          Alcotest.failf "code %d contains unprintable %C" i c)
      code
  done

(* Scalar VCD characters round-trip through the standard alphabet for
   all four values, in either case. *)
let prop_vcd_char_roundtrip =
  QCheck.Test.make ~count:100 ~name:"vcd_char_roundtrip"
    QCheck.(int_bound 3)
    (fun i ->
      let v =
        match i with
        | 0 -> Logic.Zero
        | 1 -> Logic.One
        | 2 -> Logic.Undef
        | _ -> Logic.Noinfl
      in
      let c = Vcd.vcd_char v in
      Vcd.logic_of_vcd_char c = Some v
      && Vcd.logic_of_vcd_char (Char.uppercase_ascii c) = Some v)

(* A quiescent cycle emits nothing — not even the [#cycle] timestamp,
   which is buffered until the first change record. *)
let test_vcd_quiescent_no_timestamp () =
  let d = compile (Corpus.adder_n 4) in
  let sim = Sim.create d in
  let vcd = Vcd.create sim [ "adder.s" ] in
  Sim.poke_int_lsb sim "adder.a" 5;
  Sim.poke_int_lsb sim "adder.b" 3;
  Sim.poke_bool sim "adder.cin" false;
  for _ = 1 to 4 do
    Sim.step sim;
    Vcd.sample vcd
  done;
  let out = Vcd.contents vcd in
  let stamps =
    String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 out
  in
  Alcotest.(check int) "only the first (changing) cycle is stamped" 1 stamps

(* [to_file] writes exactly [contents] and closes the channel. *)
let test_vcd_to_file () =
  let d = compile (Corpus.adder_n 4) in
  let sim = Sim.create d in
  let vcd = Vcd.create sim [ "adder.s" ] in
  Sim.poke_int_lsb sim "adder.a" 1;
  Sim.poke_int_lsb sim "adder.b" 2;
  Sim.poke_bool sim "adder.cin" false;
  Sim.step sim;
  Vcd.sample vcd;
  let path = Filename.temp_file "zeus_vcd" ".vcd" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Vcd.to_file vcd path;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in ic;
      Alcotest.(check string) "file holds the dump" (Vcd.contents vcd) data)

(* A write that fails only when the buffered channel is flushed (here a
   device that is always full) reaches the caller. *)
let test_vcd_to_file_full () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let d = compile (Corpus.adder_n 4) in
  let vcd = Vcd.create (Sim.create d) [ "adder.s" ] in
  match Vcd.to_file vcd "/dev/full" with
  | () -> Alcotest.fail "to_file to a full device returned normally"
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Batch lane extraction at the 32-class word boundary                  *)
(* ------------------------------------------------------------------ *)

(* The batch store gives each class its own words, run r in bit r, and
   a single compiled run is the group of one.  Extraction must not bleed
   between runs or between neighbouring classes, so these designs put
   the highest class index just below, exactly at, and just above 32,
   where a store packing 32 classes per word would split: [pairs]
   passthrough in/out pairs plus an optional dangling input give
   2*pairs(+1) net classes. *)
let lane_src ~pairs ~extra =
  Printf.sprintf
    "TYPE t = COMPONENT (IN x: ARRAY[1..%d] OF boolean%s; OUT z: \
     ARRAY[1..%d] OF boolean) IS BEGIN FOR i := 1 TO %d DO z[i] := x[i] END \
     END;\nSIGNAL s: t;"
    pairs
    (if extra then "; IN y: boolean" else "")
    pairs pairs

let test_batch_lane_boundary () =
  List.iter
    (fun (pairs, extra, nets) ->
      let d = compile (lane_src ~pairs ~extra) in
      let probe = Sim.create d in
      Alcotest.(check int)
        (Printf.sprintf "net classes (pairs=%d, extra=%b)" pairs extra)
        nets
        (Array.length (Sim.snapshot probe));
      (* one distinct three-valued pattern per lane, so a bit leaking
         into a neighbouring lane or word changes some snapshot *)
      let pattern r =
        List.init pairs (fun i ->
            match (i + r) mod 3 with
            | 0 -> Logic.One
            | 1 -> Logic.Zero
            | _ -> Logic.Undef)
      in
      let mk r =
        {
          Sim.br_stim = [| [ ("s.x", pattern r) ] |];
          br_cycles = 2;
          br_seed = None;
          br_watch = [ "s.z" ];
        }
      in
      let runs = List.init 8 mk in
      let tmpl = Sim.create ~engine:Sim.Compiled ~jobs:1 d in
      let results, stats =
        run_batch ~jobs:1 ~lanes:8 ~snapshots:true tmpl runs
      in
      Alcotest.(check int) "one lane group" 1 stats.Sim.bs_lane_groups;
      Alcotest.(check int) "all runs lane-packed" 8 stats.Sim.bs_lane_runs;
      List.iteri
        (fun r (res : Sim.batch_result) ->
          (* the passthrough output reads back each lane's own poke *)
          (match res.Sim.bres_watched with
          | [ ("s.z", bits) ] ->
              if bits <> pattern r then
                Alcotest.failf
                  "lane %d (pairs=%d): output does not match its own poke" r
                  pairs
          | _ -> Alcotest.fail "expected exactly the watched bus");
          (* and the final snapshot matches a fresh serial handle *)
          let sim = Sim.create ~engine:Sim.Incremental d in
          Sim.poke sim "s.x" (pattern r);
          Sim.step sim;
          Sim.step sim;
          let final =
            match List.rev res.Sim.bres_snaps with
            | last :: _ -> last
            | [] -> Alcotest.failf "lane %d: no snapshots" r
          in
          if final <> Sim.snapshot sim then
            Alcotest.failf "lane %d (pairs=%d): snapshot differs from serial"
              r pairs)
        results)
    [ (14, true, 31); (15, false, 32); (15, true, 33) ]

let () =
  Alcotest.run "sim"
    [
      ( "gates",
        [
          Alcotest.test_case "truth tables" `Quick test_gate_sim;
          Alcotest.test_case "undef inputs" `Quick test_unpoked_inputs_undef;
        ] );
      ( "registers",
        [
          Alcotest.test_case "delay" `Quick test_reg_delay;
          Alcotest.test_case "hold" `Quick test_reg_holds_value;
          Alcotest.test_case "same-cycle r/w" `Quick
            test_reg_same_cycle_read_write;
        ] );
      ( "multiplex",
        [
          Alcotest.test_case "single drive" `Quick test_mux_single_drive;
          Alcotest.test_case "no drive" `Quick test_mux_no_drive_noinfl;
          Alcotest.test_case "conflict" `Quick test_mux_conflict_detected;
          Alcotest.test_case "undef guard" `Quick test_mux_undef_guard;
          Alcotest.test_case "if/else exclusive" `Quick test_if_else_exclusive;
          Alcotest.test_case "elsif chain" `Quick test_elsif_chain;
          Alcotest.test_case "amplifier" `Quick
            test_noinfl_reads_undef_on_boolean;
        ] );
      ( "random",
        [ Alcotest.test_case "deterministic" `Quick test_random_deterministic ]
      );
      ( "trace",
        [
          Alcotest.test_case "section 8 example" `Quick test_trace_section8;
          Alcotest.test_case "conflict case" `Quick
            test_section8_conflict_case;
        ] );
      ( "engines",
        [
          Alcotest.test_case "adder" `Quick test_engines_agree_adder;
          Alcotest.test_case "blackjack" `Quick test_engines_agree_blackjack;
          Alcotest.test_case "whole corpus" `Quick test_engines_agree_corpus;
          QCheck_alcotest.to_alcotest prop_engines_agree_random_inputs;
          QCheck_alcotest.to_alcotest prop_snapshot_identity;
          Alcotest.test_case "identity runs reach program mode" `Quick
            test_identity_gen_switches;
          Alcotest.test_case "identity at the guard rule's edges" `Quick
            test_guard_rule_identity;
          Alcotest.test_case "work comparison" `Quick test_firing_fewer_visits;
          Alcotest.test_case "sweep: standing drive conflict" `Quick
            test_sweep_drive_conflict;
        ] );
      ( "conflict-repropagation",
        [
          Alcotest.test_case "downstream re-fire" `Quick
            test_conflict_repropagates_downstream;
          Alcotest.test_case "reported each cycle" `Quick
            test_conflict_reported_each_cycle;
        ] );
      ( "scheduling-fixes",
        [
          Alcotest.test_case "sweep: combinational cycle" `Quick
            test_sweep_combinational_cycle;
          Alcotest.test_case "reset restores RSET poke" `Quick
            test_reset_restores_rset_poke;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "quiescent cycles are free" `Quick
            test_incremental_quiescent_zero_visits;
          Alcotest.test_case "restart + re-entry on one handle" `Quick
            test_incremental_restart_reentry;
          Alcotest.test_case "step allocates nothing per visit" `Quick
            test_incremental_step_allocation;
          Alcotest.test_case "busy phases run the program" `Quick
            test_incremental_program_mode;
          Alcotest.test_case "the switch is invisible" `Quick
            test_switch_invisible;
          Alcotest.test_case "fast engines trace alike" `Quick
            test_fast_engines_trace_alike;
          Alcotest.test_case "program commits multi-register cycles" `Quick
            test_program_commits_multi_register;
          Alcotest.test_case "live-edge walk" `Quick test_live_edge_walk;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "random stream engine/jobs invariant" `Quick
            test_parallel_random_stream;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "restart + re-entry on one handle" `Quick
            test_compiled_restart_reentry;
          Alcotest.test_case "a single run reads run 0 only" `Quick
            test_one_run_reads_run_0;
          Alcotest.test_case "deterministic program stats" `Quick
            test_compiled_stats_deterministic;
        ] );
      ( "batch",
        [
          Alcotest.test_case "lane extraction at 31/32/33 nets" `Quick
            test_batch_lane_boundary;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "format" `Quick test_vcd';
          Alcotest.test_case "id codes at the 94-ary rollover" `Quick
            test_vcd_id_codes;
          QCheck_alcotest.to_alcotest prop_vcd_char_roundtrip;
          Alcotest.test_case "quiescent cycles unstamped" `Quick
            test_vcd_quiescent_no_timestamp;
          Alcotest.test_case "to_file writes the dump" `Quick
            test_vcd_to_file;
          Alcotest.test_case "to_file reports a failed write" `Quick
            test_vcd_to_file_full;
        ] );
    ]
