(* The proof-carrying reduction and the abstract interpretation behind
   it: constant folding, dead-logic elimination and wire merging must
   preserve observable behaviour exactly — checked by directed cases
   and by differential simulation on the corpus. *)

open Zeus

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

(* ---- directed reductions ---- *)

let net_id design name =
  let nl = design.Elaborate.netlist in
  let found = ref None in
  Array.iter
    (fun (n : Netlist.net) ->
      if n.Netlist.name = name then found := Some n.Netlist.id)
    (Netlist.nets_array nl);
  match !found with
  | Some i -> i
  | None -> Alcotest.failf "net %s not in the netlist" name

(* drive s.x with [v] for one cycle and read s.y; the reduced design
   shares nets with [d], so [d]'s ports drive both *)
let same_xy d r =
  let x = Testbench.port d "s.x" and y = Testbench.port d "s.y" in
  let run_xy design v =
    let sim = Sim.create design in
    Sim.set_int sim x v;
    Sim.step sim;
    Sim.get sim y
  in
  List.iter
    (fun v ->
      Alcotest.(check string) "same output"
        (String.concat "" (List.map Logic.to_string (run_xy d v)))
        (String.concat "" (List.map Logic.to_string (run_xy r.Reduce.design v))))
    [ 1; 0 ]

let test_constant_folding () =
  (* y := AND(x, OR(1, x)) — the OR is constant 1, so AND(x,1) = buffer;
     the OR gate must fold away *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL one: \
       boolean; BEGIN one := 1; y := AND(x,OR(one,x)) END;\nSIGNAL s: t;"
  in
  let r = Reduce.run d in
  Alcotest.(check bool) "gates reduced" true
    (r.Reduce.stats.Reduce.gates_after < r.Reduce.stats.Reduce.gates_before);
  Alcotest.(check bool) "constants folded" true
    (r.Reduce.stats.Reduce.consts_folded > 0);
  same_xy d r

let test_dead_removal () =
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL u: \
       boolean; BEGIN u := NOT x; * := u; y := x END;\nSIGNAL s: t;"
  in
  let r = Reduce.run d in
  Alcotest.(check bool) "dead NOT removed" true
    (r.Reduce.stats.Reduce.gates_after < r.Reduce.stats.Reduce.gates_before)

let test_guard_folding () =
  (* IF 1 THEN m := x END : the guard folds to an unconditional drive *)
  let d =
    compile
      "CONST on = 1;\n\
       TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL g: \
       boolean; m: multiplex; BEGIN g := on; IF g THEN m := x END; y := m \
       END;\nSIGNAL s: t;"
  in
  let r = Reduce.run d in
  let guarded =
    List.exists
      (fun (dr : Netlist.driver) -> dr.Netlist.guard <> None)
      (Netlist.drivers r.Reduce.design.Elaborate.netlist)
  in
  Alcotest.(check bool) "guard folded away" false guarded;
  let sim = Sim.create r.Reduce.design in
  Sim.set_int sim (Testbench.port d "s.x") 1;
  Sim.step sim;
  Alcotest.(check (option int)) "folded guard still drives" (Some 1)
    (Sim.get_int sim (Testbench.port d "s.y"))

(* ---- equivalence on the corpus ---- *)

let outputs_of design =
  (* OUT/INOUT pins of root instances *)
  let nl = design.Elaborate.netlist in
  List.concat_map
    (fun (i : Netlist.instance) ->
      if String.contains i.Netlist.ipath '.' then []
      else
        List.concat_map
          (fun (_, mode, nets) ->
            match mode with
            | Etype.Out | Etype.Inout -> nets
            | Etype.In -> [])
          i.Netlist.iports)
    (Netlist.instances nl)

let inputs_of design =
  let nl = design.Elaborate.netlist in
  List.concat_map
    (fun (i : Netlist.instance) ->
      if String.contains i.Netlist.ipath '.' then []
      else
        List.concat_map
          (fun (_, mode, nets) ->
            match mode with
            | Etype.In -> nets
            | Etype.Out | Etype.Inout -> [])
          i.Netlist.iports)
    (Netlist.instances nl)

(* register inputs are observability roots, so the reduction keeps
   every register's input cone: register contents must agree too *)
let equivalent ?(cycles = 4) design =
  let opt = (Reduce.run design).Reduce.design in
  let ins = inputs_of design and outs = outputs_of design in
  let rng = Random.State.make [| 1234 |] in
  let ok = ref true in
  for _trial = 1 to 5 do
    let s1 = Sim.create design and s2 = Sim.create opt in
    Sim.reset s1;
    Sim.reset s2;
    for _c = 1 to cycles do
      let vec =
        List.map
          (fun _ -> if Random.State.bool rng then Logic.One else Logic.Zero)
          ins
      in
      Sim.poke_nets s1 ins vec;
      Sim.poke_nets s2 ins vec;
      Sim.step s1;
      Sim.step s2;
      if Sim.peek_nets s1 outs <> Sim.peek_nets s2 outs then ok := false
    done;
    if Sim.reg_states s1 <> Sim.reg_states s2 then ok := false
  done;
  !ok

let test_equivalence_corpus () =
  List.iter
    (fun (name, src) ->
      let d = compile src in
      Alcotest.(check bool)
        (name ^ " reduced design equivalent")
        true (equivalent d))
    [
      ("adder4", Corpus.adder4);
      ("blackjack", Corpus.blackjack);
      ("patternmatch3", Corpus.patternmatch 3);
      ("am2901", Corpus.am2901);
      ("counter8", Corpus_fsm.counter 8);
      ("lfsr4", Corpus_fsm.lfsr4);
    ]

let test_reduction_on_blackjack () =
  (* blackjack contains dead logic (the unused plus/minus carry-out) and
     constant BIN operands, so the reduction must strictly shrink it *)
  let d = compile Corpus.blackjack in
  let r = Reduce.run d in
  Alcotest.(check bool)
    (Fmt.str "shrinks (%a)" Reduce.pp_stats r.Reduce.stats)
    true
    (r.Reduce.stats.Reduce.gates_after < r.Reduce.stats.Reduce.gates_before)

(* ---- constants proved by the abstract interpretation ---- *)

let classify design name =
  let ai = Absint.analyze (Graph.build design) in
  Absint.classification_to_string
    (Absint.classification_of_net ai (net_id design name))

let test_noinfl_only_net () =
  (* a multiplex whose single producer sits behind a statically-false
     guard carries NOINFL (no influence) — not UNDEF, and not unknown *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL g: \
       boolean; m: multiplex; BEGIN g := 0; IF g THEN m := x END; y := \
       OR(m, x) END;\nSIGNAL s: t;"
  in
  Alcotest.(check string) "m is NOINFL" "stuck-Z" (classify d "s.m")

let test_register_feedback_constant () =
  (* r.in is the constant 1, but a register output is sequential state
     (it powers up UNDEF): the constant must not propagate through the
     register to r.out or anything fed from it *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL u: \
       boolean; r: REG; BEGIN r.in := 1; u := r.out; y := AND(x, u) \
       END;\nSIGNAL s: t;"
  in
  Alcotest.(check string) "r.in constant" "const-1" (classify d "s.r.in");
  Alcotest.(check string) "r.out not constant" "varying"
    (classify d "s.r.out");
  Alcotest.(check string) "copy of r.out not constant" "varying"
    (classify d "s.u")

let test_alias_class_constants () =
  (* '==' merges alias classes: a constant learned on one name is known
     through every alias of the class *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL a, b: \
       multiplex; BEGIN a == b; a := 1; y := AND(x, b) END;\nSIGNAL s: t;"
  in
  Alcotest.(check string) "alias of a constant is constant" "const-1"
    (classify d "s.b");
  (* two always-firing constant drivers landing on one merged class:
     even agreeing values are a drive conflict (UNDEF, as the runtime
     check forces), and the reduction keeps both producers so the
     runtime check still fires *)
  let d2 =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL g: \
       boolean; a, b: multiplex; BEGIN g := 1; a == b; IF g THEN a := 1 \
       END; IF g THEN b := 1 END; y := AND(x, a) END;\nSIGNAL s: t;"
  in
  Alcotest.(check string) "two agreeing constants conflict" "stuck-X"
    (classify d2 "s.a");
  let r = Reduce.run d2 in
  let nl = r.Reduce.design.Elaborate.netlist in
  let ac = Netlist.canonical nl (net_id d2 "s.a") in
  Alcotest.(check int) "both producers kept" 2
    (List.length
       (List.filter
          (fun (dr : Netlist.driver) ->
            Netlist.canonical nl dr.Netlist.target = ac)
          (Netlist.drivers nl)))

(* ---- abstract interpretation (Absint) + reduction (Reduce) ---- *)

let test_absint_conflict_stuckx () =
  (* two always-firing drivers disagreeing on one net: the runtime
     drive resolution yields UNDEF every cycle, and the abstract
     resolution must prove it *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL g: \
       boolean; m: multiplex; BEGIN g := 1; IF g THEN m := 1 END; IF g THEN \
       m := 0 END; y := OR(m, x) END;\nSIGNAL s: t;"
  in
  Alcotest.(check string) "conflict is stuck-X" "stuck-X" (classify d "s.m")

let test_absint_kind_defaults () =
  (* a class whose every producer provably never fires reads the
     engine's kind default: NOINFL on a multiplex, but a boolean copy
     of it reads UNDEF — the copy translates the default *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL g, b: \
       boolean; m: multiplex; BEGIN g := 0; IF g THEN m := x END; b := m; y \
       := OR(b, x) END;\nSIGNAL s: t;"
  in
  Alcotest.(check string) "dead multiplex is stuck-Z" "stuck-Z"
    (classify d "s.m");
  Alcotest.(check string) "boolean copy of it is stuck-X" "stuck-X"
    (classify d "s.b")

let test_absint_register_widening () =
  (* a register fed the constant 1 still powers up UNDEF: widening
     joins the power-up value, so the output class stays varying *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL r: REG; \
       BEGIN r.in := 1; y := AND(x, r.out) END;\nSIGNAL s: t;"
  in
  Alcotest.(check string) "r.in constant" "const-1" (classify d "s.r.in");
  Alcotest.(check string) "r.out varying" "varying" (classify d "s.r.out")

let test_reduce_copy_merge () =
  (* an unguarded single-producer copy is a wire: the classes merge,
     the driver disappears, and behaviour is unchanged *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL u: \
       boolean; BEGIN u := x; y := NOT u END;\nSIGNAL s: t;"
  in
  let r = Reduce.run d in
  Alcotest.(check bool) "copies merged" true (r.Reduce.stats.Reduce.copies_merged > 0);
  Alcotest.(check bool) "nets eliminated" true
    (r.Reduce.stats.Reduce.nets_eliminated > 0);
  same_xy d r

let test_reduce_no_cross_kind_merge () =
  (* a boolean fed from a multiplex reads UNDEF where the multiplex
     reads NOINFL when nothing fires — the copy translates between the
     defaults, so it must NOT merge *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL m: \
       multiplex; BEGIN IF x THEN m := 1 END; y := m END;\nSIGNAL s: t;"
  in
  let r = Reduce.run d in
  Alcotest.(check int) "no cross-kind merge" 0
    r.Reduce.stats.Reduce.copies_merged;
  same_xy d r

let test_reduce_guard0_keeps_producer () =
  (* two never-firing drivers: dropping both would leave the class
     producer-less, flipping a boolean read from its one-NOINFL-firing
     behaviour — the reduction must keep at least one *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL g: \
       boolean; m: multiplex; BEGIN g := 0; IF g THEN m := 0 END; IF g THEN \
       m := x END; y := OR(m, x) END;\nSIGNAL s: t;"
  in
  let r = Reduce.run d in
  let nl = r.Reduce.design.Elaborate.netlist in
  let mc = Netlist.canonical nl (net_id r.Reduce.design "s.m") in
  let producers =
    List.length
      (List.filter
         (fun (dr : Netlist.driver) ->
           Netlist.canonical nl dr.Netlist.target = mc)
         (Netlist.drivers nl))
    + List.length
        (List.filter
           (fun (g : Netlist.gate) ->
             Netlist.canonical nl g.Netlist.output = mc)
           (Netlist.gates nl))
  in
  Alcotest.(check bool) "at least one producer kept" true (producers >= 1)

let test_reduce_equivalence_corpus () =
  (* every embedded example: the proof-carrying reduction preserves
     the root output ports under random stimulus (registers may
     legitimately disappear when unobservable, so only the outputs —
     observable by definition — are compared) *)
  List.iter
    (fun (name, src) ->
      let d = compile src in
      let r = Reduce.run d in
      let ins = inputs_of d and outs = outputs_of d in
      let rng = Random.State.make [| 77 |] in
      for _trial = 1 to 3 do
        let s1 = Sim.create d and s2 = Sim.create r.Reduce.design in
        Sim.reset s1;
        Sim.reset s2;
        for _c = 1 to 4 do
          let vec =
            List.map
              (fun _ -> if Random.State.bool rng then Logic.One else Logic.Zero)
              ins
          in
          Sim.poke_nets s1 ins vec;
          Sim.poke_nets s2 ins vec;
          Sim.step s1;
          Sim.step s2;
          if Sim.peek_nets s1 outs <> Sim.peek_nets s2 outs then
            Alcotest.failf "%s: outputs diverge after reduction" name
        done
      done)
    (Corpus.all_named @ Corpus_fsm.all_named)

let () =
  Alcotest.run "reduce"
    [
      ( "directed",
        [
          Alcotest.test_case "constant folding" `Quick test_constant_folding;
          Alcotest.test_case "dead removal" `Quick test_dead_removal;
          Alcotest.test_case "guard folding" `Quick test_guard_folding;
        ] );
      ( "known-constants",
        [
          Alcotest.test_case "NOINFL-only net" `Quick test_noinfl_only_net;
          Alcotest.test_case "register feedback" `Quick
            test_register_feedback_constant;
          Alcotest.test_case "alias-class merging" `Quick
            test_alias_class_constants;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "corpus" `Quick test_equivalence_corpus;
          Alcotest.test_case "blackjack shrinks" `Quick
            test_reduction_on_blackjack;
        ] );
      ( "absint",
        [
          Alcotest.test_case "conflict is stuck-X" `Quick
            test_absint_conflict_stuckx;
          Alcotest.test_case "kind defaults" `Quick test_absint_kind_defaults;
          Alcotest.test_case "register widening" `Quick
            test_absint_register_widening;
        ] );
      ( "reduce",
        [
          Alcotest.test_case "copy merge" `Quick test_reduce_copy_merge;
          Alcotest.test_case "no cross-kind merge" `Quick
            test_reduce_no_cross_kind_merge;
          Alcotest.test_case "guard-0 keeps a producer" `Quick
            test_reduce_guard0_keeps_producer;
          Alcotest.test_case "corpus equivalence" `Quick
            test_reduce_equivalence_corpus;
        ] );
    ]
