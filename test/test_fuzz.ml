(* Whole-pipeline differential fuzzing, built on the lib/gen program
   generator (Zeus.Gen / Zeus.Oracle).

   Two complementary oracles:

   - the combinational subset is checked against [Gen.eval_comb], a
     direct OCaml-side evaluation of the generating description that
     never touches the parser, elaborator or any simulator engine —
     any disagreement is a bug somewhere in the pipeline;

   - full-language programs (registers, recursive chains, guarded
     multiplex drivers, RSET, UNDEF stimulus) are checked with the
     differential oracle matrix of [Oracle.check]: pretty-print
     fixpoint, re-elaboration, the three simulator engines and the
     sweeping reference evaluator cycle by cycle, and lint-vs-runtime consistency.

   Failing cases shrink through [Gen.shrink_steps] to a minimal
   program + poke sequence, printed as Zeus source. *)

open Zeus

let seed_state k = Random.State.make [| 0x5eed; k |]

(* ------------------------------------------------------------------ *)
(* Combinational subset vs the direct evaluator                         *)
(* ------------------------------------------------------------------ *)

let arb_comb =
  let g = Gen.gen ~profile:Gen.comb () in
  QCheck.make ~print:Gen.to_zeus
    ~shrink:(fun p yield ->
      List.iter (fun (p', _) -> yield p') (Gen.shrink_steps (p, [])))
    g

let gen_inputs n =
  QCheck.Gen.(list_repeat n (oneofl [ Logic.Zero; Logic.One; Logic.Undef ]))

(* compile once, evaluate under random input vectors with each of the
   three engines, and compare every OUT port against direct evaluation *)
let prop_comb_direct_oracle =
  QCheck.Test.make ~count:150 ~name:"comb_direct_oracle" arb_comb (fun p ->
      let src = Gen.to_zeus p in
      match Zeus.compile src with
      | Error diags ->
          QCheck.Test.fail_reportf "did not compile:@.%s@.%a" src
            Fmt.(list Diag.pp)
            diags
      | Ok design ->
          let vectors =
            QCheck.Gen.generate ~n:5 ~rand:(seed_state 99)
              (gen_inputs p.Gen.n_in)
          in
          let ins = Array.of_list (List.map (Testbench.port design) (Gen.poke_paths p))
          and outs =
            List.map
              (fun (port, _) -> (port, Testbench.port design ("s." ^ port)))
              (Gen.out_ports p)
          in
          List.for_all
            (fun vec ->
              let inputs = Array.of_list vec in
              let expected = Gen.eval_comb p inputs in
              List.for_all
                (fun engine ->
                  let sim = Sim.create ~engine design in
                  Array.iteri (fun i v -> Sim.set sim ins.(i) [ v ]) inputs;
                  Sim.step sim;
                  List.for_all
                    (fun (port, want) ->
                      let got = List.hd (Sim.get sim (List.assoc port outs)) in
                      if not (Logic.equal got want) then
                        QCheck.Test.fail_reportf
                          "engine %s, port %s: expected %a, got %a for@.%s"
                          (Sim.engine_name engine) port Logic.pp want Logic.pp
                          got src
                      else true)
                    expected)
                Sim.all_engines)
            vectors)

(* ------------------------------------------------------------------ *)
(* Full language vs the oracle matrix                                   *)
(* ------------------------------------------------------------------ *)

(* one property = the whole conformance suite: any row of the matrix
   failing (parse, pp-fixpoint, compile, any engine vs firing,
   re-elaboration, lint vs runtime) is a counterexample, and the
   IR-level shrinker reduces it before reporting *)
let prop_oracle_matrix =
  QCheck.Test.make ~count:250 ~name:"oracle_matrix_full_language"
    (Gen.arbitrary ())
    (fun (p, stim) ->
      match Oracle.check ~src:(Gen.to_zeus p) stim with
      | [] -> true
      | d :: _ ->
          QCheck.Test.fail_reportf "%a@.%s" Oracle.pp_divergence d
            (Gen.print_case (p, stim)))

(* the pretty-print fixpoint on its own, for sharper failure reports *)
let prop_roundtrip =
  QCheck.Test.make ~count:100 ~name:"pretty_roundtrip"
    (QCheck.make ~print:Gen.to_zeus (Gen.gen ()))
    (fun p ->
      let src = Gen.to_zeus p in
      match Parser.program src with
      | None, _ -> false
      | Some p1, _ -> (
          let printed = Pretty.program_to_string p1 in
          match Parser.program printed with
          | None, _ -> false
          | Some p2, _ -> Pretty.program_to_string p2 = printed))

(* regression: NOT binds to a single primary, so a nested NOT needs
   grouping parentheses when printed — found by the fuzzer *)
let test_nested_not_roundtrip () =
  let src =
    "TYPE t = COMPONENT (IN a: boolean; OUT z: boolean) IS BEGIN z := NOT \
     (NOT a) END; SIGNAL s: t;"
  in
  match Parser.program src with
  | None, _ -> Alcotest.fail "nested NOT did not parse"
  | Some p1, _ -> (
      let printed = Pretty.program_to_string p1 in
      match Parser.program printed with
      | None, _ ->
          Alcotest.failf "pretty-printed nested NOT does not reparse:@.%s"
            printed
      | Some p2, _ ->
          Alcotest.(check string)
            "fixpoint" printed
            (Pretty.program_to_string p2))

(* ------------------------------------------------------------------ *)
(* Reduction identity: the proof-carrying reduction is unobservable     *)
(* ------------------------------------------------------------------ *)

(* [Reduce.run] (cone-of-influence + constant folding + copy
   propagation over the Absint fixpoint) preserves the value of every
   net the analysis marked observable, cycle for cycle, on random
   full-language programs.  Snapshots are compared through each
   design's own class map — reduction merges copy classes, so class
   ids differ between the two designs and only the per-net root slots
   are comparable.  Counterexamples shrink through the IR shrinker. *)
let prop_optimize_identity =
  QCheck.Test.make ~count:100 ~name:"optimize_identity"
    (Gen.arbitrary ())
    (fun (p, stim) ->
      match Oracle.compile (Gen.to_zeus p) with
      | Error _ -> true (* compile failures belong to the matrix property *)
      | Ok design ->
          let r = Reduce.run design in
          let ai = r.Reduce.ai in
          let g1 = Graph.build design
          and g2 = Graph.build r.Reduce.design in
          (* the reduced design shares nets: one set of ports drives both *)
          let pokes =
            match Oracle.ports design stim with
            | Ok pokes -> pokes
            | Error msg -> QCheck.Test.fail_reportf "%s" msg
          in
          let reference = Oracle.run_engine design Sim.Incremental pokes in
          let optimized =
            Oracle.run_engine r.Reduce.design Sim.Incremental pokes
          in
          if
            List.length reference.Oracle.snaps
            <> List.length optimized.Oracle.snaps
          then
            QCheck.Test.fail_reportf
              "optimized run has a different cycle count for@.%s"
              (Gen.print_case (p, stim))
          else begin
            List.iter2
              (fun (s1 : Logic.t option array) (s2 : Logic.t option array) ->
                Array.iteri
                  (fun c root ->
                    if ai.Absint.observable.(ai.Absint.graph.Graph.canon.(root)) then begin
                      let slot2 = g2.Graph.rep.(g2.Graph.canon.(root)) in
                      if s1.(root) <> s2.(slot2) then
                        QCheck.Test.fail_reportf
                          "observable net %s differs after reduction for@.%s"
                          g1.Graph.names.(c)
                          (Gen.print_case (p, stim))
                    end)
                  g1.Graph.rep)
              reference.Oracle.snaps optimized.Oracle.snaps;
            true
          end)

(* ------------------------------------------------------------------ *)
(* Sequential: register pipelines delay by their depth                  *)
(* ------------------------------------------------------------------ *)

let prop_register_pipeline =
  QCheck.Test.make ~count:30 ~name:"register_pipeline_delay"
    QCheck.(pair (int_range 1 10) (list_of_size (QCheck.Gen.int_range 12 24) bool))
    (fun (depth, stream) ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        "TYPE t = COMPONENT (IN d: boolean; OUT q: boolean) IS\n";
      Buffer.add_string buf
        (Printf.sprintf "SIGNAL r: ARRAY[1..%d] OF REG;\nBEGIN\n" depth);
      Buffer.add_string buf "  r[1].in := d;\n";
      for i = 2 to depth do
        Buffer.add_string buf
          (Printf.sprintf "  r[%d].in := r[%d].out;\n" i (i - 1))
      done;
      Buffer.add_string buf
        (Printf.sprintf "  q := r[%d].out\nEND;\nSIGNAL s: t;\n" depth);
      let design = Zeus.compile_exn (Buffer.contents buf) in
      let sim = Sim.create design in
      let d = Testbench.port design "s.d" and q = Testbench.port design "s.q" in
      let outputs =
        List.map
          (fun b ->
            Sim.set_int sim d (Bool.to_int b);
            Sim.step sim;
            List.hd (Sim.get sim q))
          stream
      in
      (* output k equals input k-depth *)
      List.for_all2
        (fun i (out : Logic.t) ->
          if i < depth then true
          else Logic.equal out (Logic.of_bool (List.nth stream (i - depth))))
        (List.init (List.length stream) Fun.id)
        outputs)

(* ------------------------------------------------------------------ *)
(* Multiplex: IF chains agree with direct selection                     *)
(* ------------------------------------------------------------------ *)

let prop_random_mux =
  QCheck.Test.make ~count:60 ~name:"random_if_chain_select"
    QCheck.(pair (int_range 1 4) (int_bound 15))
    (fun (bits, data) ->
      let n = 1 lsl bits in
      let buf = Buffer.create 256 in
      Buffer.add_string buf
        (Printf.sprintf
           "TYPE t = COMPONENT (IN a: ARRAY[1..%d] OF boolean; OUT z: \
            boolean) IS\nSIGNAL h: multiplex;\nBEGIN\n"
           bits);
      for k = 0 to n - 1 do
        Buffer.add_string buf
          (Printf.sprintf "  IF EQUAL(a,BIN(%d,%d)) THEN h := %d END;\n" k
             bits
             ((data lsr (k mod 4)) land 1))
      done;
      Buffer.add_string buf "  z := h\nEND;\nSIGNAL s: t;\n";
      let design = Zeus.compile_exn (Buffer.contents buf) in
      let sim = Sim.create design in
      let a = Testbench.port design "s.a" and z = Testbench.port design "s.z" in
      List.for_all
        (fun k ->
          Sim.set_int sim a k;
          Sim.step sim;
          Logic.equal
            (List.hd (Sim.get sim z))
            (Logic.of_bool ((data lsr (k mod 4)) land 1 = 1))
          && Sim.runtime_errors sim = [])
        (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* The fuzz driver itself: deterministic replay and clean baseline       *)
(* ------------------------------------------------------------------ *)

let test_fuzz_driver_clean () =
  let summary =
    Fuzz.run ~count:100 ~seed:0 ~corpus_dir:None ()
  in
  Alcotest.(check int) "tested" 100 summary.Fuzz.tested;
  Alcotest.(check int) "no divergences" 0 (List.length summary.Fuzz.failures)

let test_fuzz_deterministic () =
  let case1 = Fuzz.gen_case ~profile:Gen.full ~seed:7 ~index:3 in
  let case2 = Fuzz.gen_case ~profile:Gen.full ~seed:7 ~index:3 in
  Alcotest.(check string)
    "same source" (Gen.to_zeus (fst case1))
    (Gen.to_zeus (fst case2));
  Alcotest.(check string)
    "same pokes"
    (Gen.stimulus_to_string (snd case1))
    (Gen.stimulus_to_string (snd case2))

let () =
  Alcotest.run "fuzz"
    [
      ( "pipeline",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_comb_direct_oracle;
            prop_oracle_matrix;
            prop_optimize_identity;
            prop_roundtrip;
            prop_register_pipeline;
            prop_random_mux;
          ] );
      ( "driver",
        [
          Alcotest.test_case "nested NOT roundtrip" `Quick
            test_nested_not_roundtrip;
          Alcotest.test_case "100 cases clean" `Quick test_fuzz_driver_clean;
          Alcotest.test_case "deterministic replay" `Quick
            test_fuzz_deterministic;
        ] );
    ]
