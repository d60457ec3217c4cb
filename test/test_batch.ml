(* Batch engine differential tests: Sim.run_batch against fresh serial
   handles.

   The batch engine has three moving parts that serial stepping does
   not: whole-run sharding over the domain pool, greedy lane grouping
   (consecutive equal-cycle runs packed through one Bytecode.run_lanes
   dispatch), and per-run RANDOM seeds threaded through the packed
   planes.  Every test here pins the same contract: a batch is
   bit-identical — per-cycle snapshots and runtime-error sets — to
   stepping each run on its own freshly created incremental simulator.

   - [batch_identity]: random full-language programs (same generator as
     the fuzzer), a mix of full and truncated runs with distinct and
     duplicated per-run seeds, across jobs x lanes = {1,2,4,7} x
     {1,3,8}; counterexamples shrink through the IR shrinker.
   - corpus agreement: every paper example at jobs=4 lanes=8 against
     serial goldens.
   - stats: the deterministic work-breakdown counters for a known
     design and run mix.
   - plane reuse: a run on lane planes an earlier run poked and
     latched starts from power-up. *)

open Zeus

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* the same run mix as oracle row O7: full and truncated runs, distinct
   seeds plus one duplicated seed (lane packing must keep the streams
   apart even when two lanes share a seed) *)
let runs_of_stim (stim : Gen.stimulus) =
  let stim_arr =
    Array.of_list (List.map (List.map (fun (p, v) -> (p, [ v ]))) stim)
  in
  let ncycles = Array.length stim_arr in
  let mk ~cycles ~seed =
    {
      Sim.br_stim = Array.sub stim_arr 0 cycles;
      br_cycles = cycles;
      br_seed = Some seed;
      br_watch = [];
    }
  in
  let half = max 1 (ncycles / 2) in
  [
    mk ~cycles:ncycles ~seed:21;
    mk ~cycles:half ~seed:22;
    mk ~cycles:ncycles ~seed:23;
    mk ~cycles:ncycles ~seed:21;
    mk ~cycles:half ~seed:24;
  ]

let err_triples errs =
  List.sort compare
    (List.map
       (fun (e : Sim.runtime_error) ->
         (e.Sim.err_cycle, e.Sim.err_net, e.Sim.err_code))
       errs)

(* the golden: one fresh incremental handle per run *)
let serial_run design (r : Sim.batch_run) =
  let sim = Sim.create ~engine:Sim.Incremental ?seed:r.Sim.br_seed design in
  let snaps = ref [] in
  for c = 0 to r.Sim.br_cycles - 1 do
    if c < Array.length r.Sim.br_stim then
      List.iter (fun (p, bits) -> Sim.poke sim p bits) r.Sim.br_stim.(c);
    Sim.step sim;
    snaps := Sim.snapshot sim :: !snaps
  done;
  (List.rev !snaps, err_triples (Sim.runtime_errors sim))

(* ------------------------------------------------------------------ *)
(* batch_identity: jobs x lanes sweep on random programs               *)
(* ------------------------------------------------------------------ *)

let prop_batch_identity =
  QCheck.Test.make ~count:50 ~long_factor:10 ~name:"batch_identity"
    (Gen.arbitrary ())
    (fun (p, stim) ->
      match Oracle.compile (Gen.to_zeus p) with
      | Error _ -> true (* compile failures belong to the matrix property *)
      | Ok design ->
          stim = []
          ||
          let runs = runs_of_stim stim in
          let refs = List.map (serial_run design) runs in
          let tmpl = Sim.create ~engine:Sim.Compiled ~jobs:1 design in
          List.for_all
            (fun jobs ->
              List.for_all
                (fun lanes ->
                  let results, stats =
                    Sim.run_batch ~jobs ~lanes ~snapshots:true tmpl runs
                  in
                  if
                    stats.Sim.bs_lane_runs + stats.Sim.bs_serial_runs
                    <> stats.Sim.bs_runs
                  then
                    QCheck.Test.fail_reportf
                      "batch(jobs=%d,lanes=%d) stats do not partition the \
                       runs: %d lane + %d serial <> %d for@.%s"
                      jobs lanes stats.Sim.bs_lane_runs
                      stats.Sim.bs_serial_runs stats.Sim.bs_runs
                      (Gen.print_case (p, stim))
                  else
                    List.for_all2
                      (fun (ref_snaps, ref_errs) (res : Sim.batch_result) ->
                        if res.Sim.bres_snaps <> ref_snaps then
                          QCheck.Test.fail_reportf
                            "batch(jobs=%d,lanes=%d) snapshots differ from \
                             serial incremental for@.%s"
                            jobs lanes
                            (Gen.print_case (p, stim))
                        else if err_triples res.Sim.bres_errors <> ref_errs
                        then
                          QCheck.Test.fail_reportf
                            "batch(jobs=%d,lanes=%d) error trace differs \
                             from serial incremental for@.%s"
                            jobs lanes
                            (Gen.print_case (p, stim))
                        else true)
                      refs results)
                [ 1; 3; 8 ])
            [ 1; 2; 4; 7 ])

(* ------------------------------------------------------------------ *)
(* Corpus agreement: every paper example vs serial goldens             *)
(* ------------------------------------------------------------------ *)

(* quiescent runs — no pokes — with distinct per-run seeds: unpoked
   inputs stay UNDEF and RANDOM components draw from the per-run
   stream, so snapshots still carry design-specific content *)
let corpus_runs =
  List.map
    (fun seed ->
      { Sim.br_stim = [||]; br_cycles = 8; br_seed = Some seed; br_watch = [] })
    [ 31; 32; 33; 31 ]

let test_corpus_agreement () =
  List.iter
    (fun (name, src) ->
      match Zeus.compile src with
      | Error _ -> Alcotest.failf "%s: did not compile" name
      | Ok design ->
          let refs = List.map (serial_run design) corpus_runs in
          let tmpl = Sim.create ~engine:Sim.Compiled ~jobs:1 design in
          let results, _ =
            Sim.run_batch ~jobs:4 ~lanes:8 ~snapshots:true tmpl corpus_runs
          in
          List.iteri
            (fun i (res : Sim.batch_result) ->
              let ref_snaps, ref_errs = List.nth refs i in
              if res.Sim.bres_snaps <> ref_snaps then
                Alcotest.failf "%s: run %d snapshots differ from serial" name
                  i;
              if err_triples res.Sim.bres_errors <> ref_errs then
                Alcotest.failf "%s: run %d errors differ from serial" name i)
            results)
    (Corpus.all_named @ Corpus_fsm.all_named)

(* Busy runs on an incremental template: every header of routing(16)
   re-poked each cycle, so each run's clone hands its cycles to the
   program the template shares, built by whichever of the two domains
   asks first.  Results equal the firing engine's. *)
let test_incremental_busy_runs () =
  let design = Zeus.compile_exn (Corpus.routing_network 16) in
  let run k =
    {
      Sim.br_stim =
        Array.init 16 (fun c ->
            List.init 16 (fun i ->
                ( Printf.sprintf "net.input[%d]" i,
                  Cval.sctree_leaves
                    (Cval.bin (((5 * i) + (11 * c) + (97 * k)) land 1023) 10) )));
      br_cycles = 20;
      br_seed = None;
      br_watch = [ "net.output[3]" ];
    }
  in
  let runs = List.init 6 run in
  let firing r =
    let sim = Sim.create ~engine:Sim.Firing design in
    let snaps = ref [] in
    for c = 0 to r.Sim.br_cycles - 1 do
      if c < Array.length r.Sim.br_stim then
        List.iter (fun (p, bits) -> Sim.poke sim p bits) r.Sim.br_stim.(c);
      Sim.step sim;
      snaps := Sim.snapshot sim :: !snaps
    done;
    (List.rev !snaps, Sim.runtime_errors sim)
  in
  let tmpl = Sim.create ~engine:Sim.Incremental ~jobs:2 design in
  let results, _ = Sim.run_batch ~jobs:2 ~snapshots:true tmpl runs in
  List.iteri
    (fun i ((snaps, errs), (res : Sim.batch_result)) ->
      if res.Sim.bres_snaps <> snaps then
        Alcotest.failf "run %d: snapshots differ from firing" i;
      if res.Sim.bres_errors <> errs then
        Alcotest.failf "run %d: errors differ from firing" i)
    (List.combine (List.map firing runs) results)

(* ------------------------------------------------------------------ *)
(* Deterministic work breakdown                                        *)
(* ------------------------------------------------------------------ *)

(* a compiled template groups consecutive equal-cycle runs up to the
   lane width; a non-compiled template sends everything down the
   serial fallback — both breakdowns are pinned here *)
let test_batch_stats () =
  let design = Zeus.compile_exn (Corpus.adder_n 4) in
  let mk cycles =
    { Sim.br_stim = [||]; br_cycles = cycles; br_seed = None; br_watch = [] }
  in
  (* 5 runs of 6 cycles then 1 of 3: lanes=4 gives groups 4+1 and the
     odd-length run still lane-packs (a group of one) *)
  let runs = [ mk 6; mk 6; mk 6; mk 6; mk 6; mk 3 ] in
  let tmpl = Sim.create ~engine:Sim.Compiled ~jobs:1 design in
  let _, st = Sim.run_batch ~jobs:1 ~lanes:4 tmpl runs in
  Alcotest.(check int) "runs" 6 st.Sim.bs_runs;
  Alcotest.(check int) "jobs" 1 st.Sim.bs_jobs;
  Alcotest.(check int) "lanes" 4 st.Sim.bs_lanes;
  Alcotest.(check int) "lane groups" 3 st.Sim.bs_lane_groups;
  Alcotest.(check int) "lane runs" 6 st.Sim.bs_lane_runs;
  Alcotest.(check int) "serial runs" 0 st.Sim.bs_serial_runs;
  Alcotest.(check int) "cycles" 33 st.Sim.bs_cycles;
  (* same runs, incremental template: no lane path at all *)
  let tmpl_inc = Sim.create ~engine:Sim.Incremental ~jobs:1 design in
  let _, st = Sim.run_batch ~jobs:1 ~lanes:4 tmpl_inc runs in
  Alcotest.(check int) "fallback lane runs" 0 st.Sim.bs_lane_runs;
  Alcotest.(check int) "fallback serial runs" 6 st.Sim.bs_serial_runs;
  (* jobs are clamped to the run count *)
  let _, st = Sim.run_batch ~jobs:64 ~lanes:4 tmpl runs in
  Alcotest.(check bool) "jobs clamped" true (st.Sim.bs_jobs <= 6)

(* watch paths are resolved once on the caller and read back per run *)
let test_batch_watch () =
  let design = Zeus.compile_exn (Corpus.adder_n 4) in
  let poke v =
    [|
      [ ("adder.a", Cval.sctree_leaves (Cval.bin v 4));
        ("adder.b", Cval.sctree_leaves (Cval.bin 3 4));
        ("adder.cin", [ Logic.Zero ]) ];
    |]
  in
  let mk v =
    {
      Sim.br_stim = poke v;
      br_cycles = 2;
      br_seed = None;
      br_watch = [ "adder.s" ];
    }
  in
  let expect v =
    (* the golden: the same pokes on a plain serial handle *)
    let sim = Sim.create ~engine:Sim.Incremental design in
    List.iter (fun (p, bits) -> Sim.poke sim p bits) (poke v).(0);
    Sim.step sim;
    Sim.step sim;
    Sim.peek sim "adder.s"
  in
  let tmpl = Sim.create ~engine:Sim.Compiled ~jobs:1 design in
  let results, _ =
    Sim.run_batch ~jobs:1 ~lanes:8 tmpl [ mk 1; mk 5; mk 9 ]
  in
  List.iter2
    (fun v (r : Sim.batch_result) ->
      match r.Sim.bres_watched with
      | [ ("adder.s", bits) ] ->
          if bits <> expect v then
            Alcotest.failf "watched sum for a=%d differs from serial peek" v
      | _ -> Alcotest.fail "expected exactly the watched sum")
    [ 1; 5; 9 ] results

(* Each domain allocates its lane planes once and resets them between
   lane groups.  With jobs=1, lanes=2 and cycle counts 5,5,5,3,3,5 the
   groups are {0,1} {2} {3,4} {5} on two planes, so every quiet run
   (2, 4, 5) lands on a plane an earlier run poked, latched registers
   on and drove into a conflict.  A quiet run must still see power-up
   — unpoked inputs UNDEF, registers at their initial values — and
   report exactly a fresh serial handle's snapshots and errors (its
   UNDEF guards conflict on their own). *)
let reuse_src =
  "TYPE t = COMPONENT (IN d,en,x,y: boolean; OUT q,p,o: boolean) IS \
   SIGNAL r: REG(1); u: REG; h: multiplex; BEGIN IF en THEN r.in := d; \
   u.in := d END; q := r.out; p := u.out; IF x THEN h := 1 END; IF y THEN \
   h := 0 END; o := h END; SIGNAL s: t;"

let logic = Alcotest.testable Logic.pp Logic.equal

let test_plane_reuse () =
  let design = Zeus.compile_exn reuse_src in
  let pokes d =
    [|
      [ ("s.en", [ Logic.One ]); ("s.d", [ d ]); ("s.x", [ Logic.One ]);
        ("s.y", [ Logic.One ]) ];
    |]
  in
  let mk cycles stim =
    {
      Sim.br_stim = stim;
      br_cycles = cycles;
      br_seed = None;
      br_watch = [ "s.d"; "s.o" ];
    }
  in
  let runs =
    [ mk 5 (pokes Logic.Zero); mk 5 (pokes Logic.Zero); mk 5 [||];
      mk 3 (pokes Logic.One); mk 3 [||]; mk 5 [||] ]
  in
  let tmpl = Sim.create ~engine:Sim.Compiled ~jobs:1 design in
  let results, st = Sim.run_batch ~jobs:1 ~lanes:2 ~snapshots:true tmpl runs in
  Alcotest.(check int) "lane groups" 4 st.Sim.bs_lane_groups;
  Alcotest.(check int) "lane runs" 6 st.Sim.bs_lane_runs;
  let nl = design.Elaborate.netlist in
  let at snap path =
    match Elaborate.resolve_path design path with
    | Ok [ id ] -> snap.(Netlist.canonical nl id)
    | _ -> Alcotest.failf "%s: not a single net" path
  in
  List.iteri
    (fun i ((r : Sim.batch_run), (res : Sim.batch_result)) ->
      let ref_snaps, ref_errs = serial_run design r in
      if res.Sim.bres_snaps <> ref_snaps then
        Alcotest.failf "run %d: snapshots differ from a fresh serial handle" i;
      if err_triples res.Sim.bres_errors <> ref_errs then
        Alcotest.failf "run %d: errors differ from a fresh serial handle" i;
      if r.Sim.br_stim = [||] then begin
        let first = List.hd res.Sim.bres_snaps in
        let check what v path =
          Alcotest.(check (option logic))
            (Printf.sprintf "quiet run %d: %s" i what)
            (Some v) (at first path)
        in
        check "unpoked input" Logic.Undef "s.d";
        check "REG(1) output" Logic.One "s.q";
        check "REG output" Logic.Undef "s.p";
        if
          res.Sim.bres_watched
          <> [ ("s.d", [ Logic.Undef ]); ("s.o", [ Logic.Undef ]) ]
        then Alcotest.failf "run %d: watched values leak from an earlier run" i
      end)
    (List.combine runs results)

let () =
  Alcotest.run "batch"
    [
      ( "identity",
        QCheck_alcotest.to_alcotest prop_batch_identity
        :: [
             Alcotest.test_case "corpus agreement (jobs=4, lanes=8)" `Quick
               test_corpus_agreement;
             Alcotest.test_case "busy runs on an incremental template" `Quick
               test_incremental_busy_runs;
           ] );
      ( "stats",
        [
          Alcotest.test_case "work breakdown" `Quick test_batch_stats;
          Alcotest.test_case "watch readback" `Quick test_batch_watch;
          Alcotest.test_case "reused lane planes start at power-up" `Quick
            test_plane_reuse;
        ] );
    ]
