(* Batch engine differential tests: Sim.run_batch against fresh serial
   handles.

   The batch engine has three moving parts that serial stepping does
   not: whole-run sharding over the domain pool, greedy grouping
   (consecutive equal-cycle runs evaluated together on the bit-sliced
   store, run r in bit r of every word, by Bytecode.run_sliced), and
   per-run RANDOM seeds packed into those bits.  Every test here pins
   the same contract: a batch is bit-identical — per-cycle snapshots
   and runtime-error sets — to stepping each run on its own freshly
   created incremental simulator.

   - [batch_identity]: random full-language programs (same generator as
     the fuzzer), a mix of full and truncated runs with distinct and
     duplicated per-run seeds, across jobs x lanes = {1,2,4,7} x
     {1,3,8}; counterexamples shrink through the IR shrinker.
   - corpus agreement: every paper example at jobs=4 lanes=8 against
     serial goldens.
   - stats: the deterministic work-breakdown counters for a known
     design and run mix.
   - store reuse: a run on the store an earlier group poked and
     latched starts from power-up.
   - word formulas: every op's bitwise formula against a scalar
     evaluator built on [Logic] alone. *)

open Zeus

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* the same run mix as oracle row O7: full and truncated runs, distinct
   seeds plus one duplicated seed (grouping must keep the streams apart
   even when two runs share a seed) *)
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

(* a batch these tests build is well-formed *)
let run_batch ?jobs ?lanes ?snapshots tmpl runs =
  match Sim.run_batch ?jobs ?lanes ?snapshots tmpl runs with
  | Ok r -> r
  | Error m -> Alcotest.fail m

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
                    run_batch ~jobs ~lanes ~snapshots:true tmpl runs
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
            run_batch ~jobs:4 ~lanes:8 ~snapshots:true tmpl corpus_runs
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
  let results, _ = run_batch ~jobs:2 ~snapshots:true tmpl runs in
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
   group width; a non-compiled template sends everything down the
   serial fallback — both breakdowns are pinned here *)
let test_batch_stats () =
  let design = Zeus.compile_exn (Corpus.adder_n 4) in
  let mk cycles =
    { Sim.br_stim = [||]; br_cycles = cycles; br_seed = None; br_watch = [] }
  in
  (* 5 runs of 6 cycles then 1 of 3: lanes=4 gives groups 4+1 and the
     odd-length run still takes the bit-sliced path (a group of one) *)
  let runs = [ mk 6; mk 6; mk 6; mk 6; mk 6; mk 3 ] in
  let tmpl = Sim.create ~engine:Sim.Compiled ~jobs:1 design in
  let _, st = run_batch ~jobs:1 ~lanes:4 tmpl runs in
  Alcotest.(check int) "runs" 6 st.Sim.bs_runs;
  Alcotest.(check int) "jobs" 1 st.Sim.bs_jobs;
  Alcotest.(check int) "lanes" 4 st.Sim.bs_lanes;
  Alcotest.(check int) "lane groups" 3 st.Sim.bs_lane_groups;
  Alcotest.(check int) "lane runs" 6 st.Sim.bs_lane_runs;
  Alcotest.(check int) "serial runs" 0 st.Sim.bs_serial_runs;
  Alcotest.(check int) "cycles" 33 st.Sim.bs_cycles;
  (* same runs, incremental template: no bit-sliced path at all *)
  let tmpl_inc = Sim.create ~engine:Sim.Incremental ~jobs:1 design in
  let _, st = run_batch ~jobs:1 ~lanes:4 tmpl_inc runs in
  Alcotest.(check int) "fallback lane runs" 0 st.Sim.bs_lane_runs;
  Alcotest.(check int) "fallback serial runs" 6 st.Sim.bs_serial_runs;
  (* jobs are clamped to the run count *)
  let _, st = run_batch ~jobs:64 ~lanes:4 tmpl runs in
  Alcotest.(check bool) "jobs clamped" true (st.Sim.bs_jobs <= 6)

(* every stimulus and watch path is resolved, and every poke's width
   checked, before any fan-out: a bad batch is an [Error] naming the run
   and cycle, on every engine *)
let test_batch_errors () =
  let design = Zeus.compile_exn (Corpus.adder_n 4) in
  let mk ?(watch = []) stim =
    { Sim.br_stim = stim; br_cycles = 2; br_seed = None; br_watch = watch }
  in
  let ok = mk [| [ ("adder.cin", [ Logic.One ]) ] |] in
  List.iter
    (fun engine ->
      let tmpl = Sim.create ~engine ~jobs:2 design in
      List.iter
        (fun (what, runs, want) ->
          match Sim.run_batch tmpl runs with
          | Ok _ -> Alcotest.failf "%s: accepted" what
          | Error msg ->
              Alcotest.(check string)
                (Printf.sprintf "%s (%s)" what (Sim.engine_name engine))
                want msg)
        [
          ( "unknown stimulus path",
            [ ok; mk [| []; [ ("nosuch", [ Logic.One ]) ] |] ],
            "Sim.run_batch: run 1, cycle 1: no top-level signal 'nosuch'" );
          ( "width mismatch",
            [ ok; ok; mk [| [ ("adder.a", [ Logic.One ]) ] |] ],
            "Sim.run_batch: run 2, cycle 0: adder.a: a 1-bit poke of the \
             4-bit path" );
          ( "unknown watch path",
            [ mk ~watch:[ "adder.nosuch" ] [||] ],
            "Sim.run_batch: run 0: no field 'nosuch' in \"adder.nosuch\"" );
        ])
    Sim.all_engines

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
    run_batch ~jobs:1 ~lanes:8 tmpl [ mk 1; mk 5; mk 9 ]
  in
  List.iter2
    (fun v (r : Sim.batch_result) ->
      match r.Sim.bres_watched with
      | [ ("adder.s", bits) ] ->
          if bits <> expect v then
            Alcotest.failf "watched sum for a=%d differs from serial peek" v
      | _ -> Alcotest.fail "expected exactly the watched sum")
    [ 1; 5; 9 ] results

(* Each domain allocates its bit-sliced store once and resets it
   between groups.  With jobs=1, lanes=2 and cycle counts 5,5,5,3,3,5
   the groups are {0,1} {2} {3,4} {5}, so every quiet run (2, 4, 5)
   lands on bits an earlier run poked, latched registers on and drove
   into a conflict.  A quiet run must still see power-up
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
  let results, st = run_batch ~jobs:1 ~lanes:2 ~snapshots:true tmpl runs in
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

(* 130 equal-length runs on one domain form groups of 63, 63 and 4, so
   runs 62/63 and 125/126 sit on either side of a word boundary and run
   129 in a part-filled word.  On a RANDOM design with a distinct seed
   per run, and on a conflict design whose drive conflicts fall in runs
   0, 62, 63 and 129 only, every run must match a fresh serial handle. *)
let test_full_words () =
  let check name src runs =
    let design = Zeus.compile_exn src in
    let tmpl = Sim.create ~engine:Sim.Compiled ~jobs:1 design in
    let results, st = run_batch ~jobs:1 ~snapshots:true tmpl runs in
    Alcotest.(check int) (name ^ ": groups") 3 st.Sim.bs_lane_groups;
    Alcotest.(check int) (name ^ ": lanes") 63 st.Sim.bs_lanes;
    List.iteri
      (fun i (r, (res : Sim.batch_result)) ->
        let ref_snaps, ref_errs = serial_run design r in
        if res.Sim.bres_snaps <> ref_snaps then
          Alcotest.failf "%s: run %d snapshots differ from serial" name i;
        if err_triples res.Sim.bres_errors <> ref_errs then
          Alcotest.failf "%s: run %d errors differ from serial" name i)
      (List.combine runs results);
    results
  in
  let random_src =
    "TYPE t = COMPONENT (IN en: boolean; OUT q, c: boolean) IS SIGNAL r: \
     REG; coin: boolean; BEGIN coin := RANDOM(); IF en THEN r.in := \
     XOR(r.out, coin) END; q := r.out; c := coin END; SIGNAL s: t;"
  in
  let bit b = [ (if b then Logic.One else Logic.Zero) ] in
  ignore
    (check "random" random_src
       (List.init 130 (fun i ->
            {
              Sim.br_stim =
                Array.init 5 (fun c -> [ ("s.en", bit ((i + c) mod 3 <> 0)) ]);
              br_cycles = 6;
              br_seed = Some (7 * i);
              br_watch = [ "s.q" ];
            })));
  let conflict_src =
    "TYPE c = COMPONENT (IN x,y: boolean; OUT out: boolean) IS SIGNAL h: \
     multiplex; BEGIN IF x THEN h := 1 END; IF y THEN h := 0 END; out := h \
     END; SIGNAL top: c;"
  in
  let fighting = [ 0; 62; 63; 129 ] in
  let results =
    check "conflict" conflict_src
      (List.init 130 (fun i ->
           let both = List.mem i fighting and even = i mod 2 = 0 in
           {
             Sim.br_stim =
               [|
                 [ ("top.x", bit (both || even));
                   ("top.y", bit (both || not even)) ];
                 [];
                 [ ("top.x", bit even); ("top.y", bit (not even)) ];
               |];
             br_cycles = 4;
             br_seed = None;
             br_watch = [ "top.out" ];
           }))
  in
  List.iteri
    (fun i (res : Sim.batch_result) ->
      Alcotest.(check (list int))
        (Printf.sprintf "conflict cycles of run %d" i)
        (if List.mem i fighting then [ 0; 1 ] else [])
        (List.map
           (fun (e : Sim.runtime_error) -> e.Sim.err_cycle)
           res.Sim.bres_errors))
    results

(* ------------------------------------------------------------------ *)
(* The packed stimulus: deck reader vs string wrapper vs serial pokes  *)
(* ------------------------------------------------------------------ *)

(* A design to write decks for: its pokeable paths with their widths,
   (vector, bit of that vector) path pairs, and paths to read back. *)
type deck_design = {
  dd_name : string;
  dd_src : string;
  dd_paths : (string * int) list;
  dd_pairs : (string * int * string) list;
  dd_watch : string list;
}

let wide_src =
  "TYPE t = COMPONENT (IN x: ARRAY[1..70] OF boolean; IN c: boolean; OUT \
   y: ARRAY[1..70] OF boolean) IS BEGIN IF c THEN y := x END END; SIGNAL \
   top: t;"

let corpus_decks =
  let dd ?(pairs = []) name src paths watch =
    { dd_name = name; dd_src = src; dd_paths = paths; dd_pairs = pairs;
      dd_watch = watch }
  in
  [
    dd "adder4" Corpus.adder4
      [ ("adder.a", 4); ("adder.b", 4); ("adder.cin", 1); ("adder.a[2]", 1) ]
      [ "adder.s"; "adder.cout" ]
      ~pairs:[ ("adder.a", 4, "adder.a[2]"); ("adder.b", 4, "adder.b[4]") ];
    dd "ram4x3"
      (Corpus.ram ~abits:2 ~wbits:3)
      [ ("m.addr", 2); ("m.data", 3); ("m.we", 1); ("RSET", 1) ]
      [ "m.q" ]
      ~pairs:[ ("m.data", 3, "m.data[1]") ];
    dd "routing4" (Corpus.routing_network 4)
      [ ("net.input[0]", 10); ("net.input[1]", 10); ("net.input[3]", 10) ]
      [ "net.output[0]"; "net.output[2]" ]
      ~pairs:[ ("net.input[1]", 10, "net.input[1][1]") ];
    dd "arbiter" Corpus_fsm.arbiter
      [ ("arb.req1", 1); ("arb.req2", 1) ]
      [ "arb.gnt1"; "arb.gnt2" ];
    dd "wide70" wide_src
      [ ("top.x", 70); ("top.c", 1); ("top.x[70]", 1) ]
      [ "top.y" ]
      ~pairs:[ ("top.x", 70, "top.x[3]") ];
  ]

(* a value that fits a [w]-bit path: 0/1 on one bit, 2..2^w-1 wider *)
let value_gen w =
  let open QCheck.Gen in
  if w = 1 then int_range 0 1
  else if w < Sys.int_size - 1 then int_range 2 ((1 lsl w) - 1)
  else
    oneof
      [ int_range 2 1000; map (fun v -> max 2 (v land max_int)) int;
        return max_int ]

(* one deck run: seed, explicit cycles, lines ([None] = '-') *)
type deck_run = {
  dr_seed : int option;
  dr_cycles : int option;
  dr_lines : (string * int * int) list option list;  (* path, width, value *)
}

let deck_gen dd =
  let open QCheck.Gen in
  let paths = Array.of_list dd.dd_paths in
  let poke =
    int_bound (Array.length paths - 1) >>= fun k ->
    let p, w = paths.(k) in
    map (fun v -> (p, w, v)) (value_gen w)
  in
  (* a random line, then perhaps its first path again and perhaps a
     whole vector followed by one of its bits *)
  let pokes =
    list_size (int_range 1 4) poke >>= fun first ->
    (match first with
    | (p, w, _) :: _ ->
        frequency
          [ (2, return []); (1, map (fun v -> [ (p, w, v) ]) (value_gen w)) ]
    | [] -> return [])
    >>= fun again ->
    (match dd.dd_pairs with
    | [] -> return []
    | pairs ->
        frequency
          [
            (2, return []);
            ( 1,
              oneofl pairs >>= fun (vec, w, bit) ->
              map2
                (fun v b -> [ (vec, w, v); (bit, 1, b) ])
                (value_gen w) (value_gen 1) );
          ])
    >>= fun pair -> return (first @ again @ pair)
  in
  let line = frequency [ (1, return None); (5, map Option.some pokes) ] in
  let run =
    list_size (int_range 0 6) line >>= fun lines ->
    let n = List.length lines in
    map2
      (fun seed cycles -> { dr_seed = seed; dr_cycles = cycles; dr_lines = lines })
      (opt (int_range 0 3))
      (opt (int_range 0 (n + 3)))
  in
  list_size (int_range 1 6) run

let render_deck runs =
  let b = Buffer.create 256 in
  List.iter
    (fun r ->
      Buffer.add_string b "run";
      Option.iter (Printf.bprintf b " seed=%d") r.dr_seed;
      Option.iter (Printf.bprintf b " cycles=%d") r.dr_cycles;
      Buffer.add_char b '\n';
      List.iter
        (fun line ->
          (match line with
          | None -> Buffer.add_char b '-'
          | Some pokes ->
              Buffer.add_string b
                (String.concat " "
                   (List.map (fun (p, _, v) -> Printf.sprintf "%s=%d" p v) pokes)));
          Buffer.add_char b '\n')
        r.dr_lines)
    runs;
  Buffer.contents b

(* the same runs in the string form, bits by BIN *)
let batch_run_of dd r =
  {
    Sim.br_stim =
      Array.of_list
        (List.map
           (function
             | None -> []
             | Some pokes ->
                 List.map
                   (fun (p, w, v) -> (p, Cval.sctree_leaves (Cval.bin v w)))
                   pokes)
           r.dr_lines);
    br_cycles = Option.value r.dr_cycles ~default:(List.length r.dr_lines);
    br_seed = r.dr_seed;
    br_watch = dd.dd_watch;
  }

(* the golden: a fresh handle per run, its pokes replayed by path *)
let serial_replay design (r : Sim.batch_run) =
  let sim = Sim.create ~engine:Sim.Incremental ?seed:r.Sim.br_seed design in
  let snaps = ref [] in
  for c = 0 to r.Sim.br_cycles - 1 do
    if c < Array.length r.Sim.br_stim then
      List.iter (fun (p, bits) -> Sim.poke sim p bits) r.Sim.br_stim.(c);
    Sim.step sim;
    snaps := Sim.snapshot sim :: !snaps
  done;
  ( List.rev !snaps,
    err_triples (Sim.runtime_errors sim),
    List.map (fun p -> (p, Sim.peek sim p)) r.Sim.br_watch )

let deck_case_gen =
  let open QCheck.Gen in
  frequency
    [
      (1, oneofl corpus_decks);
      ( 1,
        map
          (fun p ->
            {
              dd_name = "gen_prog";
              dd_src = Gen.to_zeus p;
              dd_paths = List.map (fun p -> (p, 1)) (Gen.poke_paths p);
              dd_pairs = [];
              dd_watch = [];
            })
          (Gen.gen ()) );
    ]
  >>= fun dd -> map (fun runs -> (dd, runs)) (deck_gen dd)

let prop_packed_identity =
  QCheck.Test.make ~count:100 ~name:"packed_identity"
    (QCheck.make
       ~print:(fun (dd, runs) ->
         Printf.sprintf "%s\n%s\n%s" dd.dd_name dd.dd_src (render_deck runs))
       deck_case_gen)
    (fun (dd, runs) ->
      match Oracle.compile dd.dd_src with
      | Error _ -> true (* compile failures belong to the matrix property *)
      | Ok design ->
          let batch_runs = List.map (batch_run_of dd) runs in
          let refs = List.map (serial_replay design) batch_runs in
          let watch =
            List.map
              (fun p -> (p, Result.get_ok (Elaborate.resolve_path design p)))
              dd.dd_watch
          in
          let st =
            Stimulus.read_deck design ~name:"deck" ~watch (render_deck runs)
          in
          let compiled = Sim.create ~engine:Sim.Compiled ~jobs:2 design in
          let incremental = Sim.create ~engine:Sim.Incremental ~jobs:1 design in
          let paths =
            [
              ("deck, bit-sliced", fst (Sim.run_stimulus ~snapshots:true compiled st));
              ( "deck, serial handles",
                fst (Sim.run_stimulus ~snapshots:true incremental st) );
              ( "string wrapper",
                fst (run_batch ~jobs:1 ~lanes:1 ~snapshots:true compiled batch_runs) );
            ]
          in
          List.for_all
            (fun (what, results) ->
              List.length results = List.length refs
              && List.for_all2
                   (fun (snaps, errs, watched) (res : Sim.batch_result) ->
                     if res.Sim.bres_snaps <> snaps then
                       QCheck.Test.fail_reportf "%s: snapshots differ from serial pokes"
                         what
                     else if err_triples res.Sim.bres_errors <> errs then
                       QCheck.Test.fail_reportf "%s: runtime errors differ from serial pokes"
                         what
                     else if res.Sim.bres_watched <> watched then
                       QCheck.Test.fail_reportf "%s: watched values differ from serial peeks"
                         what
                     else true)
                   refs results)
            paths)

(* An integer value is applied as BIN(value, width), MSB first, and a
   bit past the machine integer reads 0: [Stimulus.bits] (the -p
   expansion) on every width and value, and the deck's packed expansion
   ([Stimulus.apply_line]) on every one a deck accepts. *)
let test_value_expansion () =
  let widths = [ 1; 2; 61; 62; 63; 64; 70; 128 ]
  and values = [ 0; 1; 2; max_int ] in
  let logic_list = Alcotest.(list logic) in
  List.iter
    (fun w ->
      List.iter
        (fun v ->
          Alcotest.check logic_list
            (Printf.sprintf "bits %d %d" w v)
            (Cval.sctree_leaves (Cval.bin v w))
            (Stimulus.bits ~width:w v))
        values)
    widths;
  Alcotest.check logic_list "BIN(5, 70)"
    (List.init 70 (fun i -> if i = 67 || i = 69 then Logic.One else Logic.Zero))
    (Cval.sctree_leaves (Cval.bin 5 70));
  let src =
    Printf.sprintf "TYPE t = COMPONENT (%s; OUT o: boolean) IS BEGIN o := \
                    a1 END; SIGNAL top: t;"
      (String.concat "; "
         (List.map
            (fun w -> Printf.sprintf "IN a%d: ARRAY[1..%d] OF boolean" w w)
            widths))
  in
  let design = Zeus.compile_exn src in
  List.iter
    (fun w ->
      List.iter
        (fun v ->
          let fits =
            if w = 1 then v <= 1 else v >= 2 && (w >= 62 || v lsr w = 0)
          in
          if fits then begin
            let st =
              Stimulus.read_deck design ~name:"deck" ~watch:[]
                (Printf.sprintf "run\ntop.a%d=%d\n" w v)
            in
            let got = ref [] in
            Stimulus.apply_line st
              (Array.map (fun (e : Stimulus.entry) -> e.Stimulus.nets)
                 st.Stimulus.entries)
              [| 0 |] 0
              (fun _ _ b -> got := b :: !got);
            Alcotest.check logic_list
              (Printf.sprintf "deck a%d=%d" w v)
              (Cval.sctree_leaves (Cval.bin v w))
              (List.rev !got)
          end)
        values)
    widths

(* ------------------------------------------------------------------ *)
(* Word formulas: the bit-sliced store against a scalar evaluator     *)
(* ------------------------------------------------------------------ *)

(* Each case is a tiny hand-built program whose classes [0, inputs)
   are poked inputs, run through [Bytecode.run_sliced] and, run by run,
   through [scalar_eval] on the scalar program [scalar] — the same
   program, with each vector op spelled out as the scalar ops it stands
   for.  [scalar_eval] is built on [Logic]'s gate functions, drive
   counting and the latch rule, and shares nothing with [Bytecode] but
   the op type, so every reference value comes from the semantics of
   section 8.  Every combination of input values (0, 1, UNDEF, NOINFL,
   or not poked) gets its own group, in which bits 0, 31 and 62 carry
   it and the other 60 runs carry other combinations, and then a group
   of one; all runs are compared, every class after every cycle, and
   the conflict reports. *)

type word_case = {
  w_name : string;
  w_classes : int;
  w_inputs : int;
  w_regs : Logic.t array;
  w_slots : int;
  w_cycles : int;
  w_ops : Bytecode.op list;
  w_scalar : Bytecode.op list;
}

let word_prog c ops =
  {
    Bytecode.ops = Array.of_list ops;
    n_classes = c.w_classes;
    n_nodes = 0;
    n_slots = c.w_slots;
    reg_init = Array.map Bytecode.encode c.w_regs;
    visits_per_cycle = 0;
    scalar_ops = 0;
    vector_ops = 0;
    vector_lanes = 0;
    check_ops = 0;
    discharged_ops = 0;
    compile_secs = 0.;
  }

(* an immediate operand [s] is [-1 - code], codes in the order of
   bytecode.mli's value table *)
let imm_value s = [| Logic.Zero; Logic.One; Logic.Noinfl; Logic.Undef |].(-1 - s)

(* [cycles] cycles of the scalar ops [ops] on one run with [pokes] held:
   per cycle, every class's value and the conflicting classes in
   ascending order *)
let scalar_eval c ops pokes ~seed =
  let value = Array.make c.w_classes Logic.Undef
  and driven = Array.make c.w_classes false
  and slot = Array.make (max 1 c.w_slots) Logic.Noinfl
  and regs = Array.copy c.w_regs in
  let rd s = if s >= 0 then value.(s) else imm_value s in
  let driving v = not (Logic.equal v Logic.Noinfl) in
  (* a producer's value: to its scratch slot, or (sole producer) to its
     class through the implicit amplifier of a boolean class *)
  let produce ~prod ~out ~kbool v =
    if prod >= 0 then slot.(prod) <- v
    else begin
      value.(out) <- (if kbool then Logic.booleanize v else v);
      driven.(out) <- driving v
    end
  in
  let fold f init args = Array.fold_left (fun acc s -> f acc (rd s)) init args in
  List.init c.w_cycles (fun cycle ->
      let confs = ref [] in
      List.iter
        (function
          | Bytecode.Oseed { cls; kind } ->
              value.(cls) <-
                (match pokes.(cls) with
                | Some v -> v
                | None ->
                    if kind >= 0 then regs.(kind)
                    else if kind = Bytecode.seed_clk then Logic.One
                    else if kind = Bytecode.seed_rset then Logic.Zero
                    else Logic.Undef)
          | Bytecode.Ogate { gate; args; out; prod; kbool } ->
              let v =
                if gate = Bytecode.gnot then Logic.not_ (rd args.(0))
                else if gate = Bytecode.gequal then begin
                  let half = Array.length args / 2 in
                  let acc = ref Logic.One in
                  for i = 0 to half - 1 do
                    acc :=
                      Logic.and2 !acc
                        (Logic.equal2 (rd args.(i)) (rd args.(i + half)))
                  done;
                  !acc
                end
                else if gate = Bytecode.gxor then fold Logic.xor2 Logic.Zero args
                else if gate = Bytecode.gand then fold Logic.and2 Logic.One args
                else if gate = Bytecode.gnand then
                  Logic.not_ (fold Logic.and2 Logic.One args)
                else if gate = Bytecode.gor then fold Logic.or2 Logic.Zero args
                else Logic.not_ (fold Logic.or2 Logic.Zero args)
              in
              produce ~prod ~out ~kbool v
          | Bytecode.Orandom { out; prod } ->
              produce ~prod ~out ~kbool:false
                (Logic.of_bool (Prand.bool ~seed ~net:out ~cycle))
          | Bytecode.Odriver { guard; src; out; prod; kbool } ->
              let v =
                if guard = Bytecode.no_guard then rd src
                else
                  match Logic.booleanize (rd guard) with
                  | Logic.Zero -> Logic.Noinfl
                  | Logic.One -> rd src
                  | _ -> Logic.Undef
              in
              produce ~prod ~out ~kbool v
          | Bytecode.Oresolve { out; prods; kbool; chk } ->
              let drives =
                List.filter driving
                  (Array.to_list (Array.map (fun p -> slot.(p)) prods))
              in
              let v =
                match drives with
                | [] -> Logic.Noinfl
                | [ v ] -> v
                | _ -> Logic.Undef
              in
              value.(out) <- (if kbool then Logic.booleanize v else v);
              driven.(out) <- drives <> [];
              if chk && List.length drives >= 2 then confs := out :: !confs
          | Bytecode.Olatch { reg; cls; seeded } ->
              (* a seeded register latches any non-NOINFL input, a
                 driven one when some producer drove; it stores the
                 amplified value *)
              let v = value.(cls) in
              if (if seeded then driving v else driven.(cls)) then
                regs.(reg) <- Logic.booleanize v
          | _ -> Alcotest.fail "scalar_eval: a vector op")
        ops;
      (Array.copy value, List.sort compare !confs))

let input_values = [| Some Logic.Zero; Some Logic.One; Some Logic.Undef;
                      Some Logic.Noinfl; None |]

(* combination [i] of the case's inputs, input 0 least significant *)
let combo c i =
  Array.init c.w_inputs (fun k ->
      let rec digit i k = if k = 0 then i mod 5 else digit (i / 5) (k - 1) in
      input_values.(digit i k))

let check_word_case c =
  let total =
    let rec pow k = if k = 0 then 1 else 5 * pow (k - 1) in
    pow c.w_inputs
  in
  let vp = word_prog c c.w_ops in
  let random =
    List.exists (function Bytecode.Orandom _ -> true | _ -> false) c.w_scalar
  in
  let memo = Hashtbl.create 64 in
  (* per combination (and seed, if the program draws RANDOM): per cycle,
     every class and the conflicting classes *)
  let reference i seed =
    let seed = if random then seed else 0 in
    match Hashtbl.find_opt memo (i, seed) with
    | Some r -> r
    | None ->
        let pokes = Array.make c.w_classes None in
        Array.blit (combo c i) 0 pokes 0 c.w_inputs;
        let r = scalar_eval c c.w_scalar pokes ~seed in
        Hashtbl.add memo (i, seed) r;
        r
  in
  let w = Bytecode.create_sliced vp in
  (* one group: run r carries combination [of_run r] and seed 1000 + r *)
  let check_group runs of_run =
    Bytecode.reset_sliced vp w ~seeds:(Array.init runs (fun r -> 1000 + r));
    for r = 0 to runs - 1 do
      Array.iteri
        (fun k v -> Option.iter (Bytecode.poke_run w ~run:r k) v)
        (combo c (of_run r))
    done;
    let got =
      List.init c.w_cycles (fun cycle ->
          let confs =
            List.sort compare (Bytecode.run_sliced vp w ~cycle)
          in
          Array.init runs (fun r ->
              ( Array.init c.w_classes (fun k -> Bytecode.get_run w ~run:r k),
                List.filter_map
                  (fun (k, hit) ->
                    if (hit lsr r) land 1 = 1 then Some k else None)
                  confs )))
    in
    for r = 0 to runs - 1 do
      List.iteri
        (fun cycle ((want, want_confs), got) ->
          let have, have_confs = got.(r) in
          Array.iteri
            (fun k v ->
              if not (Logic.equal v have.(k)) then
                Alcotest.failf
                  "%s: combination %d at bit %d of %d, cycle %d: class %d \
                   reads %a, the scalar evaluator gives %a"
                  c.w_name (of_run r) r runs cycle k Logic.pp have.(k)
                  Logic.pp v)
            want;
          if have_confs <> want_confs then
            Alcotest.failf
              "%s: combination %d at bit %d of %d, cycle %d: conflicts differ"
              c.w_name (of_run r) r runs cycle)
        (List.combine (reference (of_run r) (1000 + r)) got)
    done
  in
  for i = 0 to total - 1 do
    check_group Bytecode.max_runs (fun r ->
        if r = 0 || r = 31 || r = 62 then i else (i + r) mod total);
    (* alone, as a single run is stepped: its group's upper bits are
       noise, and the ops' all-runs-alike shortcuts can fire *)
    check_group 1 (fun _ -> i)
  done

let word_cases =
  let open Bytecode in
  let case ?(regs = [||]) ?(slots = 0) ?(cycles = 1) ?scalar name ~classes
      ~inputs ops =
    {
      w_name = name;
      w_classes = classes;
      w_inputs = inputs;
      w_regs = regs;
      w_slots = slots;
      w_cycles = cycles;
      w_ops = ops;
      w_scalar = Option.value scalar ~default:ops;
    }
  in
  let gate ?(prod = -1) ~kbool gate args out =
    Ogate { gate; args; out; prod; kbool }
  and drv ?(prod = -1) ~kbool guard src out =
    Odriver { guard; src; out; prod; kbool }
  and seed c kind = Oseed { cls = c; kind }
  and latch ~seeded reg cls = Olatch { reg; cls; seeded } in
  let seeds ?(from = 0) n = List.init n (fun k -> seed (from + k) seed_plain) in
  let bools = [ false; true ] in
  let one = imm code_one and zero = imm code_zero and z = imm code_z in
  let name fmt = Printf.sprintf fmt in
  List.concat
    [
      (* gates, 1 to 4 inputs, immediates included; drivers, guarded
         and not, with an immediate NOINFL source *)
      List.concat_map
        (fun kbool ->
          List.concat_map
            (fun (g, gt) ->
              [
                case (name "%s/2 kbool=%b" g kbool) ~classes:3 ~inputs:2
                  (seeds 2 @ [ gate ~kbool gt [| 0; 1 |] 2 ]);
                case (name "%s/3+imm kbool=%b" g kbool) ~classes:4 ~inputs:3
                  (seeds 3 @ [ gate ~kbool gt [| 0; 1; 2; one |] 3 ]);
              ])
            [ ("AND", gand); ("OR", gor); ("NAND", gnand); ("NOR", gnor);
              ("XOR", gxor) ]
          @ [
              case (name "NOT kbool=%b" kbool) ~classes:2 ~inputs:1
                (seeds 1 @ [ gate ~kbool gnot [| 0 |] 1 ]);
              case (name "EQUAL/2 kbool=%b" kbool) ~classes:5 ~inputs:4
                (seeds 4 @ [ gate ~kbool gequal [| 0; 1; 2; 3 |] 4 ]);
              case (name "EQUAL/imm kbool=%b" kbool) ~classes:2 ~inputs:1
                (seeds 1 @ [ gate ~kbool gequal [| 0; zero |] 1 ]);
              case (name "driver kbool=%b" kbool) ~classes:5 ~inputs:2
                (seeds 2
                @ [ drv ~kbool 0 1 2; drv ~kbool no_guard 1 3;
                    drv ~kbool 0 z 4 ]);
            ])
        bools;
      (* resolution over scratch slots: two guarded drivers, a gate and
         RANDOM, with and without the booleanize and the check *)
      List.concat_map
        (fun kbool ->
          List.map
            (fun chk ->
              case (name "resolve kbool=%b chk=%b" kbool chk) ~classes:5
                ~inputs:4 ~slots:4
                (seeds 4
                @ [ drv ~prod:0 ~kbool 0 1 4; drv ~prod:1 ~kbool 2 3 4;
                    gate ~prod:2 ~kbool gand [| 0; 2 |] 4;
                    Orandom { out = 4; prod = 3 };
                    Oresolve { out = 4; prods = [| 0; 1; 3 |]; kbool; chk } ]))
            bools)
        bools;
      [
        case "random" ~classes:2 ~inputs:1 ~cycles:3
          (seeds 1 @ [ Orandom { out = 1; prod = -1 } ]);
        (* CLK, RSET and register seeds, poked or not; latches of a
           driven and of a seeded input *)
        case "seeds and latches" ~classes:6 ~inputs:4 ~cycles:3
          ~regs:[| Logic.One; Logic.Undef |]
          [ seed 0 seed_clk; seed 1 seed_rset; seed 2 0; seed 3 1;
            drv ~kbool:false 0 1 4; drv ~kbool:true 2 3 5;
            latch ~seeded:false 0 4; latch ~seeded:true 1 3 ];
        (* vector ops against their scalar spelling *)
        case "vseed" ~classes:3 ~inputs:3
          [ Ovseed { cls = 0; len = 3 } ]
          ~scalar:(seeds 3);
        case "vregseed and vlatch" ~classes:4 ~inputs:4 ~cycles:3
          ~regs:[| Logic.Zero; Logic.One |]
          ([ Ovregseed { reg = 0; cls = 0; len = 2 } ]
          @ seeds ~from:2 2
          @ [ Ovlatch { reg = 0; cls = 2; len = 2; seeded = true } ])
          ~scalar:
            ([ seed 0 0; seed 1 1 ] @ seeds ~from:2 2
            @ [ latch ~seeded:true 0 2; latch ~seeded:true 1 3 ]);
      ];
      (* copy, NOT and guarded-driver runs over classes 3.., latched
         through their driven flags into registers read back (classes
         0 and 1) the next cycle *)
      List.concat_map
        (fun kbool ->
          let regs = [| Logic.One; Logic.Zero |] in
          let head n = [ seed 0 0; seed 1 1 ] @ seeds ~from:2 n in
          let latched dst =
            [ Ovlatch { reg = 0; cls = dst; len = 2; seeded = false } ]
          and latched_scalar dst =
            [ latch ~seeded:false 0 dst; latch ~seeded:false 1 (dst + 1) ]
          in
          [
            case (name "vcopy kbool=%b" kbool) ~classes:7 ~inputs:3 ~regs
              ~cycles:2
              (head 1
              @ [ Ovcopy { src = 0; dst = 3; len = 2; kbool; dr = true };
                  Ovcopy { src = one; dst = 5; len = 2; kbool; dr = false } ]
              @ latched 3)
              ~scalar:
                (head 1
                @ [ drv ~kbool no_guard 0 3; drv ~kbool no_guard 1 4;
                    drv ~kbool no_guard one 5; drv ~kbool no_guard one 6 ]
                @ latched_scalar 3);
            case (name "vnot kbool=%b" kbool) ~classes:5 ~inputs:3 ~regs
              ~cycles:2
              (head 1 @ [ Ovnot { src = 1; dst = 3; len = 2; dr = true } ]
              @ latched 3)
              ~scalar:
                (head 1
                @ [ gate ~kbool gnot [| 1 |] 3; gate ~kbool gnot [| 2 |] 4 ]
                @ latched_scalar 3);
            case (name "vdriver kbool=%b" kbool) ~classes:6 ~inputs:4 ~regs
              ~cycles:2
              (head 2
              @ [ Ovdriver
                    { guard = 2; src = 1; dst = 4; len = 2; kbool; dr = true } ]
              @ latched 4)
              ~scalar:
                (head 2 @ [ drv ~kbool 2 1 4; drv ~kbool 2 2 5 ]
                @ latched_scalar 4);
          ])
        bools;
      (* the two-driver multiplex, overlapping and immediate sources *)
      List.concat_map
        (fun kbool ->
          List.map
            (fun chk ->
              let mux2 g1 s1 g2 s2 dst =
                Ovmux2 { g1; s1; g2; s2; dst; len = 2; kbool; dr = true; chk }
              and resolved (g1, s1, g2, s2, dst) =
                [ drv ~prod:0 ~kbool g1 s1 dst; drv ~prod:1 ~kbool g2 s2 dst;
                  Oresolve { out = dst; prods = [| 0; 1 |]; kbool; chk } ]
              in
              case (name "vmux2 kbool=%b chk=%b" kbool chk) ~classes:9
                ~inputs:5 ~slots:2
                (seeds 5 @ [ mux2 0 1 4 2 5; mux2 4 3 0 one 7 ])
                ~scalar:
                  (seeds 5
                  @ List.concat_map resolved
                      [ (0, 1, 4, 2, 5); (0, 2, 4, 3, 6); (4, 3, 0, one, 7);
                        (4, 4, 0, one, 8) ]))
            bools)
        bools;
    ]

let test_word_formulas () = List.iter check_word_case word_cases

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
          Alcotest.test_case "bad paths and widths are errors" `Quick
            test_batch_errors;
          Alcotest.test_case "reused lane planes start at power-up" `Quick
            test_plane_reuse;
        ] );
      ( "stimulus",
        [
          QCheck_alcotest.to_alcotest prop_packed_identity;
          Alcotest.test_case "integer values expand as BIN" `Quick
            test_value_expansion;
        ] );
      ( "sliced",
        [
          Alcotest.test_case "word formulas match a scalar evaluator" `Quick
            test_word_formulas;
          Alcotest.test_case "130 runs: full, spilled and part-filled words"
            `Quick test_full_words;
        ] );
    ]
