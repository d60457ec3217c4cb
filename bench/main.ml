(* The benchmark harness: regenerates every table and figure of the Zeus
   report's worked examples (the "evaluation" of a 1983 language report),
   then times the performance-shaped claims with Bechamel.

   Experiment index (see DESIGN.md / EXPERIMENTS.md):
     E1  adders             Fig 3.2.2 + section 10 "Adders"
     E2  blackjack          section 10 FSM state trace
     E3  htree              section 10, linear layout area
     E4  patternmatch       section 10 + the computation-sequence table
     E5  evalseq            section 8 "A possible evaluation sequence"
     E6  routing            section 4.2 HISDL routing network
     E7  typerules          section 4.7 type rule tables (1), (2), (3)
     E8  simcmp             firing vs the Sweep fixpoint/relaxation baselines
     E9  runtime-checks     the NP-completeness-motivated runtime check
     E13 incremental        cross-cycle incremental engine vs firing
     E14 modular            modular summary analysis vs elaborate+lint
     E16 opt                proof-carrying reduction vs plain simulation
     E17 compiled           compiled bytecode engine vs incremental
     E18 batch              batch engine (whole-run sharding + lane
                            packing), runs/second vs serial incremental
     E19 prove              bounded sequential prover: proof cost and
                            the compiled engine with conflict checks
                            discharged

   `dune exec bench/main.exe` prints all report tables and then runs the
   timing benchmarks (pass --no-timing to skip them).  E13 also writes
   machine-readable results to BENCH_sim.json, E14 to BENCH_modular.json,
   E16 to BENCH_opt.json, E17 to BENCH_compiled.json, E18 to
   BENCH_batch.json and E19 to BENCH_prove.json.  Pass --smoke to run
   only the (shortened) simulator, modular, reduction, compiled, batch
   and prove benches and the JSON dumps — the mode the bench guard of
   `dune runtest` (bench/dune) checks against bench/baselines/;
   --batch-smoke runs E18 alone at 2 domains (the CI batch artifact
   job).  (E15, a
   per-level domain-parallel engine, was retired; see EXPERIMENTS.md.) *)

open Zeus

let section id title =
  Fmt.pr "@.=== %s: %s ===@." id title

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags ->
      Fmt.epr "bench compile error: %a@." Fmt.(list Diag.pp) diags;
      exit 1

(* ------------------------------------------------------------------ *)
(* E1: adders                                                           *)
(* ------------------------------------------------------------------ *)

let e1_adders () =
  section "E1" "full adder truth table and rippleCarry(n) sweep";
  let d = compile Corpus.adder4 in
  let sim = Sim.create d in
  Fmt.pr "fulladder via rippleCarry(4), bit 1 (Fig 3.2.2):@.";
  Fmt.pr "  a b cin | cout s@.";
  List.iter
    (fun (a, b, c) ->
      Sim.poke_int_lsb sim "adder.a" a;
      Sim.poke_int_lsb sim "adder.b" b;
      Sim.poke_bool sim "adder.cin" (c = 1);
      Sim.step sim;
      let s = Sim.peek sim "adder.s[1]" in
      let h = Sim.peek sim "adder.h[2]" in
      Fmt.pr "  %d %d  %d  |  %a    %a@." a b c
        Fmt.(list ~sep:nop Logic.pp) h
        Fmt.(list ~sep:nop Logic.pp) s)
    [ (0,0,0); (0,0,1); (0,1,0); (0,1,1); (1,0,0); (1,0,1); (1,1,0); (1,1,1) ];
  Fmt.pr "rippleCarry(n) correctness sweep (1000 random adds each):@.";
  Fmt.pr "  %6s %8s %8s %8s %8s@." "n" "nets" "gates" "checks" "mismatch";
  let rng = Random.State.make [| 42 |] in
  List.iter
    (fun n ->
      let d = compile (Corpus.adder_n n) in
      let sim = Sim.create d in
      let mism = ref 0 in
      let mask = (1 lsl min n 30) - 1 in
      for _ = 1 to 1000 do
        let a = Random.State.bits rng land mask
        and b = Random.State.bits rng land mask in
        Sim.poke_int_lsb sim "adder.a" a;
        Sim.poke_int_lsb sim "adder.b" b;
        Sim.poke_bool sim "adder.cin" false;
        Sim.step sim;
        let want = (a + b) land ((1 lsl n) - 1) in
        if n <= 30 && Sim.peek_int_lsb sim "adder.s" <> Some want then incr mism
      done;
      let nl = d.Elaborate.netlist in
      Fmt.pr "  %6d %8d %8d %8d %8d@." n (Netlist.net_count nl)
        (List.length (Netlist.gates nl))
        1000 !mism)
    [ 4; 8; 16; 24; 30 ]

(* ------------------------------------------------------------------ *)
(* E2: blackjack                                                        *)
(* ------------------------------------------------------------------ *)

let e2_blackjack () =
  section "E2" "Blackjack FSM state trace (section 10)";
  let d = compile Corpus.blackjack in
  let sim = Sim.create d in
  Sim.poke_bool sim "bj.ycard" false;
  Sim.poke_int sim "bj.value" 0;
  Sim.reset sim;
  let state_name = function
    | Some 0 -> "start" | Some 1 -> "read" | Some 2 -> "sum"
    | Some 3 -> "firstace" | Some 4 -> "test" | Some 5 -> "end"
    | _ -> "?" in
  let cards = ref [ 10; 9 ] in
  Fmt.pr "hand 10,9 (expect: stand at 19):@.";
  Fmt.pr "  %5s %-9s %5s %4s %5s %5s@." "cycle" "state" "score" "hit" "stand" "broke";
  let dealt = ref false in
  for cyc = 1 to 14 do
    let st = Sim.peek_int sim "bj.state.out" in
    if st <> Some 1 then dealt := false;
    (match (st, !cards) with
    | Some 1, c :: rest when not !dealt ->
        Sim.poke_int sim "bj.value" c;
        Sim.poke_bool sim "bj.ycard" true;
        cards := rest;
        dealt := true
    | _ -> Sim.poke_bool sim "bj.ycard" false);
    Sim.step sim;
    Fmt.pr "  %5d %-9s %5s %4s %5s %5s@." cyc
      (state_name (Sim.peek_int sim "bj.state.out"))
      (match Sim.peek_int sim "bj.score.out" with
      | Some s -> string_of_int s
      | None -> "-")
      (Logic.to_string (Sim.peek_bit sim "bj.hit"))
      (Logic.to_string (Sim.peek_bit sim "bj.stand"))
      (Logic.to_string (Sim.peek_bit sim "bj.broke"))
  done;
  Fmt.pr "runtime errors: %d@." (List.length (Sim.runtime_errors sim))

(* ------------------------------------------------------------------ *)
(* E3: H-tree area                                                      *)
(* ------------------------------------------------------------------ *)

let e3_htree () =
  section "E3" "H-tree layout area is linear in the number of leaves";
  Fmt.pr "  %8s %8s %8s %8s %10s@." "n" "width" "height" "area" "area/n";
  List.iter
    (fun n ->
      let d = compile (Corpus.htree n) in
      match Floorplan.of_design d "a" with
      | Some plan ->
          let a = Floorplan.area plan in
          Fmt.pr "  %8d %8d %8d %8d %10.2f@." n plan.Floorplan.width
            plan.Floorplan.height a
            (float_of_int a /. float_of_int n)
      | None -> Fmt.pr "  %8d (no plan)@." n)
    [ 1; 4; 16; 64; 256; 1024; 4096 ]

(* ------------------------------------------------------------------ *)
(* E4: pattern matching                                                 *)
(* ------------------------------------------------------------------ *)

let e4_patternmatch () =
  section "E4" "systolic pattern matcher computation sequence (section 10)";
  let d = compile (Corpus.patternmatch 3) in
  let sim = Sim.create d in
  List.iter (fun p -> Sim.poke_bool sim p false)
    [ "match.pattern"; "match.string"; "match.endofpattern"; "match.wild";
      "match.resultin" ];
  Sim.reset sim;
  let pattern = [ 1; 0 ] and text = [ 1; 0; 1; 0; 1; 0; 1; 0 ] in
  let plen = List.length pattern in
  Fmt.pr "pattern 10 (recirculating), text 10101010, one item every second \
          cycle:@.";
  Fmt.pr "  %5s %3s %3s %3s %6s@." "cycle" "pat" "eop" "str" "result";
  for cyc = 0 to 35 do
    let idle = cyc mod 2 = 1 in
    let p, e, s =
      if idle then (false, false, false)
      else begin
        let i = cyc / 2 in
        let pi = i mod (plen + 1) in
        ( pi < plen && List.nth pattern pi = 1,
          pi = plen,
          match List.nth_opt text i with Some 1 -> true | _ -> false )
      end
    in
    Sim.poke_bool sim "match.pattern" p;
    Sim.poke_bool sim "match.endofpattern" e;
    Sim.poke_bool sim "match.string" s;
    Sim.step sim;
    let r = Sim.peek_bit sim "match.result" in
    Fmt.pr "  %5d %3d %3d %3d %6s%s@." cyc (Bool.to_int p) (Bool.to_int e)
      (Bool.to_int s) (Logic.to_string r)
      (if Logic.equal r Logic.One then "  <- match" else "")
  done;
  Fmt.pr "runtime errors: %d@." (List.length (Sim.runtime_errors sim))

(* ------------------------------------------------------------------ *)
(* E5: evaluation sequence (section 8)                                  *)
(* ------------------------------------------------------------------ *)

let e5_evalseq () =
  section "E5" "a possible evaluation sequence (section 8 example)";
  let d = compile Corpus.section8_example in
  let sim = Sim.create d in
  Sim.set_trace sim true;
  List.iter
    (fun (p, v) -> Sim.poke_bool sim p v)
    [ ("top.a", true); ("top.b", true); ("top.cc", false); ("top.x", true);
      ("top.y", false); ("top.rin", true) ];
  Sim.step sim;
  Fmt.pr "firing order (signal(value), cf. the report's \
          \"2(0),rout(0),rin(1),...\"):@.  ";
  List.iter
    (fun (n, v) -> Fmt.pr "%s(%a) " n Logic.pp v)
    (List.filter
       (fun (n, _) -> not (String.contains n '#'))
       (Sim.trace_last_cycle sim));
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* E6: routing network                                                  *)
(* ------------------------------------------------------------------ *)

let e6_routing () =
  section "E6" "recursive HISDL routing network (section 4.2)";
  Fmt.pr "  %6s %9s %9s %8s %8s@." "n" "routers" "expected" "nets" "drivers";
  List.iter
    (fun n ->
      let d = compile (Corpus.routing_network n) in
      let nl = d.Elaborate.netlist in
      let routers =
        List.length
          (List.filter
             (fun (i : Netlist.instance) -> i.Netlist.itype = "router")
             (Netlist.instances nl))
      in
      let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
      Fmt.pr "  %6d %9d %9d %8d %8d@." n routers (n / 2 * log2 n)
        (Netlist.net_count nl)
        (List.length (Netlist.drivers nl)))
    [ 2; 4; 8; 16; 32; 64 ];
  (* permutation property: all-swap headers reverse the butterfly *)
  let d = compile (Corpus.routing_network 8) in
  let sim = Sim.create d in
  for i = 0 to 7 do
    Sim.poke_int sim (Printf.sprintf "net.input[%d]" i) (512 + i)
  done;
  Sim.step sim;
  Fmt.pr "all-swap routing of 512+i headers: ";
  for i = 0 to 7 do
    Fmt.pr "%s "
      (match Sim.peek_int sim (Printf.sprintf "net.output[%d]" i) with
      | Some v -> string_of_int (v - 512)
      | None -> "?")
  done;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)
(* E7: the static type rule tables                                      *)
(* ------------------------------------------------------------------ *)

let e7_typerules () =
  section "E7" "type rules (1) and (2) of section 4.7, as decided by the checker";
  let verdict src =
    let _, diags = Zeus.elaborate_with_diags src in
    if List.exists (fun (d : Diag.t) -> d.Diag.severity = Diag.Error) diags
    then "illegal"
    else "legal"
  in
  let cond target source =
    Printf.sprintf
      "TYPE t = COMPONENT (IN b: boolean; IN eb: boolean; em: multiplex; \
       OUT y: boolean) IS SIGNAL x: %s; BEGIN IF b THEN x := %s END; y := \
       x END; SIGNAL s: t;"
      target
      (if source = "boolean" then "eb" else "em")
  in
  Fmt.pr "type rules (1): IF b THEN x := e END (x a local signal)@.";
  Fmt.pr "  %-10s| %-10s %-10s@." "x \\ e" "boolean" "multiplex";
  List.iter
    (fun t ->
      Fmt.pr "  %-10s| %-10s %-10s@." t
        (verdict (cond t "boolean"))
        (verdict (cond t "multiplex")))
    [ "boolean"; "multiplex" ];
  Fmt.pr "exception 1 (boolean formal OUT / instance IN): %s@."
    (verdict
       "TYPE t = COMPONENT (IN b,c: boolean; OUT y: boolean) IS BEGIN IF b \
        THEN y := c END END; SIGNAL s: t;");
  Fmt.pr "@.type rules (2): x == y@.";
  let alias l r =
    match (l, r) with
    | "boolean", "boolean" ->
        "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL u,v: \
         boolean; BEGIN u := a; u == v; y := v END; SIGNAL s: t;"
    | "boolean", "multiplex" | "multiplex", "boolean" ->
        "TYPE t = COMPONENT (em: multiplex; IN a: boolean; OUT y: boolean) \
         IS SIGNAL u: boolean; BEGIN u == em; y := u END; SIGNAL s: t;"
    | _ ->
        "TYPE t = COMPONENT (em,fm: multiplex; IN a: boolean) IS BEGIN em \
         == fm; IF a THEN em := 1 END END; SIGNAL s: t;"
  in
  Fmt.pr "  %-10s| %-10s %-10s@." "x \\ y" "boolean" "multiplex";
  List.iter
    (fun l ->
      Fmt.pr "  %-10s| %-10s %-10s@." l
        (verdict (alias l "boolean"))
        (verdict (alias l "multiplex")))
    [ "boolean"; "multiplex" ];
  Fmt.pr "exception 1 (OUT formal aliased to multiplex): %s@."
    (verdict
       "TYPE t = COMPONENT (em: multiplex; IN a: boolean; OUT y: boolean) \
        IS BEGIN y == em; IF a THEN em := 1 END END; SIGNAL s: t;")

(* ------------------------------------------------------------------ *)
(* E8: simulator scheduling comparison                                  *)
(* ------------------------------------------------------------------ *)

(* one cycle's node visits; the pokes are integers, index 1 = LSB *)
let firing_visits d pokes =
  let sim = Sim.create d in
  List.iter (fun (p, v) -> Sim.poke_int_lsb sim p v) pokes;
  Sim.step sim;
  Sim.node_visits sim

let sweep_visits order d pokes =
  let bits (p, v) =
    match Elaborate.resolve_path d p with
    | Ok ids ->
        List.mapi (fun i id -> (id, Logic.of_bool ((v lsr i) land 1 = 1))) ids
    | Error msg -> failwith msg
  in
  (Sweep.run ~order d [ List.concat_map bits pokes ]).Sweep.visits

let e8_simcmp () =
  section "E8"
    "node visits per cycle: firing (section 8) vs sweep-to-fixpoint vs \
     relaxation";
  Fmt.pr "  %-18s %8s %6s %9s %10s %12s@." "design" "nodes" "depth"
    "firing" "fixpoint" "relaxation";
  List.iter
    (fun (name, src, pokes) ->
      let d = compile src in
      let nodes =
        List.length (Netlist.gates d.Elaborate.netlist)
        + List.length (Netlist.drivers d.Elaborate.netlist)
      in
      let depth = (Stats.of_design d).Stats.depth in
      let f = firing_visits d pokes
      and fx = sweep_visits Sweep.Fixpoint d pokes
      and rx = sweep_visits Sweep.Relaxation d pokes in
      Fmt.pr "  %-18s %8d %6d %9d %10d %12d@." name nodes depth f fx rx)
    [
      ("rippleCarry(8)", Corpus.adder_n 8, [ ("adder.a", 255); ("adder.b", 1) ]);
      ("rippleCarry(32)", Corpus.adder_n 32,
       [ ("adder.a", 0xFFFFFFF); ("adder.b", 1) ]);
      ("rippleCarry(64)", Corpus.adder_n 64,
       [ ("adder.a", 0xFFFFFFF); ("adder.b", 1) ]);
      ("patternmatch(9)", Corpus.patternmatch 9, []);
      ("blackjack", Corpus.blackjack, []);
      ("routing(16)", Corpus.routing_network 16, []);
      ("am2901", Corpus.am2901, []);
      ("stack(16x8)", Corpus.stack ~depth:16 ~width:8, []);
      ("dictionary(16x8)", Corpus.dictionary ~slots:16 ~keybits:8, []);
    ];
  Fmt.pr "(the firing evaluator visits each node O(1) times; the sweeping \
          baselines re-evaluate every node on every sweep, one sweep per \
          logic level the order gets wrong)@."

(* ------------------------------------------------------------------ *)
(* E9: runtime checks                                                   *)
(* ------------------------------------------------------------------ *)

let e9_runtime_checks () =
  section "E9"
    "runtime multiple-assignment checks (statically undecidable, section \
     4.7)";
  (* a mux driven under two input-dependent guards: only the runtime can
     tell whether both fire *)
  let d =
    compile
      "TYPE t = COMPONENT (IN b,c,x,y: boolean; m: multiplex) IS BEGIN IF b \
       THEN m := x END; IF c THEN m := y END END; SIGNAL s: t;"
  in
  let sim = Sim.create d in
  Fmt.pr "  %3s %3s | %5s %9s@." "b" "c" "m" "conflict";
  List.iter
    (fun (b, c) ->
      let before = List.length (Sim.runtime_errors sim) in
      Sim.poke_bool sim "s.b" (b = 1);
      Sim.poke_bool sim "s.c" (c = 1);
      Sim.poke_bool sim "s.x" true;
      Sim.poke_bool sim "s.y" false;
      Sim.step sim;
      let after = List.length (Sim.runtime_errors sim) in
      Fmt.pr "  %3d %3d | %5s %9s@." b c
        (Logic.to_string (Sim.peek_bit sim "s.m"))
        (if after > before then "DETECTED" else "-"))
    [ (0, 0); (0, 1); (1, 0); (1, 1) ];
  (* detection rate over random guard workloads *)
  let rng = Random.State.make [| 7 |] in
  let injected = ref 0 and detected = ref 0 in
  for _ = 1 to 1000 do
    let b = Random.State.bool rng and c = Random.State.bool rng in
    let before = List.length (Sim.runtime_errors sim) in
    Sim.poke_bool sim "s.b" b;
    Sim.poke_bool sim "s.c" c;
    Sim.step sim;
    let after = List.length (Sim.runtime_errors sim) in
    if b && c then incr injected;
    if after > before then incr detected
  done;
  Fmt.pr "random workload: %d double-drives injected, %d detected@."
    !injected !detected

(* ------------------------------------------------------------------ *)
(* E10: ablation — lazy vs eager instantiation (section 4.2)            *)
(* ------------------------------------------------------------------ *)

let e10_lazy_ablation () =
  section "E10"
    "ablation: lazy instantiation (\"hardware only generated if used\") vs \
     eager";
  let elaborate ~eager src =
    let bag = Diag.Bag.create () in
    match Parser.program ~bag src with
    | None, _ -> Error "parse"
    | Some prog, _ ->
        let d = Elaborate.program ~bag ~eager prog in
        if Diag.Bag.has_errors bag then
          Error
            (match Diag.Bag.errors bag with
            | e :: _ -> e.Diag.message
            | [] -> "?")
        else Ok (List.length (Netlist.instances d.Elaborate.netlist))
  in
  Fmt.pr "  %-16s %14s %s@." "design" "lazy" "eager";
  List.iter
    (fun (name, src) ->
      let show = function
        | Ok n -> Fmt.str "%d instances" n
        | Error e ->
            let e =
              if String.length e > 48 then String.sub e 0 48 ^ "..." else e
            in
            "DIVERGES: " ^ e
      in
      Fmt.pr "  %-16s %14s %s@." name
        (show (elaborate ~eager:false src))
        (show (elaborate ~eager:true src)))
    [
      ("routing(8)", Corpus.routing_network 8);
      ("htree(16)", Corpus.htree 16);
      ("tree(8)", Corpus.tree_recursive 8);
      ("adder(8)", Corpus.adder_n 8);
    ]

(* ------------------------------------------------------------------ *)
(* E11: explicit layout vs automatic placement (the silicon-compiler    *)
(* application of section 9)                                            *)
(* ------------------------------------------------------------------ *)

let e11_autoplace () =
  section "E11"
    "designer layout (section 6) vs automatic dataflow placement: \
     estimated wirelength";
  Fmt.pr "  %-18s %10s %12s %10s %12s@." "design" "cells" "explicit-wl"
    "auto-wl" "auto-shape";
  List.iter
    (fun (name, src, top) ->
      let d = compile src in
      let explicit = Floorplan.of_design d top in
      let auto = Autoplace.place d top in
      match (explicit, auto) with
      | Some e, Some a ->
          Fmt.pr "  %-18s %10d %12d %10d %9dx%d@." name
            (List.length a.Floorplan.cells)
            (Autoplace.wirelength d e)
            (Autoplace.wirelength d a)
            a.Floorplan.width a.Floorplan.height
      | _ -> Fmt.pr "  %-18s (no plan)@." name)
    [
      ("rippleCarry(8)", Corpus.adder_n 8, "adder");
      ("rippleCarry(32)", Corpus.adder_n 32, "adder");
      ("patternmatch(9)", Corpus.patternmatch 9, "match");
      ("stack(8x4)", Corpus.stack ~depth:8 ~width:4, "st");
    ]

(* ------------------------------------------------------------------ *)
(* E12: netlist reduction (constant folding + dead logic + wires)      *)
(* ------------------------------------------------------------------ *)

let e12_reduce () =
  section "E12"
    "netlist reduction: nodes removed while observables stay exact";
  Fmt.pr "  %-18s %8s %8s %9s %9s %7s@." "design" "gates" "gates'" "drivers"
    "drivers'" "consts";
  List.iter
    (fun (name, src) ->
      let r = (Reduce.run (compile src)).Reduce.stats in
      Fmt.pr "  %-18s %8d %8d %9d %9d %7d@." name r.Reduce.gates_before
        r.Reduce.gates_after r.Reduce.drivers_before r.Reduce.drivers_after
        r.Reduce.consts_folded)
    [
      ("adder(32)", Corpus.adder_n 32);
      ("blackjack", Corpus.blackjack);
      ("patternmatch(9)", Corpus.patternmatch 9);
      ("am2901", Corpus.am2901);
      ("routing(16)", Corpus.routing_network 16);
      ("dictionary(16x8)", Corpus.dictionary ~slots:16 ~keybits:8);
    ]

(* ------------------------------------------------------------------ *)
(* A1: the abstract's remaining example classes                         *)
(* ------------------------------------------------------------------ *)

let a1_machines () =
  section "A1"
    "AM2901 / systolic stack / dictionary machine vs golden models";
  (* AM2901: random instruction streams against the reference model *)
  let d = compile Corpus.am2901 in
  let sim = Sim.create d in
  let model = Refmodel.Am2901.create () in
  let agree = ref 0 and total = 500 in
  (* initialise the register file through the datapath *)
  for reg = 0 to 15 do
    Sim.poke_int sim "alu.i" 0o703;
    Sim.poke_int sim "alu.a" 0;
    Sim.poke_int sim "alu.b" reg;
    Sim.poke_int sim "alu.d" 0;
    Sim.poke_bool sim "alu.cin" false;
    Sim.step sim;
    ignore (Refmodel.Am2901.step model ~i:0o703 ~a:0 ~b:reg ~d:0 ~cin:false)
  done;
  Sim.poke_int sim "alu.i" 0o700;
  Sim.step sim;
  ignore (Refmodel.Am2901.step model ~i:0o700 ~a:0 ~b:0 ~d:0 ~cin:false);
  let rng = Random.State.make [| 2901 |] in
  for _ = 1 to total do
    let i = Random.State.int rng 512
    and a = Random.State.int rng 16
    and b = Random.State.int rng 16
    and dd = Random.State.int rng 16
    and cin = Random.State.bool rng in
    Sim.poke_int sim "alu.i" i;
    Sim.poke_int sim "alu.a" a;
    Sim.poke_int sim "alu.b" b;
    Sim.poke_int sim "alu.d" dd;
    Sim.poke_bool sim "alu.cin" cin;
    Sim.step sim;
    let r = Refmodel.Am2901.step model ~i ~a ~b ~d:dd ~cin in
    if Sim.peek_int sim "alu.y" = Some r.Refmodel.Am2901.y then incr agree
  done;
  Fmt.pr "  am2901: %d/%d random instructions agree with the golden model \
          (runtime errors: %d)@."
    !agree total
    (List.length (Sim.runtime_errors sim));
  Fmt.pr "  netlist: %s@." (Netlist.stats d.Elaborate.netlist);
  (* systolic stack: constant-cycle push/pop *)
  Fmt.pr "  stack depth sweep (one cycle per operation at any depth):@.";
  Fmt.pr "    %8s %8s %8s@." "depth" "nets" "regs";
  List.iter
    (fun depth ->
      let d = compile (Corpus.stack ~depth ~width:8) in
      Fmt.pr "    %8d %8d %8d@." depth
        (Netlist.net_count d.Elaborate.netlist)
        (List.length (Netlist.regs d.Elaborate.netlist)))
    [ 4; 8; 16; 32; 64 ];
  (* dictionary *)
  Fmt.pr "  dictionary slots sweep:@.";
  Fmt.pr "    %8s %8s %8s@." "slots" "nets" "gates";
  List.iter
    (fun slots ->
      let d = compile (Corpus.dictionary ~slots ~keybits:8) in
      Fmt.pr "    %8d %8d %8d@." slots
        (Netlist.net_count d.Elaborate.netlist)
        (List.length (Netlist.gates d.Elaborate.netlist)))
    [ 4; 8; 16; 32 ];
  (* systolic priority queue: constant-cycle insert/extract-min *)
  let d = compile (Corpus.priority_queue ~slots:8 ~width:4) in
  let sim = Sim.create d in
  Sim.poke_bool sim "pq.ins" false;
  Sim.poke_bool sim "pq.ext" false;
  Sim.poke_int sim "pq.din" 0;
  let mins = ref [] in
  List.iter
    (fun op ->
      (match op with
      | `I v ->
          Sim.poke_bool sim "pq.ins" true;
          Sim.poke_bool sim "pq.ext" false;
          Sim.poke_int sim "pq.din" v
      | `E ->
          Sim.poke_bool sim "pq.ins" false;
          Sim.poke_bool sim "pq.ext" true);
      Sim.step sim;
      Sim.poke_bool sim "pq.ins" false;
      Sim.poke_bool sim "pq.ext" false;
      Sim.step sim;
      mins := Sim.peek_int sim "pq.minout" :: !mins)
    [ `I 9; `I 3; `I 11; `E; `E; `E ];
  Fmt.pr "  pqueue(8x4): insert 9,3,11 then extract x3 -> min trace %a \
          (runtime errors: %d)@."
    Fmt.(list ~sep:sp (option ~none:(any "?") int))
    (List.rev !mins)
    (List.length (Sim.runtime_errors sim));
  (* odd-even transposition sorter (Thompson-style, section 9's
     invitation): sort a vector and count the cycles *)
  let n = 8 in
  let d = compile (Corpus.sorter ~n ~w:4) in
  let sim = Sim.create d in
  Sim.poke_bool sim "srt.load" false;
  let values = [ 7; 3; 15; 0; 9; 9; 1; 4 ] in
  List.iteri
    (fun i v -> Sim.poke_int sim (Printf.sprintf "srt.din[%d]" (i + 1)) v)
    values;
  Sim.reset sim;
  Sim.poke_bool sim "srt.load" true;
  Sim.step sim;
  Sim.poke_bool sim "srt.load" false;
  Sim.step_n sim (n + 1);
  Fmt.pr "  sorter(8x4): %a -> %a in %d cycles (runtime errors: %d)@."
    Fmt.(list ~sep:sp int)
    values
    Fmt.(list ~sep:sp (option ~none:(any "?") int))
    (List.init n (fun i ->
         Sim.peek_int sim (Printf.sprintf "srt.dout[%d]" (i + 1))))
    (n + 1)
    (List.length (Sim.runtime_errors sim))

(* ------------------------------------------------------------------ *)
(* One measurement path for E13-E19                                     *)
(* ------------------------------------------------------------------ *)

(* A result row is an ordered list of named fields; a [Group] nests
   exactly where the JSON nests.  One writer turns the rows into a
   BENCH_*.json and one printer turns the same rows into the stdout
   table, so every derived ratio is computed once, when the row is
   built.  check_bench reads the key names, so they never change. *)
type value =
  | Label of string
  | Count of int
  | Secs of float
  | Ratio of float
  | Mean of float  (* a deterministic per-item mean, to 4 places *)
  | Flag of bool
  | Group of row

and row = (string * value) list

let ratio a b = a /. Float.max 1e-9 b

let visits_secs visits secs =
  Group [ ("node_visits", Count visits); ("seconds", Secs secs) ]

(* the one clock: wall time, in seconds, of [f ()] *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* one engine run: the warm-up pokes, one uncounted cold-start cycle
   (which also holds any one-time compile), then [cycles] stimulated
   cycles; returns their node visits and seconds, and the handle *)
let drive engine ?discharged ~cycles d (warm, stim) =
  let sim = Sim.create ~engine ?discharged d in
  warm sim;
  Sim.step sim;
  let v0 = Sim.node_visits sim in
  let (), secs =
    timed (fun () ->
        for c = 1 to cycles do
          stim sim c;
          Sim.step sim
        done)
  in
  (Sim.node_visits sim - v0, secs, sim)

let quote s = "\"" ^ Diag.json_escape s ^ "\""

let rec json = function
  | Label s -> quote s
  | Count n -> string_of_int n
  | Secs s -> Printf.sprintf "%.6f" s
  | Ratio r -> Printf.sprintf "%.2f" r
  | Mean m -> Printf.sprintf "%.4f" m
  | Flag b -> string_of_bool b
  | Group fields -> "{" ^ String.concat ", " (List.map json_field fields) ^ "}"

and json_field (k, v) = quote k ^ ": " ^ json v

(* a table column is a header and the dotted path of the field it
   shows ("-" in a row without it); the first column is left-aligned,
   the rest right-aligned *)
let print_table columns rows =
  let cell row path =
    match
      List.fold_left
        (fun v k ->
          match v with Group g -> List.assoc k g | _ -> raise Not_found)
        (Group row)
        (String.split_on_char '.' path)
    with
    | Label s -> s
    | v -> json v
    | exception Not_found -> "-"
  in
  let lines =
    List.map fst columns
    :: List.map (fun row -> List.map (fun (_, p) -> cell row p) columns) rows
  in
  let widths =
    List.fold_left
      (List.map2 (fun w c -> max w (String.length c)))
      (List.map (fun _ -> 0) columns)
      lines
  in
  List.iter
    (fun line ->
      List.iteri
        (fun i (w, c) ->
          if i = 0 then Fmt.pr "  %-*s" w c else Fmt.pr " %*s" w c)
        (List.combine widths line);
      Fmt.pr "@.")
    lines

(* the table, then the file: one experiment per row; a row's scalars
   share a line and each of its groups gets a line of its own *)
let report path columns rows =
  print_table columns rows;
  let group = function _, Group _ -> true | _ -> false in
  let rec join prev = function
    | [] -> ""
    | f :: rest ->
        (if group prev || group f then ",\n     " else ", ")
        ^ json_field f ^ join f rest
  in
  let row = function
    | [] -> "    {}"
    | f :: rest -> "    {" ^ json_field f ^ join f rest ^ "}"
  in
  let oc = open_out path in
  output_string oc
    ("{\n  \"experiments\": [\n"
    ^ String.concat ",\n" (List.map row rows)
    ^ "\n  ]\n}\n");
  close_out oc;
  Fmt.pr "wrote %s@." path

(* ------------------------------------------------------------------ *)
(* E13: the cross-cycle incremental engine                              *)
(* ------------------------------------------------------------------ *)

(* ram(2^abits x 16) with one data bit toggling at a fixed address: the
   bit's fan-out is 2^abits write drivers, one of them enabled *)
let ram_write abits =
  ( Printf.sprintf "ram(%dx16)/1-bit-write" (1 lsl abits),
    Corpus.ram ~abits ~wbits:16,
    (fun sim ->
      Sim.poke_int sim "m.addr" 42;
      Sim.poke_int sim "m.data" 0;
      Sim.poke_bool sim "m.we" true),
    fun sim c -> Sim.poke_int sim "m.data" (c land 1) )

(* Low-activity workloads: a handful of input bits change per cycle
   while the bulk of the design is quiet — the regime the cross-cycle
   incremental engine exists for.  Each workload is
   (name, source, warm-up pokes, per-cycle stimulus). *)
let e13_workloads =
  [
    ( "routing(128)/1-header",
      Corpus.routing_network 128,
      (fun sim ->
        for i = 0 to 127 do
          Sim.poke_int sim (Printf.sprintf "net.input[%d]" i) i
        done),
      fun sim c -> Sim.poke_int sim "net.input[0]" (c land 1) );
    ram_write 6;
    ram_write 8;
    ram_write 10;
    ( "adder(64)/cin-toggle",
      Corpus.adder_n 64,
      (fun sim ->
        Sim.poke_int_lsb sim "adder.a" 0;
        Sim.poke_int_lsb sim "adder.b" 0;
        Sim.poke_bool sim "adder.cin" false),
      fun sim c -> Sim.poke_bool sim "adder.cin" (c land 1 = 1) );
  ]

let e13_incremental ~cycles () =
  section "E13"
    "cross-cycle incremental engine: node visits and wall clock vs \
     per-cycle firing (low-activity workloads)";
  (* the narrowest and widest ram: the incremental engine's µs per
     stimulated cycle over a longer stretch than [cycles], on the warm
     handle *)
  let narrow = "ram(64x16)/1-bit-write" and wide = "ram(1024x16)/1-bit-write" in
  let long = 20_000 and per_cycle = Hashtbl.create 2 in
  let bench (name, src, warm, stim) =
    let d = compile src in
    let fv, fs, fsim = drive Sim.Firing ~cycles d (warm, stim) in
    let iv, is_, isim = drive Sim.Incremental ~cycles d (warm, stim) in
    let agree = Sim.snapshot fsim = Sim.snapshot isim in
    (* a fully quiescent tail: the incremental engine must do no work *)
    let q0 = Sim.node_visits isim in
    Sim.step_n isim 10;
    let qv = Sim.node_visits isim - q0 in
    if name = narrow || name = wide then begin
      let (), secs =
        timed (fun () ->
            for c = 1 to long do
              stim isim c;
              Sim.step isim
            done)
      in
      Hashtbl.replace per_cycle name (secs *. 1e6 /. float_of_int long)
    end;
    [
      ("design", Label name);
      ("cycles", Count cycles);
      ("firing", visits_secs fv fs);
      ("incremental", visits_secs iv is_);
      ( "visit_ratio",
        Ratio (ratio (float_of_int fv) (float_of_int (max 1 iv))) );
      ("quiescent_visits_per_cycle", Count (qv / 10));
      ("snapshots_agree", Flag agree);
    ]
  in
  report "BENCH_sim.json"
    [
      ("workload", "design"); ("cycles", "cycles");
      ("fire-vis", "firing.node_visits"); ("fire-s", "firing.seconds");
      ("incr-vis", "incremental.node_visits");
      ("incr-s", "incremental.seconds"); ("ratio", "visit_ratio");
      ("quiet", "quiescent_visits_per_cycle"); ("agree", "snapshots_agree");
    ]
    (List.map bench e13_workloads);
  Fmt.pr "(\"quiet\" = incremental node visits per fully quiescent cycle — \
          must be 0)@.";
  (* the fan-out walk costs O(width / 62 + enabled drivers): the cycle
     should barely grow with the ram's width *)
  let narrow_us = Hashtbl.find per_cycle narrow
  and wide_us = Hashtbl.find per_cycle wide in
  Fmt.pr
    "incremental µs per cycle over %d cycles: ram(64x16) %.2f, ram(1024x16) \
     %.2f, 1024/64 ratio %.2f@."
    long narrow_us wide_us (ratio wide_us narrow_us)

(* ------------------------------------------------------------------ *)
(* E14: modular summary analysis vs elaborate-then-lint                 *)
(* ------------------------------------------------------------------ *)

(* The modular pass is O(types × signatures): the recursive families
   need log N summaries while elaboration builds Θ(N log N) hardware,
   so the modular column should stay near-flat as N grows. *)
let e14_families ~smoke =
  [
    ("routing", Corpus.routing_network, "routingnetwork",
     if smoke then [ 4; 16 ] else [ 4; 8; 16; 32; 64; 128 ]);
    ("htree", Corpus.htree, "htree",
     if smoke then [ 16 ] else [ 4; 16; 64; 256 ]);
  ]

let e14_bench family mk ty n =
  let src = mk n in
  let prog =
    match Parser.program src with
    | Some p, _ -> p
    | None, _ ->
        Fmt.epr "E14: %s(%d) does not parse@." family n;
        exit 1
  in
  (* modular: parse + summaries, no cache, no elaboration; averaged over
     a few repetitions because a single run takes well under a
     millisecond *)
  let reps = 5 in
  let r, mod_secs =
    timed (fun () ->
        for _ = 2 to reps do
          ignore (Summary.analyze prog)
        done;
        Summary.analyze prog)
  in
  let mod_secs = mod_secs /. float_of_int reps in
  (* the elaborated pipeline it replaces: elaborate + check + lint *)
  let d, elab_secs =
    timed (fun () ->
        let d = compile src in
        ignore (Lint.run d : Lint.report);
        d)
  in
  [
    ("design", Label (Printf.sprintf "%s(%d)" family n));
    ("nets", Count (Netlist.net_count d.Elaborate.netlist));
    ( "modular",
      Group
        [
          (* (type, signature) summaries the modular pass built *)
          ("summaries", Count r.Summary.summaries_computed);
          ("seconds", Secs mod_secs);
        ] );
    ("elaborate_lint", Group [ ("seconds", Secs elab_secs) ]);
    ("speedup", Ratio (ratio elab_secs mod_secs));
    (* top type proved conflict-safe AND cycle-free *)
    ( "proven",
      Flag
        (List.mem ty r.Summary.proven_conflict_safe
        && List.mem ty r.Summary.proven_cycle_free) );
  ]

let e14_modular ?(smoke = false) () =
  section "E14"
    "modular summary analysis vs elaborate-then-lint on the recursive \
     families (seconds; modular should stay near-flat in N)";
  report "BENCH_modular.json"
    [
      ("design", "design"); ("nets", "nets");
      ("summaries", "modular.summaries"); ("modular-s", "modular.seconds");
      ("elab-s", "elaborate_lint.seconds"); ("speedup", "speedup");
      ("proven", "proven");
    ]
    (List.concat_map
       (fun (family, mk, ty, sizes) -> List.map (e14_bench family mk ty) sizes)
       (e14_families ~smoke))

(* ------------------------------------------------------------------ *)
(* E16: the proof-carrying reduction (zeusc opt)                        *)
(* ------------------------------------------------------------------ *)

(* High-activity workloads (restated by E17-E19): most of the design
   switches every cycle, so the dirty cone is wide.  Each workload is
   (name, source, warm-up pokes, per-cycle stimulus). *)
let activity_workloads =
  [
    ( "routing(128)/all-headers",
      Corpus.routing_network 128,
      (fun sim ->
        for i = 0 to 127 do
          Sim.poke_int sim (Printf.sprintf "net.input[%d]" i) i
        done),
      fun sim c ->
        for i = 0 to 127 do
          Sim.poke_int sim
            (Printf.sprintf "net.input[%d]" i)
            ((i + c) land 1023)
        done );
    ( "htree(256)/root-toggle",
      Corpus.htree 256,
      (fun sim -> Sim.poke_bool sim "a.in" false),
      fun sim c -> Sim.poke_bool sim "a.in" (c land 1 = 1) );
    ( "patternmatch(9)/stream",
      Corpus.patternmatch 9,
      (fun sim ->
        List.iter
          (fun p -> Sim.poke_bool sim ("match." ^ p) false)
          [ "pattern"; "string"; "endofpattern"; "wild"; "resultin" ]),
      fun sim c ->
        Sim.poke_bool sim "match.pattern" (c land 1 = 1);
        Sim.poke_bool sim "match.string" (c land 2 = 2);
        Sim.poke_bool sim "match.endofpattern" (c mod 9 = 0);
        Sim.poke_bool sim "match.wild" (c land 4 = 4);
        Sim.poke_bool sim "match.resultin" (c land 1 = 0) );
  ]

let e16_opt ~cycles () =
  section "E16"
    "proof-carrying reduction: optimized vs plain simulation (incremental \
     engine, high-activity workloads)";
  let bench (name, src, warm, stim) =
    let d = compile src in
    let r = Reduce.run d in
    let pv, ps, psim = drive Sim.Incremental ~cycles d (warm, stim) in
    let ov, os_, osim =
      drive Sim.Incremental ~cycles r.Reduce.design (warm, stim)
    in
    (* observable equality through each design's class map: the
       reduction merges copy classes, so only per-net root slots are
       comparable (same check as oracle row O6, on the final state) *)
    let g1 = Graph.build d and g2 = Graph.build r.Reduce.design in
    let s1 = Sim.snapshot psim and s2 = Sim.snapshot osim in
    let ai = r.Reduce.ai in
    let agree = ref true in
    Array.iter
      (fun root ->
        if ai.Absint.observable.(ai.Absint.graph.Graph.canon.(root)) then begin
          let slot2 = g2.Graph.rep.(g2.Graph.canon.(root)) in
          if s1.(root) <> s2.(slot2) then agree := false
        end)
      g1.Graph.rep;
    let s = r.Reduce.stats in
    [
      ("design", Label name);
      ("cycles", Count cycles);
      ( "reduction",
        Group
          [
            ("gates_before", Count s.Reduce.gates_before);
            ("gates_after", Count s.Reduce.gates_after);
            ("drivers_before", Count s.Reduce.drivers_before);
            ("drivers_after", Count s.Reduce.drivers_after);
            ("consts_folded", Count s.Reduce.consts_folded);
            ("copies_merged", Count s.Reduce.copies_merged);
            ("nets_eliminated", Count s.Reduce.nets_eliminated);
          ] );
      ("plain", visits_secs pv ps);
      ( "optimized",
        Group
          [
            ("node_visits", Count ov);
            ("seconds", Secs os_);
            ("speedup", Ratio (ratio ps os_));
            ("snapshots_agree", Flag !agree);
          ] );
    ]
  in
  report "BENCH_opt.json"
    [
      ("workload", "design"); ("gates", "reduction.gates_before");
      ("gates'", "reduction.gates_after");
      ("drivers", "reduction.drivers_before");
      ("drivers'", "reduction.drivers_after");
      ("folded", "reduction.consts_folded");
      ("merged", "reduction.copies_merged");
      ("plain-vis", "plain.node_visits"); ("plain-s", "plain.seconds");
      ("opt-vis", "optimized.node_visits"); ("opt-s", "optimized.seconds");
      ("speedup", "optimized.speedup");
      ("agree", "optimized.snapshots_agree");
    ]
    (List.map bench activity_workloads)

(* ------------------------------------------------------------------ *)
(* E17: the compiled bytecode engine                                    *)
(* ------------------------------------------------------------------ *)

(* The high-activity workloads, with the poke paths resolved once
   per design instead of sprintf+resolve on every cycle — the stimulus
   must not dominate the measurement when the engine under test spends
   well under a millisecond per cycle. *)
let e17_workloads =
  [
    ( "routing(128)/all-headers",
      Corpus.routing_network 128,
      fun d ->
        let nets =
          Array.init 128 (fun i ->
              match
                Elaborate.resolve_path d (Printf.sprintf "net.input[%d]" i)
              with
              | Ok nets -> nets
              | Error msg -> failwith msg)
        in
        let headers =
          Array.init 1024 (fun v -> Cval.sctree_leaves (Cval.bin v 10))
        in
        ( (fun sim ->
            for i = 0 to 127 do
              Sim.poke_nets sim nets.(i) headers.(i)
            done),
          fun sim c ->
            for i = 0 to 127 do
              Sim.poke_nets sim nets.(i) headers.((i + c) land 1023)
            done ) );
    ( "htree(256)/root-toggle",
      Corpus.htree 256,
      fun _ ->
        ( (fun sim -> Sim.poke_bool sim "a.in" false),
          fun sim c -> Sim.poke_bool sim "a.in" (c land 1 = 1) ) );
    ( "patternmatch(9)/stream",
      Corpus.patternmatch 9,
      fun _ ->
        ( (fun sim ->
            List.iter
              (fun p -> Sim.poke_bool sim ("match." ^ p) false)
              [ "pattern"; "string"; "endofpattern"; "wild"; "resultin" ]),
          fun sim c ->
            Sim.poke_bool sim "match.pattern" (c land 1 = 1);
            Sim.poke_bool sim "match.string" (c land 2 = 2);
            Sim.poke_bool sim "match.endofpattern" (c mod 9 = 0);
            Sim.poke_bool sim "match.wild" (c land 4 = 4);
            Sim.poke_bool sim "match.resultin" (c land 1 = 0) ) );
  ]

let e17_compiled ~cycles () =
  section "E17"
    "compiled bytecode engine: wall clock and program shape vs incremental \
     (high-activity workloads, poke paths preresolved)";
  let bench (name, src, prepare) =
    let d = compile src in
    let workload = prepare d in
    let iv, is_, isim = drive Sim.Incremental ~cycles d workload in
    let cv, cs, csim = drive Sim.Compiled ~cycles d workload in
    let p = Option.get (Sim.compiled_program csim) in
    [
      ("design", Label name);
      ("cycles", Count cycles);
      ("incremental", visits_secs iv is_);
      ( "compiled",
        Group
          [
            ("node_visits", Count cv);
            ("seconds", Secs cs);
            ("speedup", Ratio (ratio is_ cs));
            ("prog_ops", Count (Array.length p.Bytecode.ops));
            ("scalar_ops", Count p.Bytecode.scalar_ops);
            ("vector_ops", Count p.Bytecode.vector_ops);
            ("vector_lanes", Count p.Bytecode.vector_lanes);
            ("compile_seconds", Secs p.Bytecode.compile_secs);
            ("snapshots_agree", Flag (Sim.snapshot csim = Sim.snapshot isim));
          ] );
    ]
  in
  report "BENCH_compiled.json"
    [
      ("workload", "design"); ("incr-vis", "incremental.node_visits");
      ("incr-s", "incremental.seconds"); ("comp-vis", "compiled.node_visits");
      ("comp-s", "compiled.seconds"); ("speedup", "compiled.speedup");
      ("progops", "compiled.prog_ops"); ("vlanes", "compiled.vector_lanes");
      ("agree", "compiled.snapshots_agree");
    ]
    (List.map bench e17_workloads);
  Fmt.pr "(program shape is design-deterministic; wall-clock speedup is \
          machine-dependent)@."

(* ------------------------------------------------------------------ *)
(* E18: the batch engine (whole-run sharding + bit-sliced groups)       *)
(* ------------------------------------------------------------------ *)

(* The high-activity corpus restated as independent batch runs: run
   [r] drives the same nets with a per-run offset, so no two runs share
   a stimulus (and each run gets its own RANDOM seed). *)
let e18_workloads =
  [
    ( "routing(128)/all-headers",
      Corpus.routing_network 128,
      fun ~runs ~cycles ->
        let headers =
          Array.init 1024 (fun v -> Cval.sctree_leaves (Cval.bin v 10))
        in
        let paths =
          Array.init 128 (fun i -> Printf.sprintf "net.input[%d]" i)
        in
        Array.init runs (fun r ->
            Array.init cycles (fun c ->
                Array.to_list
                  (Array.mapi
                     (fun i p -> (p, headers.((i + c + (7 * r)) land 1023)))
                     paths))) );
    ( "htree(256)/root-toggle",
      Corpus.htree 256,
      fun ~runs ~cycles ->
        Array.init runs (fun r ->
            Array.init cycles (fun c ->
                [
                  ( "a.in",
                    [ (if (c + r) land 1 = 1 then Logic.One else Logic.Zero) ]
                  );
                ])) );
    ( "patternmatch(9)/stream",
      Corpus.patternmatch 9,
      fun ~runs ~cycles ->
        let b v = [ (if v then Logic.One else Logic.Zero) ] in
        Array.init runs (fun r ->
            Array.init cycles (fun c ->
                let c = c + r in
                [
                  ("match.pattern", b (c land 1 = 1));
                  ("match.string", b (c land 2 = 2));
                  ("match.endofpattern", b (c mod 9 = 0));
                  ("match.wild", b (c land 4 = 4));
                  ("match.resultin", b (c land 1 = 0));
                ])) );
  ]

(* The deck reader on a batch-narrow-shaped deck: patternmatch(9), each
   run an RSET=1 then an RSET=0 line, then every input poked 0/1 each
   cycle.  Returns (runs, pokes), (seconds, minor words) of one
   [Stimulus.read_deck]; the words are deterministic. *)
let e18_deck ~runs ~cycles =
  let d = compile (Corpus.patternmatch 9) in
  let inputs = [ "pattern"; "string"; "endofpattern"; "wild"; "resultin" ] in
  let b = Buffer.create (runs * cycles * 90) and pokes = ref 0 in
  for r = 0 to runs - 1 do
    Buffer.add_string b "run\nRSET=1\nRSET=0\n";
    pokes := !pokes + 2;
    for c = 0 to cycles - 1 do
      List.iteri
        (fun i p ->
          Printf.bprintf b "%smatch.%s=%d"
            (if i = 0 then "" else " ")
            p
            (((r * 7) + (c * 3) + i) / (i + 1) land 1))
        inputs;
      Buffer.add_char b '\n';
      pokes := !pokes + List.length inputs
    done
  done;
  let text = Buffer.contents b in
  let w0 = Gc.minor_words () in
  let _, secs =
    timed (fun () -> Stimulus.read_deck d ~name:"deck" ~watch:[] text)
  in
  let words = Gc.minor_words () -. w0 in
  ((runs, !pokes), (secs, words))

let e18_batch ~runs:nruns ~cycles ~jobs () =
  section "E18"
    (Printf.sprintf
       "batch engine: whole-run sharding + bit-sliced groups, runs/second \
        vs a fresh serial incremental handle per run (jobs=%d, lanes=%d)"
       jobs Bytecode.max_runs);
  let lanes = Bytecode.max_runs in
  let batch ?snapshots tmpl runs =
    match Sim.run_batch ~jobs ~lanes ?snapshots tmpl runs with
    | Ok r -> r
    | Error m -> failwith m
  in
  (* one measurement: (runs, lane groups, lane runs, serial-fallback
     runs), (serial, cold, warm seconds), every final snapshot agrees *)
  let bench (name, src, mk) =
    let d = compile src in
    let stims = mk ~runs:nruns ~cycles in
    let batch_runs =
      Array.to_list
        (Array.mapi
           (fun r stim ->
             {
               Sim.br_stim = stim;
               br_cycles = cycles;
               br_seed = Some r;
               br_watch = [];
             })
           stims)
    in
    (* serial baseline: one fresh incremental handle per run; poke
       paths pre-resolved once per design so the stimulus does not
       dominate the measurement (as in E17) *)
    let resolved = Hashtbl.create 64 in
    Array.iter
      (Array.iter
         (List.iter (fun (p, _) ->
              if not (Hashtbl.mem resolved p) then
                match Elaborate.resolve_path d p with
                | Ok nets -> Hashtbl.add resolved p nets
                | Error m -> failwith m)))
      stims;
    let serial_snaps, serial_secs =
      timed (fun () ->
          Array.mapi
            (fun r stim ->
              let sim = Sim.create ~engine:Sim.Incremental ~seed:r d in
              Array.iter
                (fun pokes ->
                  List.iter
                    (fun (p, bits) ->
                      Sim.poke_nets sim (Hashtbl.find resolved p) bits)
                    pokes;
                  Sim.step sim)
                stim;
              Sim.snapshot sim)
            stims)
    in
    (* cold: template creation (graph, schedule, one-time bytecode
       compile) plus the batch itself *)
    let (tmpl, (_, st)), cold_secs =
      timed (fun () ->
          let tmpl = Sim.create ~engine:Sim.Compiled d in
          (tmpl, batch tmpl batch_runs))
    in
    (* warm: the template (and its compiled program) is reused *)
    let _, warm_secs = timed (fun () -> batch tmpl batch_runs) in
    (* the timed batches build no snapshots; agreement comes from one
       extra untimed pass that asks for them (the last is the final
       state) *)
    let checked, _ = batch ~snapshots:true tmpl batch_runs in
    let agree =
      List.for_all2
        (fun (res : Sim.batch_result) serial ->
          match List.rev res.Sim.bres_snaps with
          | final :: _ -> final = serial
          | [] -> false)
        checked (Array.to_list serial_snaps)
    in
    ( name,
      ( (nruns, st.Sim.bs_lane_groups, st.Sim.bs_lane_runs,
         st.Sim.bs_serial_runs),
        (serial_secs, cold_secs, warm_secs),
        agree ) )
  in
  let row
      (name, ((runs, groups, lane_runs, fallback), (serial, cold, warm), agree))
      =
    let rps secs = Ratio (ratio (float_of_int runs) secs) in
    [
      ("design", Label name);
      ("runs", Count runs);
      ("cycles", Count cycles);
      ("jobs", Count jobs);
      ("lanes", Count lanes);
      ("lane_groups", Count groups);
      ("lane_runs", Count lane_runs);
      ("serial_fallback_runs", Count fallback);
      ( "serial",
        Group [ ("seconds", Secs serial); ("serial_runs_per_sec", rps serial) ]
      );
      ( "batch",
        Group
          [
            ("cold_seconds", Secs cold);
            ("cold_runs_per_sec", rps cold);
            ("warm_seconds", Secs warm);
            ("warm_runs_per_sec", rps warm);
            ("speedup_cold", Ratio (ratio serial cold));
            ("speedup_warm", Ratio (ratio serial warm));
            ("snapshots_agree", Flag agree);
          ] );
    ]
  in
  let measured = List.map bench e18_workloads in
  (* the acceptance metric: runs/second over the whole corpus — one
     slow-to-simulate design must not hide behind two fast ones (or
     vice versa), so the totals weight each run by its true cost;
     cycles, jobs and lanes stay per-run *)
  let add ((r, g, l, f), (s, c, w), a)
      (_, ((r', g', l', f'), (s', c', w'), a')) =
    ((r + r', g + g', l + l', f + f'), (s +. s', c +. c', w +. w'), a && a')
  in
  let total = List.fold_left add ((0, 0, 0, 0), (0., 0., 0.), true) measured in
  (* the deck row: a fixed 200-run deck in every mode, so the words per
     poke do not depend on --smoke *)
  let deck =
    let deck_cycles = 50 in
    let (runs, pokes), (secs, words) = e18_deck ~runs:200 ~cycles:deck_cycles in
    [
      ("design", Label "deck/patternmatch(9)");
      ("runs", Count runs);
      ("cycles", Count deck_cycles);
      ("pokes", Count pokes);
      ( "reader",
        Group
          [
            ("seconds", Secs secs);
            ("minor_words_per_poke", Mean (words /. float_of_int pokes));
          ] );
    ]
  in
  report "BENCH_batch.json"
    [
      ("workload", "design"); ("runs", "runs"); ("serial-s", "serial.seconds");
      ("serial-r/s", "serial.serial_runs_per_sec");
      ("cold-s", "batch.cold_seconds"); ("cold-r/s", "batch.cold_runs_per_sec");
      ("warm-s", "batch.warm_seconds"); ("warm-r/s", "batch.warm_runs_per_sec");
      ("x-cold", "batch.speedup_cold"); ("x-warm", "batch.speedup_warm");
      ("groups", "lane_groups"); ("agree", "batch.snapshots_agree");
      ("reader-s", "reader.seconds");
      ("words/poke", "reader.minor_words_per_poke");
    ]
    (List.map row (measured @ [ ("corpus-total", total) ]) @ [ deck ]);
  Fmt.pr "(counters are deterministic in (design, runs, jobs, lanes); \
          runs/second is machine-dependent)@."

(* ------------------------------------------------------------------ *)
(* E19: the bounded sequential prover + conflict-check discharge        *)
(* ------------------------------------------------------------------ *)

(* Register-heavy machines whose driver exclusivity is sequential —
   the regime the prover targets — plus one registerless high-activity
   workload as the no-op control (proof cost on a purely combinational
   design).
   Each workload is (name, source, warm-up pokes, per-cycle stimulus);
   the stimulus pokes only defined values, which is the environment
   assumption discharge lives under. *)
let e19_workloads =
  [
    ( "pqueue(8x4)/ins-ext",
      Corpus.priority_queue ~slots:8 ~width:4,
      (fun sim ->
        Sim.poke_bool sim "pq.ins" false;
        Sim.poke_bool sim "pq.ext" false;
        Sim.poke_int sim "pq.din" 0),
      fun sim c ->
        (* alternate insert / idle / extract / idle *)
        Sim.poke_bool sim "pq.ins" (c land 3 = 0);
        Sim.poke_bool sim "pq.ext" (c land 3 = 2);
        Sim.poke_int sim "pq.din" (c land 15) );
    ( "sorter(8x4)/reload",
      Corpus.sorter ~n:8 ~w:4,
      (fun sim ->
        Sim.poke_bool sim "srt.load" false;
        for i = 1 to 8 do
          Sim.poke_int sim (Printf.sprintf "srt.din[%d]" i) 0
        done),
      fun sim c ->
        (* reload a fresh vector every 10 cycles, sort in between *)
        Sim.poke_bool sim "srt.load" (c mod 10 = 0);
        for i = 1 to 8 do
          Sim.poke_int sim
            (Printf.sprintf "srt.din[%d]" i)
            ((c + (3 * i)) land 15)
        done );
    ( "htree(256)/root-toggle",
      Corpus.htree 256,
      (fun sim -> Sim.poke_bool sim "a.in" false),
      fun sim c -> Sim.poke_bool sim "a.in" (c land 1 = 1) );
  ]

let e19_prove ~cycles () =
  section "E19"
    "bounded sequential prover: proof cost, upgraded nets, and the \
     compiled engine with conflict checks discharged";
  let bench (name, src, warm, stim) =
    let d = compile src in
    let lint = Lint.run d in
    let nrc =
      List.length
        (List.filter
           (fun (v : Lint.net_verdict) ->
             v.Lint.v_class = Lint.Needs_runtime_check)
           lint.Lint.verdicts)
    in
    let sp, prove_secs = timed (fun () -> Seqprove.run ~lint d) in
    let disch = Seqprove.discharged d sp in
    let _, ps, psim = drive Sim.Compiled ~cycles d (warm, stim) in
    let _, ds, dsim =
      drive Sim.Compiled ~discharged:(fun c -> disch.(c)) ~cycles d (warm, stim)
    in
    let plain = Option.get (Sim.compiled_program psim)
    and dis = Option.get (Sim.compiled_program dsim) in
    [
      ("design", Label name);
      ("cycles", Count cycles);
      ( "prove",
        Group
          [
            ("registers", Count (List.length sp.Seqprove.sp_regs));
            (* needs-runtime-check before the prover, and how many of
               them it upgraded to safe-sequential *)
            ("nrc_nets", Count nrc);
            ("upgraded_nets", Count (List.length sp.Seqprove.sp_upgraded));
            ("splits", Count sp.Seqprove.sp_splits);
            ("seconds", Secs prove_secs);
          ] );
      ( "plain",
        Group
          [
            ("check_ops", Count plain.Bytecode.check_ops);
            ("seconds", Secs ps);
          ] );
      ( "discharged",
        Group
          [
            ("check_ops", Count dis.Bytecode.check_ops);
            ("discharged_ops", Count dis.Bytecode.discharged_ops);
            ("seconds", Secs ds);
            ("speedup", Ratio (ratio ps ds));
            ("snapshots_agree", Flag (Sim.snapshot dsim = Sim.snapshot psim));
          ] );
    ]
  in
  report "BENCH_prove.json"
    [
      ("workload", "design"); ("regs", "prove.registers");
      ("nrc", "prove.nrc_nets"); ("upgrade", "prove.upgraded_nets");
      ("splits", "prove.splits"); ("prove-s", "prove.seconds");
      ("chkops", "plain.check_ops"); ("plain-s", "plain.seconds");
      ("chkops'", "discharged.check_ops");
      ("dischrg", "discharged.discharged_ops");
      ("disch-s", "discharged.seconds"); ("speedup", "discharged.speedup");
      ("agree", "discharged.snapshots_agree");
    ]
    (List.map bench e19_workloads);
  Fmt.pr "(proof counters are design-deterministic; wall-clock is \
          machine-dependent)@."

(* ------------------------------------------------------------------ *)
(* Timing benchmarks (Bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let compile_test name src =
    Test.make ~name (Staged.stage (fun () -> ignore (Zeus.compile src)))
  in
  let sim_cycle_test ?(engine = Sim.Firing) name src =
    let d = compile src in
    let sim = Sim.create ~engine d in
    Test.make ~name (Staged.stage (fun () -> Sim.step sim))
  in
  let sweep_cycle_test order name src =
    let d = compile src in
    Test.make ~name
      (Staged.stage (fun () -> ignore (Sweep.run ~order d [ [] ])))
  in
  let layout_test name src top =
    let d = compile src in
    Test.make ~name (Staged.stage (fun () -> ignore (Floorplan.of_design d top)))
  in
  Test.make_grouped ~name:"zeus"
    [
      (* E1: compile + simulate scaling on the adder family *)
      compile_test "e1/compile/adder8" (Corpus.adder_n 8);
      compile_test "e1/compile/adder64" (Corpus.adder_n 64);
      sim_cycle_test "e1/cycle/adder8" (Corpus.adder_n 8);
      sim_cycle_test "e1/cycle/adder64" (Corpus.adder_n 64);
      (* E2 *)
      compile_test "e2/compile/blackjack" Corpus.blackjack;
      sim_cycle_test "e2/cycle/blackjack" Corpus.blackjack;
      (* E3 *)
      layout_test "e3/floorplan/htree256" (Corpus.htree 256) "a";
      (* E4 *)
      sim_cycle_test "e4/cycle/patternmatch9" (Corpus.patternmatch 9);
      (* E6 *)
      compile_test "e6/compile/routing32" (Corpus.routing_network 32);
      (* E8: one cycle under each scheduling engine *)
      sim_cycle_test ~engine:Sim.Firing "e8/firing/adder64" (Corpus.adder_n 64);
      sweep_cycle_test Sweep.Fixpoint "e8/fixpoint/adder64" (Corpus.adder_n 64);
      sweep_cycle_test Sweep.Relaxation "e8/relaxation/adder64"
        (Corpus.adder_n 64);
      sim_cycle_test ~engine:Sim.Incremental "e8/incremental/adder64"
        (Corpus.adder_n 64);
      (* A1: the abstract's machines *)
      sim_cycle_test "a1/cycle/am2901" Corpus.am2901;
      sim_cycle_test "a1/cycle/stack32" (Corpus.stack ~depth:32 ~width:8);
      sim_cycle_test "a1/cycle/dictionary16"
        (Corpus.dictionary ~slots:16 ~keybits:8);
    ]

let run_timing () =
  let open Bechamel in
  let open Toolkit in
  section "TIMING" "Bechamel estimates (ns per run, monotonic clock)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~stabilize:false ~quota:(Time.second 0.25) ()
  in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some [ e ] -> Fmt.str "%12.0f ns/run" e
        | _ -> "(no estimate)"
      in
      Fmt.pr "  %-32s %s@." name est)
    (List.sort compare rows)

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let batch_smoke = Array.exists (( = ) "--batch-smoke") Sys.argv in
  let timing =
    (not (Array.exists (( = ) "--no-timing") Sys.argv))
    && (not smoke) && not batch_smoke
  in
  if batch_smoke then begin
    (* CI batch job: only E18, at the hosted runner's 2 cores — the
       artifact is uploaded, not checked against the committed jobs=4
       baseline (the counters are jobs-dependent) *)
    Fmt.pr "Zeus benchmark suite (batch smoke mode: E18 only)@.";
    e18_batch ~runs:16 ~cycles:10 ~jobs:2 ()
  end
  else if smoke then begin
    (* CI mode: only the simulator benches, shortened, plus the JSON dump *)
    Fmt.pr "Zeus benchmark suite (smoke mode: simulator benches only)@.";
    e8_simcmp ();
    e13_incremental ~cycles:50 ();
    e14_modular ~smoke:true ();
    e16_opt ~cycles:20 ();
    e17_compiled ~cycles:50 ();
    e18_batch ~runs:16 ~cycles:10 ~jobs:4 ();
    e19_prove ~cycles:50 ()
  end
  else begin
    Fmt.pr "Zeus reproduction benchmark suite (every table/figure of the \
            report's examples)@.";
    e1_adders ();
    e2_blackjack ();
    e3_htree ();
    e4_patternmatch ();
    e5_evalseq ();
    e6_routing ();
    e7_typerules ();
    e8_simcmp ();
    e9_runtime_checks ();
    e10_lazy_ablation ();
    e11_autoplace ();
    e12_reduce ();
    a1_machines ();
    e13_incremental ~cycles:200 ();
    e14_modular ();
    e16_opt ~cycles:100 ();
    e17_compiled ~cycles:200 ();
    e18_batch ~runs:32 ~cycles:25 ~jobs:4 ();
    e19_prove ~cycles:200 ();
    if timing then run_timing ()
  end
