(* The tooling layer: Testbench harness, netlist Stats, and the zeusc
   plumbing (dot output structure). *)

open Zeus

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

(* ---- Testbench ---- *)

let test_testbench_pass () =
  let d = compile (Corpus.adder_n 4) in
  let tb = Testbench.create d in
  Testbench.run_table tb
    ~inputs:[ "adder.a"; "adder.b"; "adder.cin" ]
    ~outputs:[ "adder.cout" ]
    [
      (* run_table pokes MSB-first while the paper's adder is LSB-first;
         bit-palindromic values (0,6,9,15) read the same either way *)
      ([ 9; 6; 0 ], [ 0 ]);
      (* 9+6=15: no carry *)
      ([ 9; 9; 0 ], [ 1 ]);
      (* 18: carry *)
      ([ 15; 15; 1 ], [ 1 ]);
    ];
  Alcotest.(check bool) "ok" true (Testbench.ok tb);
  Alcotest.(check int) "no failures" 0 (List.length (Testbench.failures tb))

let test_testbench_fail_reporting () =
  let d = compile (Corpus.adder_n 4) in
  let tb = Testbench.create d in
  Testbench.set_lsb tb "adder.a" 2;
  Testbench.set_lsb tb "adder.b" 2;
  Testbench.set_bool tb "adder.cin" false;
  Testbench.clock tb;
  Testbench.expect_int_lsb tb "adder.s" 5 (* wrong on purpose: 2+2=4 *);
  Alcotest.(check bool) "not ok" false (Testbench.ok tb);
  match Testbench.failures tb with
  | [ f ] ->
      Alcotest.(check string) "signal" "adder.s" f.Testbench.signal;
      Alcotest.(check string) "expected" "5" f.Testbench.expected;
      Alcotest.(check string) "actual" "4" f.Testbench.actual
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_testbench_expect_bits () =
  let d = compile (Corpus.adder_n 2) in
  let tb = Testbench.create d in
  Testbench.set_bits tb "adder.a" [ Logic.One; Logic.Undef ];
  Testbench.set_lsb tb "adder.b" 0;
  Testbench.set_bool tb "adder.cin" false;
  Testbench.clock tb;
  (* a[2] undefined poisons s[2] but not s[1]... a[1]+0 is defined *)
  Testbench.expect_bits tb "adder.s[1]" [ Logic.One ];
  Alcotest.(check bool) "bit check passes" true (Testbench.failures tb = [])

(* ---- Stats ---- *)

let test_stats_counts () =
  let d = compile (Corpus.adder_n 8) in
  let s = Stats.of_design d in
  Alcotest.(check int) "gates" 40 s.Stats.gates;
  Alcotest.(check int) "instances" 25 s.Stats.instances;
  Alcotest.(check bool) "histogram covers all gates" true
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Stats.gate_histogram
    = s.Stats.gates)

let test_stats_depth_scales () =
  (* ripple-carry depth grows linearly with width *)
  let depth n =
    let d = compile (Corpus.adder_n n) in
    (Stats.of_design d).Stats.depth
  in
  let d8 = depth 8 and d16 = depth 16 and d32 = depth 32 in
  Alcotest.(check bool)
    (Printf.sprintf "monotone (%d < %d < %d)" d8 d16 d32)
    true
    (d8 < d16 && d16 < d32);
  (* roughly linear: d32 / d8 should be close to 4 *)
  let ratio = float_of_int d32 /. float_of_int d8 in
  Alcotest.(check bool)
    (Printf.sprintf "linear-ish ratio %.2f" ratio)
    true
    (ratio > 3.0 && ratio < 5.0)

let test_stats_regs_break_depth () =
  (* a REG pipeline has constant combinational depth regardless of
     length *)
  let pipeline n =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "TYPE t = COMPONENT (IN d: boolean; OUT q: boolean) IS\n";
    Buffer.add_string buf
      (Printf.sprintf "SIGNAL r: ARRAY[1..%d] OF REG;\nBEGIN\n" n);
    Buffer.add_string buf "  r[1].in := d;\n";
    for i = 2 to n do
      Buffer.add_string buf
        (Printf.sprintf "  r[%d].in := NOT r[%d].out;\n" i (i - 1))
    done;
    Buffer.add_string buf
      (Printf.sprintf "  q := r[%d].out\nEND;\nSIGNAL s: t;\n" n);
    let d = compile (Buffer.contents buf) in
    (Stats.of_design d).Stats.depth
  in
  Alcotest.(check int) "depth independent of pipeline length" (pipeline 4)
    (pipeline 32)

let test_stats_alias_classes () =
  let d =
    compile
      "TYPE t = COMPONENT (em,fm,gm: multiplex; IN a: boolean) IS BEGIN em \
       == fm; fm == gm; IF a THEN em := 1 END END; SIGNAL s: t;"
  in
  let s = Stats.of_design d in
  Alcotest.(check int) "one alias class" 1 s.Stats.alias_classes

(* ---- Explain ---- *)

let explain sim path ~depth =
  match Explain.explain sim path ~depth with
  | Ok entries -> entries
  | Error msg -> Alcotest.failf "explain %s: %s" path msg

let test_explain_traces_undef () =
  let d = compile (Corpus.adder_n 2) in
  let sim = Sim.create d in
  Sim.poke_int_lsb sim "adder.b" 1;
  (* a and cin left floating *)
  Sim.step sim;
  let entries = explain sim "adder.s[1]" ~depth:8 in
  Alcotest.(check bool) "several levels" true (List.length entries >= 3);
  (* the trail ends at an undriven/testbench input *)
  Alcotest.(check bool) "reaches an input" true
    (List.exists (fun e -> e.Explain.reason = Explain.Input) entries);
  let text = Explain.to_string entries in
  Alcotest.(check bool) "mentions the asked signal" true
    (String.length text > 0)

let test_explain_register () =
  let d = compile (Corpus_fsm.counter 2) in
  let sim = Sim.create d in
  Sim.poke_bool sim "c.en" true;
  Sim.reset sim;
  Sim.step sim;
  let entries = explain sim "c.value[2]" ~depth:2 in
  Alcotest.(check bool) "finds the register" true
    (List.exists
       (fun e -> match e.Explain.reason with Explain.Register _ -> true | _ -> false)
       entries)

let test_explain_guarded_driver () =
  let d =
    compile
      "TYPE t = COMPONENT (IN b,x: boolean; m: multiplex) IS BEGIN IF b \
       THEN m := x END END;\nSIGNAL s: t;"
  in
  let sim = Sim.create d in
  Sim.poke_bool sim "s.b" false;
  Sim.poke_bool sim "s.x" true;
  Sim.step sim;
  let entries = explain sim "s.m" ~depth:1 in
  match entries with
  | { Explain.reason = Explain.Drivers [ f ]; value; _ } :: _ ->
      Alcotest.(check char) "net floats" 'Z' (Logic.to_char value);
      Alcotest.(check char) "driver produced NOINFL" 'Z'
        (Logic.to_char f.Explain.produced);
      (match f.Explain.guard with
      | Some (_, gv) -> Alcotest.(check char) "guard is 0" '0' (Logic.to_char gv)
      | None -> Alcotest.fail "expected a guard")
  | _ -> Alcotest.fail "expected one guarded driver"

let test_explain_unknown_path () =
  let d = compile (Corpus.adder_n 2) in
  let sim = Sim.create d in
  Sim.step sim;
  match Explain.explain sim "adder.nosuch" ~depth:2 with
  | Ok _ -> Alcotest.fail "an unknown path must not explain"
  | Error msg ->
      let sub = "adder.nosuch" in
      let n = String.length sub in
      Alcotest.(check bool) "names the path" true
        (List.exists
           (fun i -> String.sub msg i n = sub)
           (List.init (max 0 (String.length msg - n + 1)) Fun.id))

(* ---- switching activity ---- *)

let test_activity_counter () =
  let d = compile (Corpus_fsm.counter 4) in
  let sim = Sim.create d in
  Sim.poke_bool sim "c.en" true;
  Sim.reset sim;
  Sim.step_n sim 16;
  (* a binary counter's LSB toggles every cycle, the MSB rarely: the
     activity ranking must reflect it *)
  let act = Sim.activity ~top:50 sim in
  let count path = Option.value ~default:0 (List.assoc_opt path act) in
  let lsb = count "c.st[4].out" and msb = count "c.st[1].out" in
  Alcotest.(check bool)
    (Printf.sprintf "lsb (%d) toggles more than msb (%d)" lsb msb)
    true (lsb > msb && msb > 0);
  Alcotest.(check bool) "total positive" true (Sim.total_toggles sim > 0)

let test_activity_idle_design () =
  let d = compile (Corpus.adder_n 4) in
  let sim = Sim.create d in
  Sim.poke_int_lsb sim "adder.a" 5;
  Sim.poke_int_lsb sim "adder.b" 3;
  Sim.poke_bool sim "adder.cin" false;
  Sim.step_n sim 10;
  (* constant inputs: nothing toggles after the first cycle *)
  Alcotest.(check int) "no switching under constant inputs" 0
    (Sim.total_toggles sim)

(* ---- graph/dot structure ---- *)

let test_graph_shape () =
  let d = compile (Corpus.adder_n 2) in
  let g = Graph.build d in
  Alcotest.(check int) "nodes = gates + drivers"
    (List.length (Netlist.gates d.Elaborate.netlist)
    + List.length (Netlist.drivers d.Elaborate.netlist))
    (Array.length g.Graph.nodes);
  (* every node's output is a valid class id *)
  Array.iter
    (fun node ->
      let out = Graph.node_output node in
      Alcotest.(check bool) "output in range" true
        (out >= 0 && out < g.Graph.n_classes))
    g.Graph.nodes;
  (* compaction invariants: canon maps into the dense range, rep inverts
     it, and the CSR producer table matches producer_count *)
  Alcotest.(check bool) "classes <= nets" true (g.Graph.n_classes <= g.Graph.n_nets);
  Array.iter
    (fun c ->
      Alcotest.(check bool) "canon in range" true
        (c >= 0 && c < g.Graph.n_classes))
    g.Graph.canon;
  Array.iteri
    (fun c root ->
      Alcotest.(check int) "rep is a section of canon" c g.Graph.canon.(root))
    g.Graph.rep;
  for c = 0 to g.Graph.n_classes - 1 do
    Alcotest.(check int) "producer_count matches CSR"
      (g.Graph.prod_off.(c + 1) - g.Graph.prod_off.(c))
      g.Graph.producer_count.(c)
  done;
  (* consumer lists point back at nodes that really read the class *)
  for c = 0 to g.Graph.n_classes - 1 do
    Graph.iter_consumers g c (fun node ->
        let reads =
          List.exists
            (function Netlist.Snet s -> s = c | Netlist.Sconst _ -> false)
            (Graph.node_inputs g.Graph.nodes.(node))
        in
        Alcotest.(check bool) "consumer reads class" true reads)
  done;
  (* the static schedule levelizes an acyclic design completely *)
  let sched = Sched.build g in
  Alcotest.(check bool) "adder schedule is acyclic" true sched.Sched.acyclic;
  Array.iteri
    (fun i node ->
      List.iter
        (function
          | Netlist.Snet s ->
              Alcotest.(check bool) "net level < node level" true
                (sched.Sched.net_level.(s) < sched.Sched.node_level.(i))
          | Netlist.Sconst _ -> ())
        (Graph.node_inputs node))
    g.Graph.nodes

let () =
  Alcotest.run "tools"
    [
      ( "testbench",
        [
          Alcotest.test_case "pass" `Quick test_testbench_pass;
          Alcotest.test_case "failure reporting" `Quick
            test_testbench_fail_reporting;
          Alcotest.test_case "bit expectations" `Quick
            test_testbench_expect_bits;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counts" `Quick test_stats_counts;
          Alcotest.test_case "depth scales" `Quick test_stats_depth_scales;
          Alcotest.test_case "regs break depth" `Quick
            test_stats_regs_break_depth;
          Alcotest.test_case "alias classes" `Quick test_stats_alias_classes;
        ] );
      ( "explain",
        [
          Alcotest.test_case "traces undef" `Quick test_explain_traces_undef;
          Alcotest.test_case "register" `Quick test_explain_register;
          Alcotest.test_case "guarded driver" `Quick
            test_explain_guarded_driver;
          Alcotest.test_case "unknown path" `Quick test_explain_unknown_path;
        ] );
      ( "activity",
        [
          Alcotest.test_case "counter ranking" `Quick test_activity_counter;
          Alcotest.test_case "idle design" `Quick test_activity_idle_design;
        ] );
      ("graph", [ Alcotest.test_case "shape" `Quick test_graph_shape ]);
    ]
