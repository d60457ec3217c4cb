(* Set-up, built once: one class graph and one schedule per design,
   shared by Check, the simulator, the analyses and the exporter
   (Graph.build and Sched.build keep a one-slot memo), and compiled
   handles that carry no cone-pass state but still answer every
   question the firing engine answers. *)

open Zeus

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

let same_graph (a : Graph.t) (b : Graph.t) =
  a.Graph.n_nets = b.Graph.n_nets
  && a.Graph.n_classes = b.Graph.n_classes
  && a.Graph.canon = b.Graph.canon
  && a.Graph.rep = b.Graph.rep
  && a.Graph.nodes = b.Graph.nodes
  && a.Graph.cons_off = b.Graph.cons_off
  && a.Graph.cons_nodes = b.Graph.cons_nodes
  && a.Graph.prod_nodes = b.Graph.prod_nodes
  && a.Graph.mem_nets = b.Graph.mem_nets
  && a.Graph.class_kind = b.Graph.class_kind
  && a.Graph.names = b.Graph.names
  && a.Graph.reg_in = b.Graph.reg_in
  && a.Graph.reg_out = b.Graph.reg_out
  && a.Graph.input_class = b.Graph.input_class
  && a.Graph.clk = b.Graph.clk
  && a.Graph.rset = b.Graph.rset

(* ------------------------------------------------------------------ *)
(* One graph per design                                                 *)
(* ------------------------------------------------------------------ *)

(* Check built the graph during compile; the simulator, the exporter,
   Lint and Seqprove get that same object and schedule, and none of
   them builds another: the memo still returns the first graph after
   each of them *)
let test_one_graph_per_command () =
  List.iter
    (fun name ->
      let d = compile (List.assoc name Corpus.all_named) in
      let g = Graph.build d in
      let s = Sched.build g in
      let still what =
        Alcotest.(check bool) (name ^ ": graph kept after " ^ what) true
          (Graph.build d == g);
        Alcotest.(check bool) (name ^ ": schedule kept after " ^ what) true
          (Sched.build g == s)
      in
      List.iter
        (fun engine ->
          Alcotest.(check bool)
            (name ^ ": Sim.graph, " ^ Sim.engine_name engine)
            true
            (Sim.graph (Sim.create ~engine d) == g);
          still ("Sim.create " ^ Sim.engine_name engine))
        Sim.all_engines;
      (match Verilog.export d with
      | Ok v ->
          Alcotest.(check bool) (name ^ ": the export plan's graph") true
            (v.Verilog.graph == g)
      | Error e -> Alcotest.fail (Verilog.error_to_string e));
      still "Verilog.export";
      ignore (Lint.run d);
      still "Lint.run";
      ignore (Seqprove.run d);
      still "Seqprove.run";
      ignore (Check.run d);
      still "Check.run")
    [ "section8"; "blackjack"; "am2901" ]

(* the memo is keyed by the design's identity, not its contents *)
let test_distinct_designs () =
  let src = List.assoc "mux4" Corpus.all_named in
  let d1 = compile src and d2 = compile src in
  let g1 = Graph.build d1 and g2 = Graph.build d2 in
  Alcotest.(check bool) "distinct objects" true (g1 != g2);
  Alcotest.(check bool) "equal contents" true (same_graph g1 g2);
  for i = 1 to 4 do
    let a = Graph.build d1 and b = Graph.build d2 in
    Alcotest.(check bool) (Printf.sprintf "round %d: each its own" i) true
      (a.Graph.design == d1 && b.Graph.design == d2);
    Alcotest.(check bool)
      (Printf.sprintf "round %d: schedules of their own graphs" i)
      true
      (Sched.build a != Sched.build b
      && Sched.build a = Sched.build g1)
  done

(* four domains, four designs, builds racing on the one-slot memo:
   each domain only ever reads back its own design's graph *)
let test_domains_race () =
  let designs =
    List.map
      (fun n -> compile (List.assoc n Corpus.all_named))
      [ "adder4"; "blackjack"; "section8"; "sorter8x4" ]
  in
  let serial =
    List.map (fun d -> let g = Graph.build d in (d, g, Sched.build g)) designs
  in
  let domains =
    List.map
      (fun (d, g, s) ->
        Domain.spawn (fun () ->
            List.for_all
              (fun _ ->
                let g' = Graph.build d in
                g'.Graph.design == d && same_graph g' g
                && Sched.build g' = s)
              (List.init 50 Fun.id)))
      serial
  in
  List.iteri
    (fun i dom ->
      Alcotest.(check bool) (Printf.sprintf "domain %d" i) true
        (Domain.join dom))
    domains

(* a netlist that grew since the last build misses the memo *)
let test_grown_netlist_misses () =
  let d = compile (List.assoc "adder4" Corpus.all_named) in
  let g = Graph.build d in
  let nl = d.Elaborate.netlist in
  let extra =
    Netlist.fresh_net nl ~name:"extra" ~kind:Etype.KBool ~loc:Loc.dummy ()
  in
  let g' = Graph.build d in
  Alcotest.(check bool) "a new net: a new graph" true
    (g' != g && g'.Graph.n_nets = g.Graph.n_nets + 1);
  ignore
    (Netlist.add_gate nl ~op:Netlist.Gnot
       ~inputs:[ Netlist.Snet d.Elaborate.clk_net ]
       ~output:extra ~loc:Loc.dummy);
  let g'' = Graph.build d in
  Alcotest.(check bool) "a new gate: a new graph" true
    (g'' != g'
    && Array.length g''.Graph.nodes = Array.length g'.Graph.nodes + 1);
  Alcotest.(check bool) "then hits again" true (Graph.build d == g'')

(* ------------------------------------------------------------------ *)
(* Compiled handles without cone state                                  *)
(* ------------------------------------------------------------------ *)

(* ports [explain] can name: class representatives without gate
   temporaries, first few that resolve *)
let explain_ports d g =
  let picked = ref [] in
  Array.iter
    (fun name ->
      if List.length !picked < 6 && not (String.contains name '#') then
        match Sim.port d name with
        | Ok p -> picked := p :: !picked
        | Error _ -> ())
    g.Graph.names;
  List.rev !picked

(* On every corpus design a compiled handle (which allocates no
   cone-pass arrays) answers peek, snapshot, trace, activity, explain,
   reset and restart exactly as the firing engine does: power-up
   peeks and snapshots before any step, then a random stimulus with a
   reset pulse, and the same again after restart. *)
let test_lean_compiled_matches_firing () =
  List.iter
    (fun (name, src) ->
      let d = compile src in
      let g = Graph.build d in
      let inputs = Graph.top_input_nets d in
      let ports = explain_ports d g in
      let rng = Random.State.make [| 39 |] in
      let stimulus =
        List.init 6 (fun _ ->
            List.map
              (fun _ -> if Random.State.bool rng then Logic.One else Logic.Zero)
              inputs)
      in
      (* what each cycle shows: snapshot, peeks, trace as changed
         classes, activity and explanations *)
      let observe sim prev =
        let snap = Sim.snapshot sim in
        let changed =
          (* the classes whose value changed, in class order *)
          List.filter_map
            (fun c ->
              let r = g.Graph.rep.(c) in
              match (prev, snap.(r)) with
              | Some p, Some v when p.(r) <> Some v ->
                  Some (g.Graph.names.(c), v)
              | _ -> None)
            (List.init g.Graph.n_classes Fun.id)
        in
        ( snap,
          Sim.peek_nets sim inputs,
          changed,
          Sim.activity ~top:1000 sim,
          List.map
            (fun p -> Explain.to_string (Explain.explain sim p ~depth:2))
            ports )
      in
      let run engine =
        let sim = Sim.create ~engine d in
        Sim.set_trace sim true;
        let once () =
          let power_up = (Sim.snapshot sim, Sim.peek_nets sim inputs) in
          let prev = ref None in
          let cycles =
            List.mapi
              (fun i vec ->
                Sim.poke_nets sim inputs vec;
                if i = 3 then Sim.reset sim else Sim.step sim;
                let ((snap, _, changed, _, _) as o) = observe sim !prev in
                let trace =
                  if engine = Sim.Compiled && !prev <> None then
                    (* warm: the program lists its changed classes *)
                    Some (Sim.trace_last_cycle sim = changed)
                  else None
                in
                prev := Some snap;
                (o, trace))
              stimulus
          in
          (* the firing engine reports a cycle's conflicts in firing
             order, the program in class order *)
          let errors =
            List.sort compare
              (List.map
                 (fun (e : Sim.runtime_error) ->
                   (e.Sim.err_cycle, e.Sim.err_net, e.Sim.err_code))
                 (Sim.runtime_errors sim))
          in
          (power_up, cycles, errors, Sim.reg_states sim)
        in
        let first = once () in
        Sim.restart sim;
        (first, once ())
      in
      let (f1, f2) = run Sim.Firing and (c1, c2) = run Sim.Compiled in
      let strip (pu, cycles, errs, regs) =
        (pu, List.map fst cycles, errs, regs)
      in
      Alcotest.(check bool) (name ^ ": first run matches firing") true
        (strip c1 = strip f1);
      Alcotest.(check bool) (name ^ ": run after restart matches firing")
        true
        (strip c2 = strip f2);
      let (_, cycles, _, _) = c1 in
      List.iteri
        (fun i (_, trace) ->
          match trace with
          | Some ok ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: cycle %d trace lists the changes" name i)
                true ok
          | None -> ())
        cycles)
    Corpus.all_named

let () =
  Alcotest.run "setup"
    [
      ( "one graph",
        [
          Alcotest.test_case "one graph and schedule per command" `Quick
            test_one_graph_per_command;
          Alcotest.test_case "distinct designs, alternating builds" `Quick
            test_distinct_designs;
          Alcotest.test_case "four domains racing" `Quick test_domains_race;
          Alcotest.test_case "a grown netlist misses" `Quick
            test_grown_netlist_misses;
        ] );
      ( "lean compiled handles",
        [
          Alcotest.test_case "match firing on the corpus" `Quick
            test_lean_compiled_matches_firing;
        ] );
    ]
