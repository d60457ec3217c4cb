(* Structural statistics over an elaborated netlist: gate histogram,
   combinational depth (the longest gate/driver chain between registers
   or inputs and any net: the highest Sched level), fanout distribution
   — all read off the one class graph.  Used by `zeusc stats`
   and the E8 analysis (depth is what separates the firing evaluator
   from sweep-to-fixpoint baselines). *)

type t = {
  nets : int;
  gates : int;
  drivers : int;
  regs : int;
  instances : int;
  gate_histogram : (Netlist.gate_op * int) list;
  depth : int; (* longest combinational path, in nodes *)
  max_fanout : int;
  alias_classes : int; (* classes with more than one member *)
  dead_nets : int;
  (* driven nets whose value can never reach an observable point (a
     register input or an OUT pin of a root instance) *)
}

let gate_histogram nl =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (g : Netlist.gate) ->
      Hashtbl.replace tbl g.Netlist.op
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl g.Netlist.op)))
    (Netlist.gates nl);
  Hashtbl.fold (fun op n acc -> (op, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let of_design (design : Elaborate.design) =
  let nl = design.Elaborate.netlist in
  let g = Graph.build design in
  let live = Absint.observability g in
  let count p =
    let k = ref 0 in
    for c = 0 to g.Graph.n_classes - 1 do
      if p c then incr k
    done;
    !k
  in
  {
    nets = Netlist.net_count nl;
    gates = List.length (Netlist.gates nl);
    drivers = List.length (Netlist.drivers nl);
    regs = List.length (Netlist.regs nl);
    instances = List.length (Netlist.instances nl);
    gate_histogram = gate_histogram nl;
    depth = Array.fold_left max 0 (Sched.build g).Sched.net_level;
    max_fanout =
      Array.fold_left max 0
        (Array.init g.Graph.n_classes (Graph.consumer_count g));
    alias_classes =
      count (fun c -> g.Graph.mem_off.(c + 1) - g.Graph.mem_off.(c) > 1);
    (* driven classes (drivers or gate outputs) from which no
       observable point is reachable *)
    dead_nets = count (fun c -> g.Graph.producer_count.(c) > 0 && not live.(c));
  }

let pp ppf t =
  Fmt.pf ppf
    "nets=%d gates=%d drivers=%d regs=%d instances=%d depth=%d max_fanout=%d \
     alias_classes=%d dead_nets=%d@."
    t.nets t.gates t.drivers t.regs t.instances t.depth t.max_fanout
    t.alias_classes t.dead_nets;
  List.iter
    (fun (op, n) ->
      Fmt.pf ppf "  %-6s %d@." (Netlist.gate_op_to_string op) n)
    t.gate_histogram
