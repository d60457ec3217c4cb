(* Structural statistics over an elaborated netlist: gate histogram,
   combinational depth (the longest gate/driver chain between registers
   or inputs and any net), fanout distribution.  Used by `zeusc stats`
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

(* longest path in the (acyclic) dependency graph, by memoized DFS *)
let depth nl =
  let adj = Check.dependency_graph nl in
  let n = Array.length adj in
  (* reverse edges: depth.(v) = 1 + max over predecessors *)
  let preds = Array.make n [] in
  Array.iteri (fun src dsts -> List.iter (fun d -> preds.(d) <- src :: preds.(d)) dsts) adj;
  let memo = Array.make n (-1) in
  let rec go v =
    if memo.(v) >= 0 then memo.(v)
    else begin
      memo.(v) <- 0 (* cycle guard: designs with check errors *);
      let d =
        List.fold_left (fun acc p -> max acc (1 + go p)) 0 preds.(v)
      in
      memo.(v) <- d;
      d
    end
  in
  let best = ref 0 in
  for v = 0 to n - 1 do
    best := max !best (go v)
  done;
  !best

let max_fanout nl =
  let count = Hashtbl.create 64 in
  let bump = function
    | Netlist.Snet id ->
        let id = Netlist.canonical nl id in
        Hashtbl.replace count id
          (1 + Option.value ~default:0 (Hashtbl.find_opt count id))
    | Netlist.Sconst _ -> ()
  in
  List.iter (fun (g : Netlist.gate) -> List.iter bump g.Netlist.inputs) (Netlist.gates nl);
  List.iter
    (fun (d : Netlist.driver) ->
      bump d.Netlist.source;
      Option.iter bump d.Netlist.guard)
    (Netlist.drivers nl);
  Hashtbl.fold (fun _ n acc -> max n acc) count 0

let alias_classes nl =
  let sizes = Hashtbl.create 64 in
  for id = 0 to Netlist.net_count nl - 1 do
    let c = Netlist.canonical nl id in
    Hashtbl.replace sizes c
      (1 + Option.value ~default:0 (Hashtbl.find_opt sizes c))
  done;
  Hashtbl.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) sizes 0

(* driven nets (drivers or gate outputs) from which no observable
   point — a register input, an OUT/INOUT pin of a root instance — is
   reachable *)
let dead_nets nl =
  let live = Absint.observable_nets nl in
  let driven = Array.make (Netlist.net_count nl) false in
  List.iter
    (fun (d : Netlist.driver) -> driven.(Netlist.canonical nl d.Netlist.target) <- true)
    (Netlist.drivers nl);
  List.iter
    (fun (g : Netlist.gate) -> driven.(Netlist.canonical nl g.Netlist.output) <- true)
    (Netlist.gates nl);
  let count = ref 0 in
  Array.iteri (fun v d -> if d && not live.(v) then incr count) driven;
  !count

let of_netlist nl =
  {
    nets = Netlist.net_count nl;
    gates = List.length (Netlist.gates nl);
    drivers = List.length (Netlist.drivers nl);
    regs = List.length (Netlist.regs nl);
    instances = List.length (Netlist.instances nl);
    gate_histogram = gate_histogram nl;
    depth = depth nl;
    max_fanout = max_fanout nl;
    alias_classes = alias_classes nl;
    dead_nets = dead_nets nl;
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
