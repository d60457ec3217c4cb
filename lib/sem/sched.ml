(* Levelized static schedule of the semantics graph.

   A Kahn pass over the bipartite node/net graph assigns every node and
   every class (dense canonical net) a level such that

     level(node) = 1 + max level of its input classes   (0 if none)
     level(net)  =     max level of its producer nodes  (0 if none)

   so processing "all nodes of level l, then all nets of level l" for
   l = 0, 1, ... visits every producer before the net it drives and
   every net before the nodes that consume it.  The incremental engine
   walks dirty cones in this order; the conflict re-propagation pass of
   the other engines reuses it, and the static side (Check, Stats,
   Autoplace) reads the levels as combinational depth.

   Nodes caught in a combinational cycle (only possible on designs that
   failed the static checks — the simulator's mop-up exists for them)
   keep level -1 and [acyclic] is false; incremental scheduling then
   degrades to full re-evaluation, which is always correct. *)

type t = {
  node_level : int array; (* -1 = in (or downstream of) a cycle *)
  net_level : int array; (* per class; -1 = cyclic *)
  max_level : int;
  acyclic : bool;
  (* static per-level membership, the walk order of the bytecode
     compiler and the Verilog exporter; cyclic items (level -1) are
     omitted *)
  nodes_at : int array array; (* per level: node ids, ascending *)
  nets_at : int array array; (* per level: class ids, ascending *)
}

(* bucket ids by level (ascending within a level — ids are filled in
   increasing order) *)
let bucketize max_level levels =
  let counts = Array.make (max_level + 1) 0 in
  Array.iter (fun l -> if l >= 0 then counts.(l) <- counts.(l) + 1) levels;
  let buckets = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make (max_level + 1) 0 in
  Array.iteri
    (fun id l ->
      if l >= 0 then begin
        buckets.(l).(fill.(l)) <- id;
        fill.(l) <- fill.(l) + 1
      end)
    levels;
  buckets

let compute (g : Graph.t) =
  let n_nodes = Array.length g.Graph.nodes in
  let n = g.Graph.n_classes in
  let node_level = Array.make n_nodes (-1) in
  let net_level = Array.make n (-1) in
  let node_inmax = Array.make n_nodes (-1) in
  (* per node: net inputs not yet levelled, one per occurrence *)
  let node_remaining = Array.make n_nodes 0 in
  Array.iter
    (fun i -> node_remaining.(i) <- node_remaining.(i) + 1)
    g.Graph.cons_nodes;
  let net_prodmax = Array.make n (-1) in
  let net_remaining = Array.copy g.Graph.producer_count in
  (* FIFO of ready classes: each class enters exactly once *)
  let q = Array.make n 0 and q_head = ref 0 and q_tail = ref 0 in
  let push c =
    q.(!q_tail) <- c;
    incr q_tail
  in
  let max_level = ref 0 in
  let ready_node i =
    let l = node_inmax.(i) + 1 in
    node_level.(i) <- l;
    if l > !max_level then max_level := l;
    let tgt = Graph.node_output g.Graph.nodes.(i) in
    if l > net_prodmax.(tgt) then net_prodmax.(tgt) <- l;
    net_remaining.(tgt) <- net_remaining.(tgt) - 1;
    if net_remaining.(tgt) = 0 then push tgt
  in
  (* constant-only nodes (including RANDOM sources) are ready at once *)
  Array.iteri (fun i _ -> if node_remaining.(i) = 0 then ready_node i) g.Graph.nodes;
  (* producer-less classes (testbench inputs, register outputs, CLK,
     RSET, undriven nets) are the level-0 seeds *)
  for c = 0 to n - 1 do
    if g.Graph.producer_count.(c) = 0 then push c
  done;
  while !q_head < !q_tail do
    let c = q.(!q_head) in
    incr q_head;
    let l = max 0 net_prodmax.(c) in
    net_level.(c) <- l;
    if l > !max_level then max_level := l;
    Graph.iter_consumers g c (fun node ->
        if l > node_inmax.(node) then node_inmax.(node) <- l;
        node_remaining.(node) <- node_remaining.(node) - 1;
        if node_remaining.(node) = 0 then ready_node node)
  done;
  let acyclic =
    Array.for_all (fun l -> l >= 0) node_level
    && Array.for_all (fun l -> l >= 0) net_level
  in
  {
    node_level;
    net_level;
    max_level = !max_level;
    acyclic;
    nodes_at = bucketize !max_level node_level;
    nets_at = bucketize !max_level net_level;
  }

(* one schedule per graph: a one-slot memo keyed by the graph's
   physical identity, beside {!Graph.build}'s *)
let memo : (Graph.t * t) option Atomic.t = Atomic.make None

let build g =
  match Atomic.get memo with
  | Some (g', s) when g' == g -> s
  | _ ->
      let s = compute g in
      Atomic.set memo (Some (g, s));
      s
