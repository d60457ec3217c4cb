(* The semantics graph of section 8, in executable form — compacted.

   At build time the alias union-find is resolved ONCE into dense
   canonical-net ids ("classes"): [canon] maps every original net id to
   its class, [rep] maps a class back to the union-find root that
   represents it.  All node inputs/outputs, adjacency and per-net
   bookkeeping are indexed by class id, so neither the simulator
   engines nor the static analyses call [Netlist.canonical].

   Adjacency is CSR-style: flat [int array] consumer, producer and
   member lists with offset tables.  Consumers have one entry per
   source occurrence (a node reading the same net twice appears twice —
   the firing engine's worklist discipline relies on that).

   Registers connect cycles without introducing combinational edges;
   [regs_of_out]/[regs_of_in] give O(1) access from a class to the
   registers that feed or latch it (hoisted out of the per-cycle path —
   the simulator used to rebuild a hashtable of register outputs every
   cycle). *)

type node =
  | Ngate of {
      op : Netlist.gate_op;
      inputs : Netlist.src array;
      output : int;
    }
  | Ndriver of {
      guard : Netlist.src option;
      source : Netlist.src;
      target : int;
    }

type t = {
  design : Elaborate.design;
  nl : Netlist.t;
  n_nets : int;
  n_classes : int;
  canon : int array;
  rep : int array;
  nodes : node array;
  gates : Netlist.gate array;
  drivers : Netlist.driver array;
  cons_off : int array;
  cons_nodes : int array;
  prod_off : int array;
  prod_nodes : int array;
  producer_count : int array;
  mem_off : int array;
  mem_nets : int array;
  class_kind : Etype.kind array;
  names : string array;
  regs : Netlist.reg array;
  reg_in : int array;
  reg_out : int array;
  regs_of_out : int list array;
  regs_of_in : int list array;
  reg_out_class : bool array;
  input_class : bool array;
  clk : int;
  rset : int;
}

(* Top-level testbench inputs: IN/INOUT pins of root instances, plus CLK
   and RSET. *)
let top_input_nets (design : Elaborate.design) =
  let nl = design.Elaborate.netlist in
  let roots =
    List.filter
      (fun (i : Netlist.instance) ->
        not (String.contains i.Netlist.ipath '.'))
      (Netlist.instances nl)
  in
  let pins =
    List.concat_map
      (fun (i : Netlist.instance) ->
        List.concat_map
          (fun (_, m, nets) ->
            match m with
            | Etype.In | Etype.Inout -> nets
            | Etype.Out -> [])
          i.Netlist.iports)
      roots
  in
  design.Elaborate.clk_net :: design.Elaborate.rset_net :: pins

(* the engines read a poke only on a producer-less class; one pass over
   the netlist marks the union-find roots some gate or driver writes *)
let driven (design : Elaborate.design) =
  let nl = design.Elaborate.netlist in
  let written = Bytes.make (Netlist.net_count nl) '\000' in
  let mark id = Bytes.set written (Netlist.canonical nl id) '\001' in
  List.iter
    (fun (g : Netlist.gate) -> mark g.Netlist.output)
    (Netlist.gates nl);
  List.iter
    (fun (d : Netlist.driver) -> mark d.Netlist.target)
    (Netlist.drivers nl);
  fun id -> Bytes.get written (Netlist.canonical nl id) = '\001'

let node_inputs = function
  | Ngate { inputs; _ } -> Array.to_list inputs
  | Ndriver { guard; source; _ } -> source :: Option.to_list guard

let node_output = function
  | Ngate { output; _ } -> output
  | Ndriver { target; _ } -> target

let compute (design : Elaborate.design) =
  let nl = design.Elaborate.netlist in
  let n = Netlist.net_count nl in
  (* resolve the union-find once: original id -> dense class id *)
  let canon = Array.make n (-1) in
  let rep_rev = ref [] in
  let n_classes = ref 0 in
  for id = 0 to n - 1 do
    let root = Netlist.canonical nl id in
    if canon.(root) < 0 then begin
      canon.(root) <- !n_classes;
      rep_rev := root :: !rep_rev;
      incr n_classes
    end;
    canon.(id) <- canon.(root)
  done;
  let n_classes = !n_classes in
  let rep = Array.make n_classes 0 in
  List.iteri (fun i root -> rep.(n_classes - 1 - i) <- root) !rep_rev;
  (* a source whose net is its own class keeps its netlist box *)
  let canon_src = function
    | Netlist.Snet id as s ->
        if canon.(id) = id then s else Netlist.Snet canon.(id)
    | Netlist.Sconst _ as s -> s
  in
  (* nodes, with class ids baked in: the gates, then the drivers *)
  let gates = Array.of_list (Netlist.gates nl) in
  let drivers = Array.of_list (Netlist.drivers nl) in
  let nodes = ref [] in
  let n_nodes = ref 0 in
  Array.iter
    (fun (g : Netlist.gate) ->
      let inputs = List.map canon_src g.Netlist.inputs in
      let output = canon.(g.Netlist.output) in
      nodes := Ngate { op = g.Netlist.op; inputs = Array.of_list inputs; output }
               :: !nodes;
      incr n_nodes)
    gates;
  Array.iter
    (fun (d : Netlist.driver) ->
      let guard =
        match d.Netlist.guard with
        | Some s as guard when canon_src s == s -> guard
        | guard -> Option.map canon_src guard
      in
      let source = canon_src d.Netlist.source in
      let target = canon.(d.Netlist.target) in
      nodes := Ndriver { guard; source; target } :: !nodes;
      incr n_nodes)
    drivers;
  let nodes = Array.of_list (List.rev !nodes) in
  (* CSR adjacency: count, prefix-sum, fill *)
  let cons_cnt = Array.make n_classes 0 in
  let prod_cnt = Array.make n_classes 0 in
  Array.iter
    (fun node ->
      List.iter
        (function
          | Netlist.Snet s -> cons_cnt.(s) <- cons_cnt.(s) + 1
          | Netlist.Sconst _ -> ())
        (node_inputs node);
      let out = node_output node in
      prod_cnt.(out) <- prod_cnt.(out) + 1)
    nodes;
  let prefix cnt =
    let off = Array.make (n_classes + 1) 0 in
    for c = 0 to n_classes - 1 do
      off.(c + 1) <- off.(c) + cnt.(c)
    done;
    off
  in
  let cons_off = prefix cons_cnt and prod_off = prefix prod_cnt in
  let cons_nodes = Array.make cons_off.(n_classes) 0 in
  let prod_nodes = Array.make prod_off.(n_classes) 0 in
  let cons_fill = Array.copy cons_off and prod_fill = Array.copy prod_off in
  Array.iteri
    (fun id node ->
      List.iter
        (function
          | Netlist.Snet s ->
              cons_nodes.(cons_fill.(s)) <- id;
              cons_fill.(s) <- cons_fill.(s) + 1
          | Netlist.Sconst _ -> ())
        (node_inputs node);
      let out = node_output node in
      prod_nodes.(prod_fill.(out)) <- id;
      prod_fill.(out) <- prod_fill.(out) + 1)
    nodes;
  let producer_count = prod_cnt in
  (* members: the original ids of each class, ascending *)
  let mem_cnt = Array.make n_classes 0 in
  Array.iter (fun c -> mem_cnt.(c) <- mem_cnt.(c) + 1) canon;
  let mem_off = prefix mem_cnt in
  let mem_nets = Array.make n 0 in
  let mem_fill = Array.copy mem_off in
  Array.iteri
    (fun id c ->
      mem_nets.(mem_fill.(c)) <- id;
      mem_fill.(c) <- mem_fill.(c) + 1)
    canon;
  (* per-class kind (mux if any member is mux), representative names *)
  let class_kind = Array.make n_classes Etype.KBool in
  for id = 0 to n - 1 do
    if (Netlist.net nl id).Netlist.kind = Etype.KMux then
      class_kind.(canon.(id)) <- Etype.KMux
  done;
  let names =
    Array.map (fun root -> (Netlist.net nl root).Netlist.name) rep
  in
  (* registers *)
  let regs = Array.of_list (Netlist.regs nl) in
  let reg_in = Array.map (fun (r : Netlist.reg) -> canon.(r.Netlist.rin)) regs in
  let reg_out =
    Array.map (fun (r : Netlist.reg) -> canon.(r.Netlist.rout)) regs
  in
  let regs_of_out = Array.make n_classes [] in
  Array.iteri (fun i c -> regs_of_out.(c) <- i :: regs_of_out.(c)) reg_out;
  let regs_of_in = Array.make n_classes [] in
  Array.iteri (fun i c -> regs_of_in.(c) <- i :: regs_of_in.(c)) reg_in;
  let reg_out_class = Array.make n_classes false in
  Array.iter (fun c -> reg_out_class.(c) <- true) reg_out;
  let input_class = Array.make n_classes false in
  List.iter
    (fun id -> input_class.(canon.(id)) <- true)
    (top_input_nets design);
  {
    design;
    nl;
    n_nets = n;
    n_classes;
    canon;
    rep;
    nodes;
    gates;
    drivers;
    cons_off;
    cons_nodes;
    prod_off;
    prod_nodes;
    producer_count;
    mem_off;
    mem_nets;
    class_kind;
    names;
    regs;
    reg_in;
    reg_out;
    regs_of_out;
    regs_of_in;
    reg_out_class;
    input_class;
    clk = canon.(design.Elaborate.clk_net);
    rset = canon.(design.Elaborate.rset_net);
  }

(* One graph per design: a one-slot memo of the last build, keyed by
   the design's physical identity and its netlist's shape (net, gate
   and driver counts), so a netlist that grew since misses.  Check,
   the simulator, the analyses and the exporter all ask for the graph
   of the design a command elaborated, and all get the same object.
   Domains that race may both compute, but each reads back only a
   graph of its own design. *)
let shape nl =
  let drivers, gates = Netlist.counts nl in
  (Netlist.net_count nl, gates, drivers)

let memo : (Elaborate.design * (int * int * int) * t) option Atomic.t =
  Atomic.make None

let build (design : Elaborate.design) =
  let key = shape design.Elaborate.netlist in
  match Atomic.get memo with
  | Some (d, k, g) when d == design && k = key -> g
  | _ ->
      let g = compute design in
      Atomic.set memo (Some (design, key, g));
      g

let iter_consumers g c f =
  for k = g.cons_off.(c) to g.cons_off.(c + 1) - 1 do
    f g.cons_nodes.(k)
  done

let iter_producers g c f =
  for k = g.prod_off.(c) to g.prod_off.(c + 1) - 1 do
    f g.prod_nodes.(k)
  done

let consumer_count g c = g.cons_off.(c + 1) - g.cons_off.(c)

let reg_of_out g c = match g.regs_of_out.(c) with i :: _ -> i | [] -> -1

let members g c =
  List.init (g.mem_off.(c + 1) - g.mem_off.(c)) (fun k ->
      g.mem_nets.(g.mem_off.(c) + k))

let by_rep g =
  let order = Array.init g.n_classes Fun.id in
  Array.sort (fun a b -> compare g.rep.(a) g.rep.(b)) order;
  order
