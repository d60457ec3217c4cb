(* Four-valued abstract interpretation over the compacted class graph.

   The lattice is flat: Bot < Const v < Top, with the middle layer the
   four values of Logic (0, 1, UNDEF, NOINFL).  [Const v] is a *must*
   fact — the class carries exactly [v] in every cycle under every
   input — so the transfer functions are the simulator's own evaluation
   rules lifted pointwise:

   - gates use the early-firing partial evaluators, with Top as
     "unknown input";
   - drivers case-split on the guard's abstract value (0 contributes
     NOINFL, 1 the source, a provably-undefined guard drives UNDEF);
   - multi-driven classes join producer contributions through the
     abstract drive resolution: all-constant contributions resolve
     exactly via Logic.resolve (a guaranteed conflict is a guaranteed
     UNDEF, matching the runtime multiple-drive check), anything
     varying is Top;
   - register outputs accumulate (widen) the power-up value joined
     with every value the input can latch across cycles; a NOINFL
     input keeps the stored value and contributes nothing new.

   The alias union-find is resolved once into dense class ids — the
   same compaction Zeus_sim.Graph.build performs — and adjacency is
   CSR: flat consumer/producer node-id arrays with offset tables.  A
   FIFO worklist then runs the monotone transfer functions to a
   fixpoint; the lattice has height 2, so every class is re-evaluated
   O(fan-in) times.

   Observability is the backward closure over the same producer CSR.
   It is the one liveness walk in the static analyses: [analyze]
   stores it per class, and [observable_nets] runs it alone (no value
   fixpoint) for callers that need only liveness. *)

open Zeus_base

type av =
  | Bot
  | Const of Logic.t
  | Top

let join a b =
  match (a, b) with
  | Bot, x | x, Bot -> x
  | Top, _ | _, Top -> Top
  | Const u, Const v -> if Logic.equal u v then a else Top

let av_to_string = function
  | Bot -> "bot"
  | Const v -> Printf.sprintf "const-%c" (Logic.to_char v)
  | Top -> "varying"

type classification =
  | Const0
  | Const1
  | StuckX
  | StuckZ
  | Varying

let classification_to_string = function
  | Const0 -> "const-0"
  | Const1 -> "const-1"
  | StuckX -> "stuck-X"
  | StuckZ -> "stuck-Z"
  | Varying -> "varying"

type t = {
  n_classes : int;
  canon : int array;
  rep : int array;
  value : av array;
  cls : classification array;
  observable : bool array;
  input_class : bool array;
  reg_out_class : bool array;
  producers : int array;
  steps : int;
}

(* a producer node with class ids baked into its sources *)
type csrc =
  | Cnet of int
  | Cconst of Logic.t

type node =
  | Ngate of Netlist.gate_op * csrc list
  | Ndriver of csrc option * csrc

(* evaluate a gate over (possibly unknown) constant inputs with the
   simulator's early-firing rules: [Some v] only when the output is
   forced under all inputs (an AND with one constant-0 input is 0
   regardless of the rest) *)
let eval_gate_const op (vals : Logic.t option list) =
  match (op : Netlist.gate_op) with
  | Netlist.Gand -> Logic.and_partial vals
  | Netlist.Gor -> Logic.or_partial vals
  | Netlist.Gnand -> Logic.nand_partial vals
  | Netlist.Gnor -> Logic.nor_partial vals
  | Netlist.Gxor -> Logic.xor_partial vals
  | Netlist.Gnot -> (
      match vals with
      | [ v ] -> Option.map Logic.not_ v
      | _ -> None)
  | Netlist.Gequal ->
      Logic.map_all
        (fun vs ->
          let n = List.length vs / 2 in
          let a = List.filteri (fun i _ -> i < n) vs
          and b = List.filteri (fun i _ -> i >= n) vs in
          List.fold_left2
            (fun acc x y -> Logic.and2 acc (Logic.equal2 x y))
            Logic.One a b)
        vals
  | Netlist.Grandom -> None

(* the compacted class graph shared by the fixpoint and the
   observability closure: dense class ids plus the producer CSR *)
type graph = {
  g_classes : int;
  g_canon : int array;
  g_rep : int array;
  nodes : node array;
  node_out : int array;
  prod_off : int array;
  prod_nodes : int array;
}

let iter_input_classes node f =
  let src = function Cnet c -> f c | Cconst _ -> () in
  match node with
  | Ngate (_, inputs) -> List.iter src inputs
  | Ndriver (guard, source) ->
      src source;
      Option.iter src guard

(* CSR adjacency class -> node ids, where [iter i f] calls [f c] for
   every class node [i] touches: count, prefix-sum, fill *)
let csr n_classes n_nodes iter =
  let off = Array.make (n_classes + 1) 0 in
  for i = 0 to n_nodes - 1 do
    iter i (fun c -> off.(c + 1) <- off.(c + 1) + 1)
  done;
  for c = 0 to n_classes - 1 do
    off.(c + 1) <- off.(c) + off.(c + 1)
  done;
  let adj = Array.make off.(n_classes) 0 and fill = Array.copy off in
  for i = 0 to n_nodes - 1 do
    iter i (fun c ->
        adj.(fill.(c)) <- i;
        fill.(c) <- fill.(c) + 1)
  done;
  (off, adj)

let build nl =
  let n = Netlist.net_count nl in
  (* resolve the union-find once: original id -> dense class id *)
  let canon = Array.make n (-1) and rep = Array.make n 0 in
  let n_classes = ref 0 in
  for id = 0 to n - 1 do
    let root = Netlist.canonical nl id in
    if canon.(root) < 0 then begin
      canon.(root) <- !n_classes;
      rep.(!n_classes) <- root;
      incr n_classes
    end;
    canon.(id) <- canon.(root)
  done;
  let n_classes = !n_classes in
  let rep = Array.sub rep 0 n_classes in
  let canon_src = function
    | Netlist.Snet id -> Cnet canon.(id)
    | Netlist.Sconst v -> Cconst v
  in
  (* producer nodes (gates, then drivers), with their output class *)
  let gates = Netlist.gates nl and drivers = Netlist.drivers nl in
  let n_gates = List.length gates in
  let n_nodes = n_gates + List.length drivers in
  let nodes = Array.make n_nodes (Ndriver (None, Cconst Logic.Undef)) in
  let node_out = Array.make n_nodes 0 in
  List.iteri
    (fun i (g : Netlist.gate) ->
      nodes.(i) <- Ngate (g.Netlist.op, List.map canon_src g.Netlist.inputs);
      node_out.(i) <- canon.(g.Netlist.output))
    gates;
  List.iteri
    (fun i (d : Netlist.driver) ->
      nodes.(n_gates + i) <-
        Ndriver (Option.map canon_src d.Netlist.guard, canon_src d.Netlist.source);
      node_out.(n_gates + i) <- canon.(d.Netlist.target))
    drivers;
  (* producers: class -> nodes writing it *)
  let prod_off, prod_nodes = csr n_classes n_nodes (fun i f -> f node_out.(i)) in
  {
    g_classes = n_classes;
    g_canon = canon;
    g_rep = rep;
    nodes;
    node_out;
    prod_off;
    prod_nodes;
  }

(* observability: backward closure from register inputs and root
   OUT/INOUT pins, through producer-node inputs *)
let observability nl g =
  let observable = Array.make g.g_classes false in
  let stack = ref [] in
  let mark c =
    if not observable.(c) then begin
      observable.(c) <- true;
      stack := c :: !stack
    end
  in
  List.iter
    (fun (r : Netlist.reg) -> mark g.g_canon.(r.Netlist.rin))
    (Netlist.regs nl);
  List.iter
    (fun (i : Netlist.instance) ->
      if not (String.contains i.Netlist.ipath '.') then
        List.iter
          (fun (_, mode, nets) ->
            match mode with
            | Etype.Out | Etype.Inout ->
                List.iter (fun id -> mark g.g_canon.(id)) nets
            | Etype.In -> ())
          i.Netlist.iports)
    (Netlist.instances nl);
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | c :: rest ->
        stack := rest;
        for k = g.prod_off.(c) to g.prod_off.(c + 1) - 1 do
          iter_input_classes g.nodes.(g.prod_nodes.(k)) mark
        done
  done;
  observable

let observable_nets nl =
  let g = build nl in
  let observable = observability nl g in
  Array.map (fun c -> observable.(c)) g.g_canon

let analyze (design : Elaborate.design) =
  let nl = design.Elaborate.netlist in
  let g = build nl in
  let n_classes = g.g_classes and canon = g.g_canon in
  let nodes = g.nodes and node_out = g.node_out in
  let prod_off = g.prod_off and prod_nodes = g.prod_nodes in
  (* consumers (class -> nodes reading it) drive the worklist *)
  let cons_off, cons_nodes =
    csr n_classes (Array.length nodes) (fun i f -> iter_input_classes nodes.(i) f)
  in
  (* register wiring: out class -> registers; in class -> out classes *)
  let regs_of_out = Array.make n_classes [] in
  let reg_consumers = Array.make n_classes [] in
  let reg_out_class = Array.make n_classes false in
  List.iter
    (fun (r : Netlist.reg) ->
      let oc = canon.(r.Netlist.rout) and ic = canon.(r.Netlist.rin) in
      regs_of_out.(oc) <- r :: regs_of_out.(oc);
      reg_consumers.(ic) <- oc :: reg_consumers.(ic);
      reg_out_class.(oc) <- true)
    (Netlist.regs nl);
  let input_class = Array.make n_classes false in
  List.iter
    (fun id -> input_class.(canon.(id)) <- true)
    (Check.top_input_nets design);
  (* kind per class (mux if any member is): the engines give a class
     with no driving value a kind-dependent default — boolean UNDEF,
     multiplex NOINFL *)
  let class_mux = Array.make n_classes false in
  Array.iter
    (fun (net : Netlist.net) ->
      if net.Netlist.kind = Etype.KMux then
        class_mux.(canon.(net.Netlist.id)) <- true)
    (Netlist.nets_array nl);
  let value = Array.make n_classes Bot in
  let av_of_src = function
    | Cconst v -> Const v
    | Cnet c -> value.(c)
  in
  (* gate transfer: Const inputs are exact, Top inputs are unknown —
     the partial evaluators fire exactly when the output is forced.
     With a Bot input an unforced output stays Bot (strict). *)
  let eval_node i =
    match nodes.(i) with
    | Ngate (op, inputs) ->
        let avs = List.map av_of_src inputs in
        let opt =
          List.map (function Const v -> Some v | Bot | Top -> None) avs
        in
        (match eval_gate_const op opt with
        | Some v -> Const v
        | None -> if List.mem Bot avs then Bot else Top)
    | Ndriver (guard, source) -> (
        match guard with
        | None -> av_of_src source
        | Some g -> (
            match av_of_src g with
            | Bot -> Bot
            | Top ->
                (* the guard can be 0 (NOINFL), 1 (source) or UNDEF
                   (drives UNDEF): the join is already Top *)
                Top
            | Const v -> (
                match Logic.booleanize v with
                | Logic.Zero -> Const Logic.Noinfl
                | Logic.One -> av_of_src source
                | Logic.Undef | Logic.Noinfl -> Const Logic.Undef)))
  in
  (* abstract Zeus drive resolution over the producer contributions *)
  let resolve_abs = function
    | [] -> Bot (* no producers: the base cases below decide *)
    | contribs ->
        if List.mem Bot contribs then Bot
        else if List.mem Top contribs then Top
        else
          Const
            (Logic.resolve
               (List.map (function Const v -> v | _ -> assert false) contribs))
              .Logic.value
  in
  let eval_class c =
    if input_class.(c) then Top (* testbench-pokeable: CLK, RSET, pins *)
    else begin
      let contribs = ref [] in
      for k = prod_off.(c) to prod_off.(c + 1) - 1 do
        contribs := eval_node prod_nodes.(k) :: !contribs
      done;
      (* register widening: power-up value joined with everything the
         input can latch; NOINFL keeps the stored value *)
      let regv =
        List.fold_left
          (fun acc (r : Netlist.reg) ->
            let latched =
              match value.(canon.(r.Netlist.rin)) with
              | Bot -> Bot
              | Const Logic.Noinfl -> Bot
              | Const v -> Const (Logic.booleanize v)
              | Top -> Top
            in
            join acc (join (Const r.Netlist.rinit) latched))
          Bot regs_of_out.(c)
      in
      if !contribs = [] && regs_of_out.(c) = [] then
        (* producer-less: a boolean net reads UNDEF forever, a
           multiplex one floats *)
        Const (if class_mux.(c) then Logic.Noinfl else Logic.Undef)
      else
        let v = join (resolve_abs !contribs) regv in
        (* kind default: every producer provably firing NOINFL leaves a
           boolean class UNDEF — only multiplex classes are stuck-Z *)
        match v with
        | Const l
          when Logic.equal l Logic.Noinfl
               && (not class_mux.(c))
               && regs_of_out.(c) = [] ->
            Const Logic.Undef
        | v -> v
    end
  in
  (* FIFO worklist to the fixpoint *)
  let queue = Queue.create () and queued = Array.make n_classes false in
  let push c =
    if not queued.(c) then begin
      queued.(c) <- true;
      Queue.add c queue
    end
  in
  for c = 0 to n_classes - 1 do
    push c
  done;
  let steps = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.take queue in
    queued.(c) <- false;
    incr steps;
    let nv = join value.(c) (eval_class c) in
    if nv <> value.(c) then begin
      value.(c) <- nv;
      for k = cons_off.(c) to cons_off.(c + 1) - 1 do
        push node_out.(cons_nodes.(k))
      done;
      List.iter push reg_consumers.(c)
    end
  done;
  let observable = observability nl g in
  let cls =
    Array.map
      (function
        | Const Logic.Zero -> Const0
        | Const Logic.One -> Const1
        | Const Logic.Undef -> StuckX
        | Const Logic.Noinfl -> StuckZ
        | Top | Bot -> Varying)
      value
  in
  {
    n_classes;
    canon;
    rep = g.g_rep;
    value;
    cls;
    observable;
    input_class;
    reg_out_class;
    producers = Array.init n_classes (fun c -> prod_off.(c + 1) - prod_off.(c));
    steps = !steps;
  }

let value_of_net t id = t.value.(t.canon.(id))
let classification_of_net t id = t.cls.(t.canon.(id))

let counts t =
  let c0 = ref 0 and c1 = ref 0 and cx = ref 0 and cz = ref 0 and cv = ref 0 in
  Array.iter
    (function
      | Const0 -> incr c0
      | Const1 -> incr c1
      | StuckX -> incr cx
      | StuckZ -> incr cz
      | Varying -> incr cv)
    t.cls;
  (!c0, !c1, !cx, !cz, !cv)

let unobservable_count t =
  Array.fold_left (fun acc o -> if o then acc else acc + 1) 0 t.observable
