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

   The interpreter runs over the one compacted class graph (Graph):
   dense class ids, the consumer CSR driving a FIFO worklist and the
   producer CSR feeding each class's transfer function.  The worklist
   runs the monotone transfer functions to a fixpoint; the lattice has
   height 2, so every class is re-evaluated O(fan-in) times.

   Beside the must-lattice, [value_sets] is the may-analysis of the
   static side: per class, the set of values it can carry, as a 4-bit
   mask, on the same worklist.  Lint's UNDEF pass and the sequential
   prover's abstract cycle both run it, each with its own seed.  The
   flat lattice is not its quotient (strict Bot and XOR(Top, UNDEF) =
   Top, see absint.mli), so the two transfers stay separate.

   Observability is the backward closure over the same producer CSR.
   It is the one liveness walk in the static analyses: [analyze]
   stores it per class, and [observability] runs it alone (no value
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
  graph : Graph.t;
  value : av array;
  cls : classification array;
  observable : bool array;
  steps : int;
}

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

(* observability: backward closure from register inputs and root
   OUT/INOUT pins, through producer-node inputs *)
let observability (g : Graph.t) =
  let observable = Array.make g.Graph.n_classes false in
  let stack = ref [] in
  let mark c =
    if not observable.(c) then begin
      observable.(c) <- true;
      stack := c :: !stack
    end
  in
  Array.iter mark g.Graph.reg_in;
  List.iter
    (fun (i : Netlist.instance) ->
      if not (String.contains i.Netlist.ipath '.') then
        List.iter
          (fun (_, mode, nets) ->
            match mode with
            | Etype.Out | Etype.Inout ->
                List.iter (fun id -> mark g.Graph.canon.(id)) nets
            | Etype.In -> ())
          i.Netlist.iports)
    (Netlist.instances g.Graph.nl);
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | c :: rest ->
        stack := rest;
        Graph.iter_producers g c (fun i ->
            List.iter
              (function Netlist.Snet s -> mark s | Netlist.Sconst _ -> ())
              (Graph.node_inputs g.Graph.nodes.(i)))
  done;
  observable

(* The FIFO worklist every value fixpoint here runs on.  [update c]
   re-evaluates class [c] and reports whether its value grew.  The queue
   starts with every class in id order; a change pushes the outputs of
   [c]'s consumers in CSR order, then the output of every register
   latching from [c] (a register output's value reads its input across
   cycles).  Returns the number of class evaluations. *)
let worklist (g : Graph.t) update =
  let queue = Queue.create () and queued = Array.make g.Graph.n_classes false in
  let push c =
    if not queued.(c) then begin
      queued.(c) <- true;
      Queue.add c queue
    end
  in
  for c = 0 to g.Graph.n_classes - 1 do
    push c
  done;
  let steps = ref 0 in
  while not (Queue.is_empty queue) do
    let c = Queue.take queue in
    queued.(c) <- false;
    incr steps;
    if update c then begin
      Graph.iter_consumers g c (fun i ->
          push (Graph.node_output g.Graph.nodes.(i)));
      List.iter (fun r -> push g.Graph.reg_out.(r)) g.Graph.regs_of_in.(c)
    end
  done;
  !steps

let analyze (g : Graph.t) =
  let value = Array.make g.Graph.n_classes Bot in
  let av_of_src = function
    | Netlist.Sconst v -> Const v
    | Netlist.Snet c -> value.(c)
  in
  (* gate transfer: Const inputs are exact, Top inputs are unknown —
     the partial evaluators fire exactly when the output is forced.
     With a Bot input an unforced output stays Bot (strict). *)
  let eval_node i =
    match g.Graph.nodes.(i) with
    | Graph.Ngate { op; inputs; _ } ->
        let avs = List.map av_of_src (Array.to_list inputs) in
        let opt =
          List.map (function Const v -> Some v | Bot | Top -> None) avs
        in
        (match eval_gate_const op opt with
        | Some v -> Const v
        | None -> if List.mem Bot avs then Bot else Top)
    | Graph.Ndriver { guard; source; _ } -> (
        match guard with
        | None -> av_of_src source
        | Some gs -> (
            match av_of_src gs with
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
  (* the engines give a class with no driving value a kind-dependent
     default — boolean UNDEF, multiplex NOINFL *)
  let class_mux c = g.Graph.class_kind.(c) = Etype.KMux in
  let eval_class c =
    if g.Graph.input_class.(c) then
      Top (* testbench-pokeable: CLK, RSET, pins *)
    else begin
      let contribs = ref [] in
      Graph.iter_producers g c (fun i -> contribs := eval_node i :: !contribs);
      (* register widening: power-up value joined with everything the
         input can latch; NOINFL keeps the stored value *)
      let regs = g.Graph.regs_of_out.(c) in
      let regv =
        List.fold_left
          (fun acc r ->
            let latched =
              match value.(g.Graph.reg_in.(r)) with
              | Bot -> Bot
              | Const Logic.Noinfl -> Bot
              | Const v -> Const (Logic.booleanize v)
              | Top -> Top
            in
            join acc (join (Const g.Graph.regs.(r).Netlist.rinit) latched))
          Bot regs
      in
      if !contribs = [] && regs = [] then
        (* producer-less: a boolean net reads UNDEF forever, a
           multiplex one floats *)
        Const (if class_mux c then Logic.Noinfl else Logic.Undef)
      else
        let v = join (resolve_abs !contribs) regv in
        (* kind default: every producer provably firing NOINFL leaves a
           boolean class UNDEF — only multiplex classes are stuck-Z *)
        match v with
        | Const l
          when Logic.equal l Logic.Noinfl && (not (class_mux c)) && regs = []
          ->
            Const Logic.Undef
        | v -> v
    end
  in
  let steps =
    worklist g (fun c ->
        let nv = join value.(c) (eval_class c) in
        if nv = value.(c) then false
        else begin
          value.(c) <- nv;
          true
        end)
  in
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
  { graph = g; value; cls; observable = observability g; steps }

let value_of_net t id = t.value.(t.graph.Graph.canon.(id))
let classification_of_net t id = t.cls.(t.graph.Graph.canon.(id))

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

(* ------------------------------------------------------------------ *)
(* Value sets                                                           *)
(* ------------------------------------------------------------------ *)

(* The may-analysis beside the must-lattice above: every class gets the
   set of values it can carry, as a bitmask over the four values. *)
let m_zero = 1
and m_one = 2
and m_undef = 4
and m_noinfl = 8

let mask_of = function
  | Logic.Zero -> m_zero
  | Logic.One -> m_one
  | Logic.Undef -> m_undef
  | Logic.Noinfl -> m_noinfl

let values_of_mask m =
  List.filter
    (fun v -> m land mask_of v <> 0)
    [ Logic.Zero; Logic.One; Logic.Undef; Logic.Noinfl ]

let mask_to_string m =
  let parts =
    List.filter_map
      (fun (bit, s) -> if m land bit <> 0 then Some s else None)
      [ (m_zero, "0"); (m_one, "1"); (m_undef, "U"); (m_noinfl, "Z") ]
  in
  "{" ^ String.concat "," parts ^ "}"

let booleanize_mask m =
  if m land m_noinfl <> 0 then (m land lnot m_noinfl) lor m_undef else m

let apply1 f m =
  List.fold_left (fun acc v -> acc lor mask_of (f v)) 0 (values_of_mask m)

let apply2 f ma mb =
  List.fold_left
    (fun acc a ->
      List.fold_left (fun acc b -> acc lor mask_of (f a b)) acc (values_of_mask mb))
    0 (values_of_mask ma)

let fold2 f = function
  | [] -> 0
  | m :: ms -> List.fold_left (apply2 f) (booleanize_mask m) ms

let gate_mask op inputs =
  let inputs = List.map booleanize_mask inputs in
  match (op : Netlist.gate_op) with
  | Netlist.Gand -> fold2 Logic.and2 inputs
  | Netlist.Gor -> fold2 Logic.or2 inputs
  | Netlist.Gnand -> apply1 Logic.not_ (fold2 Logic.and2 inputs)
  | Netlist.Gnor -> apply1 Logic.not_ (fold2 Logic.or2 inputs)
  | Netlist.Gxor -> fold2 Logic.xor2 inputs
  | Netlist.Gnot -> (
      match inputs with [ m ] -> apply1 Logic.not_ m | _ -> m_undef)
  | Netlist.Gequal ->
      let len = List.length inputs in
      if len mod 2 <> 0 then m_undef
      else
        let a = List.filteri (fun i _ -> i < len / 2) inputs
        and b = List.filteri (fun i _ -> i >= len / 2) inputs in
        List.fold_left2
          (fun acc x y -> apply2 Logic.and2 acc (apply2 Logic.equal2 x y))
          m_one a b
  | Netlist.Grandom -> m_zero lor m_one

(* The value-set transfer function of one producer node, with the
   input masks read through [mask_of_src]: an undefined guard drives
   UNDEF, a 0 guard contributes NOINFL. *)
let node_mask mask_of_src = function
  | Graph.Ngate { op; inputs; _ } ->
      gate_mask op (List.map mask_of_src (Array.to_list inputs))
  | Graph.Ndriver { guard = None; source; _ } -> mask_of_src source
  | Graph.Ndriver { guard = Some gs; source; _ } ->
      let gm = booleanize_mask (mask_of_src gs) in
      (if gm land m_one <> 0 then mask_of_src source else 0)
      lor (if gm land m_zero <> 0 then m_noinfl else 0)
      lor (if gm land m_undef <> 0 then m_undef else 0)

(* The value-set fixpoint on the same worklist as [analyze]: a class's
   mask is its [seed] (re-read at every evaluation, since a register
   output's seed may read its input's current mask), joined with every
   producer's contribution, plus UNDEF when two producers can drive and
   the class is not [exclusive].  Every transfer is monotone and the
   worklist re-queues every reader of a grown mask, so the result is
   the least fixpoint whatever the visiting order. *)
let value_sets (g : Graph.t) ~seed ~exclusive =
  let sets = Array.make g.Graph.n_classes 0 in
  let mask c = sets.(c) in
  let mask_of_src = function
    | Netlist.Sconst v -> mask_of v
    | Netlist.Snet c -> sets.(c)
  in
  ignore
    (worklist g (fun c ->
         let m = ref (seed mask c) and driving = ref 0 in
         Graph.iter_producers g c (fun i ->
             let pm = node_mask mask_of_src g.Graph.nodes.(i) in
             if pm land lnot m_noinfl <> 0 then incr driving;
             m := !m lor pm);
         let m =
           sets.(c) lor !m
           lor (if !driving >= 2 && not (exclusive c) then m_undef else 0)
         in
         if m = sets.(c) then false
         else begin
           sets.(c) <- m;
           true
         end));
  sets
