(* Four-valued abstract interpretation over the compacted class graph.

   Every class gets the set of values it can carry, as a 4-bit mask
   over the four values of Logic (0, 1, UNDEF, NOINFL), and [value_sets]
   is the one fixpoint that computes them: a FIFO worklist over the
   consumer CSR runs each class's transfer function until no mask
   grows.  A class's mask is its seed (what it reads before its
   producers: a testbench input, a register output, the UNDEF of a
   producer-less class) joined with the resolution of its producers,
   which follows the engines' firing rules:

   - a gate evaluates its booleanized inputs with Logic's tables;
   - a driver contributes its source under a 1 guard, NOINFL under a 0
     guard and UNDEF under an undefined guard (an undefined guard
     {e drives});
   - over every combination of the producers' masks, a driving value
     overrules NOINFL, and two driving values resolve to UNDEF (a drive
     conflict) unless the caller declares the class exclusive;
   - with the kind default on, a boolean class reads its resolution
     booleanized, so a boolean class no producer drives reads UNDEF
     while a multiplex one floats.

   Four callers run it, each with its own seed: [analyze] (every input
   value, register outputs widened across cycles), Lint's UNDEF pass
   (inputs defined), and the sequential prover's abstract cycle (per
   register state) and concrete search (singleton seeds).  [analyze]
   reads its classification off each mask: a singleton is const-0,
   const-1, stuck-X or stuck-Z, anything else varying.

   Observability is the backward closure over the same producer CSR.
   It is the one liveness walk in the static analyses: [analyze]
   stores it per class, and [observability] runs it alone (no value
   fixpoint) for callers that need only liveness. *)

open Zeus_base

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

let const_of = function
  | Const0 -> Some Logic.Zero
  | Const1 -> Some Logic.One
  | StuckX -> Some Logic.Undef
  | StuckZ -> Some Logic.Noinfl
  | Varying -> None

type t = {
  graph : Graph.t;
  cls : classification array;
  observable : bool array;
  steps : int;
}

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

(* The FIFO worklist.  [update c] re-evaluates class [c] and reports
   whether its mask grew.  The queue starts with every class in id
   order; a change pushes the outputs of [c]'s consumers in CSR order,
   then the output of every register latching from [c] (a register
   output's seed reads its input).  Returns the number of class
   evaluations. *)
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

(* ------------------------------------------------------------------ *)
(* Value sets                                                           *)
(* ------------------------------------------------------------------ *)

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

let src_mask sets = function
  | Netlist.Sconst v -> mask_of v
  | Netlist.Snet c -> sets.(c)

(* The value-set transfer function of one producer node, with the
   input masks read from [sets]: an undefined guard drives UNDEF, a 0
   guard contributes NOINFL. *)
let node_mask sets = function
  | Graph.Ngate { op; inputs; _ } ->
      gate_mask op (List.map (src_mask sets) (Array.to_list inputs))
  | Graph.Ndriver { guard = None; source; _ } -> src_mask sets source
  | Graph.Ndriver { guard = Some gs; source; _ } ->
      let gm = booleanize_mask (src_mask sets gs) in
      (if gm land m_one <> 0 then src_mask sets source else 0)
      lor (if gm land m_zero <> 0 then m_noinfl else 0)
      lor (if gm land m_undef <> 0 then m_undef else 0)

(* A class's mask is its [seed] (re-read at every evaluation, since a
   register output's seed may read its input's current mask) joined
   with the resolution of its producers over every combination of
   their masks, folded producer by producer: [silent] says some
   combination so far drives nothing, [single] holds the values of the
   combinations with exactly one driving value, [many] says some
   combination has two.  An empty producer mask (not evaluated yet)
   empties every combination.  Every transfer is monotone and the
   worklist re-queues every reader of a grown mask, so the result is
   the least fixpoint whatever the visiting order. *)
let value_sets (g : Graph.t) ~seed ~exclusive ~kind_default =
  let sets = Array.make g.Graph.n_classes 0 in
  let mask c = sets.(c) in
  let resolve c =
    let silent = ref true and single = ref 0 and many = ref false in
    Graph.iter_producers g c (fun i ->
        let pm = node_mask sets g.Graph.nodes.(i) in
        let drives = pm land lnot m_noinfl and quiet = pm land m_noinfl <> 0 in
        many := (!many && pm <> 0) || (!single <> 0 && drives <> 0);
        single := (if quiet then !single else 0) lor if !silent then drives else 0;
        silent := !silent && quiet);
    let r =
      (if !silent then m_noinfl else 0)
      lor !single
      lor if !many && not (exclusive c) then m_undef else 0
    in
    if kind_default && g.Graph.class_kind.(c) = Etype.KBool then
      booleanize_mask r
    else r
  in
  let steps =
    worklist g (fun c ->
        let m = seed mask c in
        let m =
          if g.Graph.producer_count.(c) = 0 then m else m lor resolve c
        in
        let m = sets.(c) lor m in
        if m = sets.(c) then false
        else begin
          sets.(c) <- m;
          true
        end)
  in
  (sets, steps)

(* The flow-insensitive seed: a testbench input reads [inputs], a
   register output its power-up value joined with everything its input
   can latch (a NOINFL input keeps the stored value), and any other
   producer-less class UNDEF. *)
let flow_seed (g : Graph.t) ~inputs mask c =
  if g.Graph.input_class.(c) then inputs
  else
    match Graph.reg_of_out g c with
    | -1 -> if g.Graph.producer_count.(c) = 0 then m_undef else 0
    | r ->
        mask_of g.Graph.regs.(r).Netlist.rinit
        lor booleanize_mask (mask g.Graph.reg_in.(r) land lnot m_noinfl)

let all_values = m_zero lor m_one lor m_undef lor m_noinfl

let analyze (g : Graph.t) =
  let sets, steps =
    value_sets g
      ~seed:(flow_seed g ~inputs:all_values)
      ~exclusive:(fun _ -> false)
      ~kind_default:true
  in
  let cls =
    Array.map
      (fun m ->
        if m = m_zero then Const0
        else if m = m_one then Const1
        else if m = m_undef then StuckX
        else if m = m_noinfl then StuckZ
        else Varying)
      sets
  in
  { graph = g; cls; observable = observability g; steps }

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
