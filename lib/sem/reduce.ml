(* Proof-carrying netlist reduction: cone-of-influence + constant
   folding, justified by the Absint fixpoint.

   The pass consumes the full abstract interpretation: constant *reads*
   fold through any class the analysis proved constant (including
   multi-driven resolutions and constant register outputs), while
   constant *replacement* — rewriting a class to one Sconst driver — is
   limited to single-producer classes so the runtime multiple-drive
   check is preserved verbatim. *)

open Zeus_base

type stats = {
  classes : int;
  const0 : int;
  const1 : int;
  stuckx : int;
  stuckz : int;
  varying : int;
  unobservable : int;
  gates_before : int;
  gates_after : int;
  drivers_before : int;
  drivers_after : int;
  consts_folded : int;
  copies_merged : int;
  nets_eliminated : int;
  steps : int;
}

let pp_stats ppf s =
  Fmt.pf ppf
    "abstract interpretation: %d classes: %d const-0, %d const-1, %d stuck-X, \
     %d stuck-Z, %d varying; %d unobservable (%d steps)@\n\
     reduction: gates %d -> %d, drivers %d -> %d (%d constants folded, %d \
     copies merged, %d nets eliminated)"
    s.classes s.const0 s.const1 s.stuckx s.stuckz s.varying s.unobservable
    s.steps s.gates_before s.gates_after s.drivers_before s.drivers_after
    s.consts_folded s.copies_merged s.nets_eliminated

type result = {
  design : Elaborate.design;
  ai : Absint.t;
  stats : stats;
}

let class_name (ai : Absint.t) c =
  let cg = ai.Absint.graph in
  let name id = (Netlist.net cg.Graph.nl id).Netlist.name in
  match
    List.find_opt
      (fun id -> not (String.contains (name id) '#'))
      (Graph.members cg c)
  with
  | Some id -> name id
  | None -> cg.Graph.names.(c)

let run (design : Elaborate.design) =
  let cg = Graph.build design in
  let ai = Absint.analyze cg in
  let nl = design.Elaborate.netlist in
  let canon id = cg.Graph.canon.(id) in
  let const_of c =
    match ai.Absint.value.(c) with
    | Absint.Const v -> Some v
    | Absint.Bot | Absint.Top -> None
  in
  (* replacement by a constant driver: single producer, combinational,
     not pokeable — exactly the nets whose every producer the rewrite
     may delete without changing drive counts on any other class *)
  let foldable c =
    cg.Graph.producer_count.(c) = 1
    && (not cg.Graph.input_class.(c))
    && (not cg.Graph.reg_out_class.(c))
    && const_of c <> None
  in
  let rewrite_src s =
    match s with
    | Netlist.Sconst _ -> s
    | Netlist.Snet id -> (
        match const_of (canon id) with
        | Some v -> Netlist.Sconst v
        | None -> s)
  in
  let live c = ai.Absint.observable.(c) in
  (* mux taint per class, for the copy-propagation kind guard *)
  let class_mux = Array.map (fun k -> k = Etype.KMux) cg.Graph.class_kind in
  let const_driver_emitted = Array.make cg.Graph.n_classes false in
  (* never-firing drivers already dropped per class — a drop is only
     legal while the class keeps at least one other producer *)
  let guard0_dropped = Array.make cg.Graph.n_classes 0 in
  let gates = ref [] and drivers = ref [] and consts = ref 0 in
  let merges = ref [] and copies = ref 0 in
  (* copy propagation: an unguarded [t := s] whose target class has no
     other producer is a wire, not logic — merge the two classes and
     drop the node.  Guards: the target must not be pokeable (poking
     would then drive the source's whole class) or a register output
     (the stored value is a second influence), and the two classes
     must have the same kind — a boolean net with no driving value
     reads UNDEF where a multiplex one reads NOINFL, and a copy across
     kinds translates between those defaults, which a merge would
     not. *)
  (* RANDOM draws are a pure hash of (seed, dense class id, cycle)
     (Prand): merging any two classes renumbers every later class, so a
     single merge would re-key every RANDOM stream in the design and
     the reduced run would flip different coins.  Copy propagation is
     therefore disabled outright when a RANDOM source is present. *)
  let has_random =
    List.exists
      (fun (g : Netlist.gate) -> g.Netlist.op = Netlist.Grandom)
      (Netlist.gates nl)
  in
  let copy_mergeable tc sc =
    (not has_random)
    && tc <> sc
    && cg.Graph.producer_count.(tc) = 1
    && (not cg.Graph.input_class.(tc))
    && (not cg.Graph.reg_out_class.(tc))
    && class_mux.(tc) = class_mux.(sc)
  in
  let emit_const target v loc =
    let c = canon target in
    if not const_driver_emitted.(c) then begin
      const_driver_emitted.(c) <- true;
      incr consts;
      drivers :=
        {
          Netlist.did = -1;
          target;
          guard = None;
          source = Netlist.Sconst v;
          dloc = loc;
        }
        :: !drivers
    end
  in
  List.iter
    (fun (g : Netlist.gate) ->
      let out = canon g.Netlist.output in
      if not (live out) then ()
      else if foldable out then
        emit_const g.Netlist.output (Option.get (const_of out)) g.Netlist.gloc
      else begin
        let inputs = List.map rewrite_src g.Netlist.inputs in
        (* identity-input pruning: AND(1,x) = x, OR(0,x) = x, and the
           NAND/NOR duals *)
        let identity v =
          match g.Netlist.op with
          | Netlist.Gand | Netlist.Gnand -> Logic.equal v Logic.One
          | Netlist.Gor | Netlist.Gnor -> Logic.equal v Logic.Zero
          | _ -> false
        in
        let pruned =
          match g.Netlist.op with
          | Netlist.Gand | Netlist.Gnand | Netlist.Gor | Netlist.Gnor ->
              let keep =
                List.filter
                  (function
                    | Netlist.Sconst v -> not (identity v)
                    | Netlist.Snet _ -> true)
                  inputs
              in
              (* never prune to arity zero *)
              if keep = [] then inputs else keep
          | _ -> inputs
        in
        match (g.Netlist.op, pruned) with
        | (Netlist.Gnand | Netlist.Gnor), [ single ] ->
            gates :=
              { g with Netlist.op = Netlist.Gnot; inputs = [ single ] }
              :: !gates
        | _ ->
            (* a one-input AND/OR stays a gate: it doubles as the
               implicit amplifier in front of register inputs *)
            gates := { g with Netlist.inputs = pruned } :: !gates
      end)
    (Netlist.gates nl);
  List.iter
    (fun (d : Netlist.driver) ->
      let t = canon d.Netlist.target in
      if not (live t) then ()
      else if foldable t then
        emit_const d.Netlist.target (Option.get (const_of t)) d.Netlist.dloc
      else begin
        let source = rewrite_src d.Netlist.source in
        let guard =
          match Option.map rewrite_src d.Netlist.guard with
          | Some (Netlist.Sconst v) when Logic.booleanize v = Logic.One ->
              (* provably always fires: unconditional *)
              None
          | g -> g
        in
        match (guard, source) with
        | None, Netlist.Snet s when copy_mergeable t (canon s) ->
            incr copies;
            merges := (d.Netlist.target, s) :: !merges
        | Some (Netlist.Sconst v), _
          when Logic.booleanize v = Logic.Zero
               && cg.Graph.producer_count.(t) - guard0_dropped.(t) > 1
               && (not cg.Graph.input_class.(t))
               && not cg.Graph.reg_out_class.(t) ->
            (* never fires, contributes NOINFL, and another producer
               remains: dropping it changes neither the resolved value
               nor the runtime drive count *)
            guard0_dropped.(t) <- guard0_dropped.(t) + 1
        | _ -> drivers := { d with Netlist.guard; source } :: !drivers
      end)
    (Netlist.drivers nl);
  let gates = List.rev !gates and drivers = List.rev !drivers in
  let reduced =
    Netlist.with_nodes_merged nl ~gates ~drivers ~merges:!merges
  in
  (* classes whose whole producing cone vanished *)
  let producers_after = Array.make cg.Graph.n_classes 0 in
  List.iter
    (fun (g : Netlist.gate) ->
      let c = canon g.Netlist.output in
      producers_after.(c) <- producers_after.(c) + 1)
    gates;
  List.iter
    (fun (d : Netlist.driver) ->
      let c = canon d.Netlist.target in
      producers_after.(c) <- producers_after.(c) + 1)
    drivers;
  let eliminated = ref 0 in
  Array.iteri
    (fun c before ->
      if before > 0 && producers_after.(c) = 0 then incr eliminated)
    cg.Graph.producer_count;
  let const0, const1, stuckx, stuckz, varying = Absint.counts ai in
  let stats =
    {
      classes = cg.Graph.n_classes;
      const0;
      const1;
      stuckx;
      stuckz;
      varying;
      unobservable = Absint.unobservable_count ai;
      gates_before = List.length (Netlist.gates nl);
      gates_after = List.length gates;
      drivers_before = List.length (Netlist.drivers nl);
      drivers_after = List.length drivers;
      consts_folded = !consts;
      copies_merged = !copies;
      nets_eliminated = !eliminated;
      steps = ai.Absint.steps;
    }
  in
  { design = { design with Elaborate.netlist = reduced }; ai; stats }

let proof_table r =
  let ai = r.ai in
  let cg = ai.Absint.graph in
  let rows = ref [] in
  for c = cg.Graph.n_classes - 1 downto 0 do
    if
      cg.Graph.producer_count.(c) > 0
      && (ai.Absint.cls.(c) <> Absint.Varying || not ai.Absint.observable.(c))
    then
      rows :=
        ( c,
          class_name ai c,
          ai.Absint.cls.(c),
          ai.Absint.observable.(c),
          cg.Graph.producer_count.(c) )
        :: !rows
  done;
  !rows

(* bump on incompatible shape changes, like Lint.json_schema_version *)
let json_schema_version = 1

let json_of_result r =
  let ai = r.ai and s = r.stats in
  let cg = ai.Absint.graph in
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"version\": %d,\n  \"classes\": [" json_schema_version);
  for c = 0 to cg.Graph.n_classes - 1 do
    if c > 0 then Buffer.add_char b ',';
    Buffer.add_string b
      (Printf.sprintf
         "\n    {\"net\":\"%s\",\"class\":\"%s\",\"observable\":%b,\"producers\":%d}"
         (Diag.json_escape (class_name ai c))
         (Absint.classification_to_string ai.Absint.cls.(c))
         ai.Absint.observable.(c) cg.Graph.producer_count.(c))
  done;
  Buffer.add_string b
    (Printf.sprintf
       "\n  ],\n  \"stats\": {\"classes\":%d,\"const0\":%d,\"const1\":%d,\"stuckx\":%d,\"stuckz\":%d,\"varying\":%d,\"unobservable\":%d,\"gates_before\":%d,\"gates_after\":%d,\"drivers_before\":%d,\"drivers_after\":%d,\"consts_folded\":%d,\"copies_merged\":%d,\"nets_eliminated\":%d,\"steps\":%d}\n}"
       s.classes s.const0 s.const1 s.stuckx s.stuckz s.varying s.unobservable
       s.gates_before s.gates_after s.drivers_before s.drivers_after
       s.consts_folded s.copies_merged s.nets_eliminated s.steps);
  Buffer.contents b
