(* Post-elaboration static checks (sections 4.1, 4.5, 4.7, 8):

   - single-assignment discipline per alias class: at most one
     unconditional driver, never both conditional and unconditional,
     no unconditional ':=' to an aliased boolean;
   - no combinational feedback: every cycle must pass through a REG;
   - the unused-port rule: once any port of an instance is used, all its
     other ports must be used, assigned or closed with '*';
   - SEQUENTIAL/PARALLEL ordering constraints must be compatible with the
     dataflow partial order;
   - undriven nets that are read (everything except testbench inputs and
     register outputs) get a warning: they read UNDEF forever.

   Every check reads the one compacted class graph (Graph) and its Kahn
   levels (Sched). *)

open Zeus_base

(* The per-class checks collect [(class, report)] pairs and run the
   reports in the order a hash table keyed by class root, filled in
   class order, iterates them — the order these diagnostics have always
   had, which the goldens lock: by bucket (the root's [Hashtbl.hash]
   masked to the table's final power-of-two size, at least 64 and
   resized past two entries per bucket), then latest class first. *)
let in_report_order (g : Graph.t) reports =
  let buckets = ref 64 in
  while 2 * !buckets < g.Graph.n_classes do
    buckets := 2 * !buckets
  done;
  let key c = (Hashtbl.hash g.Graph.rep.(c) land (!buckets - 1), -c) in
  List.iter
    (fun (_, report) -> report ())
    (List.sort (fun (a, _) (b, _) -> compare (key a) (key b)) reports)

(* the drivers of class [c], latest first *)
let drivers_of (g : Graph.t) c =
  let n_gates = Array.length g.Graph.gates in
  let acc = ref [] in
  Graph.iter_producers g c (fun i ->
      if i >= n_gates then acc := g.Graph.drivers.(i - n_gates) :: !acc);
  !acc

let check_assignment_discipline bag (g : Graph.t) =
  let nl = g.Graph.nl in
  let name id = (Netlist.net nl id).Netlist.name in
  let reports = ref [] in
  for c = 0 to g.Graph.n_classes - 1 do
    let uncond, cond =
      List.partition
        (fun (d : Netlist.driver) -> d.Netlist.guard = None)
        (drivers_of g c)
    in
    (* boolean aliased with '==' must not also get an unconditional ':=' *)
    let aliased_bools =
      if g.Graph.mem_off.(c + 1) - g.Graph.mem_off.(c) > 1 then
        List.filter
          (fun (d : Netlist.driver) ->
            (Netlist.net nl d.Netlist.target).Netlist.kind = Etype.KBool)
          uncond
      else []
    in
    let double = match uncond with _ :: _ :: _ -> true | _ -> false in
    let mixed = uncond <> [] && cond <> [] in
    if double || mixed || aliased_bools <> [] then
      reports :=
        ( c,
          fun () ->
            (match uncond with
            | d1 :: d2 :: _ ->
                Diag.Bag.error bag Diag.Assign_error d2.Netlist.dloc
                  "'%s' is unconditionally assigned more than once (also \
                   at %a) — this could connect power to ground"
                  (name d1.Netlist.target) Loc.pp d1.Netlist.dloc
            | _ -> ());
            (match (uncond, cond) with
            | d :: _, dc :: _ ->
                Diag.Bag.error bag Diag.Assign_error dc.Netlist.dloc
                  "'%s' is assigned both conditionally and unconditionally \
                   (unconditional assignment at %a)"
                  (name d.Netlist.target) Loc.pp d.Netlist.dloc
            | _ -> ());
            List.iter
              (fun (d : Netlist.driver) ->
                Diag.Bag.error bag Diag.Assign_error d.Netlist.dloc
                  "boolean '%s' is aliased with '==' and also \
                   unconditionally assigned with ':='"
                  (name d.Netlist.target))
              aliased_bools )
        :: !reports
  done;
  in_report_order g !reports

(* The dependency successors of class [c] (the classes its consumers
   produce, self-loops excluded), in the order the walks below visit
   them: gate consumers latest first, then driver consumers latest
   first. *)
let successors (g : Graph.t) c =
  let n_gates = Array.length g.Graph.gates in
  let gs = ref [] and ds = ref [] in
  Graph.iter_consumers g c (fun i ->
      let d = Graph.node_output g.Graph.nodes.(i) in
      if d <> c then if i < n_gates then gs := d :: !gs else ds := d :: !ds);
  !gs @ !ds

(* Only runs when the Kahn pass left some class unlevelled.  A recursive
   DFS with colouring reports one witness cycle per strongly connected
   region it stumbles into, at most five. *)
let check_cycles bag (g : Graph.t) =
  let n = g.Graph.n_classes in
  let colour = Array.make n 0 in
  (* 0 white, 1 grey, 2 black *)
  let parent = Array.make n (-1) in
  let reported = ref 0 in
  let report_cycle v u =
    (* cycle: u -> ... -> v -> u along parent links of v *)
    if !reported < 5 then begin
      incr reported;
      let rec collect acc x =
        if x = u || x = -1 then x :: acc else collect (x :: acc) parent.(x)
      in
      let path = collect [] v in
      let names = List.map (fun c -> g.Graph.names.(c)) (u :: List.tl path) in
      Diag.Bag.error bag Diag.Cycle_error
        (Netlist.net g.Graph.nl g.Graph.rep.(u)).Netlist.loc
        "combinational feedback loop (no REG on the path): %s"
        (String.concat " -> " (names @ [ List.hd names ]))
    end
  in
  let rec dfs v =
    colour.(v) <- 1;
    List.iter
      (fun w ->
        if colour.(w) = 0 then begin
          parent.(w) <- v;
          dfs w
        end
        else if colour.(w) = 1 then report_cycle v w)
      (successors g v);
    colour.(v) <- 2
  in
  Array.iter (fun v -> if colour.(v) = 0 then dfs v) (Graph.by_rep g)

let check_unused_ports bag nl =
  (* "used or assigned" means used by the *surrounding* component: only
     touches from a scope other than the instance itself count (the
     instance's own body always reads its IN and drives its OUT pins) *)
  let net_used iid id =
    let net = Netlist.net nl id in
    List.exists (fun scope -> scope <> iid) net.Netlist.touched
  in
  List.iter
    (fun (inst : Netlist.instance) ->
      if not inst.Netlist.is_function_call then begin
        let iid = inst.Netlist.iid in
        let port_used (_, _, nets) = List.exists (net_used iid) nets in
        let ports = inst.Netlist.iports in
        let used, unused = List.partition port_used ports in
        (* ports with zero bits (empty arrays) never count as unused *)
        let unused =
          List.filter (fun (_, _, nets) -> nets <> []) unused
        in
        if used <> [] && unused <> [] then
          Diag.Bag.error bag Diag.Port_error inst.Netlist.iloc
            "instance '%s' of '%s': port(s) %s neither used nor assigned — \
             close them explicitly with '*'"
            inst.Netlist.ipath inst.Netlist.itype
            (String.concat ", "
               (List.map (fun (n, _, _) -> "'" ^ n ^ "'") unused))
      end)
    (Netlist.instances nl)

let check_order_constraints bag (g : Graph.t) (sc : Sched.t) =
  let level = sc.Sched.net_level in
  (* per-constraint marks, stamped with the constraint's index *)
  let target = Array.make g.Graph.n_classes (-1) in
  let visited = Array.make g.Graph.n_classes (-1) in
  List.iteri
    (fun k (loc, before, after) ->
      (* the declared order says [before] executes first; it is wrong if
         something written by [after] is needed (transitively) by
         [before] *)
      List.iter (fun id -> target.(g.Graph.canon.(id)) <- k) before;
      (* levels strictly increase along every dependency edge, so no
         class above the highest target level reaches a target (an
         unlevelled target, on a cyclic design, disables the cut) *)
      let bound =
        List.fold_left
          (fun b id ->
            let l = level.(g.Graph.canon.(id)) in
            if l < 0 then max_int else max b l)
          (-1) before
      in
      let bad = ref None in
      let rec dfs v =
        if visited.(v) <> k && !bad = None && level.(v) <= bound then begin
          visited.(v) <- k;
          if target.(v) = k then bad := Some v
          else List.iter dfs (successors g v)
        end
      in
      List.iter
        (fun id ->
          let c = g.Graph.canon.(id) in
          if target.(c) <> k then List.iter dfs (successors g c))
        after;
      match !bad with
      | Some v ->
          Diag.Bag.error bag Diag.Order_error loc
            "SEQUENTIAL order is incompatible with the dataflow: '%s' is \
             computed from a later statement's result"
            g.Graph.names.(v)
      | None -> ())
    (Netlist.order_constraints g.Graph.nl)

let check_undriven bag (g : Graph.t) =
  let nl = g.Graph.nl in
  let reports = ref [] in
  for c = 0 to g.Graph.n_classes - 1 do
    if
      g.Graph.producer_count.(c) = 0
      && (not g.Graph.reg_out_class.(c))
      && not g.Graph.input_class.(c)
    then
      let read_members =
        List.filter
          (fun id -> (Netlist.net nl id).Netlist.reads > 0)
          (List.rev (Graph.members g c))
      in
      (* prefer a member with a real source location to report at *)
      let located =
        List.filter
          (fun id -> not (Loc.is_dummy (Netlist.net nl id).Netlist.loc))
          read_members
      in
      match (located, read_members) with
      | id :: _, _ | [], id :: _ ->
          let net = Netlist.net nl id in
          reports :=
            ( c,
              fun () ->
                Diag.Bag.warning bag ~code:Diag.Code.undriven_read
                  Diag.Assign_error net.Netlist.loc
                  "'%s' is read but never assigned — it reads UNDEF"
                  net.Netlist.name )
            :: !reports
      | [], [] -> ()
  done;
  in_report_order g !reports

let run (design : Elaborate.design) =
  let bag = design.Elaborate.diags in
  let g = Graph.build design in
  let sc = Sched.build g in
  check_assignment_discipline bag g;
  if not sc.Sched.acyclic then check_cycles bag g;
  check_unused_ports bag g.Graph.nl;
  check_order_constraints bag g sc;
  check_undriven bag g;
  not (Diag.Bag.has_errors bag)
