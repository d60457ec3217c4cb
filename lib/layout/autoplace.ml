(* Automatic placement — the "silicon compiler" application of report
   section 9 in miniature.

   Where the layout sub-language lets the designer state placements
   explicitly, this pass derives one from the netlist alone: instances
   are levelized by the combinational depth of their input pins and laid
   out column-per-level (a classic dataflow placement).  The result uses
   the same [Floorplan.plan] shape, so the renderer and the wirelength
   estimator below apply to both explicit and automatic plans — which is
   exactly the comparison the autoplace benchmark makes. *)

open Zeus_sem

(* The placeable cells under a root: the shallowest descendants that
   have net-bearing ports.  Usually these are the direct children (the
   granularity the designer's ORDER statements use); where a child's
   interface consists only of embedded component parameters (e.g. the
   pattern matcher's pe[i] with comp/acc fields), descend to the
   components that actually own pins. *)
let placeable design root_path =
  let nl = design.Elaborate.netlist in
  let prefix = root_path ^ "." in
  let under =
    List.filter
      (fun (i : Netlist.instance) ->
        (not i.Netlist.is_function_call)
        && String.length i.Netlist.ipath > String.length prefix
        && String.sub i.Netlist.ipath 0 (String.length prefix) = prefix)
      (Netlist.instances nl)
  in
  let has_nets (i : Netlist.instance) =
    List.exists (fun (_, _, nets) -> nets <> []) i.Netlist.iports
  in
  let with_nets =
    List.filter_map
      (fun i -> if has_nets i then Some i.Netlist.ipath else None)
      under
  in
  let ancestor_has_nets (i : Netlist.instance) =
    List.exists
      (fun p ->
        p <> i.Netlist.ipath
        && String.length i.Netlist.ipath > String.length p
        && String.sub i.Netlist.ipath 0 (String.length p) = p
        && (i.Netlist.ipath.[String.length p] = '.'
           || i.Netlist.ipath.[String.length p] = '['))
      with_nets
  in
  List.filter (fun i -> has_nets i && not (ancestor_has_nets i)) under

(* the combinational depth of an instance's input pins: their highest
   Sched level *)
let level_of_instance (g : Graph.t) (sc : Sched.t) (i : Netlist.instance) =
  List.fold_left
    (fun acc (_, mode, nets) ->
      match mode with
      | Etype.In | Etype.Inout ->
          List.fold_left
            (fun acc id -> max acc sc.Sched.net_level.(g.Graph.canon.(id)))
            acc nets
      | Etype.Out -> acc)
    0 i.Netlist.iports

(* bucket instances into columns by input depth, preserving declaration
   order within a column *)
let place design top =
  let nl = design.Elaborate.netlist in
  match
    List.find_opt
      (fun (i : Netlist.instance) -> i.Netlist.ipath = top)
      (Netlist.instances nl)
  with
  | None -> None
  | Some root ->
      let cells = placeable design top in
      if cells = [] then None
      else begin
        let g = Graph.build design in
        let sc = Sched.build g in
        let levelled = List.map (fun i -> (level_of_instance g sc i, i)) cells
        in
        let levels =
          List.sort_uniq compare (List.map fst levelled)
        in
        let columns =
          List.map
            (fun l -> List.filter_map
                 (fun (l', i) -> if l = l' then Some i else None)
                 levelled)
            levels
        in
        let height =
          List.fold_left (fun acc col -> max acc (List.length col)) 0 columns
        in
        let cells =
          List.concat
            (List.mapi
               (fun x col ->
                 List.mapi
                   (fun y (i : Netlist.instance) ->
                     {
                       Floorplan.iid = i.Netlist.iid;
                       path = i.Netlist.ipath;
                       type_name = i.Netlist.itype;
                       rect = Geom.rect ~x ~y ~w:1 ~h:1;
                       orient = None;
                       leaf = true;
                     })
                   col)
               columns)
        in
        Some
          {
            Floorplan.top_iid = root.Netlist.iid;
            top_path = top;
            width = List.length columns;
            height;
            cells;
            boundary_pins = [];
          }
      end

(* ------------------------------------------------------------------ *)
(* Wirelength estimation                                                *)
(* ------------------------------------------------------------------ *)

(* Manhattan distance between the centres (x2 to stay integral) of the
   placed cells connected by each driver/gate edge.  A net that is not
   itself a pin of a placed cell (e.g. the carry array of the ripple
   adder, or gate outputs inside an unplaced sub-component) inherits the
   location of whatever produces it, so wiring that passes through local
   signals is still accounted between its placed endpoints. *)
let wirelength design (plan : Floorplan.plan) =
  let nl = design.Elaborate.netlist in
  let where = Hashtbl.create 64 in
  List.iter
    (fun (p : Floorplan.placement) ->
      Hashtbl.replace where p.Floorplan.iid
        ( (2 * p.Floorplan.rect.Geom.x) + p.Floorplan.rect.Geom.w,
          (2 * p.Floorplan.rect.Geom.y) + p.Floorplan.rect.Geom.h ))
    plan.Floorplan.cells;
  (* chase locations through locals: a class whose producers read
     exactly one net inherits that net's owner *)
  let g = Graph.build design in
  let sole_source c =
    let srcs = ref [] in
    Graph.iter_producers g c (fun i ->
        match g.Graph.nodes.(i) with
        | Graph.Ndriver { source = Netlist.Snet s; _ } -> srcs := s :: !srcs
        | Graph.Ndriver _ -> ()
        | Graph.Ngate { inputs; _ } ->
            Array.iter
              (function
                | Netlist.Snet s -> srcs := s :: !srcs
                | Netlist.Sconst _ -> ())
              inputs);
    match !srcs with [ s ] -> Some s | _ -> None
  in
  let memo = Array.make g.Graph.n_classes None in
  let rec owner_class depth c =
    match memo.(c) with
    | Some o -> o
    | None ->
        memo.(c) <- Some None (* cycle guard *);
        let o =
          match (Netlist.net nl g.Graph.rep.(c)).Netlist.pin with
          | Some (iid, _) when Hashtbl.mem where iid ->
              Hashtbl.find_opt where iid
          | _ ->
              if depth > 8 then None
              else (
                match sole_source c with
                | Some s -> owner_class (depth + 1) s
                | None -> None)
        in
        memo.(c) <- Some o;
        o
  in
  let owner depth id = owner_class depth g.Graph.canon.(id) in
  let dist a b =
    match (owner 0 a, owner 0 b) with
    | Some (x1, y1), Some (x2, y2) -> abs (x1 - x2) + abs (y1 - y2)
    | _ -> 0
  in
  let of_src target = function
    | Netlist.Snet s -> dist s target
    | Netlist.Sconst _ -> 0
  in
  let total = ref 0 in
  List.iter
    (fun (d : Netlist.driver) ->
      total := !total + of_src d.Netlist.target d.Netlist.source;
      Option.iter
        (fun g -> total := !total + of_src d.Netlist.target g)
        d.Netlist.guard)
    (Netlist.drivers nl);
  List.iter
    (fun (g : Netlist.gate) ->
      List.iter
        (fun i -> total := !total + of_src g.Netlist.output i)
        g.Netlist.inputs)
    (Netlist.gates nl);
  !total
