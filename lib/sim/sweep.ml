(* The iterate-to-stability reference simulator (experiment E8, oracle
   row O3).

   A deliberately naive, self-contained evaluator over the semantics
   graph.  Every cycle starts from "nothing known" (each node output
   and each driven class unknown, each producer-less class at its
   seed), then sweeps all nodes in a fixed order: a node whose inputs
   are all known is evaluated strictly, and its output class is
   re-resolved at once when every producer is known.  The sweeps stop
   when a whole sweep changes nothing.  Nothing here is shared with the
   firing evaluator: the gates are the list-based truth tables of
   [Logic], multi-driver resolution is [Logic.resolve], and conflicts
   are read off the settled state, once per class per cycle.

   On an acyclic design every output becomes known exactly once, at the
   single solution of the strict equations, which is the value the
   firing rules of section 8 reach.  A combinational cycle (a design
   with check errors) leaves classes unknown; like the firing
   evaluator's fallback they then read UNDEF and the sweeps resume.
   The four-valued operators are monotone in the information order
   UNDEF < 0, 1, NOINFL, so a forced UNDEF can only move up once more
   and the sweeps still end. *)

open Zeus_base
open Zeus_sem

type order = Fixpoint | Relaxation

let order_name = function Fixpoint -> "fixpoint" | Relaxation -> "relaxation"

type result = {
  snaps : Logic.t option array list;
  errors : (int * string * string) list;
  visits : int;
}

(* EQUAL: the first half of the inputs against the second, bitwise *)
let equal_bits vs =
  let n = List.length vs / 2 in
  let a = List.filteri (fun i _ -> i < n) vs
  and b = List.filteri (fun i _ -> i >= n) vs in
  List.fold_left2
    (fun acc x y -> Logic.and2 acc (Logic.equal2 x y))
    Logic.One a b

let run ?(seed = 0x5eed) ~order (design : Elaborate.design) pokes =
  let g = Graph.build design in
  let n = g.Graph.n_classes and n_nodes = Array.length g.Graph.nodes in
  let poked = Array.make n None in
  let reg = Array.map (fun (r : Netlist.reg) -> r.Netlist.rinit) g.Graph.regs in
  (* [None] = not known yet this cycle *)
  let value = Array.make n None and out = Array.make n_nodes None in
  let visits = ref 0 and errors = ref [] and snaps = ref [] in
  let producers c =
    List.init
      (g.Graph.prod_off.(c + 1) - g.Graph.prod_off.(c))
      (fun k -> out.(g.Graph.prod_nodes.(g.Graph.prod_off.(c) + k)))
  in
  (* a driven class resolves once every producer is known *)
  let resolution c =
    let outs = producers c in
    if List.mem None outs then None
    else Some (Logic.resolve (List.map Option.get outs))
  in
  let settle c =
    match resolution c with
    | None -> ()
    | Some r ->
        value.(c) <-
          Some
            (match g.Graph.class_kind.(c) with
            | Etype.KBool -> Logic.booleanize r.Logic.value
            | Etype.KMux -> r.Logic.value)
  in
  let read = function
    | Netlist.Sconst v -> Some v
    | Netlist.Snet c -> value.(c)
  in
  let eval cycle = function
    | Graph.Ngate { op = Netlist.Grandom; output; _ } ->
        Some (Logic.of_bool (Prand.bool ~seed ~net:output ~cycle))
    | Graph.Ngate { op; inputs; _ } ->
        let vs = Array.to_list (Array.map read inputs) in
        if List.mem None vs then None
        else
          let vs = List.map Option.get vs in
          Some
            (match op with
            | Netlist.Gand -> Logic.and_list vs
            | Netlist.Gor -> Logic.or_list vs
            | Netlist.Gnand -> Logic.nand_list vs
            | Netlist.Gnor -> Logic.nor_list vs
            | Netlist.Gxor -> Logic.xor_list vs
            | Netlist.Gnot -> Logic.not_ (List.hd vs)
            | Netlist.Gequal -> equal_bits vs
            | Netlist.Grandom -> assert false (* matched above *))
    | Graph.Ndriver { guard = None; source; _ } -> read source
    | Graph.Ndriver { guard = Some gs; source; _ } -> (
        match (read gs, read source) with
        | Some gv, Some sv ->
            Some
              (match Logic.booleanize gv with
              | Logic.Zero -> Logic.Noinfl
              | Logic.One -> sv
              | Logic.Undef | Logic.Noinfl -> Logic.Undef)
        | _ -> None)
  in
  let seed_of c =
    match poked.(c) with
    | Some v -> v
    | None ->
        if c = g.Graph.clk then Logic.One
        else if c = g.Graph.rset then Logic.Zero
        else if Graph.reg_of_out g c >= 0 then reg.(Graph.reg_of_out g c)
        else Logic.Undef
  in
  let rec relax cycle =
    let changed = ref true in
    while !changed do
      changed := false;
      for k = 0 to n_nodes - 1 do
        let node =
          match order with Fixpoint -> k | Relaxation -> n_nodes - 1 - k
        in
        incr visits;
        let v = eval cycle g.Graph.nodes.(node) in
        if not (Option.equal Logic.equal v out.(node)) then begin
          out.(node) <- v;
          changed := true;
          settle (Graph.node_output g.Graph.nodes.(node))
        end
      done
    done;
    (* only a combinational cycle leaves a class unknown: it reads UNDEF,
       as in the firing evaluator's fallback, and the sweeps resume *)
    let stuck = ref false in
    for c = 0 to n - 1 do
      if value.(c) = None && Graph.consumer_count g c > 0 then begin
        value.(c) <- Some Logic.Undef;
        stuck := true
      end
    done;
    if !stuck then relax cycle
  in
  List.iteri
    (fun cycle cycle_pokes ->
      List.iter
        (fun (id, v) -> poked.(g.Graph.canon.(id)) <- Some v)
        cycle_pokes;
      Array.fill out 0 n_nodes None;
      for c = 0 to n - 1 do
        value.(c) <-
          (if g.Graph.producer_count.(c) = 0 then Some (seed_of c) else None)
      done;
      relax cycle;
      (* the section 4.7 check on the settled state *)
      for c = 0 to n - 1 do
        match resolution c with
        | Some { Logic.conflict = true; _ } ->
            errors :=
              (cycle, g.Graph.names.(c), Diag.Code.drive_conflict) :: !errors
        | _ -> ()
      done;
      (* latch: an input nothing drove this cycle keeps the stored value *)
      Array.iteri
        (fun i c ->
          let v =
            if g.Graph.producer_count.(c) = 0 then value.(c)
            else Option.map (fun r -> r.Logic.value) (resolution c)
          in
          match v with
          | None | Some Logic.Noinfl -> ()
          | Some v -> reg.(i) <- Logic.booleanize v)
        g.Graph.reg_in;
      snaps :=
        Array.init g.Graph.n_nets (fun i ->
            let c = g.Graph.canon.(i) in
            if g.Graph.rep.(c) = i then value.(c) else None)
        :: !snaps)
    pokes;
  { snaps = List.rev !snaps; errors = List.rev !errors; visits = !visits }
