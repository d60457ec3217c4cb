(* "Why does this net have this value?" — a post-cycle debugger that
   walks the semantics graph backwards from a signal and reports, per
   net, which producers fired what.  Invaluable for UNDEF hunting: the
   usual question about a four-valued simulator. *)

open Zeus_base
open Zeus_sem

type reason =
  | Input (* testbench input, CLK/RSET, or undriven *)
  | Register of string (* the stored value of this register *)
  | Gate of Netlist.gate_op * (string * Logic.t) list
  | Drivers of driver_fire list

and driver_fire = {
  guard : (string * Logic.t) option; (* guard signal and its value *)
  source : string * Logic.t;
  produced : Logic.t;
}

type entry = {
  net : string;
  value : Logic.t;
  reason : reason;
}

(* explain the value of one net from the last evaluated cycle,
   descending [depth] levels into its producers *)
let explain_nets sim nets ~depth =
  let g = Sim.graph sim in
  let nl = g.Graph.nl in
  let value_of id = List.hd (Sim.peek_nets sim [ id ]) in
  let name id = (Netlist.net nl id).Netlist.name in
  (* the producers of a class, off the graph's producer CSR: its last
     gate, and its drivers latest first *)
  let n_gates = Array.length g.Graph.gates in
  let producers c =
    let gate = ref None and drivers = ref [] in
    Graph.iter_producers g c (fun i ->
        if i < n_gates then gate := Some g.Graph.gates.(i)
        else drivers := g.Graph.drivers.(i - n_gates) :: !drivers);
    (!gate, !drivers)
  in
  let seen = Hashtbl.create 16 in
  let entries = ref [] in
  let src_value = function
    | Netlist.Sconst v -> v
    | Netlist.Snet s -> value_of s
  in
  let rec go id depth =
    let c = g.Graph.canon.(id) in
    if depth >= 0 && not (Hashtbl.mem seen c) then begin
      Hashtbl.replace seen c ();
      let gate, drivers = producers c in
      let reason, feeds =
        match Graph.reg_of_out g c with
        | r when r >= 0 -> (Register g.Graph.regs.(r).Netlist.rpath, [])
        | _ -> (
            match gate with
            | Some gt ->
                ( Gate
                    ( gt.Netlist.op,
                      List.map
                        (fun s -> (src_name_nl s, src_value s))
                        gt.Netlist.inputs ),
                  List.filter_map
                    (function Netlist.Snet s -> Some s | _ -> None)
                    gt.Netlist.inputs )
            | None -> (
                match drivers with
                | _ :: _ as ds ->
                    let fires =
                      List.map
                        (fun (d : Netlist.driver) ->
                          let produced =
                            match d.Netlist.guard with
                            | None -> src_value d.Netlist.source
                            | Some gs -> (
                                match Logic.booleanize (src_value gs) with
                                | Logic.Zero -> Logic.Noinfl
                                | Logic.One -> src_value d.Netlist.source
                                | Logic.Undef | Logic.Noinfl -> Logic.Undef)
                          in
                          {
                            guard =
                              Option.map
                                (fun gs -> (src_name_nl gs, src_value gs))
                                d.Netlist.guard;
                            source =
                              (src_name_nl d.Netlist.source,
                               src_value d.Netlist.source);
                            produced;
                          })
                        ds
                    in
                    ( Drivers fires,
                      List.concat_map
                        (fun (d : Netlist.driver) ->
                          List.filter_map
                            (function Netlist.Snet s -> Some s | _ -> None)
                            (d.Netlist.source :: Option.to_list d.Netlist.guard))
                        ds )
                | [] -> (Input, [])))
      in
      entries := { net = name id; value = value_of id; reason } :: !entries;
      List.iter (fun s -> go s (depth - 1)) feeds
    end
  and src_name_nl = function
    | Netlist.Sconst v -> "const " ^ Logic.to_string v
    | Netlist.Snet s -> name s
  in
  List.iter (fun id -> go id depth) nets;
  List.rev !entries

let explain sim path ~depth =
  Result.map
    (fun nets -> explain_nets sim nets ~depth)
    (Elaborate.resolve_path (Sim.design sim) path)

let pp_entry ppf e =
  Fmt.pf ppf "%s = %a: " e.net Logic.pp e.value;
  match e.reason with
  | Input -> Fmt.pf ppf "input (testbench / undriven / predefined)"
  | Register path -> Fmt.pf ppf "stored value of register %s" path
  | Gate (op, ins) ->
      Fmt.pf ppf "%s(%a)"
        (Netlist.gate_op_to_string op)
        Fmt.(list ~sep:comma (fun ppf (n, v) -> pf ppf "%s=%a" n Logic.pp v))
        ins
  | Drivers fires ->
      Fmt.pf ppf "%d driver(s):" (List.length fires);
      List.iter
        (fun f ->
          match f.guard with
          | None ->
              Fmt.pf ppf "@   := %s=%a -> %a" (fst f.source) Logic.pp
                (snd f.source) Logic.pp f.produced
          | Some (gn, gv) ->
              Fmt.pf ppf "@   IF %s=%a THEN := %s=%a -> %a" gn Logic.pp gv
                (fst f.source) Logic.pp (snd f.source) Logic.pp f.produced)
        fires

let pp ppf entries =
  Fmt.(list ~sep:(any "@.") pp_entry) ppf entries

let to_string entries = Fmt.str "%a" pp entries
