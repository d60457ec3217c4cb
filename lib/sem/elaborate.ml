(* Elaboration: Zeus AST -> bit-level netlist.

   This implements sections 3-5 of the report:
   - constant/type/signal declarations with parameterized, possibly
     recursive component types;
   - lazy instantiation ("this hardware is only generated if it is used",
     section 4.2) — a local signal whose type is a component with a body
     is only turned into hardware the first time a statement touches it;
   - statements: assignment/aliasing, connection statements (translated
     to assignments per section 4.3), IF (rewritten to guard nets per
     section 8), FOR replication, WHEN conditional generation, WITH,
     SEQUENTIAL/PARALLEL (ordering constraints only), RESULT;
   - the predefined components AND/OR/NAND/NOR/XOR/NOT/EQUAL/RANDOM, REG,
     CLK and RSET;
   - the layout sub-language, recorded as Layout_ir per instance, with
     `virtual` replacement executed before the statement part. *)

open Zeus_base
open Zeus_lang
module SMap = Map.Make (String)

exception Abort of Loc.t * string

let abort loc fmt = Fmt.kstr (fun msg -> raise (Abort (loc, msg))) fmt

(* Elaboration limits: runaway type recursion protection. *)
let max_instance_depth = 2000

let max_instances = 2_000_000

(* ... and its counterpart for runaway arrays and loops *)
let max_nets = 10_000_000

(* ------------------------------------------------------------------ *)
(* Environments and values                                             *)
(* ------------------------------------------------------------------ *)

type binding =
  | Bconst of Cval.t
  | Btype of tydef
  | Bsignal of sigval

and tydef = {
  td_name : string;
  td_formals : string list;
  td_ast : Ast.ty;
  mutable td_env : env; (* def-site environment, includes the whole group *)
}

and env = binding SMap.t

and sigval =
  | Vbit of int (* net id *)
  | Varr of int * sigval array (* low index *)
  | Vrec of (string * Etype.mode * sigval) list
  | Vinst of inst_slot
  | Vvirt of virt_slot

and inst_slot = {
  slot_path : string;
  mutable slot_state : slot_state;
}

and slot_state =
  | Sthunk of (unit -> forced)
  | Sforcing
  | Sforced of forced

and forced = {
  f_ports : sigval; (* always a Vrec *)
  f_iid : int;
  f_result : int list; (* RESULT nets of a function component *)
}

and virt_slot = {
  virt_path : string;
  mutable virt_repl : sigval option;
  mutable virt_loc : Loc.t;
}

(* Resolved types: all constant expressions evaluated. *)
type rty =
  | Rbasic of Etype.kind
  | Rarray of int * int * rty
  | Rrecord of (string * Etype.mode * rty) list
  | Rcomp of comp_closure (* component type with body (incl. functions) *)
  | Rreg of Logic.t (* initial value: UNDEF unless REG(c), section 5.2 *)
  | Rvirtual

and comp_closure = {
  cc_name : string;
  cc_ast : Ast.component_ty;
  cc_env : env;
  cc_keep : unit SMap.t; (* names never filtered by a USES list *)
  cc_loc : Loc.t;
}

type ctx = {
  nl : Netlist.t;
  bag : Diag.Bag.t;
  layouts : (int, Layout_ir.t) Hashtbl.t;
  locals : (string, sigval) Hashtbl.t; (* hierarchical path -> local signal *)
  clk : int;
  rset : int;
  eager : bool; (* ablation: instantiate component signals on declaration *)
  mutable depth : int;
  mutable call_counter : int;
}

(* every net of a signal, gate, guard or register comes through here,
   so [max_nets] bounds the netlist the way [max_instances] bounds the
   hierarchy *)
let fresh_net ctx ~name ~kind ?pin ~loc () =
  if Netlist.net_count ctx.nl >= max_nets then
    abort loc "more than %d nets at '%s'" max_nets name;
  Netlist.fresh_net ctx.nl ~name ~kind ?pin ~loc ()

type frame = {
  env : env;
  self : int; (* iid of the component being elaborated *)
  path : string;
  guard : Netlist.src option; (* current IF guard *)
  withs : sigval list; (* WITH scopes, innermost first *)
  result : int list option; (* RESULT target nets in function components *)
}

(* Flattened expression values. *)
type item =
  | Inet of int
  | Iconst of Logic.t
  | Istar of int option (* "*" with optional declared width *)

let src_of_item = function
  | Inet id -> Some (Netlist.Snet id)
  | Iconst v -> Some (Netlist.Sconst v)
  | Istar _ -> None

(* ------------------------------------------------------------------ *)
(* Small helpers                                                        *)
(* ------------------------------------------------------------------ *)

let const_lookup env : Const_eval.lookup =
 fun id ->
  match SMap.find_opt id.Ast.id env with
  | Some (Bconst v) -> Some v
  | _ -> None

let eval_int env e = Const_eval.eval_int (const_lookup env) e

let eval_bool env e = Const_eval.eval_bool (const_lookup env) e

let diag_error ctx loc fmt = Diag.Bag.error ctx.bag Diag.Type_error loc fmt

let rty_width_opt rty =
  let rec go = function
    | Rbasic _ -> Some 1
    | Rarray (lo, hi, elem) ->
        let n = hi - lo + 1 in
        if n <= 0 then Some 0
        else Option.map (fun w -> n * w) (go elem)
    | Rrecord fields ->
        List.fold_left
          (fun acc (_, _, f) ->
            match (acc, go f) with
            | Some a, Some b -> Some (a + b)
            | _ -> None)
          (Some 0) fields
    | Rcomp _ | Rreg _ | Rvirtual -> None
  in
  go rty

(* ------------------------------------------------------------------ *)
(* Type resolution                                                      *)
(* ------------------------------------------------------------------ *)

let rec resolve_ty ctx (env : env) (ty : Ast.ty) : rty =
  match ty with
  | Ast.Tname (id, args) -> resolve_name ctx env id args
  | Ast.Tarray (lo_e, hi_e, elem, loc) ->
      let lo = eval_int env lo_e and hi = eval_int env hi_e in
      if hi < lo then
        abort loc "empty array range [%d..%d]" lo hi
      else Rarray (lo, hi, resolve_ty ctx env elem)
  | Ast.Tcomponent (c, loc) ->
      resolve_component ctx env ~keep:SMap.empty "<anonymous>" c loc

and resolve_name ctx env id args =
  match SMap.find_opt id.Ast.id env with
  | Some (Btype td) ->
      if List.length args <> List.length td.td_formals then
        abort id.Ast.id_loc "type '%s' expects %d parameter(s), got %d"
          id.Ast.id
          (List.length td.td_formals)
          (List.length args);
      let actuals = List.map (fun a -> Cval.Vint (eval_int env a)) args in
      let env' =
        List.fold_left2
          (fun e name v -> SMap.add name (Bconst v) e)
          td.td_env td.td_formals actuals
      in
      ctx.depth <- ctx.depth + 1;
      if ctx.depth > max_instance_depth then
        abort id.Ast.id_loc
          "type recursion deeper than %d while expanding '%s' — missing \
           base case?"
          max_instance_depth id.Ast.id;
      let keep =
        List.fold_left (fun s f -> SMap.add f () s) SMap.empty td.td_formals
      in
      let r = resolve_named ctx env' ~keep id.Ast.id td.td_ast in
      ctx.depth <- ctx.depth - 1;
      r
  | Some (Bconst _ | Bsignal _) ->
      abort id.Ast.id_loc "'%s' is not a type" id.Ast.id
  | None -> (
      match (id.Ast.id, args) with
      | "boolean", [] -> Rbasic Etype.KBool
      | "multiplex", [] -> Rbasic Etype.KMux
      | "REG", [] -> Rreg Logic.Undef
      | "REG", [ e ] -> (
          (* REG(c): register with a declared power-up value — the
             reconstruction of the scan-lost section 5.2 *)
          match eval_int env e with
          | 0 -> Rreg Logic.Zero
          | 1 -> Rreg Logic.One
          | v ->
              abort id.Ast.id_loc
                "REG initial value must be 0 or 1, got %d" v)
      | "virtual", [] -> Rvirtual
      | ("boolean" | "multiplex" | "REG" | "virtual"), _ ->
          abort id.Ast.id_loc "'%s' takes no type parameters" id.Ast.id
      | _ -> abort id.Ast.id_loc "undeclared type '%s'" id.Ast.id)

and resolve_named ctx env ~keep name = function
  | Ast.Tcomponent (c, loc) -> resolve_component ctx env ~keep name c loc
  | ty -> resolve_ty ctx env ty

and resolve_component ctx env ~keep name (c : Ast.component_ty) loc =
  match (c.Ast.cbody, c.Ast.cresult) with
  | None, None ->
      (* record type: component without body *)
      let fields =
        List.concat_map
          (fun (p : Ast.fparam) ->
            let m = Etype.mode_of_ast p.Ast.fmode in
            let rty = resolve_ty ctx env p.Ast.fty in
            List.map (fun (n : Ast.ident) -> (n.Ast.id, m, rty)) p.Ast.fnames)
          c.Ast.cparams
      in
      Rrecord fields
  | _ ->
      (* [keep]: the formals of the enclosing parameterized type
         definition stay visible regardless of a USES list — they are
         part of the type, not of its environment *)
      Rcomp { cc_name = name; cc_ast = c; cc_env = env; cc_keep = keep; cc_loc = loc }

(* ------------------------------------------------------------------ *)
(* Building signal values                                               *)
(* ------------------------------------------------------------------ *)

(* Create the sigval for a signal/parameter of resolved type [rty].
   [pin] tags created nets as pins of an instance; [mode] is the
   inherited parameter mode.  Component-with-body types become lazy
   instance slots (the laziness that makes recursion terminate). *)
let rec build_sigval ctx ~pin ~(mode : Etype.mode) ~path ~loc rty : sigval =
  match rty with
  | Rbasic k ->
      (match (mode, k, pin) with
      | (Etype.In | Etype.Out), Etype.KMux, Some _ ->
          diag_error ctx loc
            "unstructured IN and OUT parameters must be boolean: %s" path
      | Etype.Inout, Etype.KBool, Some _ ->
          diag_error ctx loc
            "INOUT parameters of basic type must be multiplex: %s" path
      | _ -> ());
      let pin = Option.map (fun iid -> (iid, mode)) pin in
      Vbit (fresh_net ctx ~name:path ~kind:k ?pin ~loc ())
  | Rarray (lo, hi, elem) ->
      let n = hi - lo + 1 in
      (* [n <= 0]: the element count itself overflowed *)
      if n <= 0 || n > max_nets - Netlist.net_count ctx.nl then
        abort loc "more than %d nets at '%s': array [%d..%d]" max_nets path
          lo hi;
      Varr
        ( lo,
          Array.init n (fun i ->
              build_sigval ctx ~pin ~mode
                ~path:(Printf.sprintf "%s[%d]" path (lo + i))
                ~loc elem) )
  | Rrecord fields ->
      Vrec
        (List.map
           (fun (fname, fmode, f) ->
             let m =
               match Etype.combine_mode mode fmode with
               | Some m -> m
               | None ->
                   diag_error ctx loc
                     "field '%s.%s' contradicts the inherited %s mode" path
                     fname
                     (Etype.mode_to_string mode);
                   fmode
             in
             (fname, fmode, build_sigval ctx ~pin ~mode:m ~path:(path ^ "." ^ fname) ~loc f))
           fields)
  | Rcomp cc ->
      if cc.cc_ast.Ast.cresult <> None then
        abort loc "function component type '%s' cannot be instantiated by a \
                   signal declaration" cc.cc_name;
      let rec slot =
        { slot_path = path; slot_state = Sthunk (fun () -> force_comp ctx cc path loc slot) }
      in
      (* the lazy-instantiation ablation: the paper's "this hardware is
         only generated if it is used" (section 4.2) is what terminates
         recursive types — eager mode demonstrates the divergence *)
      if ctx.eager then ignore (force_slot ctx ~loc slot);
      Vinst slot
  | Rreg init ->
      let rec slot =
        { slot_path = path;
          slot_state = Sthunk (fun () -> force_reg ctx path loc ~init slot) }
      in
      if ctx.eager then ignore (force_slot ctx ~loc slot);
      Vinst slot
  | Rvirtual -> Vvirt { virt_path = path; virt_repl = None; virt_loc = loc }

(* Flatten to net ids without forcing anything (for instance port lists) *)
and flatten_noforce sv acc =
  match sv with
  | Vbit id -> id :: acc
  | Varr (_, elems) -> Array.fold_left (fun acc e -> flatten_noforce e acc) acc elems
  | Vrec fields -> List.fold_left (fun acc (_, _, f) -> flatten_noforce f acc) acc fields
  | Vinst _ | Vvirt _ -> acc

(* Flatten to net ids, forcing instances and requiring virtuals replaced *)
and flatten_force ctx ~loc sv acc =
  match sv with
  | Vbit id -> id :: acc
  | Varr (_, elems) ->
      Array.fold_left (fun acc e -> flatten_force ctx ~loc e acc) acc elems
  | Vrec fields ->
      List.fold_left (fun acc (_, _, f) -> flatten_force ctx ~loc f acc) acc fields
  | Vinst slot ->
      let f = force_slot ctx ~loc slot in
      flatten_force ctx ~loc f.f_ports acc
  | Vvirt v -> (
      match v.virt_repl with
      | Some sv -> flatten_force ctx ~loc sv acc
      | None -> abort loc "virtual signal '%s' was never replaced" v.virt_path)

and sig_nets ctx ~loc sv = List.rev (flatten_force ctx ~loc sv [])

and force_slot _ctx ~loc slot =
  match slot.slot_state with
  | Sforced f -> f
  | Sforcing ->
      abort loc "instantiation cycle through '%s'" slot.slot_path
  | Sthunk th ->
      slot.slot_state <- Sforcing;
      let f = th () in
      slot.slot_state <- Sforced f;
      f

and force_reg ctx path loc ~init _slot =
  let inst = Netlist.add_instance ctx.nl ~path ~type_name:"REG" ~ports:[] ~loc in
  let rin =
    fresh_net ctx ~name:(path ^ ".in") ~kind:Etype.KBool
      ~pin:(inst.Netlist.iid, Etype.In) ~loc ()
  in
  let rout =
    fresh_net ctx ~name:(path ^ ".out") ~kind:Etype.KBool
      ~pin:(inst.Netlist.iid, Etype.Out) ~loc ()
  in
  inst.Netlist.iports <- [ ("in", Etype.In, [ rin ]); ("out", Etype.Out, [ rout ]) ];
  ignore (Netlist.add_reg ctx.nl ~rin ~rout ~path ~init);
  {
    f_ports =
      Vrec [ ("in", Etype.In, Vbit rin); ("out", Etype.Out, Vbit rout) ];
    f_iid = inst.Netlist.iid;
    f_result = [];
  }

(* Instantiate a component type with a body. *)
and force_comp ctx cc path loc _slot =
  ctx.depth <- ctx.depth + 1;
  if ctx.depth > max_instance_depth then
    abort loc "instance hierarchy deeper than %d at '%s'" max_instance_depth
      path;
  if Netlist.instance_count ctx.nl > max_instances then
    abort loc "more than %d instances — runaway recursion?" max_instances;
  let inst =
    Netlist.add_instance ctx.nl ~path ~type_name:cc.cc_name ~ports:[] ~loc
  in
  let iid = inst.Netlist.iid in
  (* the body of this component *)
  let body =
    match cc.cc_ast.Ast.cbody with
    | Some b -> b
    | None -> assert false (* Rcomp implies a body (parser enforces) *)
  in
  (* USES filtering of the definition-site environment *)
  let base_env =
    match body.Ast.buses with
    | None -> cc.cc_env
    | Some ids ->
        let wanted =
          List.fold_left
            (fun s (i : Ast.ident) -> SMap.add i.Ast.id () s)
            cc.cc_keep ids
        in
        SMap.filter (fun name _ -> SMap.mem name wanted) cc.cc_env
  in
  (* parameters *)
  let ports =
    List.concat_map
      (fun (p : Ast.fparam) ->
        let m = Etype.mode_of_ast p.Ast.fmode in
        let rty = resolve_ty ctx cc.cc_env p.Ast.fty in
        List.map
          (fun (n : Ast.ident) ->
            let sv =
              build_sigval ctx ~pin:(Some iid) ~mode:m
                ~path:(path ^ "." ^ n.Ast.id) ~loc:n.Ast.id_loc rty
            in
            (n.Ast.id, m, sv))
          p.Ast.fnames)
      cc.cc_ast.Ast.cparams
  in
  inst.Netlist.iports <-
    List.map (fun (n, m, sv) -> (n, m, List.rev (flatten_noforce sv []))) ports;
  let env =
    List.fold_left
      (fun e (n, _, sv) -> SMap.add n (Bsignal sv) e)
      base_env ports
  in
  (* result nets for function component types: always created as mux —
     conditional RESULT statements make the value tri-state (section 3.2),
     and the implicit conversion handles boolean callers *)
  let result_nets =
    match cc.cc_ast.Ast.cresult with
    | None -> None
    | Some rty_ast ->
        let rty = resolve_ty ctx cc.cc_env rty_ast in
        let w =
          match rty_width_opt rty with
          | Some w -> w
          | None -> abort loc "function result type must be a data type"
        in
        Some
          (List.init w (fun i ->
               fresh_net ctx
                 ~name:(Printf.sprintf "%s.RESULT[%d]" path i)
                 ~kind:Etype.KMux ~pin:(iid, Etype.Out) ~loc ()))
  in
  (* local declarations *)
  let env = elab_decls ctx env ~path body.Ast.bdecls in
  let frame =
    { env; self = iid; path; guard = None; withs = []; result = result_nets }
  in
  (* phase A: virtual replacements must precede the statement part *)
  layout_replacements ctx frame body.Ast.bbody_layout;
  (* the statement part *)
  elab_stmts ctx frame body.Ast.bstmts;
  (* phase B: record the placement tree (head layout + body layout) *)
  let lay =
    elab_layout ctx frame
      (cc.cc_ast.Ast.chead_layout @ body.Ast.bbody_layout)
  in
  if lay <> [] then Hashtbl.replace ctx.layouts iid lay;
  ctx.depth <- ctx.depth - 1;
  {
    f_ports = Vrec ports;
    f_iid = iid;
    f_result = Option.value ~default:[] result_nets;
  }

(* ------------------------------------------------------------------ *)
(* Declarations                                                         *)
(* ------------------------------------------------------------------ *)

and elab_decls ctx env ~path decls =
  List.fold_left (fun env d -> elab_decl ctx env ~path d) env decls

and elab_decl ctx env ~path = function
  | Ast.Dconst entries ->
      List.fold_left
        (fun env ((id : Ast.ident), c) ->
          if SMap.mem id.Ast.id env then
            Diag.Bag.warning ctx.bag Diag.Name_error id.Ast.id_loc
              "constant '%s' shadows an earlier declaration" id.Ast.id;
          let v =
            try Const_eval.eval_constant (const_lookup env) c
            with Const_eval.Error (loc, msg) -> raise (Abort (loc, msg))
          in
          SMap.add id.Ast.id (Bconst v) env)
        env entries
  | Ast.Dtype defs ->
      (* all definitions of the group see the whole group (recursion and
         mutual recursion tie the knot through td_env mutation) *)
      let tds =
        List.map
          (fun (d : Ast.type_def) ->
            {
              td_name = d.Ast.tname.Ast.id;
              td_formals = List.map (fun (i : Ast.ident) -> i.Ast.id) d.Ast.tformals;
              td_ast = d.Ast.tty;
              td_env = env;
            })
          defs
      in
      let env' =
        List.fold_left (fun e td -> SMap.add td.td_name (Btype td) e) env tds
      in
      List.iter (fun td -> td.td_env <- env') tds;
      env'
  | Ast.Dsignal entries ->
      List.fold_left
        (fun env (ids, ty) ->
          let rty = resolve_ty ctx env ty in
          List.fold_left
            (fun env (id : Ast.ident) ->
              let full = path ^ "." ^ id.Ast.id in
              let sv =
                build_sigval ctx ~pin:None ~mode:Etype.Inout ~path:full
                  ~loc:id.Ast.id_loc rty
              in
              Hashtbl.replace ctx.locals full sv;
              SMap.add id.Ast.id (Bsignal sv) env)
            env ids)
        env entries

(* ------------------------------------------------------------------ *)
(* Signal reference resolution                                          *)
(* ------------------------------------------------------------------ *)

(* A resolved reference is a set of alternatives guarded by dynamic
   address comparisons ([NUM(...)] selectors); static references have a
   single unguarded arm. *)
and resolve_ref ctx frame (sref : Ast.signal_ref) :
    (Netlist.src option * sigval) list =
  match sref with
  | Ast.Star loc -> abort loc "'*' is not a signal here"
  | Ast.Sig (id, sels) ->
      let head = lookup_head ctx frame id in
      List.fold_left (fun arms sel -> apply_selector ctx frame arms sel) [ (None, head) ] sels

and lookup_head ctx frame (id : Ast.ident) : sigval =
  let name = id.Ast.id in
  (* WITH scopes first (section 4.6) *)
  let rec in_withs = function
    | [] -> None
    | w :: rest -> (
        let fields =
          match w with
          | Vrec fields -> Some fields
          | Vinst slot -> (
              match (force_slot ctx ~loc:id.Ast.id_loc slot).f_ports with
              | Vrec fields -> Some fields
              | _ -> None)
          | _ -> None
        in
        match fields with
        | Some fields -> (
            match List.find_opt (fun (n, _, _) -> n = name) fields with
            | Some (_, _, sv) -> Some sv
            | None -> in_withs rest)
        | None -> in_withs rest)
  in
  match in_withs frame.withs with
  | Some sv -> sv
  | None -> (
      if name = "CLK" then Vbit ctx.clk
      else if name = "RSET" then Vbit ctx.rset
      else
        match SMap.find_opt name frame.env with
        | Some (Bsignal sv) -> sv
        | Some (Bconst (Cval.Vsig _)) ->
            (* signal constants referenced in expressions are handled by
               the expression evaluator; as a bare sigval they have no
               nets *)
            abort id.Ast.id_loc
              "signal constant '%s' cannot be used as an assignable signal"
              name
        | Some (Bconst (Cval.Vint _)) ->
            abort id.Ast.id_loc "'%s' is a numeric constant, not a signal" name
        | Some (Btype _) ->
            abort id.Ast.id_loc "'%s' is a type, not a signal" name
        | None -> abort id.Ast.id_loc "undeclared signal '%s'" name)

and apply_selector ctx frame arms sel =
  List.concat_map
    (fun (g, sv) ->
      match sel with
      | Ast.Sel_index e -> (
          let i = eval_int frame.env e in
          let loc = Ast.const_expr_loc e in
          match deref ctx ~loc sv with
          | Varr (lo, elems) ->
              if i < lo || i >= lo + Array.length elems then
                abort loc "index %d out of range [%d..%d]" i lo
                  (lo + Array.length elems - 1)
              else [ (g, elems.(i - lo)) ]
          | _ -> abort loc "indexing a non-array signal")
      | Ast.Sel_range (e1, e2) -> (
          let a = eval_int frame.env e1 and b = eval_int frame.env e2 in
          let loc = Ast.const_expr_loc e1 in
          match deref ctx ~loc sv with
          | Varr (lo, elems) ->
              let hi = lo + Array.length elems - 1 in
              if a < lo || b > hi || a > b then
                abort loc "range [%d..%d] out of bounds [%d..%d]" a b lo hi
              else
                [ (g, Varr (a, Array.sub elems (a - lo) (b - a + 1))) ]
          | _ -> abort loc "slicing a non-array signal")
      | Ast.Sel_num addr_ref -> (
          let loc = Ast.signal_ref_loc addr_ref in
          let addr_items = read_ref ctx frame addr_ref in
          let addr_srcs =
            List.map
              (fun it ->
                match src_of_item it with
                | Some s -> s
                | None -> abort loc "'*' cannot appear in a NUM address")
              addr_items
          in
          let w = List.length addr_srcs in
          match deref ctx ~loc sv with
          | Varr (lo, elems) ->
              List.init (Array.length elems) (fun k ->
                  let idx = lo + k in
                  (* guard: EQUAL(addr, BIN(idx,w)) composed with any
                     enclosing dynamic guard *)
                  let const_bits =
                    Cval.sctree_leaves (Cval.bin idx w)
                    |> List.map (fun v -> Netlist.Sconst v)
                  in
                  let eq_out =
                    fresh_net ctx
                      ~name:(Printf.sprintf "%s.num_sel#%d" frame.path idx)
                      ~kind:Etype.KBool ~loc ()
                  in
                  List.iter (Netlist.mark_read_src ctx.nl ~scope:frame.self) addr_srcs;
                  ignore
                    (Netlist.add_gate ctx.nl ~op:Netlist.Gequal
                       ~inputs:(addr_srcs @ const_bits) ~output:eq_out ~loc);
                  let g' = and_src ctx frame ~loc g (Netlist.Snet eq_out) in
                  (Some g', elems.(idx - lo)))
              |> Array.of_list |> Array.to_list
          | _ -> abort loc "NUM-indexing a non-array signal")
      | Ast.Sel_field f -> select_field ctx frame g sv f
      | Ast.Sel_field_range (f1, f2) -> (
          (* ".a..b": consecutive fields a through b of a record *)
          let loc = f1.Ast.id_loc in
          match deref ctx ~loc sv with
          | Vrec fields ->
              let names = List.map (fun (n, _, _) -> n) fields in
              let pos n =
                match List.find_index (( = ) n) names with
                | Some i -> i
                | None -> abort loc "no field '%s'" n
              in
              let a = pos f1.Ast.id and b = pos f2.Ast.id in
              if a > b then abort loc "field range '%s..%s' is reversed" f1.Ast.id f2.Ast.id;
              let sub = List.filteri (fun i _ -> i >= a && i <= b) fields in
              [ (g, Vrec sub) ]
          | _ -> abort loc "field range on a non-record signal"))
    arms

(* force through instances/virtuals so selectors can look inside *)
and deref ctx ~loc sv =
  match sv with
  | Vinst slot -> (force_slot ctx ~loc slot).f_ports
  | Vvirt v -> (
      match v.virt_repl with
      | Some sv -> deref ctx ~loc sv
      | None -> abort loc "virtual signal '%s' was never replaced" v.virt_path)
  | sv -> sv

and select_field ctx frame g sv (f : Ast.ident) =
  let loc = f.Ast.id_loc in
  match deref ctx ~loc sv with
  | Vrec fields -> (
      match List.find_opt (fun (n, _, _) -> n = f.Ast.id) fields with
      | Some (_, _, sub) -> [ (g, sub) ]
      | None -> abort loc "no field '%s'" f.Ast.id)
  | Varr (lo, elems) ->
      (* distribution rule (section 4.1): r.in denotes r[1..n].in *)
      let sub =
        Array.map
          (fun e ->
            match select_field ctx frame g e f with
            | [ (_, sv) ] -> sv
            | _ -> abort loc "dynamic selection cannot be distributed over an array")
          elems
      in
      [ (g, Varr (lo, sub)) ]
  | _ -> abort loc "field selection '.%s' on a basic signal" f.Ast.id

(* read a reference as a flat item list (building muxes for dynamic
   NUM-selected references) *)
and read_ref ctx frame (sref : Ast.signal_ref) : item list =
  match sref with
  | Ast.Star loc -> [ Istar (Some 1) ] |> fun _ -> abort loc "'*' cannot be read"
  | Ast.Sig _ -> (
      let arms = resolve_ref ctx frame sref in
      match arms with
      | [ (None, sv) ] ->
          let nets = sig_nets ctx ~loc:(Ast.signal_ref_loc sref) sv in
          List.iter (Netlist.mark_read ctx.nl ~scope:frame.self) nets;
          List.map (fun id -> Inet id) nets
      | arms -> read_arms ctx frame ~loc:(Ast.signal_ref_loc sref) arms)

and read_arms ctx frame ~loc arms =
  (* dynamic read: per bit position, a mux net driven under each arm's
     guard *)
  let flat =
    List.map
      (fun (g, sv) ->
        let nets = sig_nets ctx ~loc sv in
        List.iter (Netlist.mark_read ctx.nl ~scope:frame.self) nets;
        (g, nets))
      arms
  in
  let width =
    match flat with
    | [] -> 0
    | (_, nets) :: _ -> List.length nets
  in
  List.iter
    (fun (_, nets) ->
      if List.length nets <> width then
        abort loc "NUM-selected alternatives have different widths")
    flat;
  List.init width (fun bitpos ->
      let out =
        fresh_net ctx
          ~name:(Printf.sprintf "%s.num_mux[%d]" frame.path bitpos)
          ~kind:Etype.KMux ~loc ()
      in
      List.iter
        (fun (g, nets) ->
          let src = Netlist.Snet (List.nth nets bitpos) in
          ignore (Netlist.add_driver ctx.nl ~scope:frame.self ~target:out ~guard:g ~source:src ~loc))
        flat;
      Inet out)

(* ------------------------------------------------------------------ *)
(* Guard plumbing                                                       *)
(* ------------------------------------------------------------------ *)

and and_src ctx frame ~loc a b =
  match (a, b) with
  | None, s -> s
  | Some (Netlist.Sconst Logic.One), s -> s
  | Some a, b ->
      let out =
        fresh_net ctx
          ~name:(frame.path ^ ".guard")
          ~kind:Etype.KBool ~loc ()
      in
      Netlist.mark_read_src ctx.nl ~scope:frame.self a;
      Netlist.mark_read_src ctx.nl ~scope:frame.self b;
      ignore (Netlist.add_gate ctx.nl ~op:Netlist.Gand ~inputs:[ a; b ] ~output:out ~loc);
      Netlist.Snet out

and not_src ctx frame ~loc s =
  match s with
  | Netlist.Sconst v -> Netlist.Sconst (Logic.not_ v)
  | Netlist.Snet _ ->
      let out =
        fresh_net ctx
          ~name:(frame.path ^ ".nguard")
          ~kind:Etype.KBool ~loc ()
      in
      Netlist.mark_read_src ctx.nl ~scope:frame.self s;
      ignore (Netlist.add_gate ctx.nl ~op:Netlist.Gnot ~inputs:[ s ] ~output:out ~loc);
      Netlist.Snet out

(* ------------------------------------------------------------------ *)
(* Expressions                                                          *)
(* ------------------------------------------------------------------ *)

and eval_expr ctx frame (e : Ast.expr) : item list =
  match e with
  | Ast.Eref (Ast.Star loc) -> abort loc "unexpected '*' (internal)"
  | Ast.Eref (Ast.Sig (id, sels) as sref) -> (
      (* the head may be a signal constant: bit2[i] — or a numeric
         constant 0/1, whose type is boolean (section 3.1) *)
      match SMap.find_opt id.Ast.id frame.env with
      | Some (Bconst (Cval.Vsig tree)) when not (in_with_scope ctx frame id) ->
          const_select ctx frame tree sels
      | Some (Bconst (Cval.Vint ((0 | 1) as v)))
        when sels = [] && not (in_with_scope ctx frame id) ->
          [ Iconst (Logic.of_bool (v = 1)) ]
      | _ -> read_ref ctx frame sref)
  | Ast.Ecall (id, params, args, loc) -> eval_call ctx frame id params args loc
  | Ast.Ebin (a, b, loc) ->
      let va = eval_int frame.env a and vb = eval_int frame.env b in
      if vb <= 0 then abort loc "BIN width must be positive";
      List.map (fun v -> Iconst v) (Cval.sctree_leaves (Cval.bin va vb))
  | Ast.Econst sc ->
      let tree =
        try Const_eval.eval_sig_const (const_lookup frame.env) sc
        with Const_eval.Error (loc, msg) -> raise (Abort (loc, msg))
      in
      List.map (fun v -> Iconst v) (Cval.sctree_leaves tree)
  | Ast.Estar (w, _) ->
      [ Istar (Option.map (eval_int frame.env) w) ]
  | Ast.Etuple (es, _) -> List.concat_map (eval_expr ctx frame) es

and in_with_scope ctx frame (id : Ast.ident) =
  List.exists
    (fun w ->
      let fields =
        match w with
        | Vrec fields -> Some fields
        | Vinst slot -> (
            match slot.slot_state with
            | Sforced f -> (
                match f.f_ports with
                | Vrec fields -> Some fields
                | _ -> None)
            | _ -> None)
        | _ -> None
      in
      match fields with
      | Some fields -> List.exists (fun (n, _, _) -> n = id.Ast.id) fields
      | None -> ignore ctx;
          false)
    frame.withs

and const_select ctx frame tree sels =
  let rec go tree = function
    | [] -> tree
    | Ast.Sel_index e :: rest -> (
        let i = eval_int frame.env e in
        let loc = Ast.const_expr_loc e in
        match tree with
        | Cval.Tuple elems ->
            if i < 1 || i > List.length elems then
              abort loc "signal constant index %d out of range" i
            else go (List.nth elems (i - 1)) rest
        | Cval.Leaf _ -> abort loc "indexing a single-bit signal constant")
    | Ast.Sel_range (e1, e2) :: rest -> (
        let a = eval_int frame.env e1 and b = eval_int frame.env e2 in
        let loc = Ast.const_expr_loc e1 in
        match tree with
        | Cval.Tuple elems ->
            if a < 1 || b > List.length elems || a > b then
              abort loc "signal constant range out of bounds"
            else
              go (Cval.Tuple (List.filteri (fun i _ -> i >= a - 1 && i <= b - 1) elems)) rest
        | Cval.Leaf _ -> abort loc "slicing a single-bit signal constant")
    | (Ast.Sel_num _ | Ast.Sel_field _ | Ast.Sel_field_range _) :: _ ->
        abort Loc.dummy "illegal selector on a signal constant"
  in
  ignore ctx;
  List.map (fun v -> Iconst v) (Cval.sctree_leaves (go tree sels))

and eval_call ctx frame (id : Ast.ident) params args loc : item list =
  let name = id.Ast.id in
  (* user function components shadow the predefined ones where the name
     is not a reserved word *)
  match SMap.find_opt name frame.env with
  | Some (Btype td) -> call_function ctx frame td params args loc
  | _ -> (
      let op =
        match name with
        | "AND" -> Some Netlist.Gand
        | "OR" -> Some Netlist.Gor
        | "NAND" -> Some Netlist.Gnand
        | "NOR" -> Some Netlist.Gnor
        | "XOR" -> Some Netlist.Gxor
        | "NOT" -> Some Netlist.Gnot
        | "EQUAL" -> Some Netlist.Gequal
        | "RANDOM" -> Some Netlist.Grandom
        | _ -> None
      in
      match op with
      | Some op -> eval_gate ctx frame op name params args loc
      | None -> abort loc "undeclared function component '%s'" name)

and eval_gate ctx frame op name params args loc : item list =
  if params <> [] then abort loc "%s takes no type parameters" name;
  let operands =
    List.map
      (fun a ->
        let items = eval_expr ctx frame a in
        List.map
          (fun it ->
            match src_of_item it with
            | Some s -> s
            | None -> abort loc "'*' cannot be an operand of %s" name)
          items)
      args
  in
  let fresh_out i =
    fresh_net ctx
      ~name:(Printf.sprintf "%s.%s#%d[%d]" frame.path (String.lowercase_ascii name)
               ctx.call_counter i)
      ~kind:Etype.KBool ~loc ()
  in
  ctx.call_counter <- ctx.call_counter + 1;
  List.iter (List.iter (Netlist.mark_read_src ctx.nl ~scope:frame.self)) operands;
  match (op, operands) with
  | Netlist.Grandom, [] ->
      let out = fresh_out 0 in
      ignore (Netlist.add_gate ctx.nl ~op ~inputs:[] ~output:out ~loc);
      [ Inet out ]
  | Netlist.Grandom, _ -> abort loc "RANDOM takes no arguments"
  | Netlist.Gnot, [ xs ] ->
      List.mapi
        (fun i x ->
          let out = fresh_out i in
          ignore (Netlist.add_gate ctx.nl ~op ~inputs:[ x ] ~output:out ~loc);
          Inet out)
        xs
  | Netlist.Gnot, _ -> abort loc "NOT takes exactly one operand"
  | Netlist.Gequal, [ xs; ys ] ->
      if List.length xs <> List.length ys then
        abort loc "EQUAL operands have different widths (%d vs %d)"
          (List.length xs) (List.length ys);
      let out = fresh_out 0 in
      ignore (Netlist.add_gate ctx.nl ~op ~inputs:(xs @ ys) ~output:out ~loc);
      [ Inet out ]
  | Netlist.Gequal, _ -> abort loc "EQUAL takes exactly two operands"
  | (Netlist.Gand | Netlist.Gor | Netlist.Gnand | Netlist.Gnor | Netlist.Gxor), [] ->
      abort loc "%s needs at least one operand" name
  | (Netlist.Gand | Netlist.Gor | Netlist.Gnand | Netlist.Gnor | Netlist.Gxor),
    (first :: _ as ops) ->
      let m = List.length first in
      List.iter
        (fun o ->
          if List.length o <> m then
            abort loc "%s operands have different widths" name)
        ops;
      List.init m (fun i ->
          let out = fresh_out i in
          let inputs = List.map (fun o -> List.nth o i) ops in
          ignore (Netlist.add_gate ctx.nl ~op ~inputs ~output:out ~loc);
          Inet out)

(* inline expansion of a user function component call *)
and call_function ctx frame td params args loc : item list =
  let cc =
    let env' =
      if List.length params <> List.length td.td_formals then
        abort loc "'%s' expects %d type parameter(s), got %d" td.td_name
          (List.length td.td_formals) (List.length params)
      else
        List.fold_left2
          (fun e name p -> SMap.add name (Bconst (Cval.Vint (eval_int frame.env p))) e)
          td.td_env td.td_formals params
    in
    let keep =
      List.fold_left (fun s f -> SMap.add f () s) SMap.empty td.td_formals
    in
    match resolve_named ctx env' ~keep td.td_name td.td_ast with
    | Rcomp cc -> cc
    | _ -> abort loc "'%s' is not a function component type" td.td_name
  in
  if cc.cc_ast.Ast.cresult = None then
    abort loc "'%s' is not a function component type (no result)" td.td_name;
  ctx.call_counter <- ctx.call_counter + 1;
  let path = Printf.sprintf "%s.%s#%d" frame.path td.td_name ctx.call_counter in
  let rec slot =
    { slot_path = path; slot_state = Sthunk (fun () -> force_comp ctx cc path loc slot) }
  in
  let f = force_slot ctx ~loc slot in
  let inst = Netlist.find_instance ctx.nl f.f_iid in
  inst.Netlist.is_function_call <- true;
  (* all parameters of a function component are value carriers: bind the
     actuals *)
  let port_chunks =
    List.map (fun (n, m, nets) -> (n, m, nets)) inst.Netlist.iports
  in
  let actual_items = List.map (eval_expr ctx frame) args in
  if List.length actual_items <> List.length port_chunks then
    abort loc "'%s' expects %d argument(s), got %d" td.td_name
      (List.length port_chunks) (List.length actual_items);
  List.iter2
    (fun (pname, pmode, nets) items ->
      if pmode <> Etype.In then
        diag_error ctx loc
          "parameter '%s' of function component '%s' must be IN" pname
          td.td_name;
      let expanded = expand_stars items (List.length nets) loc in
      List.iter2
        (fun net it ->
          match it with
          | Istar _ -> Netlist.mark_starred ctx.nl ~scope:frame.self net
          | _ ->
              let src = Option.get (src_of_item it) in
              Netlist.mark_read_src ctx.nl ~scope:frame.self src;
              ignore
                (Netlist.add_driver ctx.nl ~scope:frame.self ~target:net ~guard:None ~source:src ~loc))
        nets expanded)
    port_chunks actual_items;
  List.iter (Netlist.mark_read ctx.nl ~scope:frame.self) f.f_result;
  List.map (fun id -> Inet id) f.f_result

(* expand Istar items so the total width matches [want] *)
and expand_stars items want loc =
  let fixed =
    List.fold_left
      (fun acc it ->
        match it with
        | Istar (Some w) -> acc + w
        | Istar None -> acc
        | _ -> acc + 1)
      0 items
  in
  let flex = List.length (List.filter (function Istar None -> true | _ -> false) items) in
  let missing = want - fixed in
  if missing < 0 || (flex = 0 && missing <> 0) then
    abort loc "width mismatch: expected %d basic signals, got %d%s" want fixed
      (if flex > 0 then " plus flexible '*'" else "");
  let per_star = if flex = 0 then 0 else missing / flex in
  let extra = if flex = 0 then 0 else missing mod flex in
  let star_idx = ref 0 in
  List.concat_map
    (fun it ->
      match it with
      | Istar (Some w) -> List.init w (fun _ -> Istar (Some 1))
      | Istar None ->
          incr star_idx;
          let n = per_star + if !star_idx = 1 then extra else 0 in
          List.init n (fun _ -> Istar (Some 1))
      | it -> [ it ])
    items

(* ------------------------------------------------------------------ *)
(* Assignment and aliasing                                              *)
(* ------------------------------------------------------------------ *)

(* legality of a ':=' drive to [net] under [guard] (section 4.7) *)
and check_assign_target ctx frame ~loc ~conditional net_id =
  let net = Netlist.net ctx.nl net_id in
  (match net.Netlist.pin with
  | Some (iid, Etype.In) when iid = frame.self ->
      Diag.Bag.error ctx.bag Diag.Assign_error loc
        "assignment to formal IN parameter '%s'" net.Netlist.name
  | Some (iid, Etype.Out) when iid <> frame.self ->
      Diag.Bag.error ctx.bag Diag.Assign_error loc
        "assignment to OUT parameter '%s' of an instantiated component"
        net.Netlist.name
  | _ -> ());
  if conditional && net.Netlist.kind = Etype.KBool then begin
    (* exception 1: formal OUT parameter, or IN parameter of an
       instantiated component *)
    let exception1 =
      match net.Netlist.pin with
      | Some (iid, Etype.Out) -> iid = frame.self
      | Some (iid, Etype.In) -> iid <> frame.self
      | _ -> false
    in
    if not exception1 then
      Diag.Bag.error ctx.bag Diag.Type_error loc
        "conditional assignment to boolean signal '%s' (type rules (1): \
         only multiplex signals, formal OUT parameters and IN parameters \
         of instantiated components may be assigned conditionally)"
        net.Netlist.name
  end

and emit_assign ctx frame ~loc target_net item =
  match item with
  | Istar _ -> Netlist.mark_starred ctx.nl ~scope:frame.self target_net
  | _ ->
      let src = Option.get (src_of_item item) in
      let conditional = frame.guard <> None in
      check_assign_target ctx frame ~loc ~conditional target_net;
      (* x := y with both of type multiplex is illegal (section 4.1) *)
      (if not conditional then
         match (src, (Netlist.net ctx.nl target_net).Netlist.kind) with
         | Netlist.Snet s, Etype.KMux
           when (Netlist.net ctx.nl s).Netlist.kind = Etype.KMux ->
             Diag.Bag.error ctx.bag Diag.Type_error loc
               "unconditional ':=' between two multiplex signals — use '=='"
         | _ -> ());
      Netlist.mark_read_src ctx.nl ~scope:frame.self src;
      ignore
        (Netlist.add_driver ctx.nl ~scope:frame.self ~target:target_net ~guard:frame.guard
           ~source:src ~loc)

and elab_assign ctx frame lhs rhs loc =
  match lhs with
  | Ast.Star _ ->
      (* "* := x.b": the signal stays available; just record the use *)
      let items = eval_expr ctx frame rhs in
      List.iter
        (fun it -> Option.iter (Netlist.mark_read_src ctx.nl ~scope:frame.self) (src_of_item it))
        items
  | Ast.Sig _ ->
      let arms = resolve_ref ctx frame lhs in
      let items = eval_expr ctx frame rhs in
      List.iter
        (fun (g, sv) ->
          let nets = sig_nets ctx ~loc sv in
          let expanded = expand_stars items (List.length nets) loc in
          let saved = frame.guard in
          let guard =
            match g with
            | None -> saved
            | Some g -> Some (and_src ctx frame ~loc saved g)
          in
          let frame = { frame with guard } in
          List.iter2 (fun n it -> emit_assign ctx frame ~loc n it) nets expanded)
        arms

and elab_alias ctx frame lhs rhs loc =
  if frame.guard <> None then
    Diag.Bag.error ctx.bag Diag.Assign_error loc
      "aliasing '==' must not occur within a conditional statement";
  match lhs with
  | Ast.Star _ ->
      let items = eval_expr ctx frame rhs in
      List.iter
        (fun it -> Option.iter (Netlist.mark_read_src ctx.nl ~scope:frame.self) (src_of_item it))
        items
  | Ast.Sig _ -> (
      let arms = resolve_ref ctx frame lhs in
      match arms with
      | [ (None, sv) ] -> (
          let lnets = sig_nets ctx ~loc sv in
          match rhs with
          | Ast.Estar (_, _) ->
              List.iter (Netlist.mark_starred ctx.nl ~scope:frame.self) lnets
          | _ ->
              let items = eval_expr ctx frame rhs in
              let expanded = expand_stars items (List.length lnets) loc in
              List.iter2
                (fun ln it ->
                  match it with
                  | Istar _ -> Netlist.mark_starred ctx.nl ~scope:frame.self ln
                  | Iconst _ ->
                      Diag.Bag.error ctx.bag Diag.Assign_error loc
                        "'==' requires a signal on the right-hand side"
                  | Inet rn -> alias_pair ctx frame ~loc ln rn)
                lnets expanded)
      | _ ->
          Diag.Bag.error ctx.bag Diag.Assign_error loc
            "aliasing through a NUM selector is not allowed")

and alias_pair ctx frame ~loc a b =
  let na = Netlist.net ctx.nl a and nb = Netlist.net ctx.nl b in
  let exception1 (n : Netlist.net) =
    match n.Netlist.pin with
    | Some (iid, Etype.Out) -> iid = frame.self
    | Some (iid, Etype.In) -> iid <> frame.self
    | _ -> false
  in
  (match (na.Netlist.kind, nb.Netlist.kind) with
  | Etype.KMux, Etype.KMux -> ()
  | Etype.KBool, Etype.KBool ->
      Diag.Bag.error ctx.bag Diag.Type_error loc
        "'==' between two boolean signals is illegal (type rules (2)): %s == %s"
        na.Netlist.name nb.Netlist.name
  | Etype.KBool, Etype.KMux when not (exception1 na) ->
      Diag.Bag.error ctx.bag Diag.Type_error loc
        "'==' with boolean '%s' requires it to be a formal OUT parameter \
         or an IN parameter of an instantiated component"
        na.Netlist.name
  | Etype.KMux, Etype.KBool when not (exception1 nb) ->
      Diag.Bag.error ctx.bag Diag.Type_error loc
        "'==' with boolean '%s' requires it to be a formal OUT parameter \
         or an IN parameter of an instantiated component"
        nb.Netlist.name
  | _ -> ());
  Netlist.mark_read ctx.nl ~scope:frame.self a;
  Netlist.mark_read ctx.nl ~scope:frame.self b;
  Netlist.union ctx.nl ~scope:frame.self a b

(* ------------------------------------------------------------------ *)
(* Connection statements                                                *)
(* ------------------------------------------------------------------ *)

and elab_connect ctx frame sref args loc =
  let arms = resolve_ref ctx frame sref in
  let sv =
    match arms with
    | [ (None, sv) ] -> sv
    | _ -> abort loc "connection through a NUM selector is not allowed"
  in
  (* the callee: a single instance or an array of equal instances *)
  let instances =
    let rec gather sv acc =
      match sv with
      | Vinst slot -> slot :: acc
      | Varr (_, elems) -> Array.fold_right (fun e acc -> gather e acc) elems acc
      | Vvirt { virt_repl = Some sv; _ } -> gather sv acc
      | _ ->
          abort loc
            "connection statement target must be an instantiated component \
             (or an array of them)"
    in
    gather sv []
  in
  if instances = [] then abort loc "empty instance array in connection";
  let forced = List.map (force_slot ctx ~loc) instances in
  let insts =
    List.map (fun f -> Netlist.find_instance ctx.nl f.f_iid) forced
  in
  List.iter
    (fun (i : Netlist.instance) ->
      if i.Netlist.connected then
        Diag.Bag.error ctx.bag Diag.Assign_error loc
          "at most one connection statement is allowed for '%s'" i.Netlist.ipath
      else i.Netlist.connected <- true)
    insts;
  (* combined port columns: for q equal instances, parameter i carries q
     times as many basic signals (section 4.3) *)
  let first = List.hd insts in
  let columns =
    List.map
      (fun (pname, pmode, _) ->
        let nets =
          List.concat_map
            (fun (i : Netlist.instance) ->
              match
                List.find_opt (fun (n, _, _) -> n = pname) i.Netlist.iports
              with
              | Some (_, _, nets) -> nets
              | None -> abort loc "instance port mismatch for '%s'" pname)
            insts
        in
        (pname, pmode, nets))
      first.Netlist.iports
  in
  if List.length args <> List.length columns then
    abort loc "connection to '%s' needs %d actual parameter(s), got %d"
      first.Netlist.ipath (List.length columns) (List.length args);
  List.iter2
    (fun (pname, pmode, nets) arg -> connect_param ctx frame ~loc pname pmode nets arg)
    columns args

and connect_param ctx frame ~loc pname pmode nets arg =
  let w = List.length nets in
  match pmode with
  | Etype.In ->
      (* ai := xi *)
      let items = expand_stars (eval_expr ctx frame arg) w loc in
      List.iter2
        (fun n it ->
          match it with
          | Istar _ -> Netlist.mark_starred ctx.nl ~scope:frame.self n
          | _ ->
              let src = Option.get (src_of_item it) in
              Netlist.mark_read_src ctx.nl ~scope:frame.self src;
              (* a conditional connection is a conditional assignment to
                 the IN pin — legal via exception 1 *)
              ignore
                (Netlist.add_driver ctx.nl ~scope:frame.self ~target:n ~guard:frame.guard
                   ~source:src ~loc))
        nets items
  | Etype.Out ->
      (* xi := ai ; the actual must be a signal expression *)
      let items = expand_stars (eval_expr ctx frame arg) w loc in
      List.iter2
        (fun n it ->
          match it with
          | Istar _ -> Netlist.mark_starred ctx.nl ~scope:frame.self n
          | Iconst _ ->
              Diag.Bag.error ctx.bag Diag.Assign_error loc
                "actual for OUT parameter '%s' must be a signal" pname
          | Inet target ->
              Netlist.mark_read ctx.nl ~scope:frame.self n;
              check_assign_target ctx frame ~loc
                ~conditional:(frame.guard <> None) target;
              ignore
                (Netlist.add_driver ctx.nl ~scope:frame.self ~target ~guard:frame.guard
                   ~source:(Netlist.Snet n) ~loc))
        nets items
  | Etype.Inout ->
      (* ai == xi ; aliasing cannot be done conditionally *)
      if frame.guard <> None then
        Diag.Bag.error ctx.bag Diag.Assign_error loc
          "connection to INOUT parameter '%s' must not occur within an IF"
          pname;
      let items = expand_stars (eval_expr ctx frame arg) w loc in
      List.iter2
        (fun n it ->
          match it with
          | Istar _ -> Netlist.mark_starred ctx.nl ~scope:frame.self n
          | Iconst _ ->
              Diag.Bag.error ctx.bag Diag.Assign_error loc
                "actual for INOUT parameter '%s' must be a signal" pname
          | Inet other -> alias_pair ctx frame ~loc n other)
        nets items

(* ------------------------------------------------------------------ *)
(* Statements                                                           *)
(* ------------------------------------------------------------------ *)

and elab_stmts ctx frame stmts = List.iter (elab_stmt ctx frame) stmts

and elab_stmt ctx frame (s : Ast.stmt) =
  match s with
  | Ast.Sassign (lhs, rhs, loc) -> elab_assign ctx frame lhs rhs loc
  | Ast.Salias (lhs, rhs, loc) -> elab_alias ctx frame lhs rhs loc
  | Ast.Sconnect (sref, args, loc) -> elab_connect ctx frame sref args loc
  | Ast.Sfor (h, sequentially, body, loc) ->
      let stmts_per_iter = iterate_for frame.env h in
      if sequentially then
        elab_ordered ctx frame ~loc
          (List.map
             (fun env () -> elab_stmts ctx { frame with env } body)
             stmts_per_iter)
      else
        List.iter (fun env -> elab_stmts ctx { frame with env } body) stmts_per_iter
  | Ast.Swhen (arms, otherwise, _) ->
      let rec pick = function
        | [] -> elab_stmts ctx frame otherwise
        | (cond, body) :: rest ->
            if eval_bool frame.env cond then elab_stmts ctx frame body
            else pick rest
      in
      pick arms
  | Ast.Sif (arms, else_, loc) -> elab_if ctx frame arms else_ loc
  | Ast.Sresult (e, loc) -> (
      match frame.result with
      | None ->
          Diag.Bag.error ctx.bag Diag.Type_error loc
            "RESULT outside of a function component type"
      | Some nets ->
          let items = expand_stars (eval_expr ctx frame e) (List.length nets) loc in
          List.iter2 (fun n it -> emit_assign ctx frame ~loc n it) nets items)
  | Ast.Sparallel (body, _) -> elab_stmts ctx frame body
  | Ast.Ssequential (body, loc) ->
      elab_ordered ctx frame ~loc
        (List.map (fun s () -> elab_stmt ctx frame s) body)
  | Ast.Swith (sref, body, loc) -> (
      let arms = resolve_ref ctx frame sref in
      match arms with
      | [ (None, sv) ] -> (
          match deref ctx ~loc sv with
          | Vrec _ as sv ->
              elab_stmts ctx { frame with withs = sv :: frame.withs } body
          | Vbit _ | Varr _ | Vinst _ | Vvirt _ ->
              abort loc "WITH requires a component or record signal")
      | _ -> abort loc "WITH through a NUM selector is not allowed")

and iterate_for env (h : Ast.for_header) =
  let from_ = eval_int env h.Ast.ffrom and to_ = eval_int env h.Ast.fto in
  let indices =
    match h.Ast.fdir with
    | Ast.To -> if to_ < from_ then [] else List.init (to_ - from_ + 1) (fun i -> from_ + i)
    | Ast.Downto ->
        if from_ < to_ then [] else List.init (from_ - to_ + 1) (fun i -> from_ - i)
  in
  List.map
    (fun i -> SMap.add h.Ast.fvar.Ast.id (Bconst (Cval.Vint i)) env)
    indices

(* elaborate a list of actions recording SEQUENTIAL ordering
   constraints between their write sets (section 4.5) *)
and elab_ordered ctx _frame ~loc actions =
  let write_sets =
    List.map
      (fun act ->
        let d0, g0 = Netlist.counts ctx.nl in
        act ();
        Netlist.writes_since ctx.nl ~drivers:d0 ~gates:g0)
      actions
  in
  let rec pairs = function
    | [] | [ _ ] -> ()
    | before :: rest ->
        List.iter
          (fun after ->
            if before <> [] && after <> [] then
              Netlist.add_order_constraint ctx.nl ~loc ~before ~after)
          rest;
        pairs rest
  in
  pairs write_sets

and elab_if ctx frame arms else_ loc =
  (* rewrite IF/ELSIF/ELSE into single-condition IFs (section 8) using a
     "no arm taken yet" accumulator *)
  let cond_src c =
    match eval_expr ctx frame c with
    | [ it ] -> (
        match src_of_item it with
        | Some s -> s
        | None -> abort (Ast.expr_loc c) "'*' is not a condition")
    | items ->
        abort (Ast.expr_loc c) "IF condition must be a single basic signal \
                                (found %d)" (List.length items)
  in
  let not_taken = ref None in
  List.iter
    (fun (c, body) ->
      let cs = cond_src c in
      Netlist.mark_read_src ctx.nl ~scope:frame.self cs;
      let g = and_src ctx frame ~loc !not_taken cs in
      let guard = Some (and_src ctx frame ~loc frame.guard g) in
      elab_stmts ctx { frame with guard } body;
      not_taken :=
        Some (and_src ctx frame ~loc !not_taken (not_src ctx frame ~loc cs)))
    arms;
  if else_ <> [] then begin
    let g = Option.value ~default:(Netlist.Sconst Logic.One) !not_taken in
    let guard = Some (and_src ctx frame ~loc frame.guard g) in
    elab_stmts ctx { frame with guard } else_
  end

(* ------------------------------------------------------------------ *)
(* Layout                                                               *)
(* ------------------------------------------------------------------ *)

(* phase A: execute the replacement statements (section 6.4) so that the
   statement part can use the replaced signals *)
and layout_replacements ctx frame stmts =
  List.iter
    (fun (ls : Ast.layout_stmt) ->
      match ls with
      | Ast.Lreplace (_, sref, ty, loc) -> (
          let arms = resolve_ref ctx frame sref in
          match arms with
          | [ (None, Vvirt v) ] ->
              if v.virt_repl <> None then
                Diag.Bag.error ctx.bag Diag.Layout_error loc
                  "virtual signal '%s' replaced more than once" v.virt_path
              else begin
                let rty = resolve_ty ctx frame.env ty in
                let sv =
                  build_sigval ctx ~pin:None ~mode:Etype.Inout ~path:v.virt_path
                    ~loc rty
                in
                v.virt_repl <- Some sv;
                v.virt_loc <- loc
              end
          | _ ->
              Diag.Bag.error ctx.bag Diag.Layout_error loc
                "replacement target must be a virtual signal")
      | Ast.Lorder (_, body, _) -> layout_replacements ctx frame body
      | Ast.Lfor (h, body, _) ->
          List.iter
            (fun env -> layout_replacements ctx { frame with env } body)
            (iterate_for frame.env h)
      | Ast.Lwhen (arms, otherwise, _) ->
          let rec pick = function
            | [] -> layout_replacements ctx frame otherwise
            | (cond, body) :: rest ->
                if eval_bool frame.env cond then layout_replacements ctx frame body
                else pick rest
          in
          pick arms
      | Ast.Lwith (sref, body, loc) -> (
          match resolve_ref ctx frame sref with
          | [ (None, sv) ] ->
              let sv = deref ctx ~loc sv in
              layout_replacements ctx { frame with withs = sv :: frame.withs } body
          | _ -> ())
      | Ast.Lcell _ | Ast.Lboundary _ -> ())
    stmts

(* phase B: build the placement tree over already-forced instances *)
and elab_layout ctx frame stmts : Layout_ir.t =
  List.concat_map
    (fun (ls : Ast.layout_stmt) ->
      match ls with
      | Ast.Lcell (orient, sref, loc) | Ast.Lreplace (orient, sref, _, loc) ->
          let o =
            Option.map
              (fun (i : Ast.ident) ->
                match Layout_ir.orientation_of_string i.Ast.id with
                | Some o -> o
                | None -> abort i.Ast.id_loc "unknown orientation '%s'" i.Ast.id)
              orient
          in
          layout_cells ctx frame ~loc ~orient:o sref
      | Ast.Lorder (dir, body, loc) -> (
          match Layout_ir.direction_of_string dir.Ast.id with
          | Some d -> [ Layout_ir.Order (d, elab_layout ctx frame body) ]
          | None -> abort loc "unknown direction '%s'" dir.Ast.id)
      | Ast.Lfor (h, body, _) ->
          List.concat_map
            (fun env -> elab_layout ctx { frame with env } body)
            (iterate_for frame.env h)
      | Ast.Lboundary (side, refs, loc) ->
          let side =
            match side with
            | Ast.Side_top -> Layout_ir.Top
            | Ast.Side_right -> Layout_ir.Right
            | Ast.Side_bottom -> Layout_ir.Bottom
            | Ast.Side_left -> Layout_ir.Left
          in
          let pins =
            List.filter_map
              (fun r ->
                match r with
                | Ast.Star _ -> None
                | Ast.Sig (id, _) -> (
                    match resolve_ref ctx frame r with
                    | [ (None, sv) ] ->
                        Some (id.Ast.id, sig_nets ctx ~loc sv)
                    | _ -> None
                    | exception Abort (l, _) ->
                        Diag.Bag.error ctx.bag Diag.Layout_error l
                          "boundary pin '%s' is not a signal of this \
                           component"
                          id.Ast.id;
                        None))
              refs
          in
          [ Layout_ir.Boundary (side, pins) ]
      | Ast.Lwhen (arms, otherwise, _) ->
          let rec pick = function
            | [] -> elab_layout ctx frame otherwise
            | (cond, body) :: rest ->
                if eval_bool frame.env cond then elab_layout ctx frame body
                else pick rest
          in
          pick arms
      | Ast.Lwith (sref, body, loc) -> (
          match resolve_ref ctx frame sref with
          | [ (None, sv) ] ->
              let sv = deref ctx ~loc sv in
              elab_layout ctx { frame with withs = sv :: frame.withs } body
          | _ -> []))
    stmts

(* a layout cell: instance references; unforced slots generate nothing
   (hardware that was never used has no layout) *)
and layout_cells ctx frame ~loc ~orient sref =
  match resolve_ref ctx frame sref with
  | exception Abort _ -> []
  | arms ->
      List.concat_map
        (fun (_, sv) ->
          let rec cells sv =
            match sv with
            | Vinst slot -> (
                match slot.slot_state with
                | Sforced f -> [ Layout_ir.Cell (orient, f.f_iid) ]
                | Sthunk _ | Sforcing -> [])
            | Vvirt { virt_repl = Some sv; _ } -> cells sv
            | Varr (_, elems) ->
                Array.to_list elems |> List.concat_map cells
            | _ ->
                ignore loc;
                []
          in
          cells sv)
        arms

(* ------------------------------------------------------------------ *)
(* Whole programs                                                       *)
(* ------------------------------------------------------------------ *)

type design = {
  netlist : Netlist.t;
  tops : (string * sigval) list;
  layouts : (int, Layout_ir.t) Hashtbl.t;
  locals : (string, sigval) Hashtbl.t;
  clk_net : int;
  rset_net : int;
  diags : Diag.Bag.t;
}

let program ?(bag = Diag.Bag.create ()) ?(eager = false) (prog : Ast.program) =
  let nl = Netlist.create () in
  let clk =
    Netlist.fresh_net nl ~name:"CLK" ~kind:Etype.KBool ~loc:Loc.dummy ()
  in
  let rset =
    Netlist.fresh_net nl ~name:"RSET" ~kind:Etype.KBool ~loc:Loc.dummy ()
  in
  let ctx =
    {
      nl;
      bag;
      layouts = Hashtbl.create 16;
      locals = Hashtbl.create 64;
      clk;
      rset;
      eager;
      depth = 0;
      call_counter = 0;
    }
  in
  let tops = ref [] in
  (try
     let env = ref SMap.empty in
     List.iter
       (fun d ->
         match d with
         | Ast.Dsignal entries ->
             List.iter
               (fun (ids, ty) ->
                 let rty = resolve_ty ctx !env ty in
                 List.iter
                   (fun (id : Ast.ident) ->
                     let sv =
                       build_sigval ctx ~pin:None ~mode:Etype.Inout
                         ~path:id.Ast.id ~loc:id.Ast.id_loc rty
                     in
                     (* top-level instances are the design roots: force *)
                     let rec force_all sv =
                       match sv with
                       | Vinst slot ->
                           ignore (force_slot ctx ~loc:id.Ast.id_loc slot)
                       | Varr (_, elems) -> Array.iter force_all elems
                       | Vrec fields ->
                           List.iter (fun (_, _, f) -> force_all f) fields
                       | Vbit _ | Vvirt _ -> ()
                     in
                     force_all sv;
                     env := SMap.add id.Ast.id (Bsignal sv) !env;
                     tops := (id.Ast.id, sv) :: !tops)
                   ids)
               entries
         | d -> env := elab_decl ctx !env ~path:"" d)
       prog
   with
  | Abort (loc, msg) -> Diag.Bag.error bag Diag.Type_error loc "%s" msg
  | Const_eval.Error (loc, msg) ->
      Diag.Bag.error bag Diag.Type_error loc "%s" msg);
  {
    netlist = nl;
    tops = List.rev !tops;
    layouts = ctx.layouts;
    locals = ctx.locals;
    clk_net = clk;
    rset_net = rset;
    diags = bag;
  }

(* ------------------------------------------------------------------ *)
(* Path resolution for testbenches                                      *)
(* ------------------------------------------------------------------ *)

(* Resolve "top.port[2]" to its nets without touching read counters.
   Only static selectors are allowed.  Fields resolve through instance
   ports; where that fails, the hierarchical locals table covers signals
   declared inside component bodies (e.g. "bj.score"). *)
let resolve_path design (path : string) : (int list, string) result =
  let sref, bag = Zeus_lang.Parser.signal_reference path in
  match sref with
  | None -> Error (Fmt.str "bad path %S: %a" path Diag.Bag.pp bag)
  | Some (Ast.Star _) -> Error "'*' is not a path"
  | Some (Ast.Sig (id, sels)) -> (
      let fake_lookup : Const_eval.lookup = fun _ -> None in
      let rec forced_view sv =
        match sv with
        | Vinst { slot_state = Sforced f; _ } -> f.f_ports
        | Vvirt { virt_repl = Some sv; _ } -> forced_view sv
        | sv -> sv
      in
      let rec apply cur sv sels =
        match sels with
        | [] -> Ok sv
        | Ast.Sel_index e :: rest -> (
            let i = Const_eval.eval_int fake_lookup e in
            let cur = Fmt.str "%s[%d]" cur i in
            match forced_view sv with
            | Varr (lo, elems) when i >= lo && i < lo + Array.length elems ->
                apply cur elems.(i - lo) rest
            | _ -> Error (Fmt.str "bad index [%d] in %S" i path))
        | Ast.Sel_range (e1, e2) :: rest -> (
            let a = Const_eval.eval_int fake_lookup e1
            and b = Const_eval.eval_int fake_lookup e2 in
            match forced_view sv with
            | Varr (lo, elems)
              when a >= lo && b < lo + Array.length elems && a <= b ->
                apply cur (Varr (a, Array.sub elems (a - lo) (b - a + 1))) rest
            | _ -> Error (Fmt.str "bad range in %S" path))
        | Ast.Sel_field f :: rest -> (
            let cur' = cur ^ "." ^ f.Ast.id in
            match forced_view sv with
            | Vrec fields -> (
                match List.find_opt (fun (n, _, _) -> n = f.Ast.id) fields with
                | Some (_, _, sub) -> apply cur' sub rest
                | None -> (
                    (* a local signal declared inside this instance *)
                    match Hashtbl.find_opt design.locals cur' with
                    | Some sub -> apply cur' sub rest
                    | None ->
                        Error (Fmt.str "no field '%s' in %S" f.Ast.id path)))
            | Varr (lo, elems) -> (
                (* distribute the field over the array *)
                let subs =
                  Array.map
                    (fun e ->
                      match apply cur e [ Ast.Sel_field f ] with
                      | Ok sv -> Some sv
                      | Error _ -> None)
                    elems
                in
                if Array.for_all Option.is_some subs then
                  apply cur' (Varr (lo, Array.map Option.get subs)) rest
                else Error (Fmt.str "no field '%s' in %S" f.Ast.id path))
            | _ -> (
                match Hashtbl.find_opt design.locals cur' with
                | Some sub -> apply cur' sub rest
                | None -> Error (Fmt.str "no field '%s' in %S" f.Ast.id path)))
        | (Ast.Sel_num _ | Ast.Sel_field_range _) :: _ ->
            Error "dynamic selectors are not allowed in paths"
      in
      let start =
        match List.assoc_opt id.Ast.id design.tops with
        | Some sv -> Ok sv
        | None ->
            if id.Ast.id = "CLK" then Ok (Vbit design.clk_net)
            else if id.Ast.id = "RSET" then Ok (Vbit design.rset_net)
            else Error (Fmt.str "no top-level signal '%s'" id.Ast.id)
      in
      match start with
      | Error e -> Error e
      | Ok sv -> (
          match apply id.Ast.id sv sels with
          | Ok sv ->
              let rec flat sv acc =
                match sv with
                | Vbit id -> id :: acc
                | Varr (_, elems) ->
                    Array.fold_left (fun acc e -> flat e acc) acc elems
                | Vrec fields ->
                    List.fold_left (fun acc (_, _, f) -> flat f acc) acc fields
                | Vinst { slot_state = Sforced f; _ } -> flat f.f_ports acc
                | Vinst _ -> acc
                | Vvirt { virt_repl = Some sv; _ } -> flat sv acc
                | Vvirt _ -> acc
              in
              Ok (List.rev (flat sv []))
          | Error e -> Error e
          | exception Const_eval.Error (_, msg) -> Error msg))
