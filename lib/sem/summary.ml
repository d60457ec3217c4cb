(* Modular component-summary analysis: one abstract interpretation per
   (component type, canonical parameter signature), composing child
   contracts bottom-up instead of elaborating.  See summary.mli for the
   architecture and the soundness direction. *)

open Zeus_base
open Zeus_lang
module C = Contract
module L = Lint

(* ------------------------------------------------------------------ *)
(* Per-summarization context: terms, slots, atoms                       *)
(* ------------------------------------------------------------------ *)

(* A term is an opaque integer-valued unknown a Lin can mention: a type
   formal, one FOR-variable instance, or a hash-consed non-affine
   subexpression such as [n DIV 2].  Terms are scoped to one
   summarization — contracts carry only strings across types. *)
type term_def =
  | Tbase of C.ival ref (* formal or FOR var: current (refinable) interval *)
  | Topq of (unit -> C.ival) (* derived: recompute under current refinement *)

type idx = Ipt of C.Lin.t | Irg of C.Lin.t * C.Lin.t | Idyn

type driver = {
  d_guard : L.bexp;
  d_idx : idx list;
  d_vars : (int * C.Lin.t * C.Lin.t) list; (* enclosing FOR vars: id, lo, hi *)
  d_loc : Loc.t;
  d_desc : string;
  d_definite : bool; (* context had no may-empty loop or unknown cover *)
  d_undef : bool; (* rhs contains an UNDEF/NOINFL literal *)
  d_srcs : int list; (* support slot ids of rhs and guard *)
  d_dims : (C.Lin.t * C.Lin.t) list; (* dims of the slot it was added to *)
}

type slot = {
  s_id : int;
  s_path : string;
  s_dims : (C.Lin.t * C.Lin.t) list;
  s_port : (string * C.mode) option; (* port of the summarized type *)
  mutable s_uf : int;
  mutable s_smeared : bool; (* alias merged across iteration-dependent idx *)
  mutable s_drivers : driver list;
  mutable s_undef : bool;
  mutable s_seq : bool;
}

type aval = { av_lin : C.Lin.t; av_iv : C.ival }

(* a placed shape: the declaration tree of one signal, with slots *)
type pshape =
  | Pbit of int (* slot id *)
  | Parr of C.Lin.t * C.Lin.t * C.ival * C.ival * pshape
  | Prec of (string * pshape) list
  | Pinst of iref
  | Pvirt

and iref = {
  r_path : string;
  r_type : string; (* bare type name, "REG" for registers *)
  r_key : string; (* summarization key of the child, "" for REG *)
  r_dims : (C.Lin.t * C.Lin.t) list; (* enclosing array dims *)
  r_ports : (string * C.mode * pshape) list;
  r_reg : bool;
  r_reg_init : bool; (* REG(c): defined power-up value *)
  r_comp : comp option; (* the resolved component, for lazy summarization *)
  r_loc : Loc.t;
  mutable r_used : L.bexp; (* OR of use contexts; Bfalse = never used *)
  mutable r_deferred : Diag.t list; (* decl-time findings, flushed on use *)
}

(* bindings of the lexical environment *)
and binding =
  | Vnum of aval (* CONST, type formal, FOR variable *)
  | Vsigc of Ast.sig_const (* declared signal constant *)
  | Vsig of pshape (* declared signal or port *)
  | Vtype of tyd (* named type *)

and tyd = {
  td_formals : string list;
  td_ty : Ast.ty;
  mutable td_env : env;
  td_scope : string;
      (* "" for top-level types; the enclosing summarization key for
         local TYPE declarations, so a local type capturing enclosing
         formals is memoized per enclosing signature *)
}

and env = { vals : (string * binding) list }

(* unplaced shapes, produced by resolve_ty *)
and shape =
  | Hbit
  | Hvirt
  | Harr of aval * aval * shape
  | Hrec of (string * shape) list
  | Hcomp of comp

and comp = {
  h_name : string;
  h_key_hint : int; (* loc offset of the defining Tcomponent, for keying *)
  h_scope : string; (* enclosing summarization key for local types *)
  h_args : aval list;
  h_formals : string list;
  h_ast : Ast.component_ty;
  h_env : env; (* defining environment with formals bound to args *)
  h_ports : (string * C.mode * shape) list;
  h_reg : bool;
  h_reg_init : bool;
}


let lookup env name = List.assoc_opt name env.vals
let bind env name b = { vals = (name, b) :: env.vals }

(* a pending driver contributed by a child instance's OUT/INOUT port,
   resolved once the child's contract is known *)
type pending = {
  p_inst : string; (* instance path, keys into sctx.insts *)
  p_port : string;
  p_guard : L.bexp;
  p_target : int; (* slot receiving the drive *)
  p_idx : idx list;
  p_vars : (int * C.Lin.t * C.Lin.t) list;
  p_loc : Loc.t;
  p_definite : bool;
}

type atom_kind = Aport of int (* slot id *) | Aparam | Aopq

exception Fallback of string
(* raised by resolution when a construct defeats the abstraction;
   caught per-statement: the statement's effects are dropped and the
   type is excluded from the proven sets *)

type sctx = {
  g : gctx;
  s_tname : string;
  s_key : string;
  s_shown : string; (* the type as written, for messages: t(4) *)
  s_concrete : bool; (* every formal bound to a singleton *)
  (* slots *)
  slot_tbl : (int, slot) Hashtbl.t;
  mutable n_slots : int;
  mutable edges : (int * int * int option) list; (* src, dst, shift *)
  mutable undef_edges : (int * int) list; (* UNDEF flows across a REG *)
  insts : (string, iref) Hashtbl.t;
  mutable pendings : pending list;
  (* atoms *)
  mutable n_atoms : int;
  atom_kinds : (int, atom_kind) Hashtbl.t;
  atom_descs : (int, string) Hashtbl.t;
  atom_share : (string, int) Hashtbl.t; (* slot-ref key -> shared atom *)
  (* state of the walk *)
  mutable loop_vars : (int * C.Lin.t * C.Lin.t) list; (* innermost first *)
  mutable with_stack : (pshape * string) list; (* place, path prefix *)
  mutable if_sup : (int * C.Lin.t option) list; (* IF-condition support *)
  mutable definite_ctx : bool;
  mutable s_fallbacks : string list;
  mutable s_findings : Diag.t list;
}

and gctx = {
  (* terms are global to the analyze run: captured environments (local
     types referencing enclosing formals) cross summarization
     boundaries, so Lin term ids must stay meaningful across them *)
  terms : (string, int) Hashtbl.t; (* canonical key -> id *)
  term_defs : (int, term_def) Hashtbl.t;
  mutable n_terms : int;
  memo : (string, entry) Hashtbl.t;
  mutable stack : string list;
  mutable pending_deps : string list; (* keys read as in-progress iterates *)
  mutable g_findings : Diag.t list;
  mutable summaries : int;
  mutable contracts_acc : (string * C.t) list; (* completion order, reversed *)
  mutable types_seen : (string, unit) Hashtbl.t;
  mutable proven_conflict : (string, bool) Hashtbl.t; (* false = disproven *)
  mutable proven_cycle : (string, bool) Hashtbl.t;
  g_fallbacks : (string * string) list ref;
  symbolic : bool;
}

and entry = Edone of C.t | Ework of C.t ref

let max_stack_depth = 64
let max_summaries = 4096
let max_fixpoint_iters = 8
let conflict_budget = 2048

(* ------------------------------------------------------------------ *)
(* Terms and interval evaluation                                        *)
(* ------------------------------------------------------------------ *)

let new_term sx key def =
  let g = sx.g in
  match Hashtbl.find_opt g.terms key with
  | Some id -> id
  | None ->
      let id = g.n_terms in
      g.n_terms <- id + 1;
      Hashtbl.replace g.terms key id;
      Hashtbl.replace g.term_defs id def;
      id

let fresh_term sx prefix def =
  let g = sx.g in
  let id = g.n_terms in
  g.n_terms <- id + 1;
  Hashtbl.replace g.terms (Printf.sprintf "%s#%d" prefix id) id;
  Hashtbl.replace g.term_defs id def;
  id

let iv_of_term sx id =
  match Hashtbl.find_opt sx.g.term_defs id with
  | Some (Tbase r) -> !r
  | Some (Topq f) -> f ()
  | None -> C.itop

let iv_of_lin sx (l : C.Lin.t) =
  List.fold_left
    (fun acc (id, c) ->
      C.iadd acc (C.imul (C.iconst c) (iv_of_term sx id)))
    (C.iconst l.C.Lin.k) l.C.Lin.terms

(* definite sign of a Lin difference: via its constant form or the
   interval evaluation of its terms *)
let lin_definitely_neg sx l =
  match C.Lin.const_val l with
  | Some k -> k < 0
  | None -> ( match C.hi_of (iv_of_lin sx l) with Some h -> h < 0 | None -> false)


(* substitute a FOR variable by one of its bounds inside a Lin *)
let subst_var (l : C.Lin.t) v bound =
  let c = C.Lin.coeff_of v l in
  if c = 0 then l
  else C.Lin.add (C.Lin.sub l (C.Lin.term ~coeff:c v)) (C.Lin.scale c bound)

(* the index set a Point sweeps as the driver's FOR variables range over
   their bounds: substitute each var by the end minimizing/maximizing
   the expression (by coefficient sign) *)
let sweep_range vars l =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (v, blo, bhi) ->
        let c = C.Lin.coeff_of v lo in
        let lo = if c >= 0 then subst_var lo v blo else subst_var lo v bhi in
        let c' = C.Lin.coeff_of v hi in
        let hi = if c' >= 0 then subst_var hi v bhi else subst_var hi v blo in
        (lo, hi))
      (l, l) vars
  in
  (lo, hi)

(* ------------------------------------------------------------------ *)
(* Constant expressions -> abstract values                              *)
(* ------------------------------------------------------------------ *)

let opq_name = function
  | Ast.Cmul -> "MUL"
  | Ast.Cdiv -> "DIV"
  | Ast.Cmod -> "MOD"
  | Ast.Cand -> "AND"
  | Ast.Cor -> "OR"
  | Ast.Cadd -> "ADD"
  | Ast.Csub -> "SUB"

(* an opaque term for a non-affine operation; its interval re-evaluates
   under the current refinement of the operand terms *)
let opaque_av sx op (a : aval) (b : aval) =
  let key =
    Printf.sprintf "%s(%s,%s)" (opq_name op) (C.Lin.to_key a.av_lin)
      (C.Lin.to_key b.av_lin)
  in
  let ivf () =
    let ia = iv_of_lin sx a.av_lin and ib = iv_of_lin sx b.av_lin in
    match op with
    | Ast.Cmul -> C.imul ia ib
    | Ast.Cdiv -> C.idiv ia ib
    | Ast.Cmod -> C.imod ia ib
    | Ast.Cand | Ast.Cor -> C.itop
    | Ast.Cadd -> C.iadd ia ib
    | Ast.Csub -> C.isub ia ib
  in
  let id = new_term sx key (Topq ivf) in
  { av_lin = C.Lin.term id; av_iv = ivf () }

let rec ceval sx env (e : Ast.const_expr) : aval =
  match e with
  | Ast.Cnum (n, _) -> { av_lin = C.Lin.const n; av_iv = C.iconst n }
  | Ast.Cref (id, []) -> (
      match lookup env id.Ast.id with
      | Some (Vnum av) ->
          (* re-evaluate the interval: WHEN-arm refinement may have
             narrowed the underlying term since binding *)
          { av with av_iv = iv_of_lin sx av.av_lin }
      | _ -> raise (Fallback (Printf.sprintf "unresolved constant '%s'" id.Ast.id)))
  | Ast.Cref (id, args) -> (
      let avs = List.map (ceval sx env) args in
      match (id.Ast.id, avs) with
      | "min", [ a; b ] | "max", [ a; b ] ->
          let iv =
            match (C.singleton a.av_iv, C.singleton b.av_iv) with
            | Some x, Some y ->
                C.iconst (if id.Ast.id = "min" then min x y else max x y)
            | _ -> C.join a.av_iv b.av_iv
          in
          let key =
            Printf.sprintf "%s(%s,%s)" id.Ast.id (C.Lin.to_key a.av_lin)
              (C.Lin.to_key b.av_lin)
          in
          (match C.singleton iv with
          | Some n -> { av_lin = C.Lin.const n; av_iv = iv }
          | None ->
              let t = new_term sx key (Tbase (ref iv)) in
              { av_lin = C.Lin.term t; av_iv = iv })
      | "odd", [ a ] -> (
          match C.singleton a.av_iv with
          | Some x ->
              let v = if x land 1 = 1 then 1 else 0 in
              { av_lin = C.Lin.const v; av_iv = C.iconst v }
          | None ->
              let t =
                new_term sx
                  ("odd(" ^ C.Lin.to_key a.av_lin ^ ")")
                  (Tbase (ref (C.range (Some 0) (Some 1))))
              in
              { av_lin = C.Lin.term t; av_iv = C.range (Some 0) (Some 1) })
      | _ ->
          raise
            (Fallback
               (Printf.sprintf "unresolved constant function '%s'" id.Ast.id)))
  | Ast.Cbin (op, a, b) -> (
      let va = ceval sx env a and vb = ceval sx env b in
      match op with
      | Ast.Cadd ->
          { av_lin = C.Lin.add va.av_lin vb.av_lin;
            av_iv = C.iadd va.av_iv vb.av_iv }
      | Ast.Csub ->
          { av_lin = C.Lin.sub va.av_lin vb.av_lin;
            av_iv = C.isub va.av_iv vb.av_iv }
      | Ast.Cmul -> (
          match (C.Lin.const_val va.av_lin, C.Lin.const_val vb.av_lin) with
          | Some k, _ ->
              { av_lin = C.Lin.scale k vb.av_lin;
                av_iv = C.imul va.av_iv vb.av_iv }
          | _, Some k ->
              { av_lin = C.Lin.scale k va.av_lin;
                av_iv = C.imul va.av_iv vb.av_iv }
          | None, None -> opaque_av sx op va vb)
      | Ast.Cdiv | Ast.Cmod -> (
          match (C.Lin.const_val va.av_lin, C.Lin.const_val vb.av_lin) with
          | Some x, Some y when y <> 0 ->
              let v = if op = Ast.Cdiv then x / y else x mod y in
              { av_lin = C.Lin.const v; av_iv = C.iconst v }
          | _ -> opaque_av sx op va vb)
      | Ast.Cand | Ast.Cor -> (
          (* boolean connectives over constant relations: 0/1 valued *)
          match (C.singleton va.av_iv, C.singleton vb.av_iv) with
          | Some x, Some y ->
              let v =
                if op = Ast.Cand then if x <> 0 && y <> 0 then 1 else 0
                else if x <> 0 || y <> 0 then 1
                else 0
              in
              { av_lin = C.Lin.const v; av_iv = C.iconst v }
          | _ -> opaque_av sx op va vb))
  | Ast.Cun (op, a) -> (
      let va = ceval sx env a in
      match op with
      | Ast.Cpos -> va
      | Ast.Cneg ->
          { av_lin = C.Lin.scale (-1) va.av_lin; av_iv = C.ineg va.av_iv }
      | Ast.Cnot -> (
          match C.singleton va.av_iv with
          | Some x ->
              let v = if x = 0 then 1 else 0 in
              { av_lin = C.Lin.const v; av_iv = C.iconst v }
          | None ->
              { av_lin = C.Lin.const 0; av_iv = C.range (Some 0) (Some 1) }))
  | Ast.Crel (rel, a, b) -> (
      match crel_truth sx env rel a b with
      | C.True -> { av_lin = C.Lin.const 1; av_iv = C.iconst 1 }
      | C.False -> { av_lin = C.Lin.const 0; av_iv = C.iconst 0 }
      | C.Unknown ->
          { av_lin = C.Lin.const 0; av_iv = C.range (Some 0) (Some 1) })

(* three-valued truth of a constant relation, deciding WHEN arms *)
and crel_truth sx env rel a b : C.truth =
  let va = ceval sx env a and vb = ceval sx env b in
  (* first try the symbolic difference: decides n DIV 2 < n DIV 2 + 1 *)
  let d = C.Lin.sub va.av_lin vb.av_lin in
  match (C.Lin.const_val d, rel) with
  | Some k, Ast.Ceq -> if k = 0 then C.True else C.False
  | Some k, Ast.Cneq -> if k <> 0 then C.True else C.False
  | Some k, Ast.Clt -> if k < 0 then C.True else C.False
  | Some k, Ast.Cle -> if k <= 0 then C.True else C.False
  | Some k, Ast.Cgt -> if k > 0 then C.True else C.False
  | Some k, Ast.Cge -> if k >= 0 then C.True else C.False
  | None, _ -> (
      let ia = va.av_iv and ib = vb.av_iv in
      match rel with
      | Ast.Ceq -> C.cmp_eq ia ib
      | Ast.Cneq -> C.tnot (C.cmp_eq ia ib)
      | Ast.Clt -> C.cmp_lt ia ib
      | Ast.Cle -> C.cmp_le ia ib
      | Ast.Cgt -> C.cmp_lt ib ia
      | Ast.Cge -> C.cmp_le ib ia)

(* Refine the base term of [e]'s value by [e <rel> bound] (or its
   negation), returning an undo closure.  Only bare formals/FOR vars
   (and formal +/- const) refine; anything else is a no-op. *)
let refine_by_rel sx env ~negated rel a b =
  let refinable e =
    match e with
    | Ast.Cref (id, []) -> (
        match lookup env id.Ast.id with
        | Some (Vnum av) -> (
            match av.av_lin.C.Lin.terms with
            | [ (t, 1) ] -> (
                match Hashtbl.find_opt sx.g.term_defs t with
                | Some (Tbase r) -> Some (t, r, av.av_lin.C.Lin.k)
                | _ -> None)
            | _ -> None)
        | _ -> None)
    | _ -> None
  in
  let apply (_, r, off) rel other =
    (* term + off <rel> other  ==>  term <rel> other - off *)
    let old = !r in
    let w = C.isub other (C.iconst off) in
    let refined =
      match rel with
      | Ast.Ceq -> C.refine_eq old w
      | Ast.Cneq -> C.refine_ne old w
      | Ast.Clt -> C.refine_lt old w
      | Ast.Cle -> C.refine_le old w
      | Ast.Cgt -> C.refine_gt old w
      | Ast.Cge -> C.refine_ge old w
    in
    r := refined;
    fun () -> r := old
  in
  let negate = function
    | Ast.Ceq -> Ast.Cneq
    | Ast.Cneq -> Ast.Ceq
    | Ast.Clt -> Ast.Cge
    | Ast.Cle -> Ast.Cgt
    | Ast.Cgt -> Ast.Cle
    | Ast.Cge -> Ast.Clt
  in
  let rel = if negated then negate rel else rel in
  let flip = function
    | Ast.Clt -> Ast.Cgt
    | Ast.Cle -> Ast.Cge
    | Ast.Cgt -> Ast.Clt
    | Ast.Cge -> Ast.Cle
    | r -> r
  in
  try
    match (refinable a, refinable b) with
    | Some t, None -> apply t rel (ceval sx env b).av_iv
    | None, Some t -> apply t (flip rel) (ceval sx env a).av_iv
    | Some t, Some _ -> apply t rel (ceval sx env b).av_iv
    | None, None -> fun () -> ()
  with Fallback _ -> fun () -> ()

(* ------------------------------------------------------------------ *)
(* Slots and union-find                                                 *)
(* ------------------------------------------------------------------ *)

let new_slot sx ~path ~dims ~port =
  let id = sx.n_slots in
  sx.n_slots <- id + 1;
  let s =
    { s_id = id; s_path = path; s_dims = dims; s_port = port; s_uf = id;
      s_smeared = false; s_drivers = []; s_undef = false; s_seq = false }
  in
  Hashtbl.replace sx.slot_tbl id s;
  id

let slot sx id = Hashtbl.find sx.slot_tbl id

let rec uf_find sx id =
  let s = slot sx id in
  if s.s_uf = id then id
  else begin
    let root = uf_find sx s.s_uf in
    s.s_uf <- root;
    root
  end

let uf_union sx a b =
  let ra = uf_find sx a and rb = uf_find sx b in
  if ra <> rb then begin
    let sa = slot sx ra and sb = slot sx rb in
    (* keep the port slot (or the lower id) as the representative so
       contract assembly finds drivers on port classes *)
    let keep, drop =
      match (sa.s_port, sb.s_port) with
      | Some _, None -> (sa, sb)
      | None, Some _ -> (sb, sa)
      | _ -> if ra < rb then (sa, sb) else (sb, sa)
    in
    drop.s_uf <- keep.s_id;
    keep.s_smeared <- keep.s_smeared || drop.s_smeared
  end

let smear sx id = (slot sx (uf_find sx id)).s_smeared <- true

let add_edge sx ~src ~dst ~shift =
  sx.edges <- (uf_find sx src, uf_find sx dst, shift) :: sx.edges

(* ------------------------------------------------------------------ *)
(* Type resolution and signal placement                                 *)
(* ------------------------------------------------------------------ *)

let mode_of_ast = function
  | Ast.Min -> C.In
  | Ast.Mout -> C.Out
  | Ast.Minout -> C.Inout

let gate_names =
  [ "AND"; "OR"; "NAND"; "NOR"; "XOR"; "NOT"; "EQUAL"; "RANDOM"; "BIN"; "NUM" ]

let max_resolve_depth = 48

let rec resolve_ty sx env depth (ty : Ast.ty) : shape =
  if depth > max_resolve_depth then
    raise (Fallback "type recursion too deep to resolve");
  match ty with
  | Ast.Tarray (lo, hi, elt, _) ->
      let alo = ceval sx env lo and ahi = ceval sx env hi in
      Harr (alo, ahi, resolve_ty sx env (depth + 1) elt)
  | Ast.Tcomponent (c, loc) ->
      resolve_component sx env depth ~name:"<anonymous>" ~scope:sx.s_key
        ~formals:[] ~args:[] c loc
  | Ast.Tname (id, args) -> (
      match (id.Ast.id, args) with
      | ("boolean" | "multiplex"), [] -> Hbit
      | "virtual", [] -> Hvirt
      | "REG", [] ->
          Hcomp
            { h_name = "REG"; h_key_hint = 0; h_scope = ""; h_args = [];
              h_formals = [];
              h_ast =
                { Ast.cparams = []; chead_layout = []; cresult = None;
                  cbody = None };
              h_env = env;
              h_ports = [ ("in", C.In, Hbit); ("out", C.Out, Hbit) ];
              h_reg = true; h_reg_init = false }
      | "REG", [ _ ] ->
          Hcomp
            { h_name = "REG"; h_key_hint = 0; h_scope = ""; h_args = [];
              h_formals = [];
              h_ast =
                { Ast.cparams = []; chead_layout = []; cresult = None;
                  cbody = None };
              h_env = env;
              h_ports = [ ("in", C.In, Hbit); ("out", C.Out, Hbit) ];
              h_reg = true; h_reg_init = true }
      | name, args -> (
          match lookup env name with
          | Some (Vtype td) -> (
              let avs = List.map (ceval sx env) args in
              if List.length td.td_formals <> List.length avs then
                raise
                  (Fallback
                     (Printf.sprintf "type '%s' expects %d parameters" name
                        (List.length td.td_formals)));
              let env' =
                List.fold_left2
                  (fun e f a -> bind e f (Vnum a))
                  td.td_env td.td_formals avs
              in
              match td.td_ty with
              | Ast.Tcomponent (c, loc) ->
                  resolve_component sx env' depth ~name ~scope:td.td_scope
                    ~formals:td.td_formals ~args:avs c loc
              | ty -> resolve_ty sx env' (depth + 1) ty)
          | _ ->
              raise (Fallback (Printf.sprintf "unresolved type '%s'" name))))

and resolve_component sx env depth ~name ~scope ~formals ~args c loc : shape =
  match (c.Ast.cbody, c.Ast.cresult) with
  | None, None ->
      (* record type: component without body *)
      Hrec
        (List.concat_map
           (fun (p : Ast.fparam) ->
             let sh = resolve_ty sx env (depth + 1) p.Ast.fty in
             List.map (fun (n : Ast.ident) -> (n.Ast.id, sh)) p.Ast.fnames)
           c.Ast.cparams)
  | _ ->
      let ports =
        List.concat_map
          (fun (p : Ast.fparam) ->
            let m = mode_of_ast p.Ast.fmode in
            let sh = resolve_ty sx env (depth + 1) p.Ast.fty in
            List.map (fun (n : Ast.ident) -> (n.Ast.id, m, sh)) p.Ast.fnames)
          c.Ast.cparams
      in
      let ports =
        match c.Ast.cresult with
        | Some rty ->
            ports @ [ ("$result", C.Out, resolve_ty sx env (depth + 1) rty) ]
        | None -> ports
      in
      Hcomp
        { h_name = name; h_key_hint = loc.Loc.start.Loc.offset;
          h_scope = scope; h_args = args; h_formals = formals; h_ast = c;
          h_env = env; h_ports = ports; h_reg = false; h_reg_init = false }

(* canonical signature of a child instantiation, from argument ivals *)
let sig_of_args sx (args : aval list) =
  String.concat ","
    (List.map (fun a -> C.ival_to_string (iv_of_lin sx a.av_lin)) args)

let summarize_key (h : comp) sigs =
  Printf.sprintf "%s@%d%s(%s)" h.h_name h.h_key_hint
    (if h.h_scope = "" then "" else "[" ^ h.h_scope ^ "]")
    sigs

(* place a shape: allocate slots under [path] with accumulated [dims] *)
let rec place sx ~path ~dims ~port (sh : shape) : pshape =
  match sh with
  | Hbit -> Pbit (new_slot sx ~path ~dims ~port)
  | Hvirt -> Pvirt
  | Harr (lo, hi, elt) ->
      (* a definitely-empty range is a Z404 at use time; deferred by
         the caller for instance shapes *)
      Parr
        ( lo.av_lin, hi.av_lin, lo.av_iv, hi.av_iv,
          place sx ~path ~dims:(dims @ [ (lo.av_lin, hi.av_lin) ]) ~port elt )
  | Hrec fields ->
      Prec
        (List.map
           (fun (f, s) ->
             (f, place sx ~path:(path ^ "." ^ f) ~dims ~port s))
           fields)
  | Hcomp h ->
      let sigs = sig_of_args sx h.h_args in
      let key = if h.h_reg then "" else summarize_key h sigs in
      let ports =
        List.map
          (fun (pn, m, psh) ->
            (pn, m, place sx ~path:(path ^ "." ^ pn) ~dims ~port:None psh))
          h.h_ports
      in
      let r =
        { r_path = path; r_type = h.h_name; r_key = key; r_dims = dims;
          r_ports = ports; r_reg = h.h_reg; r_reg_init = h.h_reg_init;
          r_comp = (if h.h_reg then None else Some h);
          r_loc = Loc.dummy; r_used = L.Bfalse; r_deferred = [] }
      in
      Hashtbl.replace sx.insts path r;
      Pinst r

(* ------------------------------------------------------------------ *)
(* Findings                                                             *)
(* ------------------------------------------------------------------ *)

let finding sx ~sev ~code ~loc fmt =
  Fmt.kstr
    (fun message ->
      let d =
        { Diag.severity = sev; kind = Diag.Lint_error; code = Some code;
          loc; message }
      in
      sx.s_findings <- d :: sx.s_findings)
    fmt

let fallback_note sx reason =
  if not (List.mem reason sx.s_fallbacks) then
    sx.s_fallbacks <- reason :: sx.s_fallbacks

(* ------------------------------------------------------------------ *)
(* Reference resolution                                                 *)
(* ------------------------------------------------------------------ *)

(* result of resolving a signal_ref against the placed shapes *)
type rref = {
  rr_base : pshape; (* shape remaining after the selectors *)
  rr_idx : idx list; (* accumulated (collapsed) indices *)
  rr_crossed : (iref * string * C.mode) option; (* innermost port crossing *)
  rr_varidx : bool; (* an index mentions a FOR variable *)
}

let mentions_loop_var sx (l : C.Lin.t) =
  List.exists (fun (v, _, _) -> C.Lin.mentions v l) sx.loop_vars

(* index bounds check at a use site (lazy: unused hardware never gets
   here, mirroring section 4.2) *)
let check_index sx ~loc (av : aval) (ivlo : C.ival) (ivhi : C.ival) =
  let iv = iv_of_lin sx av.av_lin in
  if C.cmp_le ivlo ivhi = C.False then
    finding sx
      ~sev:(if sx.s_concrete then Diag.Error else Diag.Warning)
      ~code:Diag.Code.modular_range ~loc
      "ARRAY range is empty for %s parameters of %s"
      (if sx.s_concrete then "the instantiated" else "all")
      sx.s_shown
  else if C.cmp_lt iv ivlo = C.True || C.cmp_lt ivhi iv = C.True then
    finding sx
      ~sev:(if sx.s_concrete then Diag.Error else Diag.Warning)
      ~code:Diag.Code.modular_range ~loc
      "index %s out of ARRAY bounds %s..%s in %s"
      (C.ival_to_string iv) (C.ival_to_string ivlo) (C.ival_to_string ivhi)
      sx.s_shown
  else if
    sx.s_concrete
    && (C.cmp_le ivlo iv <> C.True || C.cmp_le iv ivhi <> C.True)
  then begin
    finding sx ~sev:Diag.Warning ~code:Diag.Code.modular_coarse ~loc
      "interval %s too coarse to bound this index within %s..%s — falling \
       back to elaboration for %s"
      (C.ival_to_string iv) (C.ival_to_string ivlo) (C.ival_to_string ivhi)
      sx.s_shown;
    fallback_note sx "coarse interval at an index"
  end

let rec nav_field ps f =
  match ps with
  | Prec fields -> List.assoc_opt f fields
  | Pinst r -> (
      match List.find_opt (fun (n, _, _) -> n = f) r.r_ports with
      | Some (_, _, p) -> Some p
      | None -> None)
  | _ -> None

and resolve_ref sx env (sref : Ast.signal_ref) : rref =
  match sref with
  | Ast.Star _ -> (
      match sx.with_stack with
      | (ps, _) :: _ ->
          { rr_base = ps; rr_idx = []; rr_crossed = None; rr_varidx = false }
      | [] -> raise (Fallback "'*' outside WITH"))
  | Ast.Sig (id, sels) ->
      let root =
        (* innermost WITH prefixes shadow the lexical scope *)
        let rec from_with = function
          | [] -> None
          | (ps, _) :: rest -> (
              match nav_field ps id.Ast.id with
              | Some p -> Some p
              | None -> from_with rest)
        in
        match from_with sx.with_stack with
        | Some p -> Some p
        | None -> (
            match lookup env id.Ast.id with
            | Some (Vsig p) -> Some p
            | _ -> None)
      in
      let root =
        match root with
        | Some p -> p
        | None ->
            raise (Fallback (Printf.sprintf "unresolved signal '%s'" id.Ast.id))
      in
      let crossed = ref None in
      let varidx = ref false in
      let rec go ps idx = function
        | [] -> { rr_base = ps; rr_idx = List.rev idx;
                  rr_crossed = !crossed; rr_varidx = !varidx }
        | Ast.Sel_index e :: rest -> (
            match ps with
            | Parr (_, _, ivlo, ivhi, elt) ->
                let av = ceval sx env e in
                check_index sx ~loc:(Ast.const_expr_loc e) av ivlo ivhi;
                if mentions_loop_var sx av.av_lin then varidx := true;
                go elt (Ipt av.av_lin :: idx) rest
            | _ -> raise (Fallback "index into a non-array"))
        | Ast.Sel_range (a, b) :: rest -> (
            match ps with
            | Parr (_, _, ivlo, ivhi, elt) ->
                let va = ceval sx env a and vb = ceval sx env b in
                check_index sx ~loc:(Ast.const_expr_loc a) va ivlo ivhi;
                check_index sx ~loc:(Ast.const_expr_loc b) vb ivlo ivhi;
                if
                  mentions_loop_var sx va.av_lin
                  || mentions_loop_var sx vb.av_lin
                then varidx := true;
                go elt (Irg (va.av_lin, vb.av_lin) :: idx) rest
            | _ -> raise (Fallback "range-index into a non-array"))
        | Ast.Sel_field f :: rest -> (
            (match ps with
            | Pinst r -> (
                match List.find_opt (fun (n, _, _) -> n = f.Ast.id) r.r_ports with
                | Some (_, m, _) -> crossed := Some (r, f.Ast.id, m)
                | None -> ())
            | _ -> ());
            match nav_field ps f.Ast.id with
            | Some p -> go p idx rest
            | None ->
                raise
                  (Fallback (Printf.sprintf "unresolved field '%s'" f.Ast.id)))
        | Ast.Sel_num _ :: rest -> (
            (* a dynamic index: any element may be touched, and the
               dependence on the index signal is not tracked — the
               fallback note keeps the type out of the proven sets *)
            match ps with
            | Parr (_, _, _, _, elt) ->
                fallback_note sx "dynamic NUM index";
                varidx := true;
                go elt (Idyn :: idx) rest
            | _ -> raise (Fallback "dynamic index into a non-array"))
        | Ast.Sel_field_range _ :: _ -> raise (Fallback "field range selector")
      in
      go root [] sels

(* all bit slots under a placed shape, with the full-range padding for
   the dims below the resolution point *)
let rec pleaves ps (extra : idx list) : (int * idx list) list =
  match ps with
  | Pbit id -> [ (id, List.rev extra) ]
  | Pvirt -> []
  | Parr (lo, hi, _, _, elt) -> pleaves elt (Irg (lo, hi) :: extra)
  | Prec fields -> List.concat_map (fun (_, p) -> pleaves p extra) fields
  | Pinst r ->
      (* reading/driving a whole instance: all its ports *)
      List.concat_map (fun (_, _, p) -> pleaves p extra) r.r_ports

let leaves rr = pleaves rr.rr_base []

let first_pt = function Ipt l :: _ -> Some l | _ -> None

(* OR a use context into an instance and flush its deferred findings *)
let use_inst sx guard (r : iref) =
  if r.r_used = L.Bfalse && r.r_deferred <> [] then begin
    sx.s_findings <- r.r_deferred @ sx.s_findings;
    r.r_deferred <- []
  end;
  r.r_used <- L.bor [ r.r_used; guard ]

(* ------------------------------------------------------------------ *)
(* Atoms                                                                *)
(* ------------------------------------------------------------------ *)

let fresh_atom sx kind desc =
  let a = sx.n_atoms in
  sx.n_atoms <- a + 1;
  Hashtbl.replace sx.atom_kinds a kind;
  Hashtbl.replace sx.atom_descs a desc;
  a

let idx_key idxs =
  String.concat ";"
    (List.map
       (function
         | Ipt l -> C.Lin.to_key l
         | Irg (a, b) -> C.Lin.to_key a ^ ".." ^ C.Lin.to_key b
         | Idyn -> "?")
       idxs)

(* the atom for reading one bit slot: shared between occurrences of the
   same reference so complementary IF guards cancel — but only when no
   FOR variable is involved (two iterations read different elements) *)
let slot_atom sx slotid idxs varidx desc =
  if varidx then fresh_atom sx Aopq desc
  else
    let key = Printf.sprintf "%d:%s" (uf_find sx slotid) (idx_key idxs) in
    match Hashtbl.find_opt sx.atom_share key with
    | Some a -> a
    | None ->
        let a = fresh_atom sx (Aport (uf_find sx slotid)) desc in
        Hashtbl.replace sx.atom_share key a;
        a

(* ------------------------------------------------------------------ *)
(* Expressions and statements                                           *)
(* ------------------------------------------------------------------ *)

(* evaluated expression: support slots (with first-index Lin for shift
   labelling), possible-UNDEF flag, definiteness, and — when the
   expression is a boolean formula the prover can use — its bexp *)
type eres = {
  e_sup : (int * C.Lin.t option) list;
  e_undef : bool;
  e_def : bool;
  e_guard : L.bexp option;
}

let pure ?(g = None) () = { e_sup = []; e_undef = false; e_def = true; e_guard = g }

let union_sup rs =
  {
    e_sup = List.concat_map (fun r -> r.e_sup) rs;
    e_undef = List.exists (fun r -> r.e_undef) rs;
    e_def = List.for_all (fun r -> r.e_def) rs;
    e_guard = None;
  }

let rec sc_undef env (sc : Ast.sig_const) =
  match sc with
  | Ast.Sc_value _ -> false
  | Ast.Sc_bin _ -> false
  | Ast.Sc_tuple (l, _) -> List.exists (sc_undef env) l
  | Ast.Sc_ref id -> (
      match id.Ast.id with
      | "UNDEF" | "NOINFL" -> true
      | n -> (
          match lookup env n with
          | Some (Vsigc sc) -> sc_undef env sc
          | _ -> false))

let gate_guard name (args : L.bexp list) =
  match (name, args) with
  | "AND", _ -> Some (L.band args)
  | "OR", _ -> Some (L.bor args)
  | "NAND", _ -> Some (L.bnot (L.band args))
  | "NOR", _ -> Some (L.bnot (L.bor args))
  | "NOT", [ a ] -> Some (L.bnot a)
  | "XOR", [ a; b ] -> Some (L.bxor a b)
  | "EQUAL", [ a; b ] -> Some (L.bnot (L.bxor a b))
  | _ -> None

let rec eval_expr sx env ~guard (e : Ast.expr) : eres =
  match e with
  | Ast.Eref sref -> eval_ref sx env ~guard sref (Ast.signal_ref_loc sref)
  | Ast.Econst sc ->
      let u = sc_undef env sc in
      { e_sup = []; e_undef = u; e_def = true;
        e_guard =
          (match sc with
          | Ast.Sc_value (0, _) -> Some L.Bfalse
          | Ast.Sc_value (_, _) -> Some L.Btrue
          | _ -> None) }
  | Ast.Ebin (_, width, loc) ->
      (match crel_truth sx env Ast.Cle width (Ast.Cnum (0, Loc.dummy)) with
      | C.True ->
          finding sx
            ~sev:(if sx.s_concrete then Diag.Error else Diag.Warning)
            ~code:Diag.Code.modular_range ~loc
            "BIN width is non-positive in %s" sx.s_shown
      | _ -> ());
      pure ()
  | Ast.Estar (_, _) -> raise (Fallback "'*' expression")
  | Ast.Etuple (es, _) -> union_sup (List.map (eval_expr sx env ~guard) es)
  | Ast.Ecall (id, params, args, loc) -> (
      if List.mem id.Ast.id gate_names then begin
        match id.Ast.id with
        | "RANDOM" -> pure ()
        | "BIN" -> pure ()
        | _ ->
            let rs = List.map (eval_expr sx env ~guard) args in
            let u = union_sup rs in
            let g =
              if List.for_all (fun r -> r.e_guard <> None) rs then
                gate_guard id.Ast.id
                  (List.map
                     (fun r -> match r.e_guard with Some g -> g | None -> L.Btrue)
                     rs)
              else None
            in
            { u with e_guard = g }
      end
      else
        (* function-component call: an anonymous instance at this site *)
        call_function sx env ~guard id params args loc)

and eval_ref sx env ~guard sref _loc =
  match sref with
  | Ast.Sig (id, []) when
      (match lookup env id.Ast.id with
      | Some (Vnum _ | Vsigc _) -> true
      | _ -> false) -> (
      (* a constant in signal position *)
      match lookup env id.Ast.id with
      | Some (Vnum av) -> (
          match C.singleton (iv_of_lin sx av.av_lin) with
          | Some 0 -> pure ~g:(Some L.Bfalse) ()
          | Some _ -> pure ~g:(Some L.Btrue) ()
          | None -> pure ())
      | Some (Vsigc sc) ->
          { e_sup = []; e_undef = sc_undef env sc; e_def = true; e_guard = None }
      | _ -> pure ())
  | _ -> (
      let rr = resolve_ref sx env sref in
      (match rr.rr_crossed with
      | Some (r, _, _) -> use_inst sx guard r
      | None -> ());
      let ls = leaves rr in
      let sup =
        List.map (fun (s, extra) -> (s, first_pt (rr.rr_idx @ extra))) ls
      in
      let g =
        match ls with
        | [ (s, extra) ] ->
            let idxs = rr.rr_idx @ extra in
            if List.exists (function Irg _ | Idyn -> true | Ipt _ -> false) idxs
            then None (* multi-bit reference: not a single boolean atom *)
            else
              (* single-bit reference: an atom the prover can split on *)
              Some (L.Bvar (slot_atom sx s idxs rr.rr_varidx (ref_desc sx s idxs)))
        | _ -> None
      in
      { e_sup = sup; e_undef = false; e_def = true; e_guard = g })

and ref_desc sx s idxs =
  let p = (slot sx s).s_path in
  match idxs with
  | [] -> p
  | _ -> p ^ "[" ^ idx_key idxs ^ "]"

(* a function-component call: instantiate (once per call site), drive
   its IN formals from the arguments, return its $result as support *)
and call_function sx env ~guard id params args loc =
  match lookup env id.Ast.id with
  | Some (Vtype td) -> (
      let avs = List.map (ceval sx env) params in
      if List.length td.td_formals <> List.length avs then
        raise (Fallback (Printf.sprintf "call arity of '%s'" id.Ast.id));
      let env' =
        List.fold_left2 (fun e f a -> bind e f (Vnum a)) td.td_env
          td.td_formals avs
      in
      match td.td_ty with
      | Ast.Tcomponent (c, tloc) when c.Ast.cresult <> None ->
          let sh =
            resolve_component sx env' 0 ~name:id.Ast.id ~scope:td.td_scope
              ~formals:td.td_formals ~args:avs c tloc
          in
          let path =
            Printf.sprintf "%s$call@%d" id.Ast.id loc.Loc.start.Loc.offset
          in
          let pinst =
            match Hashtbl.find_opt sx.insts path with
            | Some r -> r
            | None -> (
                match place sx ~path ~dims:[] ~port:None sh with
                | Pinst r -> r
                | _ -> raise (Fallback "function call did not place"))
          in
          use_inst sx guard pinst;
          connect_ports sx env ~guard ~loc pinst [] args ~skip_result:true;
          let rsup =
            match List.find_opt (fun (n, _, _) -> n = "$result") pinst.r_ports
            with
            | Some (_, _, p) ->
                List.map (fun (s, ex) -> (s, first_pt ex)) (pleaves p [])
            | None -> []
          in
          let argsup = union_sup (List.map (eval_expr sx env ~guard) args) in
          { e_sup = rsup @ argsup.e_sup; e_undef = argsup.e_undef;
            e_def = argsup.e_def; e_guard = None }
      | _ -> raise (Fallback (Printf.sprintf "'%s' is not callable" id.Ast.id)))
  | _ ->
      raise (Fallback (Printf.sprintf "unresolved call '%s'" id.Ast.id))

(* connect actuals to the formals of an instance: IN formals are driven
   by the actuals; OUT/INOUT formals drive the actual places (pending
   until the child's contract is known) *)
and connect_ports sx env ~guard ~loc (r : iref) (inst_idx : idx list) actuals
    ~skip_result =
  let formals =
    List.filter (fun (n, _, _) -> not (skip_result && n = "$result")) r.r_ports
  in
  if List.length formals <> List.length actuals then
    raise
      (Fallback
         (Printf.sprintf "connection arity: %d actuals for %d ports"
            (List.length actuals) (List.length formals)));
  List.iter2
    (fun (pname, mode, pshape) actual ->
      match mode with
      | C.In ->
          let er = eval_expr sx env ~guard actual in
          List.iter
            (fun (s, extra) ->
              let idxs = inst_idx @ extra in
              add_driver sx s
                { d_guard = guard; d_idx = idxs; d_vars = sx.loop_vars;
                  d_loc = loc;
                  d_desc = Printf.sprintf "connection to %s.%s" r.r_path pname;
                  d_definite = sx.definite_ctx && er.e_def;
                  d_undef = er.e_undef;
                  d_srcs = List.map fst er.e_sup; d_dims = [] };
              List.iter
                (fun (src, slin) ->
                  add_edge sx ~src ~dst:s
                    ~shift:(shift_of sx (first_pt idxs) slin))
                er.e_sup)
            (pleaves pshape [])
      | C.Out | C.Inout -> (
          match actual with
          | Ast.Eref aref ->
              let rr = resolve_ref sx env aref in
              (match rr.rr_crossed with
              | Some (cr, _, _) -> use_inst sx guard cr
              | None -> ());
              if rr.rr_varidx then ();
              List.iter
                (fun (s, extra) ->
                  sx.pendings <-
                    { p_inst = r.r_path; p_port = pname; p_guard = guard;
                      p_target = s; p_idx = rr.rr_idx @ extra;
                      p_vars = sx.loop_vars; p_loc = loc;
                      p_definite = sx.definite_ctx }
                    :: sx.pendings;
                  (* the child's port reaches the actual combinationally *)
                  List.iter
                    (fun (ps, pex) ->
                      add_edge sx ~src:ps ~dst:s
                        ~shift:
                          (shift_of sx
                             (first_pt (rr.rr_idx @ extra))
                             (first_pt (inst_idx @ pex))))
                    (pleaves pshape []))
                (leaves rr)
          | _ -> raise (Fallback "OUT connection actual is not a signal")))
    formals actuals

and shift_of sx dst src =
  match (dst, src) with
  | Some a, Some b -> (
      let d = C.Lin.sub a b in
      match C.Lin.const_val d with
      | Some k -> Some k
      | None -> ( match C.singleton (iv_of_lin sx d) with Some k -> Some k | None -> None))
  | None, None -> Some 0
  | _ -> None

and add_driver sx slotid d =
  let dims = (slot sx slotid).s_dims in
  let s = slot sx (uf_find sx slotid) in
  s.s_drivers <- { d with d_dims = dims } :: s.s_drivers

(* ------------------------------------------------------------------ *)
(* Statement walk                                                       *)
(* ------------------------------------------------------------------ *)

let when_truth sx env (cond : Ast.const_expr) : C.truth =
  match cond with
  | Ast.Crel (rel, a, b) -> crel_truth sx env rel a b
  | e -> (
      try
        match C.singleton (ceval sx env e).av_iv with
        | Some 0 -> C.False
        | Some _ -> C.True
        | None -> C.Unknown
      with Fallback _ -> C.Unknown)

let refine_when sx env ~negated (cond : Ast.const_expr) : unit -> unit =
  match cond with
  | Ast.Crel (rel, a, b) -> refine_by_rel sx env ~negated rel a b
  | _ -> fun () -> ()

let rec walk sx env ~guard stmts = List.iter (walk_stmt sx env ~guard) stmts

and walk_stmt sx env ~guard (st : Ast.stmt) =
  try walk_stmt_raw sx env ~guard st
  with Fallback reason ->
    (* the statement's effects are dropped; the type can no longer be
       proven anything, which the fallback records *)
    fallback_note sx
      (Printf.sprintf "%s (at %s)" reason
         (Fmt.str "%a" Loc.pp (Ast.stmt_loc st)))

and walk_stmt_raw sx env ~guard (st : Ast.stmt) =
  match st with
  | Ast.Sparallel (stmts, _) | Ast.Ssequential (stmts, _) ->
      walk sx env ~guard stmts
  | Ast.Sassign (lhs, rhs, loc) ->
      let er = eval_expr sx env ~guard rhs in
      drive_ref sx env ~guard ~loc ~desc:"assignment" er lhs
  | Ast.Sresult (rhs, loc) -> (
      let er = eval_expr sx env ~guard rhs in
      match lookup env "$result" with
      | Some (Vsig ps) ->
          drive_place sx ~guard ~loc ~desc:"RESULT" er
            { rr_base = ps; rr_idx = []; rr_crossed = None; rr_varidx = false }
      | _ -> raise (Fallback "RESULT outside a function component"))
  | Ast.Salias (lhs, rhs, loc) -> (
      match rhs with
      | Ast.Eref rref_ast ->
          let a = resolve_ref sx env lhs and b = resolve_ref sx env rref_ast in
          (match a.rr_crossed with
          | Some (r, _, _) -> use_inst sx guard r
          | None -> ());
          (match b.rr_crossed with
          | Some (r, _, _) -> use_inst sx guard r
          | None -> ());
          let la = leaves a and lb = leaves b in
          let smear_all l = List.iter (fun (s, _) -> smear sx s) l in
          if List.length la = List.length lb then begin
            List.iter2
              (fun (sa, _) (sb, _) ->
                uf_union sx sa sb;
                (* partial or iteration-dependent aliasing smears the
                   class: index disjointness no longer separates
                   electrical nets *)
                if
                  a.rr_varidx || b.rr_varidx
                  || a.rr_idx <> [] || b.rr_idx <> []
                then smear sx sa)
              la lb;
            ignore loc
          end
          else begin
            (* shape mismatch: merge everything, conservatively smeared *)
            List.iter (fun (sa, _) -> List.iter (fun (sb, _) ->
                uf_union sx sa sb) lb) la;
            smear_all la; smear_all lb
          end
      | _ -> raise (Fallback "alias right-hand side is not a signal"))
  | Ast.Sconnect (sref, actuals, loc) -> (
      let rr = resolve_ref sx env sref in
      match rr.rr_base with
      | Pinst r ->
          use_inst sx guard r;
          connect_ports sx env ~guard ~loc r rr.rr_idx actuals
            ~skip_result:false
      | _ -> raise (Fallback "connection target is not an instance"))
  | Ast.Sfor (h, _seq, stmts, _loc) -> (
      let vfrom = ceval sx env h.Ast.ffrom and vto = ceval sx env h.Ast.fto in
      let lo, hi =
        match h.Ast.fdir with
        | Ast.To -> (vfrom, vto)
        | Ast.Downto -> (vto, vfrom)
      in
      match C.cmp_le lo.av_iv hi.av_iv with
      | C.False -> () (* definitely empty loop *)
      | truth ->
          let iv =
            C.range (C.lo_of lo.av_iv) (C.hi_of hi.av_iv)
          in
          let v = fresh_term sx ("for:" ^ h.Ast.fvar.Ast.id) (Tbase (ref iv)) in
          let env' =
            bind env h.Ast.fvar.Ast.id
              (Vnum { av_lin = C.Lin.term v; av_iv = iv })
          in
          let saved = sx.definite_ctx in
          if truth <> C.True then sx.definite_ctx <- false;
          sx.loop_vars <- (v, lo.av_lin, hi.av_lin) :: sx.loop_vars;
          walk sx env' ~guard stmts;
          sx.loop_vars <- List.tl sx.loop_vars;
          sx.definite_ctx <- saved)
  | Ast.Swhen (arms, otherwise, loc) ->
      let saved_def = sx.definite_ctx in
      let rec go prefix undos = function
        | [] ->
            walk sx env ~guard:(L.band [ guard; prefix ]) otherwise;
            List.iter (fun u -> u ()) undos
        | (cond, stmts) :: rest -> (
            match when_truth sx env cond with
            | C.True ->
                walk sx env ~guard:(L.band [ guard; prefix ]) stmts;
                List.iter (fun u -> u ()) undos
            | C.False ->
                let u = refine_when sx env ~negated:true cond in
                go prefix (u :: undos) rest
            | C.Unknown ->
                sx.definite_ctx <- false;
                let w =
                  fresh_atom sx Aparam
                    (Fmt.str "WHEN arm at %a" Loc.pp loc)
                in
                let u = refine_when sx env ~negated:false cond in
                walk sx env
                  ~guard:(L.band [ guard; prefix; L.Bvar w ])
                  stmts;
                u ();
                let u' = refine_when sx env ~negated:true cond in
                go (L.band [ prefix; L.bnot (L.Bvar w) ]) (u' :: undos) rest)
      in
      go L.Btrue [] arms;
      sx.definite_ctx <- saved_def
  | Ast.Sif (arms, els, _loc) ->
      let rec go prefix xsup = function
        | [] -> walk_guarded sx env ~guard:(L.band [ guard; prefix ]) ~xsup els
        | (cond, stmts) :: rest ->
            let er = eval_expr sx env ~guard cond in
            let g =
              match er.e_guard with
              | Some g -> g
              | None -> L.Bvar (fresh_atom sx Aopq "IF condition")
            in
            let xsup = er.e_sup @ xsup in
            walk_guarded sx env
              ~guard:(L.band [ guard; prefix; g ])
              ~xsup stmts;
            go (L.band [ prefix; L.bnot g ]) xsup rest
      in
      go L.Btrue [] arms
  | Ast.Swith (sref, stmts, _loc) -> (
      let rr = resolve_ref sx env sref in
      (match rr.rr_crossed with
      | Some (r, _, _) -> use_inst sx guard r
      | None -> ());
      match rr.rr_idx with
      | [] ->
          let path =
            match sref with
            | Ast.Sig (id, _) -> id.Ast.id
            | Ast.Star _ -> "*"
          in
          sx.with_stack <- (rr.rr_base, path) :: sx.with_stack;
          walk sx env ~guard stmts;
          sx.with_stack <- List.tl sx.with_stack
      | _ ->
          (* WITH an indexed prefix: resolution below would lose the
             index; conservatively fall back *)
          raise (Fallback "WITH over an indexed reference"))

(* IF bodies: the condition's support slots feed every driver inside *)
and walk_guarded sx env ~guard ~xsup stmts =
  match xsup with
  | [] -> walk sx env ~guard stmts
  | _ ->
      let saved = sx.if_sup in
      sx.if_sup <- xsup @ sx.if_sup;
      walk sx env ~guard stmts;
      sx.if_sup <- saved

(* drive every leaf slot the reference denotes *)
and drive_ref sx env ~guard ~loc ~desc er lhs =
  let rr = resolve_ref sx env lhs in
  (match rr.rr_crossed with
  | Some (r, _, _) -> use_inst sx guard r
  | None -> ());
  drive_place sx ~guard ~loc ~desc er rr

and drive_place sx ~guard ~loc ~desc er rr =
  let sup = er.e_sup @ sx.if_sup in
  List.iter
    (fun (s, extra) ->
      let idxs = rr.rr_idx @ extra in
      add_driver sx s
        { d_guard = guard; d_idx = idxs; d_vars = sx.loop_vars; d_loc = loc;
          d_desc = desc; d_definite = sx.definite_ctx && er.e_def;
          d_undef = er.e_undef; d_srcs = List.map fst sup; d_dims = [] };
      List.iter
        (fun (src, slin) ->
          add_edge sx ~src ~dst:s ~shift:(shift_of sx (first_pt idxs) slin))
        sup)
    (leaves rr)

(* ------------------------------------------------------------------ *)
(* Context construction and declaration processing                      *)
(* ------------------------------------------------------------------ *)

let mk_sctx g ~tname ~key ~shown ~concrete =
  { g; s_tname = tname; s_key = key; s_shown = shown; s_concrete = concrete;
    slot_tbl = Hashtbl.create 64; n_slots = 0; edges = []; undef_edges = [];
    insts = Hashtbl.create 8; pendings = []; n_atoms = 0;
    atom_kinds = Hashtbl.create 16; atom_descs = Hashtbl.create 16;
    atom_share = Hashtbl.create 16; loop_vars = []; with_stack = [];
    if_sup = []; definite_ctx = true; s_fallbacks = []; s_findings = [] }

(* process a declaration list into an environment; local types bind
   mutually-recursively (the shared [td_env] is patched afterwards) *)
let process_decls sx env (decls : Ast.decl list) =
  List.fold_left
    (fun env d ->
      try
        match d with
        | Ast.Dconst defs ->
            List.fold_left
              (fun env ((id : Ast.ident), k) ->
                match k with
                | Ast.Knum e -> bind env id.Ast.id (Vnum (ceval sx env e))
                | Ast.Ksig sc -> bind env id.Ast.id (Vsigc sc))
              env defs
        | Ast.Dtype defs ->
            let tds =
              List.map
                (fun (td : Ast.type_def) ->
                  ( td.Ast.tname.Ast.id,
                    { td_formals =
                        List.map (fun (i : Ast.ident) -> i.Ast.id)
                          td.Ast.tformals;
                      td_ty = td.Ast.tty; td_env = env;
                      td_scope = sx.s_key } ))
                defs
            in
            let env' =
              List.fold_left
                (fun env (n, td) -> bind env n (Vtype td))
                env tds
            in
            (* a group's types may reference each other *)
            List.iter (fun (_, td) -> td.td_env <- env') tds;
            env'
        | Ast.Dsignal defs ->
            List.fold_left
              (fun env ((names : Ast.ident list), ty) ->
                try
                  let sh = resolve_ty sx env 0 ty in
                  List.fold_left
                    (fun env (n : Ast.ident) ->
                      bind env n.Ast.id
                        (Vsig (place sx ~path:n.Ast.id ~dims:[] ~port:None sh)))
                    env names
                with Fallback reason ->
                  fallback_note sx reason;
                  env)
              env defs
      with Fallback reason ->
        fallback_note sx reason;
        env)
    env decls

(* ------------------------------------------------------------------ *)
(* Composition: fold used child instances into the parent               *)
(* ------------------------------------------------------------------ *)

(* one fresh variable per enclosing array dimension: the pseudo-driver
   fires once per instance ("diagonal" indexing) *)
let diag_idx sx (dims : (C.Lin.t * C.Lin.t) list) =
  List.map
    (fun (lo, hi) ->
      let iv =
        C.range (C.lo_of (iv_of_lin sx lo)) (C.hi_of (iv_of_lin sx hi))
      in
      let t = fresh_term sx "inst" (Tbase (ref iv)) in
      (t, lo, hi))
    dims

let port_ps (r : iref) n =
  List.find_map (fun (pn, _, ps) -> if pn = n then Some ps else None) r.r_ports

(* [summarize_child] is the tied-back knot to the memoized driver *)
let compose sx (summarize_child : comp -> C.t) =
  let child_contracts : (string, C.t) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ (r : iref) ->
      if r.r_used <> L.Bfalse then
        if r.r_reg then begin
          (* REG: out always driven and sequential, UNDEF at power-up
             unless initialized; in->out is not a combinational edge,
             but UNDEF does cross the clock boundary *)
          (match port_ps r "out" with
          | Some ps ->
              let vars = diag_idx sx r.r_dims in
              let idxs = List.map (fun (t, _, _) -> Ipt (C.Lin.term t)) vars in
              List.iter
                (fun (sid, extra) ->
                  let sl = slot sx (uf_find sx sid) in
                  sl.s_seq <- true;
                  if not r.r_reg_init then sl.s_undef <- true;
                  add_driver sx sid
                    { d_guard = r.r_used; d_idx = idxs @ extra; d_vars = vars;
                      d_loc = r.r_loc;
                      d_desc =
                        Printf.sprintf "register output %s.out" r.r_path;
                      d_definite = r.r_used = L.Btrue;
                      d_undef = not r.r_reg_init; d_srcs = []; d_dims = [] })
                (pleaves ps [])
          | None -> ());
          match (port_ps r "in", port_ps r "out") with
          | Some pi, Some po ->
              List.iter
                (fun (si, _) ->
                  List.iter
                    (fun (so, _) ->
                      sx.undef_edges <-
                        (uf_find sx si, uf_find sx so) :: sx.undef_edges)
                    (pleaves po []))
                (pleaves pi [])
          | _ -> ()
        end
        else
          match r.r_comp with
          | None -> ()
          | Some h ->
              let c = summarize_child h in
              Hashtbl.replace child_contracts r.r_path c;
              (* the child's own OUT/INOUT drives appear as pseudo-drivers
                 on the instance's port slots *)
              let vars = diag_idx sx r.r_dims in
              let idxs = List.map (fun (t, _, _) -> Ipt (C.Lin.term t)) vars in
              List.iter
                (fun (pn, m, ps) ->
                  match (m, C.port c pn) with
                  | (C.Out | C.Inout), Some cp -> (
                      match cp.C.p_drive with
                      | C.Never -> ()
                      | dc ->
                          let guard =
                            match dc with
                            | C.Always -> r.r_used
                            | _ ->
                                L.band
                                  [ r.r_used;
                                    L.Bvar
                                      (fresh_atom sx Aopq
                                         (Printf.sprintf "%s may drive %s.%s"
                                            r.r_type r.r_path pn)) ]
                          in
                          List.iter
                            (fun (sid, extra) ->
                              let sl = slot sx (uf_find sx sid) in
                              if cp.C.p_undef then sl.s_undef <- true;
                              if cp.C.p_seq then sl.s_seq <- true;
                              add_driver sx sid
                                { d_guard = guard; d_idx = idxs @ extra;
                                  d_vars = vars;
                                  d_loc = r.r_loc;
                                  d_desc =
                                    Printf.sprintf
                                      "instance %s : %s drives its port %s"
                                      r.r_path r.r_type pn;
                                  d_definite =
                                    dc = C.Always && r.r_used = L.Btrue;
                                  d_undef = cp.C.p_undef; d_srcs = [];
                                  d_dims = [] })
                            (pleaves ps []))
                  | _ -> ())
                r.r_ports;
              (* the child's internal combinational reachability *)
              List.iter
                (fun (pi, po) ->
                  match (port_ps r pi, port_ps r po) with
                  | Some psi, Some pso ->
                      List.iter
                        (fun (si, _) ->
                          List.iter
                            (fun (so, _) ->
                              add_edge sx ~src:si ~dst:so ~shift:(Some 0))
                            (pleaves pso []))
                        (pleaves psi [])
                  | _ -> ())
                c.C.c_reach)
    sx.insts;
  (* pending drives: an OUT/INOUT connection actual is driven only if
     the child's contract says the port can drive *)
  List.iter
    (fun p ->
      match Hashtbl.find_opt sx.insts p.p_inst with
      | None -> ()
      | Some r when r.r_used = L.Bfalse -> ()
      | Some r ->
          let info =
            if r.r_reg then
              if p.p_port = "out" then
                Some (C.Always, not r.r_reg_init)
              else None
            else
              match Hashtbl.find_opt child_contracts p.p_inst with
              | None -> None
              | Some c -> (
                  match C.port c p.p_port with
                  | Some cp when cp.C.p_drive <> C.Never ->
                      Some (cp.C.p_drive, cp.C.p_undef)
                  | _ -> None)
          in
          match info with
          | None -> ()
          | Some (dc, undef) ->
              let guard =
                match dc with
                | C.Always -> p.p_guard
                | _ ->
                    L.band
                      [ p.p_guard;
                        L.Bvar
                          (fresh_atom sx Aopq
                             (Printf.sprintf "%s drives its port %s" p.p_inst
                                p.p_port)) ]
              in
              let srcs =
                match port_ps r p.p_port with
                | Some ps -> List.map fst (pleaves ps [])
                | None -> []
              in
              add_driver sx p.p_target
                { d_guard = guard; d_idx = p.p_idx; d_vars = p.p_vars;
                  d_loc = p.p_loc;
                  d_desc =
                    Printf.sprintf "output %s of instance %s" p.p_port p.p_inst;
                  d_definite = p.p_definite && dc = C.Always; d_undef = undef;
                  d_srcs = srcs; d_dims = [] })
    sx.pendings

(* ------------------------------------------------------------------ *)
(* UNDEF / sequential-dependence fixpoint                               *)
(* ------------------------------------------------------------------ *)

(* returns the class-membership table, reused by the later passes *)
let flow_fixpoint sx =
  let members : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  Hashtbl.iter
    (fun id _ ->
      let r = uf_find sx id in
      Hashtbl.replace members r
        (id :: (try Hashtbl.find members r with Not_found -> [])))
    sx.slot_tbl;
  (* seeds: a class that is never driven and is not an IN/INOUT port
     (the parent drives those) can only ever read UNDEF; a driver whose
     rhs mentions an UNDEF literal taints its target *)
  Hashtbl.iter
    (fun root ms ->
      let rs = slot sx root in
      let ds = List.concat_map (fun id -> (slot sx id).s_drivers) ms in
      let is_port =
        List.exists
          (fun id ->
            match (slot sx id).s_port with
            | Some (_, (C.In | C.Inout)) -> true
            | _ -> false)
          ms
      in
      if (not is_port) && ds = [] then rs.s_undef <- true;
      if List.exists (fun d -> d.d_undef) ds then rs.s_undef <- true)
    members;
  let cedges =
    List.map (fun (a, b, _) -> (uf_find sx a, uf_find sx b)) sx.edges
  in
  let uedges =
    cedges @ List.map (fun (a, b) -> (uf_find sx a, uf_find sx b)) sx.undef_edges
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (a, b) ->
        let sa = slot sx a and sb = slot sx b in
        if sa.s_undef && not sb.s_undef then begin
          sb.s_undef <- true;
          changed := true
        end)
      uedges;
    List.iter
      (fun (a, b) ->
        let sa = slot sx a and sb = slot sx b in
        if sa.s_seq && not sb.s_seq then begin
          sb.s_seq <- true;
          changed := true
        end)
      cedges
  done;
  members

(* ------------------------------------------------------------------ *)
(* Modular drive-conflict pass (Z401 / Z402)                            *)
(* ------------------------------------------------------------------ *)

(* demote to opaque every atom whose assignment proves nothing: WHEN
   parameters, opaque reads, and reads of UNDEF-capable slots (in the
   four-valued algebra an UNDEF guard fires neither branch, so a 0/1
   witness over it is not realizable) *)
let demote sx (e : L.bexp) =
  let rec go = function
    | L.Btrue -> L.Btrue
    | L.Bfalse -> L.Bfalse
    | L.Bvar v -> (
        match Hashtbl.find_opt sx.atom_kinds v with
        | Some (Aport s) when not (slot sx (uf_find sx s)).s_undef -> L.Bvar v
        | _ -> L.Bopq v)
    | L.Bopq v -> L.Bopq v
    | L.Bnot e -> L.bnot (go e)
    | L.Band l -> L.band (List.map go l)
    | L.Bor l -> L.bor (List.map go l)
    | L.Bxor (a, b) -> L.bxor (go a) (go b)
  in
  go e

type overlap = Osame | Odisjoint | Ounknown

(* can two drives of the same class touch the same element?  Decided
   dimension-wise on the swept symbolic index ranges: a difference that
   is a negative constant — or proves negative under the interval
   evaluation — separates them for every parameter value. *)
let idx_overlap sx (d1 : driver) (d2 : driver) =
  if List.length d1.d_idx <> List.length d2.d_idx then Ounknown
  else begin
    let same = ref true and disj = ref false in
    List.iter2
      (fun i1 i2 ->
        let bounds d = function
          | Ipt l ->
              let lo, hi = sweep_range d.d_vars l in
              Some (lo, hi)
          | Irg (a, b) ->
              let lo, _ = sweep_range d.d_vars a
              and _, hi = sweep_range d.d_vars b in
              Some (lo, hi)
          | Idyn -> None
        in
        (match (i1, i2) with
        | Ipt a, Ipt b
          when d1.d_vars = [] && d2.d_vars = []
               && C.Lin.const_val (C.Lin.sub a b) = Some 0 ->
            ()
        | _ -> same := false);
        match (bounds d1 i1, bounds d2 i2) with
        | Some (l1, h1), Some (l2, h2) ->
            if
              lin_definitely_neg sx (C.Lin.sub h1 l2)
              || lin_definitely_neg sx (C.Lin.sub h2 l1)
            then disj := true
        | _ -> ())
      d1.d_idx d2.d_idx;
    if !disj then Odisjoint else if !same then Osame else Ounknown
  end

(* a driver under FOR variables may collide with its own other
   iterations, unless its index is injective in every variable *)
let self_overlap sx (d : driver) =
  if d.d_vars = [] then None
  else
    let multi =
      (* some variable definitely takes at least two values *)
      List.filter
        (fun (_, lo, hi) -> lin_definitely_neg sx (C.Lin.sub lo hi))
        d.d_vars
    in
    let injective (v, _, _) =
      List.exists
        (function
          | Ipt l ->
              C.Lin.coeff_of v l <> 0
              && List.for_all
                   (fun (v2, _, _) -> v2 = v || not (C.Lin.mentions v2 l))
                   d.d_vars
          | Irg _ | Idyn -> false)
        d.d_idx
    in
    let definitely_single (_, lo, hi) = C.Lin.const_val (C.Lin.sub hi lo) = Some 0 in
    let suspects =
      List.filter (fun v -> not (injective v || definitely_single v)) d.d_vars
    in
    if suspects = [] then None
    else if d.d_idx = [] && multi <> [] then Some Osame
    else Some Ounknown

let describe_witness sx asg =
  String.concat ", "
    (List.map
       (fun (v, b) ->
         let d =
           match Hashtbl.find_opt sx.atom_descs v with
           | Some d -> d
           | None -> Printf.sprintf "atom %d" v
         in
         Printf.sprintf "%s = %s" d (if b then "1" else "0"))
       asg)

(* returns true when every class was proved exclusive *)
let conflict_pass sx members =
  let all_safe = ref true in
  let splits = ref 0 in
  Hashtbl.iter
    (fun root ms ->
      let rs = slot sx root in
      let ds = List.concat_map (fun id -> (slot sx id).s_drivers) ms in
      let n = List.length ds in
      let in_port =
        List.exists
          (fun id ->
            match (slot sx id).s_port with
            | Some (_, C.In) -> true
            | _ -> false)
          ms
      in
      if ds <> [] && in_port then begin
        (* an internally-driven IN port can collide with the parent's
           actual, which this summary cannot see *)
        all_safe := false;
        let d = List.hd ds in
        finding sx ~sev:Diag.Warning ~code:Diag.Code.modular_unproven
          ~loc:d.d_loc
          "IN port '%s' of %s is driven inside the type; a conflict with the \
           instantiating parent cannot be excluded modularly"
          rs.s_path sx.s_tname
      end
      else if n >= 1 then begin
        let arr = Array.of_list ds in
        let class_safe = ref true and warned = ref false and erred = ref false in
        let cross_slot = List.length ms > 1 in
        let warn (d : driver) detail =
          if not !warned then begin
            warned := true;
            finding sx ~sev:Diag.Warning ~code:Diag.Code.modular_unproven
              ~loc:d.d_loc
              "drivers of '%s' in %s not proved exclusive (%s); deferring to \
               the elaborated check"
              rs.s_path sx.s_tname detail
          end
        in
        let prove (d1 : driver) (d2 : driver) ov =
          let f = L.band [ demote sx d1.d_guard; demote sx d2.d_guard ] in
          match L.solve ~budget:conflict_budget ~splits f with
          | L.Unsat -> ()
          | L.Budget_out ->
              class_safe := false;
              warn d1 "solver budget exhausted"
          | L.Sat asg ->
              class_safe := false;
              let free_witness =
                List.for_all
                  (fun (v, _) ->
                    match Hashtbl.find_opt sx.atom_kinds v with
                    | Some (Aport s) -> not (slot sx (uf_find sx s)).s_undef
                    | _ -> false)
                  asg
              in
              if
                ov = Osame && sx.s_concrete && d1.d_definite && d2.d_definite
                && free_witness
                && not !erred
              then begin
                erred := true;
                finding sx ~sev:Diag.Error ~code:Diag.Code.modular_conflict
                  ~loc:d1.d_loc
                  "drive conflict on '%s' in %s: %s and %s can fire together%s"
                  rs.s_path sx.s_tname d1.d_desc d2.d_desc
                  (if asg = [] then ""
                   else " when " ^ describe_witness sx asg)
              end
              else
                warn d1
                  (Printf.sprintf "%s vs %s" d1.d_desc d2.d_desc)
        in
        for i = 0 to n - 1 do
          for j = i to n - 1 do
            if i = j then (
              match self_overlap sx arr.(i) with
              | None -> ()
              | Some ov -> prove arr.(i) arr.(i) ov)
            else begin
              let ov =
                if rs.s_smeared then Ounknown
                else if cross_slot then
                  if
                    arr.(i).d_idx = [] && arr.(j).d_idx = []
                    && arr.(i).d_dims = [] && arr.(j).d_dims = []
                  then Osame
                  else Ounknown
                else idx_overlap sx arr.(i) arr.(j)
              in
              match ov with
              | Odisjoint -> ()
              | ov -> prove arr.(i) arr.(j) ov
            end
          done
        done;
        if not !class_safe then all_safe := false
      end)
    members;
  !all_safe

(* ------------------------------------------------------------------ *)
(* Type-level combinational-cycle pass (Z403)                           *)
(* ------------------------------------------------------------------ *)

(* Registers never contribute a combinational edge, so any cycle among
   the slot classes is a combinational loop — except pure systolic
   chains, whose every cycle has a nonzero index shift (c[i].in from
   c[i-1].out loops back to a *different* element). *)
let cycle_pass sx members =
  let edges =
    List.sort_uniq compare
      (List.filter_map
         (fun (a, b, sh) ->
           let a = uf_find sx a and b = uf_find sx b in
           Some (a, b, sh))
         sx.edges)
  in
  let adj : (int, (int * int option) list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a, b, sh) ->
      Hashtbl.replace adj a
        ((b, sh) :: (try Hashtbl.find adj a with Not_found -> [])))
    edges;
  let succs v = try Hashtbl.find adj v with Not_found -> [] in
  (* Tarjan's SCC *)
  let index = Hashtbl.create 16 and low = Hashtbl.create 16 in
  let on_stack = Hashtbl.create 16 in
  let stk = ref [] and counter = ref 0 and sccs = ref [] in
  let rec strong v =
    Hashtbl.replace index v !counter;
    Hashtbl.replace low v !counter;
    incr counter;
    stk := v :: !stk;
    Hashtbl.replace on_stack v ();
    List.iter
      (fun (w, _) ->
        if not (Hashtbl.mem index w) then begin
          strong w;
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find low w))
        end
        else if Hashtbl.mem on_stack w then
          Hashtbl.replace low v
            (min (Hashtbl.find low v) (Hashtbl.find index w)))
      (succs v);
    if Hashtbl.find low v = Hashtbl.find index v then begin
      let rec pop acc =
        match !stk with
        | w :: rest ->
            stk := rest;
            Hashtbl.remove on_stack w;
            if w = v then w :: acc else pop (w :: acc)
        | [] -> acc
      in
      sccs := pop [] :: !sccs
    end
  in
  Hashtbl.iter (fun a _ -> if not (Hashtbl.mem index a) then strong a) adj;
  List.iter
    (fun (_, b, _) -> if not (Hashtbl.mem index b) then strong b)
    edges;
  (* does an SCC contain a zero-shift cycle?  Bounded search in the
     (node, accumulated shift) product graph. *)
  let max_shift = 64 and max_states = 4096 in
  let zero_cycle scc =
    let inside = Hashtbl.create 8 in
    List.iter (fun v -> Hashtbl.replace inside v ()) scc;
    let in_edges v =
      List.filter (fun (w, _) -> Hashtbl.mem inside w) (succs v)
    in
    let cyclic = List.length scc > 1 || List.exists (fun (w, _) -> w = List.hd scc) (succs (List.hd scc)) in
    if not cyclic then false
    else if
      List.exists
        (fun v -> List.exists (fun (_, sh) -> sh = None) (in_edges v))
        scc
    then true (* an unlabelled edge: assume the worst *)
    else
      let found = ref false and states = ref 0 in
      let start = List.hd scc in
      let seen = Hashtbl.create 64 in
      let rec dfs v acc =
        if (not !found) && !states < max_states then
          List.iter
            (fun (w, sh) ->
              let sh = match sh with Some s -> s | None -> 0 in
              let acc' = acc + sh in
              if w = start && acc' = 0 then found := true
              else if abs acc' <= max_shift && not (Hashtbl.mem seen (w, acc'))
              then begin
                Hashtbl.replace seen (w, acc') ();
                incr states;
                dfs w acc'
              end)
            (in_edges v)
      in
      dfs start 0;
      !found || !states >= max_states
  in
  let cycle_free = ref true in
  List.iter
    (fun scc ->
      let self_loop v = List.exists (fun (w, _) -> w = v) (succs v) in
      let cyclic =
        match scc with [ v ] -> self_loop v | _ :: _ :: _ -> true | [] -> false
      in
      if cyclic && zero_cycle scc then begin
        cycle_free := false;
        let names =
          List.filteri (fun i _ -> i < 4) scc
          |> List.map (fun v -> "'" ^ (slot sx v).s_path ^ "'")
        in
        (* located at the earliest driver of the first slot on the
           cycle that has one *)
        let loc =
          List.find_map
            (fun v ->
              let ms = try Hashtbl.find members v with Not_found -> [ v ] in
              List.concat_map (fun id -> (slot sx id).s_drivers) ms
              |> List.map (fun d -> d.d_loc)
              |> List.sort (fun (a : Loc.t) (b : Loc.t) ->
                     compare a.Loc.start.Loc.offset b.Loc.start.Loc.offset)
              |> List.find_opt (fun l -> not (Loc.is_dummy l)))
            scc
          |> Option.value ~default:Loc.dummy
        in
        finding sx ~sev:Diag.Warning ~code:Diag.Code.modular_cycle ~loc
          "combinational cycle in %s through %s%s — registers are the only \
           cycle breakers"
          sx.s_tname
          (String.concat ", " names)
          (if List.length scc > 4 then
             Printf.sprintf " (and %d more)" (List.length scc - 4)
           else "")
      end)
    !sccs;
  !cycle_free

(* ------------------------------------------------------------------ *)
(* Contract assembly                                                    *)
(* ------------------------------------------------------------------ *)

let assemble sx ~sigs ~placed ~members ~conflict_safe ~cycle_free : C.t =
  let drivers_of_class root =
    let ms = try Hashtbl.find members root with Not_found -> [ root ] in
    List.concat_map (fun id -> (slot sx id).s_drivers) ms
  in
  (* does one driver write the slot's every element? *)
  let covers_full (d : driver) =
    List.length d.d_idx = List.length d.d_dims
    && List.for_all2
         (fun i (lo, hi) ->
           match i with
           | Irg (a, b) -> C.Lin.equal a lo && C.Lin.equal b hi
           | Ipt _ | Idyn -> false)
         d.d_idx d.d_dims
  in
  let class_always root =
    let ds = drivers_of_class root in
    List.exists
      (fun d -> d.d_guard = L.Btrue && d.d_definite && covers_full d)
      ds
    ||
    let cov =
      List.filter_map
        (fun d ->
          if covers_full d && d.d_definite then Some d.d_guard else None)
        ds
    in
    cov <> []
    &&
    match L.solve ~budget:256 ~splits:(ref 0) (L.bnot (L.bor cov)) with
    | L.Unsat -> true (* the covering guards form a tautology *)
    | _ -> false
  in
  let ports =
    List.map
      (fun (pn, m, ps) ->
        let ls = pleaves ps [] in
        let roots =
          List.sort_uniq compare (List.map (fun (s, _) -> uf_find sx s) ls)
        in
        let ds = List.concat_map drivers_of_class roots in
        let drive =
          if ds = [] then C.Never
          else if roots <> [] && List.for_all class_always roots then C.Always
          else begin
            let sup = ref [] in
            let add s = if not (List.mem s !sup) then sup := s :: !sup in
            List.iter
              (fun (d : driver) ->
                ignore
                  (L.exists_var
                     (fun v _ ->
                       (match Hashtbl.find_opt sx.atom_kinds v with
                       | Some (Aport sid) -> (
                           let r = uf_find sx sid in
                           let ms =
                             try Hashtbl.find members r with Not_found -> [ r ]
                           in
                           match
                             List.find_map
                               (fun id ->
                                 match (slot sx id).s_port with
                                 | Some (n, (C.In | C.Inout)) -> Some n
                                 | _ -> None)
                               ms
                           with
                           | Some n -> add n
                           | None -> add "<internal>")
                       | Some Aparam -> add "<param>"
                       | _ -> add "<opaque>");
                       false)
                     d.d_guard))
              ds;
            C.Cond (List.sort compare !sup)
          end
        in
        let undef =
          List.exists (fun (s, _) -> (slot sx (uf_find sx s)).s_undef) ls
        in
        let seq =
          List.exists (fun (s, _) -> (slot sx (uf_find sx s)).s_seq) ls
        in
        { C.p_name = pn; p_mode = m; p_drive = drive; p_undef = undef;
          p_seq = seq })
      placed
  in
  (* class-level combinational reachability, in-ports to out-ports *)
  let cadj : (int, int list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (a, b, _) ->
      let a = uf_find sx a and b = uf_find sx b in
      Hashtbl.replace cadj a
        (b :: (try Hashtbl.find cadj a with Not_found -> [])))
    sx.edges;
  let classes_of ps =
    List.sort_uniq compare (List.map (fun (s, _) -> uf_find sx s) (pleaves ps []))
  in
  let reach_from roots =
    let seen = Hashtbl.create 16 in
    let rec go v =
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v ();
        List.iter go (try Hashtbl.find cadj v with Not_found -> [])
      end
    in
    List.iter go roots;
    seen
  in
  let reach =
    List.concat_map
      (fun (pi, mi, psi) ->
        if mi = C.Out then []
        else
          let seen = reach_from (classes_of psi) in
          List.filter_map
            (fun (po, mo, pso) ->
              if po = pi || mo = C.In then None
              else if List.exists (Hashtbl.mem seen) (classes_of pso) then
                Some (pi, po)
              else None)
            placed)
      placed
  in
  { C.c_type = sx.s_tname; c_params = sigs; c_ports = ports;
    c_reach = List.sort_uniq compare reach; c_conflict_safe = conflict_safe;
    c_cycle_free = cycle_free; c_fallback = List.sort compare sx.s_fallbacks }

(* ------------------------------------------------------------------ *)
(* The memoized, cached, fixpointed summarization driver                *)
(* ------------------------------------------------------------------ *)

let note_fallbacks g name reasons =
  List.iter
    (fun reason ->
      if not (List.mem (name, reason) !(g.g_fallbacks)) then
        g.g_fallbacks := (name, reason) :: !(g.g_fallbacks))
    reasons

(* record a finished (or cached, or capped) summary against the
   name-keyed proof tables: one unsafe signature disproves the type *)
let note_result g name (c : C.t) =
  let upd tbl ok =
    let prev = try Hashtbl.find tbl name with Not_found -> true in
    Hashtbl.replace tbl name (prev && ok)
  in
  upd g.proven_conflict (c.C.c_conflict_safe && c.C.c_fallback = []);
  upd g.proven_cycle (c.C.c_cycle_free && c.C.c_fallback = []);
  note_fallbacks g name c.C.c_fallback;
  g.contracts_acc <- (name, c) :: g.contracts_acc

let rec summarize (g : gctx) (h : comp) : C.t =
  let probe = mk_sctx g ~tname:h.h_name ~key:"?" ~shown:"?" ~concrete:false in
  let sigs = sig_of_args probe h.h_args in
  let key = summarize_key h sigs in
  let ports = List.map (fun (pn, m, _) -> (pn, m)) h.h_ports in
  match Hashtbl.find_opt g.memo key with
  | Some (Edone c) -> c
  | Some (Ework r) ->
      (* a recursive use: consume the current iterate *)
      g.pending_deps <- key :: g.pending_deps;
      !r
  | None -> (
      Hashtbl.replace g.types_seen h.h_name ();
      if List.length g.stack >= max_stack_depth || g.summaries >= max_summaries
      then begin
        let reason =
          if List.length g.stack >= max_stack_depth then
            "recursion depth exceeded"
          else "summary budget exceeded"
        in
        let c = C.top ~type_name:h.h_name ~params:sigs ~ports ~reason in
        g.g_findings <-
          { Diag.severity = Diag.Warning; kind = Diag.Lint_error;
            code = Some Diag.Code.modular_recursion; loc = Loc.dummy;
            message =
              Printf.sprintf
                "summarizing %s(%s): %s — the parameter recursion may not \
                 be well-founded; falling back to elaboration"
                h.h_name sigs reason }
          :: g.g_findings;
        note_result g h.h_name c;
        c
      end
      else
        let r = ref (C.bottom ~type_name:h.h_name ~params:sigs ~ports) in
        Hashtbl.replace g.memo key (Ework r);
        g.stack <- key :: g.stack;
        let saved = g.pending_deps in
        let concrete =
          List.for_all
            (fun (a : aval) ->
              C.singleton (iv_of_lin probe a.av_lin) <> None)
            h.h_args
        in
        let finish = ref None in
        let iters = ref 0 in
        (try
           while !finish = None do
             incr iters;
             g.pending_deps <- [];
             let c, findings, fbs = summarize_once g h key sigs concrete in
             let deps = g.pending_deps in
             if not (List.mem key deps) then
               finish := Some (c, findings, fbs, deps)
             else if c = !r then finish := Some (c, findings, fbs, deps)
             else if !iters >= max_fixpoint_iters then begin
               let reason = "summary fixpoint did not converge" in
               let c = C.top ~type_name:h.h_name ~params:sigs ~ports ~reason in
               finish := Some (c, findings, reason :: fbs, deps)
             end
             else r := c
           done
         with e ->
           g.stack <- List.tl g.stack;
           g.pending_deps <- saved;
           Hashtbl.remove g.memo key;
           raise e);
        g.stack <- List.tl g.stack;
        g.summaries <- g.summaries + 1;
        let c, findings, fbs, deps = Option.get !finish in
        let residual = List.filter (fun k -> k <> key) deps in
        g.pending_deps <- residual @ saved;
        note_fallbacks g h.h_name fbs;
        if residual = [] then begin
          Hashtbl.replace g.memo key (Edone c);
          g.g_findings <- List.rev findings @ g.g_findings;
          note_result g h.h_name c
        end
        else
          (* this summary consumed the iterate of a summarization
             still in progress elsewhere on the stack: it is
             provisional, and the enclosing fixpoint recomputes it *)
          Hashtbl.remove g.memo key;
        c)

and summarize_once g (h : comp) key sigs concrete :
    C.t * Diag.t list * string list =
  let shown = if sigs = "" then h.h_name else h.h_name ^ "(" ^ sigs ^ ")" in
  let sx = mk_sctx g ~tname:h.h_name ~key ~shown ~concrete in
  try
    (* the signature's intervals become refinable terms for the formals *)
    let env =
      List.fold_left2
        (fun env f (a : aval) ->
          let iv = iv_of_lin sx a.av_lin in
          match C.singleton iv with
          | Some n ->
              bind env f (Vnum { av_lin = C.Lin.const n; av_iv = C.iconst n })
          | None ->
              let t =
                new_term sx
                  (Printf.sprintf "formal:%s:%s" key f)
                  (Tbase (ref iv))
              in
              bind env f (Vnum { av_lin = C.Lin.term t; av_iv = iv }))
        h.h_env h.h_formals h.h_args
    in
    (* re-resolve the ports in this environment, so their dimension
       expressions mention this summarization's formal terms *)
    let port_shapes =
      List.concat_map
        (fun (p : Ast.fparam) ->
          let m = mode_of_ast p.Ast.fmode in
          let sh = resolve_ty sx env 0 p.Ast.fty in
          List.map (fun (n : Ast.ident) -> (n.Ast.id, m, sh)) p.Ast.fnames)
        h.h_ast.Ast.cparams
    in
    let port_shapes =
      match h.h_ast.Ast.cresult with
      | Some rty -> port_shapes @ [ ("$result", C.Out, resolve_ty sx env 0 rty) ]
      | None -> port_shapes
    in
    let placed =
      List.map
        (fun (pn, m, sh) ->
          (pn, m, place sx ~path:pn ~dims:[] ~port:(Some (pn, m)) sh))
        port_shapes
    in
    let env =
      List.fold_left (fun env (pn, _, ps) -> bind env pn (Vsig ps)) env placed
    in
    (match h.h_ast.Ast.cbody with
    | None -> ()
    | Some body ->
        let env = process_decls sx env body.Ast.bdecls in
        walk sx env ~guard:L.Btrue body.Ast.bstmts);
    compose sx (summarize g);
    let members = flow_fixpoint sx in
    let conflict_safe = conflict_pass sx members in
    let cycle_free = cycle_pass sx members in
    let c = assemble sx ~sigs ~placed ~members ~conflict_safe ~cycle_free in
    (c, List.rev sx.s_findings, sx.s_fallbacks)
  with Fallback reason ->
    let ports = List.map (fun (pn, m, _) -> (pn, m)) h.h_ports in
    ( C.top ~type_name:h.h_name ~params:sigs ~ports ~reason,
      List.rev sx.s_findings,
      reason :: sx.s_fallbacks )

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

type result = {
  contracts : (string * Contract.t) list;
  findings : Diag.t list;
  proven_conflict_safe : string list;
  proven_cycle_free : string list;
  fallbacks : (string * string) list;
  types_analyzed : int;
  summaries_computed : int;
}

let analyze ?(symbolic = true) (prog : Ast.program) : result =
  let g =
    { terms = Hashtbl.create 64; term_defs = Hashtbl.create 64; n_terms = 0;
      memo = Hashtbl.create 16; stack = []; pending_deps = [];
      g_findings = []; summaries = 0; contracts_acc = [];
      types_seen = Hashtbl.create 16; proven_conflict = Hashtbl.create 16;
      proven_cycle = Hashtbl.create 16; g_fallbacks = ref []; symbolic }
  in
  let root = mk_sctx g ~tname:"<top>" ~key:"" ~shown:"" ~concrete:true in
  let env = process_decls root { vals = [] } prog in
  (* the concrete pass: every top-level SIGNAL of component type
     exists, so its summary (at its concrete signature) is demanded *)
  Hashtbl.iter
    (fun _ (r : iref) -> if not r.r_reg then use_inst root L.Btrue r)
    root.insts;
  compose root (summarize g);
  (* the symbolic pass: each named component type at the fully
     unconstrained signature, proving its checks for all parameters *)
  if symbolic then
    List.iter
      (fun (d : Ast.decl) ->
        match d with
        | Ast.Dtype defs ->
            List.iter
              (fun (td : Ast.type_def) ->
                match td.Ast.tty with
                | Ast.Tcomponent (c, loc)
                  when c.Ast.cbody <> None || c.Ast.cresult <> None -> (
                    try
                      match lookup env td.Ast.tname.Ast.id with
                      | Some (Vtype tdb) ->
                          let formals =
                            List.map
                              (fun (f : Ast.ident) -> f.Ast.id)
                              td.Ast.tformals
                          in
                          let args =
                            List.map
                              (fun f ->
                                let t =
                                  new_term root
                                    (Printf.sprintf "formal:top:%s:%s"
                                       td.Ast.tname.Ast.id f)
                                    (Tbase (ref C.itop))
                                in
                                { av_lin = C.Lin.term t; av_iv = C.itop })
                              formals
                          in
                          let env' =
                            List.fold_left2
                              (fun e f a -> bind e f (Vnum a))
                              tdb.td_env formals args
                          in
                          (match
                             resolve_component root env' 0
                               ~name:td.Ast.tname.Ast.id ~scope:tdb.td_scope
                               ~formals ~args c loc
                           with
                          | Hcomp h -> ignore (summarize g h)
                          | _ -> ())
                      | _ -> ()
                    with Fallback reason ->
                      note_fallbacks g td.Ast.tname.Ast.id [ reason ])
                | _ -> ())
              defs
        | _ -> ())
      prog;
  let proven tbl =
    Hashtbl.fold (fun n ok acc -> if ok then n :: acc else acc) tbl []
    |> List.sort compare
  in
  let dedup ds =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun (d : Diag.t) ->
        let k = (d.Diag.code, d.Diag.loc, d.Diag.message) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.replace seen k ();
          true
        end)
      ds
  in
  {
    contracts = List.rev g.contracts_acc;
    findings = dedup (List.rev g.g_findings @ List.rev root.s_findings);
    proven_conflict_safe = proven g.proven_conflict;
    proven_cycle_free = proven g.proven_cycle;
    fallbacks = List.rev !(g.g_fallbacks);
    types_analyzed = Hashtbl.length g.types_seen;
    summaries_computed = g.summaries;
  }

let summary_line (r : result) =
  Printf.sprintf
    "%d component type(s), %d summar%s computed; conflict-safe: %s; \
     cycle-free: %s%s"
    r.types_analyzed r.summaries_computed
    (if r.summaries_computed = 1 then "y" else "ies")
    (if r.proven_conflict_safe = [] then "none"
     else String.concat " " r.proven_conflict_safe)
    (if r.proven_cycle_free = [] then "none"
     else String.concat " " r.proven_cycle_free)
    (if r.fallbacks = [] then ""
     else Printf.sprintf "; %d fallback(s)" (List.length r.fallbacks))
