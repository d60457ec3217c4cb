(* Evaluation of Modula-2-style constant expressions (section 3.1) and of
   signal constant expressions.

   Lookup of identifiers is delegated to the caller through [lookup] so
   that the elaborator can resolve FOR variables, type formals and
   declared constants with its own scoping rules. *)

open Zeus_base
open Zeus_lang

exception Error of Loc.t * string

let error loc fmt = Fmt.kstr (fun msg -> raise (Error (loc, msg))) fmt

type lookup = Ast.ident -> Cval.t option

(* The predefined functions for constant expressions (section 7):
   min, max, odd. *)
let predefined name args loc =
  match (name, args) with
  | "min", (_ :: _ as xs) -> Some (List.fold_left min max_int xs)
  | "max", (_ :: _ as xs) -> Some (List.fold_left max min_int xs)
  | "odd", [ x ] -> Some (if x land 1 = 1 then 1 else 0)
  | ("min" | "max" | "odd"), _ ->
      error loc "wrong number of arguments to %s" name
  | _ -> None

let rec eval_int (lookup : lookup) (e : Ast.const_expr) : int =
  match e with
  | Ast.Cnum (n, _) -> n
  | Ast.Cref (id, []) -> (
      match lookup id with
      | Some (Cval.Vint n) -> n
      | Some (Cval.Vsig _) ->
          error id.Ast.id_loc "'%s' is a signal constant, not a number"
            id.Ast.id
      | None -> (
          (* a predefined function used without arguments is a name error *)
          match predefined id.Ast.id [] id.Ast.id_loc with
          | Some _ | None ->
              error id.Ast.id_loc "undeclared constant '%s'" id.Ast.id))
  | Ast.Cref (id, args) -> (
      let vals = List.map (eval_int lookup) args in
      match predefined id.Ast.id vals id.Ast.id_loc with
      | Some v -> v
      | None -> error id.Ast.id_loc "unknown constant function '%s'" id.Ast.id)
  | Ast.Cbin (op, a, b) -> (
      let va = eval_int lookup a and vb = eval_int lookup b in
      let overflow sym =
        error (Ast.const_expr_loc e) "integer overflow in %d %s %d" va sym vb
      in
      match op with
      | Ast.Cadd ->
          let r = va + vb in
          (* the sum wrapped iff both operands differ in sign from it *)
          if (va lxor r) land (vb lxor r) < 0 then overflow "+" else r
      | Ast.Csub ->
          let r = va - vb in
          if (va lxor vb) land (va lxor r) < 0 then overflow "-" else r
      | Ast.Cmul ->
          let r = va * vb in
          (* [min_int / -1] wraps too, so that one case is named *)
          if va <> 0 && (r / va <> vb || (va = -1 && vb = min_int)) then
            overflow "*"
          else r
      | Ast.Cdiv ->
          if vb = 0 then error (Ast.const_expr_loc e) "division by zero"
          else if va = min_int && vb = -1 then overflow "DIV"
          else va / vb
      | Ast.Cmod ->
          if vb = 0 then error (Ast.const_expr_loc e) "modulo by zero"
          else va mod vb
      (* AND/OR combine the 0/1 truth values of relations *)
      | Ast.Cand -> if va <> 0 && vb <> 0 then 1 else 0
      | Ast.Cor -> if va <> 0 || vb <> 0 then 1 else 0)
  | Ast.Cun (op, a) -> (
      let va = eval_int lookup a in
      match op with
      | Ast.Cneg ->
          if va = min_int then
            error (Ast.const_expr_loc e) "integer overflow in -(%d)" va
          else -va
      | Ast.Cpos -> va
      | Ast.Cnot -> if va = 0 then 1 else 0)
  | Ast.Crel (rel, a, b) ->
      let va = eval_int lookup a and vb = eval_int lookup b in
      let r =
        match rel with
        | Ast.Ceq -> va = vb
        | Ast.Cneq -> va <> vb
        | Ast.Clt -> va < vb
        | Ast.Cle -> va <= vb
        | Ast.Cgt -> va > vb
        | Ast.Cge -> va >= vb
      in
      if r then 1 else 0

(* WHEN conditions: non-zero is true. *)
let eval_bool lookup e = eval_int lookup e <> 0

let rec eval_sig_const (lookup : lookup) (sc : Ast.sig_const) : Cval.sctree =
  match sc with
  | Ast.Sc_value (0, _) -> Cval.Leaf Logic.Zero
  | Ast.Sc_value (1, _) -> Cval.Leaf Logic.One
  | Ast.Sc_value (n, loc) -> error loc "illegal signal value %d" n
  | Ast.Sc_ref id -> (
      match id.Ast.id with
      | "UNDEF" -> Cval.Leaf Logic.Undef
      | "NOINFL" -> Cval.Leaf Logic.Noinfl
      | _ -> (
          match lookup id with
          | Some (Cval.Vsig t) -> t
          | Some (Cval.Vint (0 | 1 as n)) ->
              Cval.Leaf (Logic.of_bool (n = 1))
          | Some (Cval.Vint n) ->
              error id.Ast.id_loc
                "numeric constant %d cannot be used as a signal value" n
          | None ->
              error id.Ast.id_loc "undeclared signal constant '%s'" id.Ast.id))
  | Ast.Sc_bin (a, b, loc) ->
      let va = eval_int lookup a and vb = eval_int lookup b in
      if vb <= 0 then error loc "BIN width must be positive, got %d" vb
      else Cval.bin va vb
  | Ast.Sc_tuple (elems, _) ->
      Cval.Tuple (List.map (eval_sig_const lookup) elems)

let eval_constant lookup = function
  | Ast.Knum e -> Cval.Vint (eval_int lookup e)
  | Ast.Ksig sc -> Cval.Vsig (eval_sig_const lookup sc)
