(* Port contracts for the modular summary analysis (Summary).

   A contract is everything a parent needs to know about a component
   type in order to analyse its own body without elaborating the
   child: per-port drive class (never / always / conditionally, with
   the guard's support set), UNDEF-capability, sequential dependence
   (the port's value flows through a register) and the internal
   combinational port-to-port reachability relation.

   The module also hosts the two abstract domains the analysis runs
   over:

   - [ival], an interval/small-set abstraction of the integer values a
     generic parameter (or FOR variable, or constant expression) can
     take.  Small sets keep recursive parameter chains like
     16 -> 8 -> 4 -> 2 exact; widening falls back to intervals.
   - [Lin], linear expressions over opaque terms (formals, FOR
     variables, hash-consed non-affine subexpressions such as
     [n DIV 2]).  Symbolic differences of Lins decide array-index
     disjointness questions like [output[i]] vs [output[i + n DIV 2]]
     for *every* parameter value, which plain intervals cannot. *)

(* ------------------------------------------------------------------ *)
(* Interval / small-set abstraction of parameter values                 *)
(* ------------------------------------------------------------------ *)

(* how many concrete values a set may hold before widening to a range *)
let max_set = 16

type ival =
  | Iempty
  | Iset of int list (* sorted, distinct, length <= max_set *)
  | Irange of int option * int option (* inclusive; None = unbounded *)

let itop = Irange (None, None)
let iconst n = Iset [ n ]
let of_list l = Iset (List.sort_uniq compare l)
let is_empty = function Iempty -> true | _ -> false

let lo_of = function
  | Iempty -> None
  | Iset (x :: _) -> Some x
  | Iset [] -> None
  | Irange (lo, _) -> lo

let hi_of = function
  | Iempty -> None
  | Iset l -> ( match List.rev l with x :: _ -> Some x | [] -> None)
  | Irange (_, hi) -> hi

let singleton = function Iset [ n ] -> Some n | _ -> None

let range lo hi =
  match (lo, hi) with
  | Some a, Some b when a > b -> Iempty
  | Some a, Some b when b - a < max_set ->
      Iset (List.init (b - a + 1) (fun i -> a + i))
  | lo, hi -> Irange (lo, hi)

let mem n = function
  | Iempty -> false
  | Iset l -> List.mem n l
  | Irange (lo, hi) ->
      (match lo with None -> true | Some a -> n >= a)
      && match hi with None -> true | Some b -> n <= b

let to_range = function
  | Iempty -> Iempty
  | Iset _ as s -> Irange (lo_of s, hi_of s)
  | r -> r

let join a b =
  match (a, b) with
  | Iempty, x | x, Iempty -> x
  | Iset xa, Iset xb ->
      let u = List.sort_uniq compare (xa @ xb) in
      if List.length u <= max_set then Iset u
      else
        range
          (match u with x :: _ -> Some x | [] -> None)
          (match List.rev u with x :: _ -> Some x | [] -> None)
  | a, b ->
      let a = to_range a and b = to_range b in
      let min_opt x y =
        match (x, y) with Some x, Some y -> Some (min x y) | _ -> None
      in
      let max_opt x y =
        match (x, y) with Some x, Some y -> Some (max x y) | _ -> None
      in
      Irange
        ( min_opt (lo_of a) (lo_of b),
          max_opt (hi_of a) (hi_of b) )

let equal_ival (a : ival) (b : ival) = a = b

(* pointwise lift of a total binary operation; ranges go through
   endpoint analysis for the monotone cases and widen otherwise *)
let lift2 f a b =
  match (a, b) with
  | Iempty, _ | _, Iempty -> Iempty
  | Iset xa, Iset xb when List.length xa * List.length xb <= 64 ->
      of_list (List.concat_map (fun x -> List.map (f x) xb) xa)
  | a, b -> (
      (* endpoint evaluation: sound for monotone f in each argument;
         callers that are not monotone must not use lift2 *)
      let cands =
        [ (lo_of a, lo_of b); (lo_of a, hi_of b); (hi_of a, lo_of b);
          (hi_of a, hi_of b) ]
      in
      let vals =
        List.filter_map
          (function Some x, Some y -> Some (f x y) | _ -> None)
          cands
      in
      match vals with
      | [] -> itop
      | vs ->
          let lo = List.fold_left min (List.hd vs) vs
          and hi = List.fold_left max (List.hd vs) vs in
          let lo = if lo_of a = None || lo_of b = None then None else Some lo
          and hi = if hi_of a = None || hi_of b = None then None else Some hi in
          (* unbounded inputs may widen either end depending on sign;
             be conservative: any unbounded operand unbounds both ends
             unless both operands are bounded *)
          if lo = None || hi = None then Irange (None, None)
          else range lo hi)

let iadd = lift2 ( + )
let isub a b = lift2 ( + ) a (lift2 (fun _ y -> -y) (iconst 0) b)
let ineg v = isub (iconst 0) v

let imul a b =
  match (singleton a, singleton b) with
  | Some 0, _ | _, Some 0 -> iconst 0
  | _ -> lift2 ( * ) a b

(* OCaml division truncates toward zero, matching Const_eval *)
let idiv a b =
  match b with
  | Iset l when List.mem 0 l -> itop (* division by zero aborts; stay sound *)
  | Iempty -> Iempty
  | _ when mem 0 b -> itop
  | _ -> lift2 (fun x y -> if y = 0 then 0 else x / y) a b

let imod a b =
  if is_empty a || is_empty b then Iempty
  else if mem 0 b then itop
  else
    match (singleton a, singleton b) with
    | Some x, Some y when y <> 0 -> iconst (x mod y)
    | _ -> (
        match hi_of b with
        | Some m when m > 0 -> range (Some (-(m - 1))) (Some (m - 1))
        | _ -> itop)

(* three-valued comparison *)
type truth = True | False | Unknown

let tnot = function True -> False | False -> True | Unknown -> Unknown

let cmp_lt a b =
  match (hi_of a, lo_of b) with
  | Some ha, Some lb when ha < lb -> True
  | _ -> (
      match (lo_of a, hi_of b) with
      | Some la, Some hb when la >= hb -> False
      | _ -> Unknown)

let cmp_le a b =
  match (hi_of a, lo_of b) with
  | Some ha, Some lb when ha <= lb -> True
  | _ -> (
      match (lo_of a, hi_of b) with
      | Some la, Some hb when la > hb -> False
      | _ -> Unknown)

let cmp_eq a b =
  match (singleton a, singleton b) with
  | Some x, Some y -> if x = y then True else False
  | _ ->
      if is_empty a || is_empty b then Unknown
      else if cmp_lt a b = True || cmp_lt b a = True then False
      else Unknown

(* refine [v] by [v <rel> w]; sound: result over-approximates the
   concrete values of v satisfying the relation *)
let refine_lt v w =
  match hi_of w with
  | None -> v
  | Some hw -> (
      match v with
      | Iset l -> of_list (List.filter (fun x -> x < hw) l)
      | _ -> (
          let cap = hw - 1 in
          match hi_of v with
          | Some hv when hv <= cap -> v
          | _ -> range (lo_of v) (Some cap)))

let refine_le v w =
  match hi_of w with
  | None -> v
  | Some hw -> (
      match v with
      | Iset l -> of_list (List.filter (fun x -> x <= hw) l)
      | _ -> (
          match hi_of v with
          | Some hv when hv <= hw -> v
          | _ -> range (lo_of v) (Some hw)))

let refine_gt v w =
  match lo_of w with
  | None -> v
  | Some lw -> (
      match v with
      | Iset l -> of_list (List.filter (fun x -> x > lw) l)
      | _ -> (
          let floor = lw + 1 in
          match lo_of v with
          | Some lv when lv >= floor -> v
          | _ -> range (Some floor) (hi_of v)))

let refine_ge v w =
  match lo_of w with
  | None -> v
  | Some lw -> (
      match v with
      | Iset l -> of_list (List.filter (fun x -> x >= lw) l)
      | _ -> (
          match lo_of v with
          | Some lv when lv >= lw -> v
          | _ -> range (Some lw) (hi_of v)))

let refine_eq v w =
  match singleton w with
  | Some n -> if mem n v then iconst n else Iempty
  | None -> refine_le (refine_ge v w) w

let refine_ne v w =
  match (v, singleton w) with
  | Iset l, Some n -> of_list (List.filter (fun x -> x <> n) l)
  | Irange (Some a, hi), Some n when n = a -> range (Some (a + 1)) hi
  | Irange (lo, Some b), Some n when n = b -> range lo (Some (b - 1))
  | v, _ -> v

let ival_to_string = function
  | Iempty -> "{}"
  | Iset [ n ] -> string_of_int n
  | Iset l -> "{" ^ String.concat "," (List.map string_of_int l) ^ "}"
  | Irange (None, None) -> "any"
  | Irange (lo, hi) ->
      let b = function None -> "" | Some n -> string_of_int n in
      "[" ^ b lo ^ ".." ^ b hi ^ "]"

(* ------------------------------------------------------------------ *)
(* Linear expressions over opaque terms                                 *)
(* ------------------------------------------------------------------ *)

module Lin = struct
  (* k + sum (coeff * term); terms sorted by id, coeffs nonzero *)
  type t = { k : int; terms : (int * int) list }

  let const k = { k; terms = [] }
  let term ?(coeff = 1) id = { k = 0; terms = (if coeff = 0 then [] else [ (id, coeff) ]) }

  let rec merge a b =
    match (a, b) with
    | [], l | l, [] -> l
    | (ia, ca) :: ra, (ib, cb) :: rb ->
        if ia < ib then (ia, ca) :: merge ra b
        else if ib < ia then (ib, cb) :: merge a rb
        else
          let c = ca + cb in
          if c = 0 then merge ra rb else (ia, c) :: merge ra rb

  let add a b = { k = a.k + b.k; terms = merge a.terms b.terms }

  let scale s a =
    if s = 0 then const 0
    else { k = s * a.k; terms = List.map (fun (i, c) -> (i, s * c)) a.terms }

  let sub a b = add a (scale (-1) b)
  let is_const a = a.terms = []
  let const_val a = if is_const a then Some a.k else None
  let equal a b = a = b

  (* variables (term ids) occurring in the expression *)
  let vars a = List.map fst a.terms
  let coeff_of id a = try List.assoc id a.terms with Not_found -> 0
  let mentions id a = coeff_of id a <> 0

  let to_key a =
    String.concat "+"
      (string_of_int a.k
      :: List.map (fun (i, c) -> Printf.sprintf "%d*t%d" c i) a.terms)
end

(* ------------------------------------------------------------------ *)
(* The contract proper                                                  *)
(* ------------------------------------------------------------------ *)

type mode = In | Out | Inout

let mode_to_string = function In -> "IN" | Out -> "OUT" | Inout -> "INOUT"

type drive_class =
  | Never (* the type itself puts no driver on this port *)
  | Always (* at least one unconditional whole-port driver *)
  | Cond of string list (* conditional; support set of the guards *)

let drive_class_to_string = function
  | Never -> "never-drives"
  | Always -> "always-drives"
  | Cond [] -> "cond-drives"
  | Cond s -> "cond-drives{" ^ String.concat "," s ^ "}"

type port = {
  p_name : string;
  p_mode : mode;
  p_drive : drive_class;
  p_undef : bool; (* the port can carry UNDEF (or a high-Z gap) *)
  p_seq : bool; (* the port's value flows through a register *)
}

type t = {
  c_type : string; (* component type name *)
  c_params : string; (* canonical parameter signature, printable *)
  c_ports : port list;
  c_reach : (string * string) list;
      (* internal combinational reachability: (in-port, out-port) *)
  c_conflict_safe : bool; (* every internal drive target proved exclusive *)
  c_cycle_free : bool; (* no type-level combinational cycle found *)
  c_fallback : string list; (* reasons the summary is too coarse *)
}

let port c name = List.find_opt (fun p -> p.p_name = name) c.c_ports

(* the starting iterate of the recursive fixpoint: the bottom of the
   lattice — claims nothing drives, nothing reaches, everything fine;
   iteration only ever grows it *)
let bottom ~type_name ~params ~ports =
  {
    c_type = type_name;
    c_params = params;
    c_ports =
      List.map
        (fun (name, mode) ->
          { p_name = name; p_mode = mode; p_drive = Never; p_undef = false;
            p_seq = false })
        ports;
    c_reach = [];
    c_conflict_safe = true;
    c_cycle_free = true;
    c_fallback = [];
  }

(* the top: claims nothing is known — used when iteration diverges *)
let top ~type_name ~params ~ports ~reason =
  {
    c_type = type_name;
    c_params = params;
    c_ports =
      List.map
        (fun (name, mode) ->
          { p_name = name; p_mode = mode; p_drive = Cond []; p_undef = true;
            p_seq = true })
        ports;
    c_reach =
      List.concat_map
        (fun (i, mi) ->
          match mi with
          | Out -> []
          | In | Inout ->
              List.filter_map
                (fun (o, mo) ->
                  match mo with Out | Inout -> Some (i, o) | In -> None)
                ports)
        ports;
    c_conflict_safe = false;
    c_cycle_free = false;
    c_fallback = [ reason ];
  }

let pp ppf c =
  Fmt.pf ppf "@[<v2>%s(%s):%s%s@ %a@ reach: %s@]" c.c_type
    (if c.c_params = "" then "-" else c.c_params)
    (if c.c_conflict_safe then " conflict-safe" else "")
    (if c.c_cycle_free then " cycle-free" else "")
    (Fmt.list ~sep:Fmt.sp (fun ppf p ->
         Fmt.pf ppf "%s %s: %s%s%s" (mode_to_string p.p_mode) p.p_name
           (drive_class_to_string p.p_drive)
           (if p.p_undef then " undef" else "")
           (if p.p_seq then " seq" else "")))
    c.c_ports
    (String.concat " "
       (List.map (fun (a, b) -> a ^ "->" ^ b) c.c_reach))
