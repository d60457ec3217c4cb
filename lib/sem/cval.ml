(* Constant values: numeric constants and signal constants (section 3.1).

   Signal constants are nested tuples over the four logic values; their
   shape is structural only — a tuple is compatible with any signal of the
   same basic-substructure count. *)

open Zeus_base

type sctree =
  | Leaf of Logic.t
  | Tuple of sctree list

type t =
  | Vint of int
  | Vsig of sctree

let rec sctree_width = function
  | Leaf _ -> 1
  | Tuple ts -> List.fold_left (fun acc t -> acc + sctree_width t) 0 ts

let rec sctree_leaves = function
  | Leaf v -> [ v ]
  | Tuple ts -> List.concat_map sctree_leaves ts

let rec pp_sctree ppf = function
  | Leaf v -> Logic.pp ppf v
  | Tuple ts -> Fmt.pf ppf "(%a)" Fmt.(list ~sep:(any ",") pp_sctree) ts

let pp ppf = function
  | Vint n -> Fmt.int ppf n
  | Vsig t -> pp_sctree ppf t

let to_string v = Fmt.str "%a" pp v

(* BIN(a,b): the numeric constant [a] as ARRAY[1..b] OF boolean.
   Index 1 is the most significant bit, so BIN(10,5) = (0,1,0,1,0) reads
   like the binary numeral.  NUM below uses the same convention. *)
(* bit [shift] of [a]; OCaml leaves [lsr] by Sys.int_size or more
   unspecified (amd64 wraps the count), so those bits read 0 *)
let bit a shift = shift < Sys.int_size && (a lsr shift) land 1 = 1

let bin a b =
  if b < 0 then invalid_arg "Cval.bin: negative width";
  Tuple (List.init b (fun i -> Leaf (Logic.of_bool (bit a (b - 1 - i)))))

(* NUM over a list of bit values (MSB first); [None] when any bit is not
   a definite 0/1. *)
let num bits =
  let rec go acc = function
    | [] -> Some acc
    | b :: rest -> (
        match Logic.to_bool b with
        | Some bit -> go ((acc * 2) + if bit then 1 else 0) rest
        | None -> None)
  in
  go 0 bits
