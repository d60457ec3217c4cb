(** Constant values: numbers and signal constants (report section 3.1).
    Signal constants are nested tuples over the four logic values; shape
    is structural — compatibility is by basic-substructure count. *)

open Zeus_base

type sctree =
  | Leaf of Logic.t
  | Tuple of sctree list

type t =
  | Vint of int
  | Vsig of sctree

(** Number of basic leaves. *)
val sctree_width : sctree -> int

(** Leaves in natural (left-to-right) order. *)
val sctree_leaves : sctree -> Logic.t list

val pp_sctree : sctree Fmt.t
val pp : t Fmt.t
val to_string : t -> string

(** [bit a shift] is bit [shift] of [a] (0 = least significant); every
    bit at [shift >= Sys.int_size] is 0. *)
val bit : int -> int -> bool

(** [bin a b] is BIN(a,b): the number [a] as [b] bits, index 1 most
    significant — BIN(10,5) reads (0,1,0,1,0) like the numeral; bit
    [i] is [bit a (b - i)], so a width past [Sys.int_size] pads with 0. *)
val bin : int -> int -> sctree

(** [num bits] decodes an MSB-first bit list; [None] if any bit is not a
    definite 0/1 (the NUM standard function). *)
val num : Logic.t list -> int option
