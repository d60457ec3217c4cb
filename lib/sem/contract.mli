(** Port contracts and the abstract domains of the modular summary
    analysis ({!Summary}).

    A contract records, for one component type at one canonical
    parameter signature, everything a parent needs to analyse its own
    body without elaborating the child: per-port drive class,
    UNDEF-capability, sequential dependence and the internal
    combinational port-to-port reachability relation. *)

(** {1 Interval / small-set abstraction}

    Over-approximates the integer values a generic parameter, FOR
    variable or constant expression can take.  Small explicit sets
    keep recursive parameter chains such as 16 -> 8 -> 4 -> 2 exact;
    larger sets widen to (possibly half-open) intervals. *)

type ival =
  | Iempty
  | Iset of int list  (** sorted, distinct, small *)
  | Irange of int option * int option  (** inclusive; [None] = unbounded *)

val itop : ival
val iconst : int -> ival
val of_list : int list -> ival

val range : int option -> int option -> ival
(** Normalizes: an empty range is [Iempty], a small one an [Iset]. *)

val is_empty : ival -> bool
val singleton : ival -> int option
val lo_of : ival -> int option
val hi_of : ival -> int option
val mem : int -> ival -> bool
val join : ival -> ival -> ival
val equal_ival : ival -> ival -> bool

val iadd : ival -> ival -> ival
val isub : ival -> ival -> ival
val ineg : ival -> ival
val imul : ival -> ival -> ival

val idiv : ival -> ival -> ival
(** Truncating division, matching {!Const_eval}; widens to top when the
    divisor may be zero. *)

val imod : ival -> ival -> ival

(** Three-valued truth of comparisons between abstract values. *)
type truth = True | False | Unknown

val tnot : truth -> truth
val cmp_lt : ival -> ival -> truth
val cmp_le : ival -> ival -> truth
val cmp_eq : ival -> ival -> truth

(** [refine_lt v w] over-approximates [{ x in v | exists y in w, x < y }]
    — used to narrow a formal's interval inside a WHEN arm. *)
val refine_lt : ival -> ival -> ival

val refine_le : ival -> ival -> ival
val refine_gt : ival -> ival -> ival
val refine_ge : ival -> ival -> ival
val refine_eq : ival -> ival -> ival
val refine_ne : ival -> ival -> ival
val ival_to_string : ival -> string

(** {1 Linear expressions over opaque terms}

    [k + sum coeff*term] where terms stand for formals, FOR-variable
    instances or hash-consed non-affine subexpressions ([n DIV 2]).
    Symbolic differences decide index-disjointness questions —
    [output[i]] vs [output[i + n DIV 2]] — for every parameter value. *)
module Lin : sig
  type t = { k : int; terms : (int * int) list }
  (** terms sorted by id, coefficients nonzero *)

  val const : int -> t
  val term : ?coeff:int -> int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : int -> t -> t
  val is_const : t -> bool
  val const_val : t -> int option
  val equal : t -> t -> bool
  val vars : t -> int list
  val coeff_of : int -> t -> int
  val mentions : int -> t -> bool

  val to_key : t -> string
  (** Canonical string form, for hashing/deduplication. *)
end

(** {1 The contract proper} *)

type mode = In | Out | Inout

val mode_to_string : mode -> string

type drive_class =
  | Never  (** the type itself puts no driver on this port *)
  | Always  (** at least one unconditional whole-port driver *)
  | Cond of string list  (** conditional; support set of the guards *)

val drive_class_to_string : drive_class -> string

type port = {
  p_name : string;
  p_mode : mode;
  p_drive : drive_class;
  p_undef : bool;  (** the port can carry UNDEF (or a high-Z gap) *)
  p_seq : bool;  (** the port's value flows through a register *)
}

type t = {
  c_type : string;  (** component type name *)
  c_params : string;  (** canonical parameter signature, printable *)
  c_ports : port list;
  c_reach : (string * string) list;
      (** internal combinational reachability: (in-port, out-port) *)
  c_conflict_safe : bool;  (** every internal drive target proved exclusive *)
  c_cycle_free : bool;  (** no type-level combinational cycle found *)
  c_fallback : string list;  (** reasons the summary is too coarse *)
}

val port : t -> string -> port option

val bottom :
  type_name:string -> params:string -> ports:(string * mode) list -> t
(** The starting iterate of the recursive fixpoint — claims nothing;
    iteration only grows it. *)

val top :
  type_name:string ->
  params:string ->
  ports:(string * mode) list ->
  reason:string ->
  t
(** Knows nothing: every port conditionally drives, carries UNDEF, is
    sequential; full reachability; no safety claims.  Used when the
    fixpoint diverges or a construct defeats the abstraction. *)

val pp : Format.formatter -> t -> unit
