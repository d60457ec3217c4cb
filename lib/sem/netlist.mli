(** The elaborated, bit-level design.

    Elaboration flattens every structured signal into nets (one per basic
    substructure) and translates the statement part into gates (the
    predefined function components, bit-blasted), registers, drivers
    (assignments, optionally guarded by an IF condition net) and alias
    classes ('==', kept in a union-find).

    Per-net bookkeeping — instance pin role, read counts, '*' closure,
    and which instance scopes touched the net — feeds the static checker
    of report section 4.7. *)

open Zeus_base

type src =
  | Snet of int
  | Sconst of Logic.t

type gate_op =
  | Gand
  | Gor
  | Gnand
  | Gnor
  | Gxor
  | Gnot
  | Gequal  (** inputs are the two operands' bit lists, concatenated *)
  | Grandom  (** no inputs: the predefined pseudo-random source *)

val gate_op_to_string : gate_op -> string

type net = {
  id : int;
  name : string; (** hierarchical path, e.g. ["adder.add[2].cout"] *)
  kind : Etype.kind;
  pin : (int * Etype.mode) option;
      (** pin of an instance: instance id and declared mode *)
  loc : Loc.t;
  mutable reads : int;
  mutable starred : bool; (** explicitly closed with ["*"] *)
  mutable touched : int list;
      (** instance scopes that read/drove/starred/aliased this net *)
}

type gate = {
  gid : int;
  op : gate_op;
  inputs : src list;
  output : int;
  gloc : Loc.t;
}

type reg = {
  rid : int;
  rin : int;
  rout : int;
  rpath : string;
  rinit : Logic.t;
      (** power-up value — [Undef] unless declared [REG(c)] (the
          reconstructed section 5.2 initialization) *)
}

type driver = {
  did : int;
  target : int;
  guard : src option; (** [None] for unconditional assignments *)
  source : src;
  dloc : Loc.t;
}

type instance = {
  iid : int;
  ipath : string;
  itype : string;
  iloc : Loc.t;
  mutable connected : bool; (** a connection statement was given *)
  mutable iports : (string * Etype.mode * int list) list;
  mutable is_function_call : bool; (** inlined function component *)
}

type t

val create : unit -> t

(** {1 Construction} *)

val fresh_net :
  t ->
  name:string ->
  kind:Etype.kind ->
  ?pin:int * Etype.mode ->
  loc:Loc.t ->
  unit ->
  int

val add_gate : t -> op:gate_op -> inputs:src list -> output:int -> loc:Loc.t -> int

val add_reg : t -> rin:int -> rout:int -> path:string -> init:Logic.t -> int

(** Adds a driver, deduplicating exact repeats (same target, source and
    guard) — "it is allowed to specify connections several times as long
    as they are identical" (section 4.3).  Returns [-1] for a dropped
    duplicate. *)
val add_driver :
  t -> scope:int -> target:int -> guard:src option -> source:src -> loc:Loc.t -> int

val add_instance :
  t ->
  path:string ->
  type_name:string ->
  ports:(string * Etype.mode * int list) list ->
  loc:Loc.t ->
  instance

val add_order_constraint : t -> loc:Loc.t -> before:int list -> after:int list -> unit

(** {1 Aliasing ('==')} *)

(** Merge two nets into one alias class; both count as touched by
    [scope]. *)
val union : t -> scope:int -> int -> int -> unit

(** Canonical representative of a net's alias class. *)
val canonical : t -> int -> int

val same_class : t -> int -> int -> bool

(** {1 Usage bookkeeping} *)

val mark_read : t -> scope:int -> int -> unit
val mark_read_src : t -> scope:int -> src -> unit
val mark_starred : t -> scope:int -> int -> unit
val touch : t -> scope:int -> int -> unit

(** {1 Access} *)

val net_count : t -> int
val net : t -> int -> net
val nets_array : t -> net array
val gates : t -> gate list
val drivers : t -> driver list
val regs : t -> reg list
val instances : t -> instance list
val order_constraints : t -> (Loc.t * int list * int list) list

(** Net ids written (driver targets, gate outputs) since the given
    snapshot from {!counts} — builds SEQUENTIAL ordering constraints. *)
val writes_since : t -> drivers:int -> gates:int -> int list

val counts : t -> int * int

val instance_count : t -> int

(** Instance by id; raises [Not_found] for unknown ids. *)
val find_instance : t -> int -> instance

(** A shallow variant with replaced gate/driver lists (given in forward
    order) plus extra alias unions, one [(target, source)] pair per
    propagated copy — {!Reduce}'s wire-merging hook.  Nets and instances
    are shared with the original; the union-find is copied, not shared,
    so the original keeps its own classes; usage bookkeeping is not
    touched. *)
val with_nodes_merged :
  t -> gates:gate list -> drivers:driver list -> merges:(int * int) list -> t

(** One-line summary: net/gate/driver/reg/instance counts. *)
val stats : t -> string
