(** Four-valued abstract interpretation over the compacted class graph.

    Every class gets the set of values it can carry, as a bitmask over
    the four values of {!Zeus_base.Logic} (0, 1, X = UNDEF, Z = NOINFL).
    {!value_sets} is the one fixpoint of the static side that computes
    these masks; it runs over the one compacted class graph
    ({!Graph.t}, shared with the simulator and the other static
    analyses), and its per-class step resolves producers as the engines
    do:

    - gates evaluate their booleanized inputs with the simulator's
      tables;
    - a driver contributes its source under a 1 guard, NOINFL under a 0
      guard, UNDEF under an undefined guard (an undefined guard
      {e drives});
    - over every combination of the producers' masks, a driving value
      overrules NOINFL and two driving values resolve to UNDEF (the
      runtime drive-conflict rule), unless the caller declares the
      class exclusive;
    - with the kind default on, a boolean class reads its resolution
      booleanized (no driving value reads UNDEF), a multiplex one
      floats.

    {!analyze} is one run of it: testbench-pokeable classes (top
    IN/INOUT pins, CLK, RSET) may carry any value, a producer-less class
    reads UNDEF forever, and a register output is widened across cycles
    to its power-up value plus everything its input can latch.  Each
    class is classified off its mask — a singleton is const-0 / const-1
    / stuck-X / stuck-Z, anything else varying — together with its
    observability (whether it can reach a register or a root output
    port).  The result is the proof table of {!Reduce}. *)

open Zeus_base

type classification =
  | Const0
  | Const1
  | StuckX  (** provably UNDEF every cycle *)
  | StuckZ  (** provably NOINFL (high-impedance) every cycle *)
  | Varying

val classification_to_string : classification -> string

(** The one value a non-varying class carries every cycle. *)
val const_of : classification -> Logic.t option

type t = {
  graph : Graph.t;  (** the class graph the analysis ran over *)
  cls : classification array;  (** per class *)
  observable : bool array;
      (** per class: reaches a register input or a root OUT/INOUT pin *)
  steps : int;  (** worklist class evaluations until the fixpoint *)
}

val analyze : Graph.t -> t

(** The observability closure alone, without the value fixpoint: per
    class, [true] iff the class reaches a register input or an
    OUT/INOUT pin of a root instance.  The same closure as
    [(analyze g).observable], for callers that need only liveness
    (Z602 in the sequential prover, dead-net counts in {!Stats}). *)
val observability : Graph.t -> bool array

(** Classification of an original net id (resolved through the alias
    class). *)
val classification_of_net : t -> int -> classification

(** [counts t] is [(const0, const1, stuckx, stuckz, varying)]. *)
val counts : t -> int * int * int * int * int

val unobservable_count : t -> int

(** {2 Value sets} *)

val m_zero : int

val m_one : int
val m_undef : int
val m_noinfl : int
val mask_of : Logic.t -> int

(** The values a mask holds, in the order 0, 1, X, Z. *)
val values_of_mask : int -> Logic.t list

(** A mask as ["{0,1,U,Z}"] notation. *)
val mask_to_string : int -> string

(** NOINFL reads back as UNDEF (an undriven mux net). *)
val booleanize_mask : int -> int

(** The mask a source reads: a constant's singleton, or the class's
    entry in a per-class mask array. *)
val src_mask : int array -> Netlist.src -> int

(** The transfer function of one producer node over the per-class
    masks [sets]: gate inputs are booleanized first, as the simulator
    does; an undefined guard drives UNDEF, a 0 guard contributes
    NOINFL.  On singleton masks it is the simulator's evaluation of the
    node (a RANDOM gate yields [{0,1}]). *)
val node_mask : int array -> Graph.node -> int

(** [value_sets g ~seed ~exclusive ~kind_default] — per class, the least
    mask closed under the producer transfer functions, and the number
    of worklist class evaluations it took.

    [seed mask c] is class [c]'s mask before its producers (inputs,
    register outputs, the UNDEF of a producer-less class); it may read
    the current mask of any class through [mask] — a register output
    reads its input's — and is re-read at every evaluation.  The
    producers resolve over every combination of their masks: a driving
    value overrules NOINFL, and two driving values give UNDEF unless
    [exclusive c] (then that combination cannot happen).  With
    [kind_default], a boolean class's resolution is booleanized, as the
    engines read it. *)
val value_sets :
  Graph.t ->
  seed:((int -> int) -> int -> int) ->
  exclusive:(int -> bool) ->
  kind_default:bool ->
  int array * int

(** The flow-insensitive seed: a testbench input reads [inputs]; a
    register output the latest register's power-up value joined with
    everything its input can latch (its mask minus NOINFL,
    booleanized); any other producer-less class UNDEF. *)
val flow_seed : Graph.t -> inputs:int -> (int -> int) -> int -> int
