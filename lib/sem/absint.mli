(** Four-valued abstract interpretation over the compacted class graph.

    A whole-design constant analysis on the flat lattice

    {v ⊥  <  \{0, 1, X, Z\}  <  ⊤ v}

    where the middle layer is the four-valued algebra of {!Zeus_base.Logic}
    (X = UNDEF, Z = NOINFL).  [Const v] means "this class carries exactly
    [v] in every cycle, under every input"; [Top] means the value can
    vary; [Bot] is the unreached initial state (it survives only inside
    combinational cycles, which the static checks reject anyway).

    The interpreter runs over the one compacted class graph
    ({!Graph.t}, shared with the simulator and the other static
    analyses): a worklist over its consumer CSR runs the monotone
    transfer functions to a fixpoint:

    - gates evaluate with the simulator's early-firing partial
      evaluators (an AND with a constant-0 input is 0 no matter what);
    - a driver contributes its source under a constant-1 guard, NOINFL
      under a constant-0 guard, UNDEF under a provably-undefined guard
      (an undefined guard {e drives});
    - a multi-driven class joins its producers with the abstract Zeus
      drive resolution: all-constant contributions resolve exactly
      (two driving values are a conflict and force UNDEF, matching the
      runtime check), any varying contribution is ⊤;
    - register feedback is widened across cycles: the output class
      accumulates the power-up value joined with everything the input
      can latch (a NOINFL input keeps the stored value and contributes
      nothing), iterated to a fixpoint.

    Testbench-pokeable classes (top IN/INOUT pins, CLK, RSET) and RANDOM
    sources are ⊤; a producer-less non-input class reads UNDEF forever.

    The result doubles as the proof table of {!Reduce}: every class is
    classified const-0 / const-1 / stuck-X / stuck-Z / varying, together
    with its observability (whether it can reach a register or a root
    output port). *)

open Zeus_base

type av =
  | Bot  (** unreached (combinational cycles only) *)
  | Const of Logic.t  (** exactly this value, every cycle, all inputs *)
  | Top  (** may vary *)

val join : av -> av -> av
val av_to_string : av -> string

type classification =
  | Const0
  | Const1
  | StuckX  (** provably UNDEF every cycle *)
  | StuckZ  (** provably NOINFL (high-impedance) every cycle *)
  | Varying

val classification_to_string : classification -> string

type t = {
  graph : Graph.t;  (** the class graph the analysis ran over *)
  value : av array;  (** per class: the fixpoint abstract value *)
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

(** Abstract value / classification of an original net id (resolved
    through the alias class). *)
val value_of_net : t -> int -> av

val classification_of_net : t -> int -> classification

(** [counts t] is [(const0, const1, stuckx, stuckz, varying)]. *)
val counts : t -> int * int * int * int * int

val unobservable_count : t -> int

(** {2 Value sets}

    The may-analysis beside the must-lattice: every class gets the set
    of values it can carry, as a bitmask over the four values of
    {!Zeus_base.Logic}.  This is the one value-set fixpoint of the static
    side: {!Lint}'s UNDEF-reachability pass runs it flow-insensitively,
    and {!Seqprove} runs it once per abstract cycle with register outputs
    reading a state.

    The flat lattice above is not the quotient of these masks: its
    strict-⊥ early firing makes AND(⊥, 0) = 0 where the mask of an empty
    input is empty, and XOR(⊤, X) is ⊤ where the mask is [{X}]. *)

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

(** The transfer function of one producer node over the masks its
    sources read ([mask_of_src] sees class-id sources): gate inputs are
    booleanized first, as the simulator does; an undefined guard drives
    UNDEF, a 0 guard contributes NOINFL.  On singleton masks it is the
    simulator's evaluation of the node (a RANDOM gate yields [{0,1}]). *)
val node_mask : (Netlist.src -> int) -> Graph.node -> int

(** [value_sets g ~seed ~exclusive] — per class, the least mask closed
    under the producer transfer functions, on {!analyze}'s worklist.

    [seed mask c] is class [c]'s mask before its producers (inputs,
    register outputs, the UNDEF of a producer-less class); it may read
    the current mask of any class through [mask] — a register output
    reads its input's — and is re-read at every evaluation.  A class
    with two producers that can drive gains UNDEF (a drive conflict)
    unless [exclusive c]. *)
val value_sets :
  Graph.t -> seed:((int -> int) -> int -> int) -> exclusive:(int -> bool) -> int array
