(** The lint engine: static proofs about the elaborated netlist.

    Three passes over an elaborated design, all reporting through the
    stable diagnostic codes of {!Zeus_base.Diag.Code}:

    - a {b drive-conflict prover} (Z101/Z102) that collects the guard
      expressions of every producer of each multi-driven net and
      decides their pairwise mutual exclusivity with a bounded
      DPLL-style solver — the static half of the paper's
      (NP-complete, section 4.7) multiplex single-drive check, with
      the simulator's runtime multiple-drive check as the fallback;
    - an {b UNDEF-reachability} dataflow pass (Z201/Z202) over the
      four-valued algebra, flagging nets that can only ever read
      UNDEF;
    - a {b dead-hardware} pass (Z301/Z302) for statically-false branch
      guards surviving constant evaluation and instances whose
      outputs reach no register or output port. *)

(** Boolean formulas over integer-identified variables.  [Bvar] is a
    free variable (a witness assigning only free variables is
    realizable); [Bopq] is opaque — the solver may split on it (sound
    for UNSAT) but a witness assigning one proves nothing.  The
    formula layer is exposed so the modular summary analysis
    ({!Summary}) can reuse the same bounded prover on composed
    type-level guards. *)
type bexp =
  | Btrue
  | Bfalse
  | Bvar of int
  | Bopq of int
  | Bnot of bexp
  | Band of bexp list
  | Bor of bexp list
  | Bxor of bexp * bexp

(** Smart constructors: flatten, drop units, short-circuit constants. *)
val bnot : bexp -> bexp

val band : bexp list -> bexp
val bor : bexp list -> bexp
val bxor : bexp -> bexp -> bexp

(** [exists_var p e] — does some variable [v] satisfy [p v is_opaque]? *)
val exists_var : (int -> bool -> bool) -> bexp -> bool

type sat_result =
  | Unsat
  | Sat of (int * bool) list  (** the assigned variables at the leaf *)
  | Budget_out

(** DPLL-style case-splitting, free variables split first.  [budget]
    bounds the splits of this one call; [splits] accumulates a grand
    total across calls. *)
val solve : budget:int -> splits:int ref -> bexp -> sat_result

type classification =
  | Safe  (** every pair of drivers proved mutually exclusive *)
  | Safe_sequential
      (** not provable combinationally, but the bounded sequential
          prover ({!Seqprove}) showed no reachable register state can
          make two drivers fire together — the runtime check can be
          discharged under the defined-inputs environment assumption *)
  | Conflict  (** two drivers can fire in one cycle; witness attached *)
  | Needs_runtime_check
      (** not decided within budget, or exclusivity depends on values
          the prover cannot see — the runtime check guards this net *)

val classification_to_string : classification -> string

(** One multi-driven net (canonical alias class). *)
type net_verdict = {
  v_net : int;  (** canonical net id *)
  v_name : string;
  v_kind : Etype.kind;
  v_producers : int;  (** drivers + gates on the class *)
  v_class : classification;
  v_detail : string;  (** witness, proof summary or reason *)
}

type report = {
  verdicts : net_verdict list;  (** every multi-driven class, by net id *)
  findings : Zeus_base.Diag.t list;
  splits : int;  (** total case splits spent by the solver *)
}

val default_budget : int

(** Run all three passes.  [budget] bounds the number of case splits
    the conflict prover may spend per net pair (default
    {!default_budget}); exhausting it demotes the net to
    [Needs_runtime_check] rather than guessing.

    [proven_safe] is the modular fast path: a predicate over component
    type names whose summaries ({!Summary}) already proved every drive
    target conflict-free for the instantiated parameters.  A net class
    all of whose member nets live under instances of proven types
    (including, for port nets, the instantiating parent's type) is
    classified [Safe] without expanding or solving anything — the
    summary pre-pass skips proven-safe subtrees. *)
val run :
  ?budget:int -> ?proven_safe:(string -> bool) -> Elaborate.design -> report

(** [run] over an already built class graph, for callers that share
    one {!Graph.t} across analyses ({!Seqprove}). *)
val analyze :
  budget:int -> proven_safe:(string -> bool) option -> Graph.t -> report

(** [count cls report] — verdicts with classification [cls]. *)
val count : classification -> report -> int

(** "N multi-driven nets: ... ; M findings (S case splits)" *)
val summary : report -> string

(** {2 Internals shared with the sequential prover}

    The guard expander and the four-valued value-set machinery are
    exposed (read-only) so {!Seqprove} can lift the same guard
    formulas and transfer functions to per-cycle reachability without
    duplicating the netlist walk. *)

(** The memoizing guard expander of the conflict prover: walks the
    class graph backwards from a class to a [bexp] over free variables
    (testbench inputs, register outputs, RANDOM sources — their class
    ids) and opaque leaves.  Bounded by an internal node cap past which
    leaves become opaque. *)
type expander

val make_expander : Graph.t -> expander

(** [drive_cond st guard] — the condition under which a driver with
    this guard (a {!Graph.node} source) produces a driving (non-NOINFL)
    value: [Btrue] for an unconditional driver, and the expanded guard
    otherwise (an UNDEF guard also drives). *)
val drive_cond : expander -> Netlist.src option -> bexp

(** {3 Value-set masks}

    The four-valued dataflow of pass 2, as bitmasks over
    {!Zeus_base.Logic.t} values. *)

val m_zero : int

val m_one : int
val m_undef : int
val m_noinfl : int
val mask_of : Zeus_base.Logic.t -> int

(** NOINFL reads back as UNDEF (an undriven mux net). *)
val booleanize_mask : int -> int

(** The transfer function of one producer node over the masks its
    sources read ([mask_of_src] sees class-id sources): gate inputs are
    booleanized first, as the simulator does; an undefined guard drives
    UNDEF, a 0 guard contributes NOINFL. *)
val node_mask : (Netlist.src -> int) -> Graph.node -> int

(** The flow-insensitive value-set fixpoint: for every class, the mask
    of values it can ever carry, plus the producer-less (undriven)
    flags.  Inputs are assumed defined ({0,1}); register outputs start
    from power-up. *)
val value_sets : Graph.t -> int array * bool array

(** The schema version carried in the [version] member of the JSON
    report; bumped on any incompatible change to the output shape. *)
val json_schema_version : int

(** The whole report as a JSON object with [version], [nets],
    [findings] and [summary] members.  Hand-rolled, schema-stable
    output. *)
val json_of_report : report -> string
