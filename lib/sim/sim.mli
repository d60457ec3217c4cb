(** Cycle-based simulation of elaborated designs — the firing-rule
    evaluator of report section 8 and two faster engines that compute
    the same values.  (The iterate-to-stability baselines of experiment
    E8 are the separate reference evaluator {!Sweep}.)

    Per clock cycle every net is re-evaluated:
    - gate nodes fire as soon as their output is forced (AND fires 0 on
      the first 0 input);
    - a driver (IF) node fires NOINFL as soon as its guard is 0, the
      source value when the guard is 1, and UNDEF on an undefined guard;
    - a boolean net fires on its first driving value, a multiplex net
      once all its drivers have fired ("strongest survives");
    - a second driving value on a net in one cycle is a runtime error
      (the "burning transistors" check of section 4.7) and forces UNDEF.

    Registers latch at the end of the cycle: an input whose drivers all
    produced NOINFL keeps the stored value (section 5.1).

    Besides stepping one handle, {!run_batch} replays many independent
    runs of one design; on a {!Compiled} template it evaluates up to 63
    of them at once, one per bit of each word of a bit-sliced store. *)

open Zeus_base
open Zeus_sem

(** The three engines compute identical values (a tested invariant —
    section 8's "all orders lead to the same result"); they differ only
    in how much work they do. *)
type engine =
  | Firing
      (** the reference: event-driven, fires each node at most once, as
          soon as its output is determined *)
  | Incremental
      (** cross-cycle event-driven: after a full first cycle, only the
          cone of changed seeds (pokes that differ from the previous
          cycle, registers that latched a new value, RANDOM sources) is
          re-evaluated, in levelized schedule order ({!Sched});
          quiescent cycles cost O(dirty).  Busy stretches run through
          the {!Compiled} engine's program instead: after one cycle
          that changes the value of at least 1/8 of the graph's
          classes and at most one stored register value, the cycles
          go through the bytecode program (compiled on first need, and
          shared by a template and its {!run_batch} clones), and after
          4 program cycles in a row below that they return to the cone
          pass.  A busy cycle followed by one with no poke, register
          change or RANDOM source to propagate stays in the cone
          pass.  The switch is invisible in the run's values: both
          evaluators report the same values, runtime errors in class
          order, toggles, activity and trace, and since the rule reads
          toggles, the switch decisions are a function of those values
          alone.  {!node_visits} counts what ran.  With {!set_trace}
          on, the per-cycle trace of a warm cycle of an acyclic design
          lists only the nets whose value {e changed}, in class order,
          as the {!Compiled} engine's does; a cold cycle (the first
          after {!create} or {!restart}), and every cycle of a design
          with a combinational cycle, is a firing pass and lists firing
          order. *)
  | Compiled
      (** the levelized schedule lowered once to flat bytecode
          ({!Compile}, {!Bytecode}): dense opcode array, operand
          indices resolved at compile time, executed by a tight
          dispatch loop over the bit-sliced store of the batch engine,
          the run a group of one, where stride-1 runs (register files,
          copies, NOT chains, guarded multiplexes) are walked without
          per-lane dispatch.  The store is allocated on the first
          cycle.  Every node is re-evaluated every cycle; snapshots,
          error traces and the RANDOM stream are bit-identical to the
          other engines.
          Designs with combinational cycles fall back to full
          re-evaluation, and then trace in firing order.  With
          {!set_trace} on, the per-cycle trace of an acyclic design
          lists the changed nets in class order. *)

val engine_name : engine -> string

(** All engines, in declaration order — for tests and CLI enumeration. *)
val all_engines : engine list

type runtime_error = {
  err_cycle : int;
  err_net : string;
  err_code : string;
      (** stable diagnostic code ({!Zeus_base.Diag.Code}) — the same
          code the lint engine reports for this class of violation *)
  err_message : string;
}

type t

(** [create design] builds a simulator.  [seed] drives the RANDOM
    component deterministically (every draw is a pure function of the
    seed, the output class and the cycle, so the stream is identical in
    all engines).  [jobs] (default: {!Domain.recommended_domain_count},
    clamped to [Pool.max_jobs]) is the handle's default domain count
    for {!run_batch}; stepping never uses more than the calling domain.
    [optimize] (default [false]) runs the proof-carrying
    reduction ({!Zeus_sem.Reduce}) before building the graph: constant
    and unobservable logic is dropped, while snapshots stay indexed by
    the same classes (unobservable classes may then read [None]); every
    engine accepts the reduced graph.

    [discharged] (compiled engine only) is a predicate over {e
    original canonical net ids} — the indexing of
    {!Zeus_sem.Seqprove.discharged} — marking nets whose runtime drive
    conflict check was statically proved redundant: their check ops
    compile away ([Bytecode.discharged_ops] counts them).  Values never
    change, only Z101 reporting; the proofs assume defined inputs, so
    the discharge is opt-in ([zeusc sim --discharge]). *)
val create :
  ?engine:engine -> ?seed:int -> ?jobs:int -> ?optimize:bool ->
  ?discharged:(int -> bool) -> Elaborate.design -> t

val design : t -> Elaborate.design

(** The class graph the engines run over (of the reduced design under
    [~optimize]). *)
val graph : t -> Graph.t

(** {1 Driving inputs}

    Paths are hierarchical ("adder.a", "bj.score.out") and resolve
    through {!Elaborate.resolve_path}.  Poked values persist across
    cycles until changed. *)

val poke : t -> string -> Logic.t list -> unit
val poke_nets : t -> int list -> Logic.t list -> unit
val poke_bool : t -> string -> bool -> unit

(** Poke an integer as BIN(v, width): index 1 is the most significant
    bit. *)
val poke_int : t -> string -> int -> unit

(** Poke an integer with index 1 as the {e least} significant bit (the
    convention of the report's rippleCarry example). *)
val poke_int_lsb : t -> string -> int -> unit

val unpoke : t -> string -> unit

(** {1 Observing} *)

val peek : t -> string -> Logic.t list
val peek_nets : t -> int list -> Logic.t list
val peek_bit : t -> string -> Logic.t

(** [None] when any bit is UNDEF/NOINFL. *)
val peek_int : t -> string -> int option

val peek_int_lsb : t -> string -> int option

(** Stored value of every register, by hierarchical path. *)
val reg_states : t -> (string * Logic.t) list

(** Values of all canonical nets after the last cycle — used to assert
    engine equivalence. *)
val snapshot : t -> Logic.t option array

(** {1 Running} *)

(** Evaluate one clock cycle and latch the registers. *)
val step : t -> unit

val step_n : t -> int -> unit

(** [run_until t ~max pred] steps until [pred t] holds; [Some cycles]
    stepped, or [None] after [max] cycles. *)
val run_until : t -> max:int -> (t -> bool) -> int option

(** Pulse the predefined RSET signal for one cycle. *)
val reset : t -> unit

(** Return the handle to its power-up state, exactly as a fresh
    {!create} with the same design, engine and seed: registers back to
    their initial values, all pokes forgotten, the cycle counter (and
    hence the RANDOM stream) rewound, and every residual dirty-set and
    conflict list cleared — two consecutive runs on one handle are
    bit-identical. *)
val restart : t -> unit

val cycle_count : t -> int

(** {1 Instrumentation} *)

(** Runtime check violations collected so far, oldest first. *)
val runtime_errors : t -> runtime_error list

(** Total node evaluations — the work metric of experiment E8.  For the
    {!Incremental} engine a cone cycle adds its dirty cone, which leaves
    out a driver whose source changed while its guard, another net,
    reads 0 (that driver produces NOINFL whatever its source); a cycle
    run through the compiled program adds the program's
    [visits_per_cycle], as a {!Compiled} cycle does. *)
val node_visits : t -> int

(** Cycles the {!Incremental} engine ran through the compiled program
    since {!create} or the last {!restart}, the trace on or off (always
    0 for the other engines). *)
val program_cycles : t -> int

(** The {!Compiled} engine's program, whose counters give its shape:
    every one but [compile_secs] is a deterministic function of the
    design — no wall clock — so they are golden-testable.  [None] for
    every other engine and for cyclic designs (which fall back
    uncompiled). *)
val compiled_program : t -> Bytecode.prog option

(** Switching activity: the nets with the most value changes between
    consecutive cycles so far (a classic dynamic-power proxy), highest
    first; gate temporaries are skipped. *)
val activity : ?top:int -> t -> (string * int) list

(** Sum of all value changes over all nets and cycles. *)
val total_toggles : t -> int

(** Record a trace of each cycle.  The {!Firing} engine lists every
    net in the order it fired (experiment E5); the {!Incremental} and
    {!Compiled} engines list the nets whose value changed, in class
    order, so the two give the same trace on every cycle but an
    incremental cold one; on a design with a combinational cycle both
    run firing passes and list firing order.  The trace changes no
    evaluator choice. *)
val set_trace : t -> bool -> unit

(** The last cycle's trace, as (net name, value) pairs. *)
val trace_last_cycle : t -> (string * Logic.t) list

(** {1 Batch engine}

    Throughput mode: many {e independent} runs of one design, sharded
    whole across the domain pool with zero cross-run barriers.  Each
    run replays deterministically wherever it lands because RANDOM
    draws are a pure function of (seed, class, cycle).  When the
    template handle is {!Compiled} (and the design acyclic), up to
    [lanes] (at most {!Bytecode.max_runs}, 63) runs with equal cycle
    counts form one group on the program's bit-sliced store
    ({!Bytecode.run_sliced}): run r of the group lives in bit r of every
    word, so one dispatch walk evaluates the whole group with a few
    bitwise operations per op.  Each domain allocates its store once
    per batch and resets it between groups.  Results are bit-identical
    to stepping each run serially on a fresh handle (the
    [batch_identity] and [packed_identity] properties and oracle row
    O7).  The runs arrive as one packed {!Stimulus.t}, from the
    [--batch] deck reader or from {!run_batch}'s string-path runs. *)

(** One independent run: per-cycle pokes, a cycle count, an optional
    per-run RANDOM seed and paths to read back at the end. *)
type batch_run = Stimulus.batch_run = {
  br_stim : (string * Logic.t list) list array;
      (** pokes applied before cycle [i]; cycles beyond the array keep
          the previously poked values, like a quiescent testbench *)
  br_cycles : int;
  br_seed : int option;  (** default: the template handle's seed *)
  br_watch : string list;  (** paths peeked after the final cycle *)
}

type batch_result = {
  bres_snaps : Logic.t option array list;
      (** per-cycle snapshots, oldest first, so the last one is the
          state after the final cycle — only with [~snapshots]
          (otherwise, and for a zero-cycle run, empty) *)
  bres_errors : runtime_error list;
  bres_watched : (string * Logic.t list) list;
}

(** Work breakdown of a batch — deterministic functions of (design,
    runs, [jobs], [lanes]): no wall clock, so golden-testable. *)
type batch_stats = {
  bs_runs : int;
  bs_jobs : int;  (** effective domain count used for sharding *)
  bs_lanes : int;  (** group width: [lanes] clamped to 1..63 *)
  bs_lane_groups : int;  (** bit-sliced groups executed *)
  bs_lane_runs : int;  (** runs evaluated through the bit-sliced path *)
  bs_serial_runs : int;
      (** runs evaluated one at a time, zero-cycle runs included *)
  bs_cycles : int;  (** total cycles across all runs *)
}

(** [run_stimulus t st] executes every run of the packed stimulus [st]
    independently and returns the results in order.  [t] is a template:
    it is never mutated, and its design/engine/seed/optimize choices are
    shared by all runs (so the graph, schedule and bytecode program are
    built once per batch, not once per run).  Every path of [st] was
    resolved when it was built, so the only set-up is one class lookup
    per net of each entry.  Contiguous slices of runs are then sharded
    over [jobs] domains (default: the [jobs] [t] was created with;
    clamped to the pool size and the run count); within a slice,
    consecutive runs with equal cycle counts are grouped [lanes]
    (default 63) at a time through the bit-sliced path when [t]
    compiled.  A zero-cycle run reads its watches at power-up (UNDEF on
    every bit, as a fresh handle does) without a handle; every other run
    falls back to a fresh serial handle ([lanes = 1] forces this).  No
    snapshot is built unless [snapshots] (default [false]) asks for one
    after every cycle of every run (for the batch-vs-serial oracle); the
    watched paths and runtime errors are always returned.  Results and
    stats are deterministic for a given [jobs] — independent of
    scheduling. *)
val run_stimulus :
  ?jobs:int -> ?lanes:int -> ?snapshots:bool -> t -> Stimulus.t ->
  batch_result list * batch_stats

(** [run_batch t runs] is {!run_stimulus} on [runs] packed by
    {!Stimulus.of_batch_runs}: each distinct stimulus and watch path is
    resolved once and every poke's width checked before any work; an
    unknown path or a width mismatch is [Error msg], naming the run and
    cycle. *)
val run_batch :
  ?jobs:int -> ?lanes:int -> ?snapshots:bool -> t -> batch_run list ->
  (batch_result list * batch_stats, string) result
