(** The differential oracle matrix for whole-pipeline fuzzing.

    {v
    row              agreement required
    ---------------  --------------------------------------------------
    pp-fixpoint      pretty-print → reparse → pretty-print is a fixpoint
    reelaborate      pretty-printed source compiles and simulates
                     bit-identically to the original (Firing engine)
    engine:<name>    Incremental, Compiled and both sweep orders of
                     the independent reference evaluator
                     ({!Zeus_sim.Sweep}: fixpoint, relaxation) match
                     Firing: identical snapshots per cycle and
                     identical runtime-error sets
    batch:<name>     the batch engine ({!Sim.run_batch}) is
                     bit-identical to serial: full and truncated runs
                     with distinct per-run seeds, sharded over the pool,
                     match fresh serial incremental handles per cycle
                     and per runtime-error set — with every engine as
                     template; a 64-run block that fills one bit-sliced
                     group of a Compiled template and spills into a
                     second matches that template's serial fallback
    lint-vs-runtime  a net lint proved Safe never raises the runtime
                     multiple-drive check
    opt-identity:<name>
                     the proof-carrying reduction ({!Zeus_sem.Reduce})
                     preserves behaviour: the reduced design, run on
                     each of the three engines, matches the unoptimized
                     Firing reference cycle-by-cycle on every net the
                     abstract interpretation marked observable (values
                     compared per net through each design's class map;
                     runtime errors on eliminated logic are exempt by
                     design)
    opt-proof        the shipped proof table is honest: a class Absint
                     proved const-0, const-1, stuck-X or stuck-Z (with
                     at least one producer) reads exactly that value on
                     every cycle of the unoptimized reference run
    verilog          the structural Verilog export is faithful: every
                     compiled program exports, parses back through
                     {!Zeus_export.Verilog.parse_module} with the same
                     module name / port list / net count, and its
                     self-checking testbench generates; with iverilog
                     installed (nightly CI) the module + bench are also
                     compiled and run externally and must reach
                     ZEUS_TB_OK (skipped, structural checks only, when
                     iverilog is absent — see {!iverilog_available})
    modular-vs-elaborated
                     the modular summary analysis ({!Zeus_sem.Summary})
                     never contradicts the elaborated pipeline in its
                     sound direction: no proved-Conflict class lies
                     wholly under proven-conflict-safe types
                     ({!modular_hidden_conflicts}), "all types
                     cycle-free with no fallback" admits no elaborated
                     cycle error, and [Summary.analyze] never raises
    parse / compile  generated programs are legal by construction, so a
                     front-end rejection is itself a finding
    v} *)

open Zeus_base
module Sim = Zeus_sim.Sim

type divergence = {
  oracle : string;  (** which row of the matrix failed *)
  detail : string;
}

val pp_divergence : divergence Fmt.t

val iverilog_available : unit -> bool
(** Whether Icarus Verilog is on PATH (probed once per process).  When
    [false], the [verilog] row runs its structural self-checks only. *)

val compile : string -> (Zeus_sem.Elaborate.design, Diag.t list) result

(** One engine's observable behaviour over a poke sequence. *)
type run = {
  snaps : Logic.t option array list;  (** snapshot after every cycle *)
  errors : (int * string * string) list;  (** cycle, net, code; sorted *)
}

(** A fresh handle on [engine], poked and stepped once per stimulus
    cycle. *)
val run_engine :
  Zeus_sem.Elaborate.design -> Sim.engine -> Gen_prog.stimulus -> run

(** O5's rule for the conflict-safe summaries: the names of the
    [Conflict] verdicts of [lint] whose every member net lies under a
    non-empty chain of instances, each of a type in
    [m.proven_conflict_safe].  Nets outside every instance (CLK, RSET)
    are never covered.  A non-empty result means a summary called a
    conflicting type conflict-safe. *)
val modular_hidden_conflicts :
  Zeus_sem.Summary.result ->
  Zeus_sem.Elaborate.design ->
  Zeus_sem.Lint.report ->
  string list

val check : ?jobs:int -> src:string -> Gen_prog.stimulus -> divergence list
(** Run the whole matrix; [[]] means agreement everywhere.  [jobs]
    (default 4) shapes the batch row's sharding; a caller already
    inside a {!Zeus_sim.Pool} region (e.g. a batch-fuzz worker) must
    pass [~jobs:1] — pool regions do not nest, and [jobs = 1]
    short-circuits past the pool. *)
