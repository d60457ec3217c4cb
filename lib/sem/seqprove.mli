(** The bounded sequential prover: k-cycle symbolic reachability over
    the elaborated netlist.

    PR 1's conflict prover ({!Lint}) is purely combinational: a net
    whose driver exclusivity depends on sequential state is demoted to
    [Needs_runtime_check] and every engine pays a per-cycle runtime
    check forever.  This module closes that gap with a bounded
    reachability analysis over register state:

    - {b Abstract reachability.}  Every register is tracked as the set
      of values it can hold (a four-valued mask, {!Absint.m_zero} etc.).
      A cycle's transfer function is the one value-set fixpoint,
      {!Absint.value_sets}, made {e state-sensitive}: register outputs
      read the current state masks instead of the flow-insensitive
      union, and the pessimistic "two possible drivers ⇒ inject UNDEF"
      rule is refined by a per-state exclusivity check — each pair of
      drive conditions is re-proved with the bounded DPLL solver after
      substituting the state masks into the guard formulas (a register
      known to be [{0}] becomes [false]; a register that can read
      UNDEF is renamed to a {e fresh variable per occurrence}, which
      is the sound boolean over-approximation of Kleene evaluation:
      if every per-occurrence completion refutes the pair, no
      four-valued state can make both guards drive).  Iterating the
      transfer function with union-accumulation converges in at most
      4·R+1 steps to an over-approximation of every reachable state
      from power-up.

    - {b Upgrades.}  A [Needs_runtime_check] class whose producer
      pairs are all exclusive at the reachability fixpoint can never
      double-drive in any reachable state: it is upgraded to
      {!Lint.Safe_sequential}, and {!discharged} lets the compiled
      engine drop its per-cycle conflict-check ops.

    - {b Reset-coverage lints.}  A cycle-indexed trajectory from the
      fixpoint through a RSET pulse and [depth-1] idle cycles yields
      Z601 (a register can still hold UNDEF [depth] cycles after
      reset) and Z602 (power-up UNDEF escapes the reset cone into an
      observable net: stripping the registers' UNDEF bits removes the
      net's UNDEF, so the UNDEF is sequential in origin).  A depth-0
      trajectory never latches the pulse, so it yields neither.

    - {b Concrete witnesses (Z603).}  For small acyclic designs
      without RANDOM, a breadth-first search over concrete register
      states (inputs enumerated over defined values) finds stimulus
      traces that actually trip the runtime multiple-drive check on an
      unproven net, reported with the full per-cycle poke list — the
      trace replays on every engine ({!Oracle} row O8 checks this).

    Everything here shares {!Lint}'s environment assumption: inputs
    are poked to {e defined} values.  A hostile stimulus driving
    UNDEF into a top input can defeat a [Safe]/[Safe_sequential]
    proof, which is why conflict-check discharge is opt-in
    ([zeusc sim --discharge]). *)

open Zeus_base

(** A concrete stimulus trace that trips the runtime multiple-drive
    check.  [w_trace.(c)] lists the pokes applied before cycle [c]
    (representative net id, net name, value) — every enumerated input
    is poked every cycle, so the replay is deterministic. *)
type witness = {
  w_class : int;  (** representative net id of the conflicting class *)
  w_name : string;
  w_cycle : int;  (** 0-based cycle at which the conflict fires *)
  w_trace : (int * string * Logic.t) list array;
}

(** Per-register reachability facts, as value-set masks. *)
type reg_trace = {
  rt_name : string;  (** hierarchical register path *)
  rt_out : int;  (** representative net id of the register output *)
  rt_init : int;  (** power-up mask *)
  rt_fix : int;  (** every value reachable from power-up (fixpoint) *)
  rt_reset : int array;
      (** trajectory masks: index 0 is the pre-reset fixpoint, index
          [i] the state [i] cycles after the RSET pulse began (the
          pulse itself is cycle 1), up to index [depth] *)
}

type report = {
  sp_depth : int;
  sp_regs : reg_trace list;
  sp_upgraded : (int * string) list;
      (** classes upgraded to [Safe_sequential] (representative net id,
          name) *)
  sp_findings : Diag.t list;  (** Z601/Z602/Z603 *)
  sp_witnesses : witness list;
  sp_splits : int;  (** case splits spent by the per-state prover *)
  sp_lint : Lint.report;
      (** the underlying lint report with upgrades applied — verdicts
          for upgraded classes read [Safe_sequential]; its findings are
          the combinational lint's, unchanged *)
}

val default_depth : int

(** [run design] proves what it can about the design's sequential
    behaviour.  [depth] (default {!default_depth}) bounds the reset
    trajectory and the concrete witness search; [budget] bounds the
    case splits of each per-state class proof ({!Lint.co_drive},
    default {!Lint.default_budget});
    [lint] supplies an existing combinational report for the same
    design (otherwise {!Lint.analyze} runs over the one {!Graph.t}
    this call builds and shares with the prover). *)
val run :
  ?depth:int -> ?budget:int -> ?lint:Lint.report -> Elaborate.design -> report

(** [discharged design report] — per canonical class, [true] when the
    class is statically proved conflict-free ([Safe] or
    [Safe_sequential]): the compiled engine may omit its runtime
    conflict-check ops under the defined-inputs environment
    assumption. *)
val discharged : Elaborate.design -> report -> bool array

(** One line: depth, registers, upgrades, findings, witnesses,
    splits. *)
val summary : report -> string

(** The schema version carried in the [version] member of
    {!json_of_report}. *)
val json_schema_version : int

(** The whole report as a JSON object with [version], [depth],
    [registers], [upgraded], [findings], [witnesses] and [summary]
    members. *)
val json_of_report : report -> string
