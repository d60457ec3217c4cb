(** One-time compiler from the levelized schedule over the compacted
    class graph to the flat bytecode of {!Bytecode}.

    Lowering walks the schedule level by level (seeds, then node ops
    and multi-producer resolutions per level, then register latches),
    so the emitted straight-line program is a strict levelized
    evaluation: it computes the same per-cycle fixpoint, conflict
    reports and RANDOM stream as every other {!Sim} engine.  A
    peephole vectorizer turns stride-1 runs (register seed/latch
    files, copies, NOT chains, shared-guard drivers, the two-driver
    IF/ELSE multiplex shape) into wide 32-lane word ops. *)

(** [None] when the design has a combinational cycle (the schedule has
    no levels to lower; {!Sim} falls back to full re-evaluation).

    [discharged c] marks class [c] as statically proved conflict-free
    (combinationally [Safe] or [Safe_sequential] from the bounded
    sequential prover): its resolution ops are compiled with the
    runtime conflict report elided ([chk = false]).  Resolved {e
    values} are identical either way — only the Z101 report is
    skipped — so a violated proof assumption (an UNDEF poked into a
    top input) still forces UNDEF consistently with the uncompiled
    engines.  The kept/elided site counts are reported as
    [check_ops]/[discharged_ops] on the program. *)
val build :
  ?discharged:(int -> bool) ->
  Zeus_sem.Graph.t ->
  Zeus_sem.Sched.t ->
  Bytecode.prog option

(** Shortest stride-1 run the vectorizer turns into a word op. *)
val vmin : int
