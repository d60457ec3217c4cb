(** A reusable process-wide domain pool for whole-run sharding: the
    batch engine ({!Sim.run_batch}) and batch fuzzing are its only
    users.

    OCaml 5 caps concurrent domains at ~128, so callers must never spawn
    domains per batch.  One lazily-created pool grows to the largest
    [jobs] ever requested and is shut down at process exit; regions are
    serialized by the fork-join protocol itself and must not nest. *)

(** Hard ceiling on [jobs] — requests above it are clamped. *)
val max_jobs : int

(** [run ~jobs f] runs [f 0] .. [f (jobs - 1)] concurrently ([f 0] on
    the calling domain) and returns when all have finished.  With
    [jobs <= 1], just calls [f 0] inline.  An exception raised by any
    chunk is re-raised after the join; the pool stays usable. *)
val run : jobs:int -> (int -> unit) -> unit
