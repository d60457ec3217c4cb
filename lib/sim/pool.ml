(* A reusable domain pool for whole-run sharding.

   Two callers fork on it: the batch engine ({!Sim.run_batch}), which
   shards independent simulation runs, and batch fuzzing
   ([Fuzz.run ~batch]), which shards case detection.  Each slice is a
   whole run or a whole case, so there is one region per batch and no
   barrier inside a run.

   OCaml 5 caps the number of domains that can ever exist concurrently
   (~128), so no caller may spawn domains per batch — a fuzz session
   runs thousands of them.  One process-wide pool is created lazily,
   grows to the largest [jobs] ever requested, and is shut down from
   [at_exit].

   [run ~jobs f] is a fork-join region: it runs [f 0] on the calling
   domain and [f 1] .. [f (jobs-1)] on pool workers, returning when all
   have finished.  Regions are serialized by construction — the caller
   does not return until every worker slice is done — and they do not
   nest: code running inside a slice must not open another region
   (batch-fuzz workers therefore run the oracle with [~jobs:1], which
   never touches the pool).  An exception in any slice is re-raised at
   the caller after the join (the join still completes, leaving the
   pool reusable).

   The protocol is a classic job-epoch monitor: publishing a region
   increments [job_id] under the mutex and broadcasts; every worker
   remembers the last epoch it saw, so a worker that naps through an
   entire region (possible only for non-participating workers) simply
   skips it.  The mutex orders the region publish before every slice,
   and every slice before the caller's return, so results a slice
   writes into caller-owned arrays are visible after the join. *)

type t = {
  m : Mutex.t;
  cv : Condition.t; (* doubles for "new region" and "workers done" *)
  mutable workers : unit Domain.t list;
  mutable n_workers : int;
  mutable job : (int -> unit) option;
  mutable job_id : int;
  mutable active : int; (* chunk count of the current region *)
  mutable remaining : int; (* worker chunks still running *)
  mutable failed : exn option;
  mutable stop : bool;
}

(* stay well under the runtime's ~128 concurrent-domain ceiling, leaving
   room for the main domain and anything the host program spawns *)
let max_jobs = 64

let worker pool index () =
  let seen = ref 0 in
  Mutex.lock pool.m;
  while not pool.stop do
    if pool.job_id <> !seen then begin
      seen := pool.job_id;
      match pool.job with
      | Some f when index < pool.active - 1 ->
          Mutex.unlock pool.m;
          let err = (try f (index + 1); None with e -> Some e) in
          Mutex.lock pool.m;
          (match err with
          | Some e when pool.failed = None -> pool.failed <- Some e
          | _ -> ());
          pool.remaining <- pool.remaining - 1;
          if pool.remaining = 0 then Condition.broadcast pool.cv
      | _ -> ()
    end
    else Condition.wait pool.cv pool.m
  done;
  Mutex.unlock pool.m

let create () =
  {
    m = Mutex.create ();
    cv = Condition.create ();
    workers = [];
    n_workers = 0;
    job = None;
    job_id = 0;
    active = 0;
    remaining = 0;
    failed = None;
    stop = false;
  }

let shutdown pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.cv;
  Mutex.unlock pool.m;
  List.iter Domain.join pool.workers;
  pool.workers <- [];
  pool.n_workers <- 0

let global = lazy (
  let pool = create () in
  at_exit (fun () -> shutdown pool);
  pool)

let run ~jobs f =
  let jobs = min jobs max_jobs in
  if jobs <= 1 then f 0
  else begin
    let pool = Lazy.force global in
    Mutex.lock pool.m;
    while pool.n_workers < jobs - 1 do
      pool.workers <- Domain.spawn (worker pool pool.n_workers) :: pool.workers;
      pool.n_workers <- pool.n_workers + 1
    done;
    pool.job <- Some f;
    pool.active <- jobs;
    pool.remaining <- jobs - 1;
    pool.failed <- None;
    pool.job_id <- pool.job_id + 1;
    Condition.broadcast pool.cv;
    Mutex.unlock pool.m;
    let caller_err = (try f 0; None with e -> Some e) in
    Mutex.lock pool.m;
    while pool.remaining > 0 do
      Condition.wait pool.cv pool.m
    done;
    pool.job <- None;
    let worker_err = pool.failed in
    pool.failed <- None;
    Mutex.unlock pool.m;
    match caller_err with
    | Some e -> raise e
    | None -> ( match worker_err with Some e -> raise e | None -> ())
  end
