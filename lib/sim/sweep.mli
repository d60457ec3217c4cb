(** The iterate-to-stability reference simulator of experiment E8 and
    oracle row O3 — the baselines the firing evaluator of {!Sim} is
    compared against, outside the production handle.

    Each cycle starts every node output and every driven class at
    UNDEF, then re-evaluates {e every} node strictly (all inputs read,
    no early firing) in a fixed order until a whole sweep changes
    nothing — the relaxation of switch-level simulators (Bryant 1981)
    that section 1 of the report compares Zeus against.  Work grows
    with the number of sweeps, i.e. with how badly the order fits the
    data flow.

    The module shares no evaluation code with {!Sim}: gate tables,
    multi-driver resolution, the register latch, drive-conflict
    detection and RANDOM draws (through {!Prand}, keyed by the same
    seed, class and cycle) are its own, so agreement with {!Sim}'s
    engines is evidence, not tautology. *)

open Zeus_base

(** The sweep order. *)
type order =
  | Fixpoint  (** creation order *)
  | Relaxation
      (** against creation order — pessimal information flow *)

val order_name : order -> string

type result = {
  snaps : Logic.t option array list;
      (** after every cycle, in {!Sim.snapshot}'s indexing *)
  errors : (int * string * string) list;
      (** runtime errors as (cycle, net, code), by cycle then class; a
          drive conflict is reported once per class per cycle *)
  visits : int;  (** node evaluations over all sweeps and cycles *)
}

(** [run ~order design pokes] simulates [List.length pokes] cycles.
    Cycle [i] first applies the [i]-th list of (original net id, value)
    pokes; poked values persist until poked again, as with {!Sim.poke}.
    [seed] (default [0x5eed], {!Sim.create}'s default) keys the RANDOM
    draws. *)
val run :
  ?seed:int -> order:order -> Zeus_sem.Elaborate.design ->
  (int * Logic.t) list list -> result
