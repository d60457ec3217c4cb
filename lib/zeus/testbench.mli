(** A small vector-driven testbench harness over the simulator: drive
    ports, clock, record expectation failures with readable messages. *)

module Sim = Zeus_sim.Sim
module Logic = Zeus_base.Logic

type failure = {
  cycle : int;
  signal : string;
  expected : string;
  actual : string;
}

type t

val create :
  ?engine:Sim.engine -> ?seed:int -> Zeus_sem.Elaborate.design -> t

(** The underlying simulator, for operations not wrapped here. *)
val sim : t -> Sim.t

(** [port design path] is {!Sim.port}'s port, or raises [Failure] with
    its message: in a testbench a path that names nothing is a bug in
    the bench.  Resolve each port once, then drive and check it every
    cycle. *)
val port : Zeus_sem.Elaborate.design -> string -> Sim.port

(** {1 Driving} *)

(** Integer values use the MSB-first BIN convention ({!Sim.set_int});
    [~lsb:true] makes index 1 the least significant bit. *)
val set : ?lsb:bool -> t -> Sim.port -> int -> unit

val set_bits : t -> Sim.port -> Logic.t list -> unit
val reset : t -> unit
val clock : ?n:int -> t -> unit

(** {1 Expectations}

    Mismatches are recorded, not raised; see {!failures}/{!ok}. *)

val expect_int : ?lsb:bool -> t -> Sim.port -> int -> unit
val expect_bits : t -> Sim.port -> Logic.t list -> unit

(** [run_table t ~inputs ~outputs rows]: for each row (input values,
    expected outputs), apply the inputs, clock once, check the outputs. *)
val run_table :
  t -> inputs:Sim.port list -> outputs:Sim.port list ->
  (int list * int list) list -> unit

(** {1 Results} *)

val failures : t -> failure list
val runtime_errors : t -> Sim.runtime_error list

(** No expectation failures and no simulator runtime errors. *)
val ok : t -> bool

val pp_failure : failure Fmt.t
val report : Format.formatter -> t -> unit
