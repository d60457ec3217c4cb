(** "Why does this net have this value?" — a post-cycle debugger that
    walks the design backwards from a signal and reports, per net, what
    its producers fired during the last evaluated cycle.  The usual
    question about a four-valued simulator is where an UNDEF came from;
    this answers it. *)

open Zeus_base

type reason =
  | Input  (** testbench input, CLK/RSET, or undriven *)
  | Register of string  (** the stored value of this register *)
  | Gate of Zeus_sem.Netlist.gate_op * (string * Logic.t) list
      (** gate inputs with their values *)
  | Drivers of driver_fire list

and driver_fire = {
  guard : (string * Logic.t) option;
  source : string * Logic.t;
  produced : Logic.t;
}

type entry = {
  net : string;
  value : Logic.t;
  reason : reason;
}

(** [explain sim path ~depth] explains every bit of [path], descending
    [depth] producer levels.  Call after at least one {!Sim.step}.
    [Error] carries the path resolution message of a path that names
    nothing. *)
val explain : Sim.t -> string -> depth:int -> (entry list, string) result

val pp_entry : entry Fmt.t
val pp : entry list Fmt.t
val to_string : entry list -> string
