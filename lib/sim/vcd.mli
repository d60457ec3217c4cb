(** Value-change-dump (VCD) writer: waveforms from the simulator in the
    standard format ([0 1 x z] for Zeus's 0/1/UNDEF/NOINFL). *)

open Zeus_base

type t

(** The four-valued scalar encoding ([0 1 x z]) and its inverse
    (accepting either case; [None] for non-value characters). *)

val vcd_char : Logic.t -> char
val logic_of_vcd_char : char -> Logic.t option

(** Short identifier codes: the standard printable base-94 ['!'..'~']
    counting scheme ([0 -> "!"], [93 -> "~"], [94 -> "!!"], ...).
    Injective over all naturals and never emits an unprintable or
    whitespace character. *)
val id_code : int -> string

(** [create sim ports] starts a dump of [ports], one signal each,
    named by its path. *)
val create : Sim.t -> Sim.port list -> t

(** Record the current values; call once per simulated cycle. *)
val sample : t -> unit

val contents : t -> string

(** Write {!contents} to a file.  @raise Sys_error when the file cannot
    be opened or written, including a write that fails on the final
    flush. *)
val to_file : t -> string -> unit
