(** ASCII waveform rendering: one row per watched signal, one column per
    sampled cycle.  Single-bit signals render as levels ([_ # x z]);
    multi-bit signals as hex digits where the value is defined. *)

type t

(** [create sim ports] watches [ports], one row each, in order. *)
val create : Sim.t -> Sim.port list -> t

(** Record the current values; call once per simulated cycle. *)
val sample : t -> unit

val render : t -> string

(** One line per signal with decoded integer values per cycle. *)
val render_values : t -> string
