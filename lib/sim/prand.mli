(** Stateless per-net PRNG for the RANDOM component.

    Every draw is a pure function of (simulator seed, output class id,
    cycle number) — a splitmix64 hash — so the stream does not depend on
    evaluation order, engine, or domain count.  Every simulation
    engine and the {!Sweep} reference use this function, which is what
    makes their RANDOM streams bit-identical. *)

(** The full 64-bit hash of one draw. *)
val bits64 : seed:int -> net:int -> cycle:int -> int64

(** The coin flip a RANDOM node produces: bit 0 of {!bits64}. *)
val bool : seed:int -> net:int -> cycle:int -> bool
