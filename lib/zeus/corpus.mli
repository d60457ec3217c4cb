(** The example programs of the Zeus report as compilable source text.

    Each string (or generator) is a complete program ending in a
    top-level SIGNAL declaration that instantiates the design.  The 1983
    scan has OCR-era typos and a few elided bodies; every deviation is
    marked with a comment in the source and catalogued in DESIGN.md. *)

(** Section 10 "Adders": halfadder, fulladder, rippleCarry(length), no
    top-level instance. *)
val adders_prelude : string

(** The prelude plus [SIGNAL adder: rippleCarry(4)]. *)
val adder4 : string

(** The prelude plus an n-bit instance.  Note the adder's index 1 is the
    least significant bit (the carry enters at add[1]); use
    [Sim.set_int ~lsb:true]. *)
val adder_n : int -> string

(** Section 3.2's 4-way multiplexor function component, with a wrapper
    so its output is observable ([m.z]). *)
val mux4 : string

(** The 5-bit plus/minus/lt/ge function components the Blackjack example
    assumes "available" (MSB first). *)
val arith5 : string

(** Section 10's Blackjack dealer machine ([bj]); states are encoded
    start=0, read=1, sum=2, firstace=3, test=4, end=5 on
    [bj.state.out]. *)
val blackjack : string

(** Section 10's binary trees, broadcast-buffer leaves ([a.leaf]).
    [n] must be a power of two. *)
val tree_iterative : int -> string

val tree_recursive : int -> string

(** Section 10's H-tree with its linear-area layout; [n] a power of 4. *)
val htree : int -> string

(** Section 10's systolic pattern matcher ([match]); [length] odd. *)
val patternmatch : int -> string

(** Section 4.2's recursive HISDL routing network ([net]); [n] a power
    of two. *)
val routing_network : int -> string

(** Section 5.1's REG-array random access memory ([m]). *)
val ram : abits:int -> wbits:int -> string

(** The component of section 8's evaluation-sequence example ([top]). *)
val section8_example : string

(** The AM2901 bit-slice ALU named in the abstract ([alu]). *)
val am2901 : string

(** A Guibas/Liang-style systolic stack ([st]): one cycle per push/pop
    at any depth. *)
val stack : depth:int -> width:int -> string

(** An Ottmann/Rosenberg/Stockmeyer-style dictionary machine ([dict]):
    INSERT/DELETE/MEMBER over [slots] key cells. *)
val dictionary : slots:int -> keybits:int -> string

(** A Guibas/Liang-style systolic priority queue ([pq]): insert and
    extract-min in one cycle each; empty cells hold the all-ones maximum
    via REG(1) initialization. *)
val priority_queue : slots:int -> width:int -> string

(** An odd-even transposition sorter ([srt]) answering section 9's
    invitation to describe Thompson-style sorting circuits: load n
    w-bit words, sort ascending in n cycles. *)
val sorter : n:int -> w:int -> string

(** All statically sized programs, for regression sweeps. *)
val all_named : (string * string) list
