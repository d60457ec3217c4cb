(** Flat bytecode VM for the compiled simulation engine.

    {!Compile} lowers the levelized schedule over the compacted class
    graph into a [prog]: one dense opcode array whose operand indices
    (class ids, immediates, register indices, scratch slots) were all
    resolved at compile time.  Two stores execute it:
    - [run_cycle] steps one run over a class-packed two-plane store —
      32 classes per word pair — so the wide vectorizable ops (register
      seed/latch, copy, NOT, guarded multiplex resolution) evaluate 32
      nets per handful of word ops;
    - [run_sliced] steps up to {!max_runs} independent runs at once
      over the transposed, bit-sliced store of the batch engine — one
      word per class and plane, bit r of each word is run r — so every
      op is a few bitwise operations for all the runs together.

    The program is a strict levelized evaluation: it computes exactly
    the per-cycle fixpoint of every other {!Sim} engine (section 8's
    "all orders agree" invariant), including drive-conflict forcing to
    UNDEF, the register latch rules and the stateless RANDOM stream
    keyed by (seed, class, cycle) ({!Prand}). *)

open Zeus_base

(** {1 Value codes}

    Two bits per value, Verilog aval/bval style: plane [a] holds the
    low bit, plane [b] the high bit — [0b00] ZERO, [0b01] ONE, [0b10]
    NOINFL, [0b11] UNDEF. *)

val code_zero : int
val code_one : int
val code_z : int
val code_x : int
val encode : Logic.t -> int
val decode : Logic.t array

(** {1 Operand encoding} *)

(** Immediate operand for a constant source. *)
val imm : int -> int

(** [guard] value of an unguarded driver op. *)
val no_guard : int

(** Gate kinds of {!Ogate}. *)

val gand : int
val gor : int
val gnand : int
val gnor : int
val gxor : int
val gnot : int
val gequal : int

(** Seed kinds of {!Oseed} ([kind >= 0] is a register index). *)

val seed_plain : int
val seed_clk : int
val seed_rset : int

type op =
  | Oseed of { cls : int; kind : int }
      (** load the cycle seed of a producer-less class: the packed poke
          mirror if poked, else CLK/RSET/register/UNDEF by [kind] *)
  | Ogate of {
      gate : int;
      args : int array;
      out : int;
      prod : int;  (** scratch slot, or [-1] to write [out] directly *)
      kbool : bool;
    }
  | Orandom of { out : int; prod : int }
      (** a draw of {!Prand.bool} keyed by the output class *)
  | Odriver of { guard : int; src : int; out : int; prod : int; kbool : bool }
  | Oresolve of { out : int; prods : int array; kbool : bool; chk : bool }
      (** multi-producer resolution over scratch slots; two or more
          driving values force UNDEF and — when [chk] — report a
          conflict ([chk] is false for classes whose conflict check the
          sequential prover discharged; the resolved value is
          unchanged) *)
  | Olatch of { reg : int; cls : int; seeded : bool }
      (** end-of-cycle register latch; [seeded] registers read a
          producer-less input (latch on any non-NOINFL value), others
          latch when the driven flag is set *)
  | Ovseed of { cls : int; len : int }
      (** wide plain seed: producer-less classes [cls..cls+len) read
          the packed poke mirror, UNDEF where unpoked *)
  | Ovregseed of { reg : int; cls : int; len : int }
      (** wide register seed: classes [cls..cls+len) read registers
          [reg..reg+len), with the packed poke mirror merged in *)
  | Ovcopy of { src : int; dst : int; len : int; kbool : bool; dr : bool }
      (** [dr] (here and below) is false when no lane feeds a register,
          letting the op skip the driven-plane write — the driven flags
          are read only by the latch ops *)
  | Ovnot of { src : int; dst : int; len : int; dr : bool }
  | Ovdriver of {
      guard : int;
      src : int;
      dst : int;
      len : int;
      kbool : bool;
      dr : bool;
    }
  | Ovmux2 of {
      g1 : int;
      s1 : int;
      g2 : int;
      s2 : int;
      dst : int;
      len : int;
      kbool : bool;
      dr : bool;
      chk : bool;
    }
      (** wide two-driver guarded multiplex resolution: lanes
          [dst..dst+len) each driven by [IF g1 -> s1+lane] and
          [IF g2 -> s2+lane]; per-lane drive counting, conflict
          detection (skipped when [chk] is false) and NOINFL/UNDEF
          filling happen wordwise *)
  | Ovlatch of { reg : int; cls : int; len : int; seeded : bool }

type prog = {
  ops : op array;
  n_classes : int;
  n_nodes : int;
  n_slots : int;
      (** scratch slots, one per producer of a multi-producer class
          ([prod] and [prods] operands index them) *)
  reg_init : int array;
  visits_per_cycle : int;
      (** node evaluations the program represents per cycle *)
  scalar_ops : int;
  vector_ops : int;
  vector_lanes : int;  (** classes covered by vector ops *)
  check_ops : int;
      (** per-cycle conflict-check sites kept, counted in classes *)
  discharged_ops : int;
      (** conflict-check sites the sequential prover discharged *)
  compile_secs : float;
}

(** {1 Packed state} *)

type state

val create_state : prog -> state

(** Return the state to power-up: planes to UNDEF, registers to their
    initial values, poke mirror cleared. *)
val reset_state : prog -> state -> unit

(** True once at least one compiled cycle has run (before that, peeks
    fall back to UNDEF and snapshots to [None], like a fresh handle of
    any other engine). *)
val ran : state -> bool

(** Current value of a class / stored value of a register. *)

val get : state -> int -> Logic.t
val reg_get : state -> int -> Logic.t

(** Mirror one poke (or unpoke, [None]) into the packed poke planes —
    the only poke store the program reads. *)
val sync_poke : state -> int -> Logic.t option -> unit

(** Store a register value / read or store the previous-cycle value of
    a class — for a run handed over to the program part-way through:
    the registers take the handle's stored values, and priming the
    previous-cycle planes with the handle's last values lets the next
    {!sweep} count toggles across the hand-over.  After a {!sweep} the
    previous-cycle planes hold the swept cycle, so a handle taking the
    run back reads them even when a later {!run_cycle} is to be
    discarded. *)

val set_reg : state -> int -> Logic.t -> unit
val get_prev : state -> int -> Logic.t
val set_prev : state -> int -> Logic.t -> unit

(** {1 Execution} *)

(** [run_cycle prog st ~seed ~cycle] executes one clock cycle for a
    single run and returns the classes whose resolution saw a drive
    conflict (unsorted; the caller reports them in class order). *)
val run_cycle : prog -> state -> seed:int -> cycle:int -> int list

(** {1 Bit-sliced batch store}

    The batch engine's store: every class, scratch slot, register and
    poke entry owns one word per plane, and bit r of each word is run r
    of a group of up to {!max_runs} independent runs.  Poke entries
    exist only for producer-less classes. *)

type sliced

(** Runs one word carries: 63. *)
val max_runs : int

val create_sliced : prog -> sliced

(** Start a group of [Array.length seeds] runs (1 to {!max_runs}), run
    r drawing RANDOM with [seeds.(r)]: registers back to their initial
    values, every poke forgotten. *)
val reset_sliced : prog -> sliced -> seeds:int array -> unit

(** Poke class [c] in run [run] until the group ends.  A poke of a
    class with producers is ignored, as on every engine. *)
val poke_run : sliced -> run:int -> int -> Logic.t -> unit

(** Value of class [c] in run [run] after the last {!run_sliced}. *)
val get_run : sliced -> run:int -> int -> Logic.t

(** [run_sliced prog w ~cycle] executes one clock cycle for every run of
    the group and returns its drive conflicts as unsorted [(class,
    runs)] pairs: bit r of [runs] is set when run r saw two or more
    driving values on the class. *)
val run_sliced : prog -> sliced -> cycle:int -> (int * int) list

(** Per-cycle change sweep against the previous cycle's planes, in
    ascending class order: accrues toggle counts (skipped on the
    [first] cycle, which has no predecessor), reports changed classes,
    whose new values {!get} reads, and returns the number of toggles it
    accrued.  Call after {!run_cycle}. *)
val sweep :
  state -> first:bool -> toggles:int array ->
  on_change:(int -> unit) option -> int
