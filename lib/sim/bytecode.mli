(** Flat bytecode VM for the compiled simulation engine.

    {!Compile} lowers the levelized schedule over the compacted class
    graph into a [prog]: one dense opcode array whose operand indices
    (class ids, immediates, register indices, scratch slots) were all
    resolved at compile time.  [run_sliced] executes it over a
    transposed, bit-sliced store — one word per class and plane, bit r
    of each word is run r — stepping up to {!max_runs} independent runs
    at once, so every op is a few bitwise operations for all the runs
    together.  The batch engine fills the group; a single run is a group
    of one, run 0.

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
      (** load the cycle seed of a producer-less class: its poke if
          poked, else CLK/RSET/register/UNDEF by [kind] *)
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
          their pokes, UNDEF where unpoked *)
  | Ovregseed of { reg : int; cls : int; len : int }
      (** wide register seed: classes [cls..cls+len) read registers
          [reg..reg+len), with their pokes merged in *)
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

(** {1 Bit-sliced store}

    Every class, scratch slot, register and poke entry owns one word
    per plane, and bit r of each word is run r of a group of up to
    {!max_runs} independent runs.  Poke entries exist only for
    producer-less classes.  Bits past the group's last run carry noise,
    so every read below looks at one run's bit only. *)

type sliced

(** Runs one word carries: 63. *)
val max_runs : int

val create_sliced : prog -> sliced

(** Start a group of [Array.length seeds] runs (1 to {!max_runs}), run
    r drawing RANDOM with [seeds.(r)]: registers back to their initial
    values, every poke forgotten, {!ran} false. *)
val reset_sliced : prog -> sliced -> seeds:int array -> unit

(** Poke class [c] in run [run] until the group ends or
    {!unpoke_run}.  A poke of a class with producers is ignored, as on
    every engine. *)
val poke_run : sliced -> run:int -> int -> Logic.t -> unit

val unpoke_run : sliced -> run:int -> int -> unit

(** Value of class [c] in run [run] after the last {!run_sliced}. *)
val get_run : sliced -> run:int -> int -> Logic.t

(** [run_sliced prog w ~cycle] executes one clock cycle for every run of
    the group and returns its drive conflicts as unsorted [(class,
    runs)] pairs: bit r of [runs] is set when run r saw two or more
    driving values on the class. *)
val run_sliced : prog -> sliced -> cycle:int -> (int * int) list

(** True once {!run_sliced} has run since the last {!reset_sliced}
    (before that, a single run's peeks fall back to UNDEF and its
    snapshots to [None], like a fresh handle of any other engine). *)
val ran : sliced -> bool

(** {1 One-run groups}

    A single run is the group of one, run 0 ([reset_sliced ~seeds:[|s|]]).
    These operations read and write run 0's bit only. *)

(** Stored value of a register / store one — for a run handed over to
    the program part-way through, whose registers take the handle's
    stored values. *)

val get_reg : sliced -> int -> Logic.t
val set_reg : sliced -> int -> Logic.t -> unit

(** The previous-cycle value of a class, which {!sweep} compares
    against and brings up to date.  Priming it with a handle's last
    values lets the next {!sweep} count toggles across a hand-over to
    the program; after a {!sweep} it holds the swept cycle, which a
    handle taking the run back reads. *)

val get_prev : sliced -> int -> Logic.t
val set_prev : sliced -> int -> Logic.t -> unit

(** Per-cycle change sweep of run 0 against the previous-cycle values,
    in ascending class order: accrues toggle counts (skipped on the
    [first] cycle, which has no predecessor), reports changed classes,
    whose new values {!get_run} reads, and returns the number of
    toggles it accrued.  Call after {!run_sliced}. *)
val sweep :
  sliced -> first:bool -> toggles:int array ->
  on_change:(int -> unit) option -> int
