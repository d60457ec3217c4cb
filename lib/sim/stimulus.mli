(** Packed batch stimulus: the one form {!Sim.run_stimulus} executes.

    A stimulus is a set of independent runs of one design.  Every
    distinct poked path is resolved once, to an {e entry}: the path's
    net ids, whose count is the poke width.  Each run's pokes are a
    byte stream of varints, one (key, value) pair per poke in poke
    order and a 0 key at the end of each stimulus line (one line per
    cycle).  A key names an entry and says how to read the value: an
    integer, expanded to the entry's bits MSB-first when the poke is
    applied (BIN(value, width), the [-p] convention), or the index of a
    literal bit array.

    Two front ends build it: {!read_deck}, the [zeusc sim --batch] deck
    reader, which writes each poke straight from the deck text into the
    stream, and {!of_batch_runs}, behind the string-path
    {!Sim.run_batch}. *)

open Zeus_base
open Zeus_sem

(** A resolved path, a {!Sim.port}: one per distinct poked path. *)
type entry = {
  path : string;  (** as written, for messages *)
  nets : int array;  (** its nets, MSB first; the width is their count *)
}

(** The one place in the library and [zeusc] where a path becomes nets
    ({!Sim.port}); [Error] is what [zeusc] prints for a bad [-p], [-w]
    or [--explain] path. *)
val port : Elaborate.design -> string -> (entry, string) result

type run = {
  off : int;  (** where the run's stream starts in {!t.pokes} *)
  lines : int;
      (** stimulus lines, one per cycle from cycle 0; cycles beyond them
          keep the previously poked values, like a quiescent testbench *)
  cycles : int;
  seed : int option;  (** default: the template handle's seed *)
  watch : int array;  (** indices into {!t.watches}, in output order *)
}

type t = {
  entries : entry array;  (** by entry id *)
  lits : Logic.t array array;  (** literal values, by index *)
  pokes : string;  (** every run's stream, back to back *)
  runs : run array;
  watches : entry array;  (** the ports read back after a run's last cycle *)
}

(** {1 Applying} *)

(** [apply_line st classes cur r poke] applies the next stimulus line of
    the stream whose cursor is [cur.(r)] and moves the cursor past it:
    [poke r c v] for every bit, where [classes.(e)] are the classes of
    entry [e]'s nets. *)
val apply_line :
  t -> int array array -> int array -> int -> (int -> int -> Logic.t -> unit) ->
  unit

(** [bits ~width v] is what a poke of [v] sets on a [width]-bit path:
    BIN(v, width), MSB first ({!Zeus_sem.Cval.bit} per bit, the rule
    {!apply_line} expands integer values by). *)
val bits : width:int -> int -> Logic.t list

(** {1 Pokes by path}

    The resolver of [zeusc sim -p] and of the deck.  A path must name
    nets no gate or driver writes (only inputs, registers and undriven
    nets take pokes), and a value must fit it: 0..2^width-1, and 0/1 on
    a single-bit path only. *)

type resolver

val resolver : Elaborate.design -> resolver

(** [poke r path v] is the port of [path], to be set to [v] by
    {!Sim.set_int}, or the message of the first rule it breaks. *)
val poke : resolver -> string -> int -> (entry, string) result

(** {1 Front ends} *)

(** [read_deck design ~name ~watch src] reads a [--batch] deck: a
    [run [seed=N] [cycles=N]] header starts each independent run, and
    every following line is one cycle of space-separated [path=value]
    pokes ([-] for a cycle with no new pokes; [#] comments and blank
    lines are skipped; a line's leading and trailing blanks, a CR
    included, are ignored).  A run's cycle count is the explicit
    [cycles=N] if given, else its number of stimulus lines.  Values
    follow the [-p] convention and go through the same rules.  Every
    run reads back [watch], ports already resolved.

    Raises [Failure] with a message naming the deck [name] and the line
    on a malformed line, a run option given twice in one header, an
    unknown path, a poke of a driven net, a value that does not fit its
    path, or a deck with no runs.

    One pass over [src] by index: each distinct path is resolved once
    and found again by the hash computed while scanning to its [=], and
    each value is read in place and appended to the run's stream, so a
    poke allocates nothing. *)
val read_deck :
  Elaborate.design -> name:string -> watch:entry list -> string -> t

(** One independent run with string paths (the form of
    {!Sim.run_batch}). *)
type batch_run = {
  br_stim : (string * Logic.t list) list array;
      (** pokes applied before cycle [i]; cycles beyond the array keep
          the previously poked values, like a quiescent testbench *)
  br_cycles : int;
  br_seed : int option;  (** default: the template handle's seed *)
  br_watch : string list;  (** paths peeked after the final cycle *)
}

(** [of_batch_runs design runs] packs [runs], resolving each distinct
    path once and checking every poke's width; 0/1 bit lists of up to
    62 bits become integer values, any other list a literal.  [Error]
    names the run (and cycle) of the first unknown path or width
    mismatch.  No driven-net or value rule applies: a literal list may
    poke any bits. *)
val of_batch_runs : Elaborate.design -> batch_run array -> (t, string) result
