(** Structural Verilog backend: the compacted class graph lowered to
    synthesizable Verilog-2001, plus the self-checking testbench and
    the minimal structural reader of the round-trip property.

    The lowering is semantics-exact against the simulator, not merely
    shape-preserving:

    - the four Zeus values map onto Verilog's [0]/[1]/[x]/[z]
      ([Undef] is [x], [Noinfl] is [z]);
    - gates become bitwise expressions (Verilog bitwise operators treat
      [z] operands as [x], which is exactly the implicit amplifier);
    - a guarded driver becomes the three-way conditional
      [(g === 1'b1) ? src : (g === 1'b0) ? 1'bz : 1'bx] — an undefined
      guard {e drives} UNDEF, it does not release the net;
    - a class with two or more producers gets one wire per producer and
      an explicit first-non-z resolver that forces [x] on a second
      driving value {e even when the values agree} — Zeus's burning-
      transistors rule, deliberately not Verilog's native wired logic
      (which resolves agreeing drivers to their common value);
    - registers are clocked always-blocks that latch only when the
      resolved {e raw} input is not [z] (all-NOINFL keeps the stored
      value, section 5.1) and power up at [x] unless [REG(c)] gave an
      initial value;
    - every RANDOM node becomes an extra input port (the stream is a
      pure function of (seed, class, cycle), so the testbench replays
      it exactly);
    - net names are an invertible mangling of Zeus hierarchical paths
      ({!mangle}/{!demangle}) that escapes Verilog reserved words.

    Designs with combinational cycles (legal Zeus, e.g. the blackjack
    machine) have no static schedule and are rejected with {!Cyclic}. *)

open Zeus_base
open Zeus_sem

(** {1 Name mangling} *)

val reserved_words : string list
(** The Verilog-2001 keywords (plus the common SystemVerilog type
    keywords), all of which {!mangle} escapes. *)

val is_reserved : string -> bool

val mangle : string -> string
(** Injective encoding of a Zeus hierarchical path as a plain Verilog
    identifier: word characters pass through; ['.'] ['['] [']'] ['#']
    ['$'] become ["$d"] ["$b"] ["$e"] ["$h"] ["$$"]; anything else
    becomes ["$xHH"].  Results that are reserved, empty, start with a
    digit or a ['$'], or collide with the wrapper prefix are wrapped as
    ["v$"^base]. *)

val demangle : string -> string
(** Left inverse of {!mangle}: [demangle (mangle s) = s]. *)

(** {1 Export} *)

type dir =
  | Input
  | Output

type port = {
  pdir : dir;
  pname : string;  (** mangled Verilog identifier *)
  ppath : string;  (** the Zeus hierarchical path it came from *)
  pclass : int;  (** class id; [-1] for the synthetic clock port *)
}

type t = {
  module_name : string;
  ports : port list;  (** header order: clock, inputs, RANDOM, outputs *)
  net_count : int;  (** scalar nets declared: ports + wires *)
  reg_count : int;
  text : string;  (** the emitted module *)
  design : Elaborate.design;
  graph : Zeus_sem.Graph.t;
  wire_of_class : string array;  (** class id -> wire/port identifier *)
  clk_port : string;
  random_ports : (int * string) list;  (** RANDOM class -> port name *)
}

type error =
  | Cyclic  (** no static schedule: combinational-cycle designs fall
                back to relaxation in the simulator and cannot be
                lowered to continuous assigns *)
  | Unsupported of string

val error_to_string : error -> string

val export : ?module_name:string -> Elaborate.design -> (t, error) result
(** Lower an elaborated design.  [module_name] defaults to the mangled
    name of the first top-level signal (or ["zeus_top"]). *)

(** {1 Self-checking testbench} *)

type deck = (string * Logic.t) list list
(** Per cycle: pokes applied before the step — the same shape as a
    fuzzer stimulus.  Paths resolve through
    {!Elaborate.resolve_path}; a poke whose class is driven inside the
    design is ignored (as the simulator ignores it), a poke to an
    undriven class that is not an exported input port is an error. *)

val random_deck : ?seed:int -> cycles:int -> t -> deck
(** A deterministic pseudo-random deck over the module's input ports
    (including RSET), defined values only. *)

val testbench : ?seed:int -> ?tb_name:string -> t -> deck -> (string, string) result
(** Emit a self-checking bench module (to be concatenated after
    [t.text]).  The bench replays the deck against an internal run of
    the {e incremental} engine (RANDOM seeded with [seed], default the
    simulator's default): every cycle it drives the ports, waits for
    the combinational fabric to settle, compares every class wire
    against the engine's snapshot with [===], prints one MISMATCH line
    per differing net and [$fatal]s; on full agreement it prints
    [ZEUS_TB_OK].  Checks happen before the clock edge, matching the
    simulator's snapshot-before-latch timing. *)

(** {1 Minimal structural reader}

    Enough Verilog to parse the emitter's own output back (and any
    plain structural netlist using non-ANSI headers): the round-trip
    property needs no external tools. *)

type vmodule = {
  vm_name : string;
  vm_ports : (dir * string) list;  (** header order, directions from
                                       the [input]/[output] decls *)
  vm_nets : int;  (** declared [input]/[output]/[wire] identifiers *)
}

val parse_module : string -> (vmodule, string) result
