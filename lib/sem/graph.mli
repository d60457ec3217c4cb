(** The semantics graph of report section 8, in executable, compacted
    form: gates and drivers as producer nodes over {e dense
    canonical-net ids} ("classes"), with CSR-style flat consumer,
    producer and member lists.  The alias union-find is resolved once
    at build time — the simulator engines and the static analyses
    ({!Check}, {!Absint}, {!Lint}, {!Seqprove}, {!Stats}, {!Reduce})
    index these arrays and never call {!Netlist.canonical}.  Registers
    contribute no combinational edges (they are the legal cycle
    breakers). *)

type node =
  | Ngate of {
      op : Netlist.gate_op;
      inputs : Netlist.src array;  (** [Snet] ids are class ids *)
      output : int;  (** class id *)
    }
  | Ndriver of {
      guard : Netlist.src option;
      source : Netlist.src;
      target : int;  (** class id *)
    }

type t = {
  design : Elaborate.design;
  nl : Netlist.t;
  n_nets : int;  (** original (pre-compaction) net count *)
  n_classes : int;  (** dense canonical-net count *)
  canon : int array;  (** original net id -> class id *)
  rep : int array;  (** class id -> union-find root (original id) *)
  nodes : node array;  (** the gates, then the drivers *)
  gates : Netlist.gate array;  (** node [i < Array.length gates] *)
  drivers : Netlist.driver array;
      (** node [Array.length gates + j] is [drivers.(j)] *)
  cons_off : int array;  (** CSR offsets into [cons_nodes], per class *)
  cons_nodes : int array;  (** consumer node ids, one per occurrence *)
  prod_off : int array;  (** CSR offsets into [prod_nodes], per class *)
  prod_nodes : int array;  (** producer node ids, ascending *)
  producer_count : int array;  (** per class; [= prod_off.(c+1)-prod_off.(c)] *)
  mem_off : int array;  (** CSR offsets into [mem_nets], per class *)
  mem_nets : int array;  (** member original net ids, ascending *)
  class_kind : Etype.kind array;  (** mux if any class member is mux *)
  names : string array;  (** per class: the representative's name *)
  regs : Netlist.reg array;
  reg_in : int array;  (** per register: input class *)
  reg_out : int array;  (** per register: output class *)
  regs_of_out : int list array;
      (** class -> every register writing it, latest declared first *)
  regs_of_in : int list array;  (** class -> registers latching from it *)
  reg_out_class : bool array;
  input_class : bool array;  (** testbench inputs *)
  clk : int;  (** class of the predefined CLK net *)
  rset : int;  (** class of the predefined RSET net *)
}

(** Nets a testbench may drive: CLK, RSET and the IN/INOUT pins of the
    top-level instances. *)
val top_input_nets : Elaborate.design -> int list

(** [driven design] holds of the nets whose class has a producer: a
    gate or driver writes one of its members.  The engines read a
    testbench poke only on producer-less classes (inputs, CLK, RSET,
    register outputs, undriven nets), so a poke of a driven net would
    be ignored. *)
val driven : Elaborate.design -> int -> bool

(** The graph of [design].  The last build is memoized: asking again
    for the same design (physically equal, its netlist's net, gate and
    driver counts unchanged) returns the same graph object, so Check,
    the simulator, the analyses and the exporter of one command share
    one build.  Safe from any domain. *)
val build : Elaborate.design -> t
val node_inputs : node -> Netlist.src list
val node_output : node -> int

(** The register whose stored value the engines read for class [c]
    (the latest declared one), or -1. *)
val reg_of_out : t -> int -> int

(** [iter_consumers g c f] applies [f] to every node consuming class
    [c], once per source occurrence. *)
val iter_consumers : t -> int -> (int -> unit) -> unit

val iter_producers : t -> int -> (int -> unit) -> unit
val consumer_count : t -> int -> int

(** The original net ids of class [c], ascending. *)
val members : t -> int -> int list

(** Every class id, sorted by ascending representative: the order in
    which reports list nets. *)
val by_rep : t -> int array
