(* Cycle-based simulation of elaborated Zeus designs.

   Three engines over the same semantics graph, values and resolution
   rules (so their results are identical — the paper's claim in section
   8 that every legal propagation order gives the same result is a
   tested invariant here):

   - [Firing]      the event-driven firing-rule evaluator of section 8,
                   the reference: each node fires at most once, as soon
                   as its output is determined ("as soon as" semantics,
                   e.g. AND fires 0 on the first 0 input);
   - [Incremental] cross-cycle event-driven evaluation: between cycles
                   only the cone of *changed* seeds (pokes that differ
                   from last cycle, register outputs that latched a new
                   value, RANDOM sources) is re-evaluated along the
                   levelized static schedule ({!Sched}); untouched nets
                   keep their previous-cycle values, so quiescent cycles
                   cost O(dirty), not O(nets) — the "work proportional
                   to activity" property section 8 claims for the
                   firing evaluator, made true across cycles.  Busy
                   stretches run through the [Compiled] program
                   instead, with every value unchanged;
   - [Compiled]    the levelized schedule lowered once ({!Compile}) to
                   flat bytecode ({!Bytecode}) — dense opcode array,
                   operand indices resolved at compile time — executed
                   by a tight dispatch loop over the bit-sliced store,
                   the run a group of one, with stride-1 runs (register
                   files, copies, NOT chains, guarded multiplexes)
                   walked without per-lane dispatch.  Every node is
                   re-evaluated every cycle, but each evaluation is a
                   handful of word operations, so throughput beats the
                   interpreted engines on busy designs; designs with
                   combinational cycles fall back to [step_full].

   The iterate-to-stability baselines of experiment E8 live outside the
   handle, in the independent reference evaluator {!Sweep}.

   Per cycle, a net's value:
   - a boolean net fires on its first driving value;
   - a multiplex net fires once all its producers have produced, with
     NOINFL overruled by any driving value;
   - two driving values on one net are a runtime error (the "burning
     transistors" check of section 4.7) and force UNDEF.  A conflict
     discovered after consumers already fired on the first driving value
     triggers a re-propagation pass (strict re-evaluation of the
     downstream cone in schedule order), so the final values are
     schedule-independent in every engine.

   Registers latch at the end of the cycle: a NOINFL/unassigned input
   keeps the stored value (section 5.1). *)

open Zeus_base
open Zeus_sem

type engine = Firing | Incremental | Compiled

let engine_name = function
  | Firing -> "firing"
  | Incremental -> "incremental"
  | Compiled -> "compiled"

let all_engines = [ Firing; Incremental; Compiled ]

type runtime_error = {
  err_cycle : int;
  err_net : string;
  err_code : string; (* stable Diag.Code, shared with the lint engine *)
  err_message : string;
}

(* The incremental engine's bytecode program, compiled the first time a
   busy run needs it and then shared by the template handle and every
   batch clone; any domain may be the one that builds it. *)
type shared_prog = {
  built : Bytecode.prog option option Atomic.t;
  lock : Mutex.t;
}

type t = {
  g : Graph.t;
  sched : Sched.t;
  engine : engine;
  values : Logic.t option array; (* per class, this cycle *)
  produced : Logic.t option array; (* per node; written by [set_produced] *)
  remaining : int array; (* producers still to fire, per class *)
  tally : int array; (* per class: driving produced values, see [tally_unit] *)
  fired : bool array;
  reg_state : Logic.t array; (* per register *)
  poked : Logic.t option array; (* testbench values, persistent; per class *)
  mutable cycle : int;
  seed : int; (* RANDOM draws are Prand.bool (seed, class, cycle) *)
  mutable errors : runtime_error list;
  mutable conflict_msg : string; (* Z101 message of [conflict_msg_cycle] *)
  mutable conflict_msg_cycle : int;
  mutable node_visits : int; (* work metric for the simulator benches *)
  mutable trace : (int * Logic.t) list;
      (* last cycle's (class, value), newest first: firing order, or the
         changed classes in class order *)
  mutable trace_enabled : bool;
  prev_values : Logic.t option array; (* last cycle, for toggle counting *)
  toggles : int array; (* value changes per class *)
  const_nodes : int array; (* nodes with only constant inputs *)
  random_nodes : int array; (* RANDOM sources, creation order *)
  (* --- incremental / re-propagation machinery --- *)
  mutable started : bool; (* a full (cold-start) cycle has run *)
  mutable epoch : int; (* stamps instead of Array.fill *)
  node_mark : int array; (* epoch when the node was scheduled *)
  net_mark : int array; (* epoch when the class was scheduled *)
  guard_off : int array;
  guarded : int array;
      (* immutable and shared by clones: CSR, per class, of the
         [Graph.cons_nodes] edges it guards — each the source edge of a
         driver guarded by this class and sourced from another; empty
         when every cycle runs the compiled program *)
  live : int array;
      (* bitset over [Graph.cons_nodes], [live_bits] edges a word: bit k
         is clear exactly when edge k is listed in [guarded] under a
         class that reads [Some Zero] now, whenever a cone pass reads it
         (see [process_net]).  [set_value] keeps it so; [step_full]'s
         firing writes [values] without it and then rebuilds it
         ([rebuild_live]) where a cone pass can follow *)
  (* per-level work stacks, walked in push order; last slot = cyclic
     overflow.  Sized once from the schedule, so scheduling allocates
     nothing *)
  node_stack : int array array;
  node_fill : int array; (* per slot: pushed entries *)
  net_stack : int array array;
  net_fill : int array;
  mutable any_scheduled : bool;
  seed_dirty : bool array; (* per class: seed may differ next cycle *)
  mutable seed_dirty_list : int list;
  in_conflict : bool array; (* per class: >=2 driving values right now *)
  mutable conflict_list : int list;
  reg_dirty : bool array; (* per register: input resolution changed *)
  mutable reg_dirty_list : int list;
  (* --- compiled engine machinery --- *)
  cprog : Bytecode.prog option; (* Some iff engine = Compiled && acyclic *)
  mutable cstate : Bytecode.sliced option;
      (* the run's one-run store, allocated on its first program cycle
         (compiled engine) or first switch to the program (incremental) *)
  (* --- incremental engine: busy cycles through the program --- *)
  iprog : shared_prog;
  mutable program : Bytecode.prog option;
      (* Some while the run's cycles go through the program, whose
         store ([cstate]) then holds the run's values *)
  mutable run_len : int;
      (* consecutive busy cone cycles, or sparse program cycles *)
  mutable changed : int; (* classes the last warm cycle toggled *)
  mutable program_cycles : int;
  jobs : int; (* default domain count of [run_batch] *)
}

(* one work stack per level, sized to the level's static membership,
   plus the cyclic overflow slot sized to the items no level holds *)
let level_stacks at n_items =
  let placed = Array.fold_left (fun acc a -> acc + Array.length a) 0 at in
  Array.append
    (Array.map (fun a -> Array.make (Array.length a) 0) at)
    [| Array.make (n_items - placed) 0 |]

(* Counted resolution.  A class's [tally] counts its producers'
   driving produced values by value, in three 21-bit fields: ZERO from
   bit 0, ONE from bit 21, UNDEF from bit 42 (NOINFL, and a producer that
   has not produced yet, count nothing).  The class then resolves in
   O(1), however many producers it has: a tally of 0 is silent, a single
   unit is that one driving value, anything else is UNDEF — one UNDEF
   driver, or two or more driving values (section 4.7). *)
let tally_bits = 21

let tally_max = (1 lsl tally_bits) - 1

let tally_unit = function
  | Logic.Zero -> 1
  | Logic.One -> 1 lsl tally_bits
  | Logic.Undef -> 1 lsl (2 * tally_bits)
  | Logic.Noinfl -> 0

(* driving producers counted in [x] *)
let drives x =
  (x land tally_max)
  + ((x lsr tally_bits) land tally_max)
  + (x lsr (2 * tally_bits))

let resolved x =
  if x = 0 then Logic.Noinfl
  else if x = 1 then Logic.Zero
  else if x = 1 lsl tally_bits then Logic.One
  else Logic.Undef

(* The edges each class guards, as a CSR over the classes: edge k of
   [Graph.cons_nodes] is listed under class gc when it is the source
   edge of a driver guarded by gc, a class other than the source. *)
let guard_csr (g : Graph.t) =
  let n = g.Graph.n_classes in
  let guard_of = function
    | Graph.Ndriver
        { guard = Some (Netlist.Snet gc); source = Netlist.Snet s; _ }
      when gc <> s ->
        gc
    | _ -> -1
  in
  (* count, sum into range ends, then place each edge from the end of
     its guard's range down: [off] ends as the range starts *)
  let off = Array.make (n + 1) 0 in
  Array.iter
    (fun node ->
      let gc = guard_of node in
      if gc >= 0 then off.(gc) <- off.(gc) + 1)
    g.Graph.nodes;
  for c = 1 to n do
    off.(c) <- off.(c) + off.(c - 1)
  done;
  let edges = Array.make off.(n) 0 in
  for c = n - 1 downto 0 do
    for k = g.Graph.cons_off.(c + 1) - 1 downto g.Graph.cons_off.(c) do
      (* such a driver has two edges: its guard's and its source's *)
      let gc = guard_of g.Graph.nodes.(g.Graph.cons_nodes.(k)) in
      if gc >= 0 && gc <> c then begin
        off.(gc) <- off.(gc) - 1;
        edges.(off.(gc)) <- k
      end
    done
  done;
  (off, edges)

(* the nodes that fire without a changed input: those with only
   constant inputs, and the RANDOM sources, in creation order *)
let firing_seeds (g : Graph.t) =
  let const_nodes = ref [] and random_nodes = ref [] in
  for node = Array.length g.Graph.nodes - 1 downto 0 do
    let const_only =
      List.for_all
        (function Netlist.Sconst _ -> true | Netlist.Snet _ -> false)
        (Graph.node_inputs g.Graph.nodes.(node))
    in
    if const_only then const_nodes := node :: !const_nodes;
    match g.Graph.nodes.(node) with
    | Graph.Ngate { op = Netlist.Grandom; _ } ->
        random_nodes := node :: !random_nodes
    | _ -> ()
  done;
  (Array.of_list !const_nodes, Array.of_list !random_nodes)

(* the live-edge bitset's word: 62 bits, so no mask reaches the sign
   bit *)
let live_bits = 62

let live_word = (1 lsl live_bits) - 1

(* the index of [b], a power of two below 2^62: the powers of two are
   distinct modulo 67, a prime with 2 as a primitive root *)
let bit_of_power =
  let a = Array.make 67 0 in
  for i = 0 to live_bits - 1 do
    a.((1 lsl i) mod 67) <- i
  done;
  a

(* A handle with power-up run state over the given compile artifacts:
   the one place the record is built, for [create] and for the batch
   engine's per-run clones ([fresh_like]).  A handle with a compiled
   program runs every cycle through it, so it gets none of the state
   only [step_full] and the cone pass read: [values], [produced],
   [remaining], [tally], [fired], [prev_values], the marks and work
   stacks, [in_conflict], [reg_dirty] and [live] are empty, and
   [guards], [const_nodes] and [random_nodes] come empty from
   [create] *)
let alloc ~g ~sched ~engine ~seed ~const_nodes ~random_nodes ~guards ~cprog
    ~iprog ~jobs =
  let lean = Option.is_some cprog in
  let n = if lean then 0 else g.Graph.n_classes in
  let n_nodes = if lean then 0 else Array.length g.Graph.nodes in
  let n_regs = if lean then 0 else Array.length g.Graph.regs in
  let n_edges = if lean then 0 else Array.length g.Graph.cons_nodes in
  let stacks at n_items = if lean then [||] else level_stacks at n_items in
  let n_slots = if lean then 0 else sched.Sched.max_level + 2 in
  {
    g;
    sched;
    engine;
    values = Array.make n None;
    produced = Array.make n_nodes None;
    remaining = Array.make n 0;
    tally = Array.make n 0;
    fired = Array.make n false;
    reg_state =
      Array.map (fun (r : Netlist.reg) -> r.Netlist.rinit) g.Graph.regs;
    poked = Array.make g.Graph.n_classes None;
    cycle = 0;
    seed;
    errors = [];
    conflict_msg = "";
    conflict_msg_cycle = -1;
    node_visits = 0;
    trace = [];
    trace_enabled = false;
    prev_values = Array.make n None;
    toggles = Array.make g.Graph.n_classes 0;
    const_nodes;
    random_nodes;
    started = false;
    epoch = 0;
    node_mark = Array.make n_nodes 0;
    net_mark = Array.make n 0;
    guard_off = fst guards;
    guarded = snd guards;
    (* every class reads [None]: every edge is live *)
    live = Array.make ((n_edges + live_bits - 1) / live_bits) live_word;
    node_stack = stacks sched.Sched.nodes_at n_nodes;
    node_fill = Array.make n_slots 0;
    net_stack = stacks sched.Sched.nets_at n;
    net_fill = Array.make n_slots 0;
    any_scheduled = false;
    seed_dirty = Array.make g.Graph.n_classes false;
    seed_dirty_list = [];
    in_conflict = Array.make n false;
    conflict_list = [];
    reg_dirty = Array.make n_regs false;
    reg_dirty_list = [];
    cprog;
    cstate = None;
    iprog;
    program = None;
    run_len = 0;
    changed = 0;
    program_cycles = 0;
    jobs;
  }

let create ?(engine = Firing) ?(seed = 0x5eed) ?jobs ?(optimize = false)
    ?discharged (design : Elaborate.design) =
  (* the proof-carrying reduction shares nets with the original, so
     poke/peek paths are unchanged; merged copy classes share one
     union-find root, and eliminated logic may read UNDEF/None *)
  let design = if optimize then (Reduce.run design).Reduce.design else design in
  let g = Graph.build design in
  if Array.exists (fun n -> n > tally_max) g.Graph.producer_count then
    invalid_arg "Sim.create: a class with more than 2^21-1 producers";
  let sched = Sched.build g in
  let jobs =
    let requested =
      match jobs with
      | Some j -> j
      | None -> Domain.recommended_domain_count ()
    in
    max 1 (min requested Pool.max_jobs)
  in
  (* compile once; [None] on combinational cycles (fall back to the
     full re-evaluating step).  [discharged] speaks original canonical
     net ids (what {!Zeus_sem.Seqprove.discharged} indexes); the class
     graph's union-find root recovers that id per class *)
  let cprog =
    if engine = Compiled then
      let discharged =
        Option.map
          (fun pred cls -> pred g.Graph.rep.(cls))
          discharged
      in
      Compile.build ?discharged g sched
    else None
  in
  (* a handle whose every cycle runs the program never fires a node or
     walks fan-out *)
  let const_nodes, random_nodes, guards =
    if Option.is_some cprog then
      ([||], [||], (Array.make (g.Graph.n_classes + 1) 0, [||]))
    else
      let const_nodes, random_nodes = firing_seeds g in
      (const_nodes, random_nodes, guard_csr g)
  in
  alloc ~g ~sched ~engine ~seed ~const_nodes ~random_nodes ~guards ~cprog ~iprog:{ built = Atomic.make None; lock = Mutex.create () }
    ~jobs

let design t = t.g.Graph.design
let graph t = t.g

let runtime_errors t = List.rev t.errors

let cycle_count t = t.cycle

let node_visits t = t.node_visits

let program_cycles t = t.program_cycles

let set_trace t b = t.trace_enabled <- b

let trace_last_cycle t =
  List.rev_map (fun (c, v) -> (t.g.Graph.names.(c), v)) t.trace

(* the section 4.7 "burning transistors" report, for a handle and for
   a run of a bit-sliced batch group alike; a cycle's reports share one
   message, formatted once (a wide design can report thousands of
   conflicts per cycle) *)
let conflict_message cycle =
  Fmt.str
    "more than one driving assignment in cycle %d — burning transistors \
     (value forced to UNDEF)"
    cycle

let drive_conflict g ~cycle ~message net =
  {
    err_cycle = cycle;
    err_net = g.Graph.names.(net);
    err_code = Diag.Code.drive_conflict;
    err_message = message;
  }

let conflict_error t net =
  if t.conflict_msg_cycle <> t.cycle then begin
    t.conflict_msg <- conflict_message t.cycle;
    t.conflict_msg_cycle <- t.cycle
  end;
  t.errors <-
    drive_conflict t.g ~cycle:t.cycle ~message:t.conflict_msg net :: t.errors

(* RANDOM: a pure function of (seed, output class, cycle) — identical
   in every engine and every batch run, and idempotent under cone
   re-evaluation *)
let random_value t net =
  Logic.of_bool (Prand.bool ~seed:t.seed ~net ~cycle:t.cycle)

(* ------------------------------------------------------------------ *)
(* Poking and peeking                                                   *)
(* ------------------------------------------------------------------ *)

(* the union-find is resolved at graph-build time: one array read *)
let canon t id = t.g.Graph.canon.(id)

let mark_seed t c =
  if not t.seed_dirty.(c) then begin
    t.seed_dirty.(c) <- true;
    t.seed_dirty_list <- c :: t.seed_dirty_list
  end

type port = Stimulus.entry = { path : string; nets : int array }

let port = Stimulus.port

let set t (p : port) values =
  List.iteri
    (fun i v ->
      if i < Array.length p.nets then begin
        let c = canon t p.nets.(i) in
        t.poked.(c) <- Some v;
        mark_seed t c
      end)
    values

(* the -p and deck expansion, reversed for index 1 = LSB (the
   convention of the report's rippleCarry example, where the carry
   enters at add[1]) *)
let int_bits ~lsb (p : port) v =
  let bits = Stimulus.bits ~width:(Array.length p.nets) v in
  if lsb then List.rev bits else bits

let set_int ?(lsb = false) t p v = set t p (int_bits ~lsb p v)

let release t (p : port) =
  Array.iter
    (fun id ->
      let c = canon t id in
      t.poked.(c) <- None;
      mark_seed t c)
    p.nets

(* net [id] reads its class's value [v] through its kind *)
let read_net g id v =
  match (Netlist.net g.Graph.nl id).Netlist.kind with
  | Etype.KBool -> Logic.booleanize v
  | Etype.KMux -> v

let value_of_net t id =
  let c = canon t id in
  read_net t.g id
    ((* the store is authoritative during a compiled run *)
     match t.cstate with
     | Some st when Bytecode.ran st -> Bytecode.get_run st ~run:0 c
     | _ when Option.is_some t.cprog -> Logic.Undef (* nothing ran yet *)
     | _ -> Option.value ~default:Logic.Undef t.values.(c))

let get t (p : port) =
  Array.fold_right (fun id acc -> value_of_net t id :: acc) p.nets []

let get_int ?(lsb = false) t p =
  let bits = get t p in
  Cval.num (if lsb then List.rev bits else bits)

let poke_nets t nets values = set t { path = ""; nets = Array.of_list nets } values
let peek_nets t nets = get t { path = ""; nets = Array.of_list nets }

let reg_states t =
  Array.to_list
    (Array.mapi
       (fun i (r : Netlist.reg) -> (r.Netlist.rpath, t.reg_state.(i)))
       t.g.Graph.regs)

(* ------------------------------------------------------------------ *)
(* Node evaluation (shared by all engines)                              *)
(* ------------------------------------------------------------------ *)

let src_value t = function
  | Netlist.Sconst v -> Some v
  | Netlist.Snet id -> t.values.(id)

(* guard reads go through the implicit amplifier *)
let guard_value t s = Option.map Logic.booleanize (src_value t s)

(* EQUAL compares the two operands' concatenated bit lists *)
let equal_fold vs =
  let n = List.length vs / 2 in
  let a = List.filteri (fun i _ -> i < n) vs
  and b = List.filteri (fun i _ -> i >= n) vs in
  List.fold_left2
    (fun acc x y -> Logic.and2 acc (Logic.equal2 x y))
    Logic.One a b

let eval_gate t op (inputs : Netlist.src array) =
  let vals = Array.to_list (Array.map (src_value t) inputs) in
  match op with
  | Netlist.Gand -> Logic.and_partial vals
  | Netlist.Gor -> Logic.or_partial vals
  | Netlist.Gnand -> Logic.nand_partial vals
  | Netlist.Gnor -> Logic.nor_partial vals
  | Netlist.Gxor -> Logic.xor_partial vals
  | Netlist.Gnot -> Logic.not_partial vals
  | Netlist.Gequal -> Logic.map_all equal_fold vals
  | Netlist.Grandom -> assert false (* handled by the callers via the
                                       output class, see [random_value] *)

let eval_driver t guard source =
  match guard with
  | None -> src_value t source
  | Some gs -> (
      match guard_value t gs with
      | None -> None
      | Some Logic.Zero -> Some Logic.Noinfl
      | Some Logic.One -> src_value t source
      | Some (Logic.Undef | Logic.Noinfl) -> Some Logic.Undef)

(* Strict re-evaluation with full information, used by the dirty-cone
   pass: by the section 8 invariant it computes the same value the
   partial ("as soon as") rules converge to once every input is known. *)

let strict_src t = function
  | Netlist.Sconst v -> v
  | Netlist.Snet id -> Option.value ~default:Logic.Undef t.values.(id)

(* a gate's inputs folded with a two-input table, the first input
   booleanized: [Logic.and_list] and friends over the array, without
   building the list *)
let strict_fold t f (inputs : Netlist.src array) =
  let acc = ref (Logic.booleanize (strict_src t inputs.(0))) in
  for i = 1 to Array.length inputs - 1 do
    acc := f !acc (strict_src t inputs.(i))
  done;
  !acc

let strict_eval_node t node_id =
  match t.g.Graph.nodes.(node_id) with
  | Graph.Ngate { op = Netlist.Grandom; output; _ } ->
      (* stateless: recomputing during a cone re-evaluation yields the
         same value the pre-pass drew *)
      random_value t output
  | Graph.Ngate { op; inputs; _ } -> (
      match op with
      | Netlist.Gand -> strict_fold t Logic.and2 inputs
      | Netlist.Gor -> strict_fold t Logic.or2 inputs
      | Netlist.Gnand -> Logic.not_ (strict_fold t Logic.and2 inputs)
      | Netlist.Gnor -> Logic.not_ (strict_fold t Logic.or2 inputs)
      | Netlist.Gxor -> strict_fold t Logic.xor2 inputs
      | Netlist.Gnot -> Logic.not_ (strict_src t inputs.(0))
      | Netlist.Gequal ->
          (* [equal_fold] over the two halves of the input array *)
          let n = Array.length inputs / 2 in
          let acc = ref Logic.One in
          for i = 0 to n - 1 do
            acc :=
              Logic.and2 !acc
                (Logic.equal2 (strict_src t inputs.(i))
                   (strict_src t inputs.(n + i)))
          done;
          !acc
      | Netlist.Grandom -> assert false)
  | Graph.Ndriver { guard; source; _ } -> (
      match guard with
      | None -> strict_src t source
      | Some gs -> (
          match Logic.booleanize (strict_src t gs) with
          | Logic.Zero -> Logic.Noinfl
          | Logic.One -> strict_src t source
          | Logic.Undef | Logic.Noinfl -> Logic.Undef))

(* the value a producer-less class reads this cycle *)
let seed_value t c =
  let g = t.g in
  match t.poked.(c) with
  | Some v -> v
  | None ->
      if c = g.Graph.clk then Logic.One
      else if c = g.Graph.rset then Logic.Zero
      else
        let r = Graph.reg_of_out g c in
        if r >= 0 then t.reg_state.(r) else Logic.Undef

(* ------------------------------------------------------------------ *)
(* Dirty-cone propagation (incremental engine + conflict re-fire)       *)
(* ------------------------------------------------------------------ *)

let overflow_slot t = Array.length t.node_fill - 1

(* Push [x] on slot [b].  Only the cyclic overflow slot can outgrow its
   create-time size: a fixpoint cut off by its budget leaves entries
   behind, and a later pass may push them again. *)
let push stacks fill b x =
  let k = fill.(b) in
  if k = Array.length stacks.(b) then begin
    let grown = Array.make (max 8 (2 * k)) 0 in
    Array.blit stacks.(b) 0 grown 0 k;
    stacks.(b) <- grown
  end;
  stacks.(b).(k) <- x;
  fill.(b) <- k + 1

let schedule_node t node =
  if t.node_mark.(node) <> t.epoch then begin
    t.node_mark.(node) <- t.epoch;
    let l = t.sched.Sched.node_level.(node) in
    push t.node_stack t.node_fill (if l < 0 then overflow_slot t else l) node;
    t.any_scheduled <- true
  end

let schedule_net t net =
  if t.net_mark.(net) <> t.epoch then begin
    t.net_mark.(net) <- t.epoch;
    let l = t.sched.Sched.net_level.(net) in
    push t.net_stack t.net_fill (if l < 0 then overflow_slot t else l) net;
    t.any_scheduled <- true
  end

let mark_reg_dirty t i =
  if not t.reg_dirty.(i) then begin
    t.reg_dirty.(i) <- true;
    t.reg_dirty_list <- i :: t.reg_dirty_list
  end

let rec mark_regs_dirty t = function
  | [] -> ()
  | i :: rest ->
      mark_reg_dirty t i;
      mark_regs_dirty t rest

(* The stored option of a value.  [Some] of a constant constructor is a
   static constant, so the per-visit stores allocate nothing. *)
let some_value = function
  | Logic.Zero -> Some Logic.Zero
  | Logic.One -> Some Logic.One
  | Logic.Undef -> Some Logic.Undef
  | Logic.Noinfl -> Some Logic.Noinfl

(* [o] is [Some v]: a match, not a call into [Logic.equal], since the
   cone pass asks once per visit *)
let[@inline] holds o (v : Logic.t) =
  match (o, v) with
  | Some Logic.Zero, Logic.Zero
  | Some Logic.One, Logic.One
  | Some Logic.Undef, Logic.Undef
  | Some Logic.Noinfl, Logic.Noinfl ->
      true
  | _ -> false

(* set ([on]) or clear the live bits of the edges class [c] guards *)
let set_live t c on =
  for i = t.guard_off.(c) to t.guard_off.(c + 1) - 1 do
    let k = t.guarded.(i) in
    let w = k / live_bits and b = 1 lsl (k mod live_bits) in
    t.live.(w) <- (if on then t.live.(w) lor b else t.live.(w) land lnot b)
  done

(* The writer of [values] outside [step_full]'s firing, with its
   power-up fill [clear_values]: a class that starts or stops reading
   [Some Zero] clears or sets the live bits of the edges it guards, so
   an exact [live] stays exact. *)
let[@inline] set_value t c v =
  (if t.guard_off.(c) < t.guard_off.(c + 1) then
     match (t.values.(c), v) with
     | Some Logic.Zero, Some Logic.Zero -> ()
     | Some Logic.Zero, _ -> set_live t c true
     | _, Some Logic.Zero -> set_live t c false
     | _ -> ());
  t.values.(c) <- v

(* every class reads [None], so every edge is live *)
let clear_values t =
  Array.fill t.values 0 (Array.length t.values) None;
  Array.fill t.live 0 (Array.length t.live) live_word

(* [live] read off [values] afresh, for [step_full], which fires
   without keeping it *)
let rebuild_live t =
  Array.fill t.live 0 (Array.length t.live) live_word;
  for c = 0 to Array.length t.values - 1 do
    if t.guard_off.(c) < t.guard_off.(c + 1) && holds t.values.(c) Logic.Zero
    then set_live t c false
  done

(* the one writer of [produced]: node [node] of output class [cls] now
   produces [v], and the class's tally follows *)
let set_produced t node cls v =
  let old = match t.produced.(node) with Some u -> tally_unit u | None -> 0 in
  t.tally.(cls) <- t.tally.(cls) - old + tally_unit v;
  t.produced.(node) <- some_value v

let[@inline] same_value (a : Logic.t option) b =
  match (a, b) with
  | Some x, _ -> holds b x
  | None, None -> true
  | None, Some _ -> false

(* Recompute a class's resolution from its tally (or, for
   producer-less classes, its seed); true when its value changed.  A
   newly entered conflict joins [conflict_list]; [emit_conflict] also
   reports it at once, while the incremental engine instead reports
   every standing conflict once per cycle, after its pass. *)
let finalize_net t ~emit_conflict net =
  let g = t.g in
  let old_value = t.values.(net) in
  let value =
    if g.Graph.producer_count.(net) = 0 then some_value (seed_value t net)
    else begin
      let x = t.tally.(net) in
      if drives x >= 2 then begin
        if not t.in_conflict.(net) then begin
          t.in_conflict.(net) <- true;
          t.conflict_list <- net :: t.conflict_list;
          if emit_conflict then conflict_error t net
        end
      end
      else if t.in_conflict.(net) then t.in_conflict.(net) <- false;
      (* stale entries are filtered from conflict_list lazily *)
      let v = resolved x in
      some_value
        (match g.Graph.class_kind.(net) with
        | Etype.KBool -> Logic.booleanize v
        | Etype.KMux -> v)
    end
  in
  set_value t net value;
  not (same_value value old_value)

let process_node t node =
  t.node_visits <- t.node_visits + 1;
  let v = strict_eval_node t node in
  if not (holds t.produced.(node) v) then begin
    let out = Graph.node_output t.g.Graph.nodes.(node) in
    set_produced t node out v;
    schedule_net t out
  end

(* A changed class schedules its consumers — except a driver whose
   source changed while its guard, another class, reads 0: that driver
   produces NOINFL whatever its source (section 8), and already does.
   The guard may still be stale: if it changes later this cycle, it
   schedules the driver through its own edge.  So the skipped visit is
   exactly a re-evaluation that would change nothing.

   The skip costs no test per edge: [live] has the bit of each such
   edge clear, so the walk visits the set bits of the class's edge
   range in ascending order — a zero word in one test, the partial
   first and last words masked — and schedules what a per-edge guard
   test would, in the same order.  A changed class costs O(width / 62
   + enabled drivers); a class with one consumer, the common case on
   busy designs, tests its one bit instead.

   Every processed class of the incremental pass marks its registers
   for the latch.  A latch whose input resolution did not change is a
   no-op, so this needs no record of the class's previous resolution. *)
let process_net t ~emit_conflict ~incremental net =
  let g = t.g in
  if finalize_net t ~emit_conflict net then begin
    if incremental then begin
      (match (t.prev_values.(net), t.values.(net)) with
      | Some a, (Some _ as b) when not (holds b a) ->
          t.toggles.(net) <- t.toggles.(net) + 1;
          t.changed <- t.changed + 1
      | _ -> ());
      t.prev_values.(net) <- t.values.(net);
      if t.trace_enabled then
        match t.values.(net) with
        | Some v -> t.trace <- (net, v) :: t.trace
        | None -> ()
    end;
    let lo = g.Graph.cons_off.(net) and hi = g.Graph.cons_off.(net + 1) in
    if hi - lo = 1 then begin
      (* most classes have one consumer: test its bit *)
      if t.live.(lo / live_bits) land (1 lsl (lo mod live_bits)) <> 0 then
        schedule_node t g.Graph.cons_nodes.(lo)
    end
    else if lo < hi then begin
      let first = lo / live_bits and last = (hi - 1) / live_bits in
      for wi = first to last do
        let base = wi * live_bits in
        let w = t.live.(wi) in
        let w = if wi = first then w land (live_word lsl (lo - base)) else w in
        let w = if wi = last then w land ((1 lsl (hi - base)) - 1) else w in
        let w = ref w in
        while !w <> 0 do
          let b = !w land (- !w) in
          schedule_node t g.Graph.cons_nodes.(base + bit_of_power.(b mod 67));
          w := !w lxor b
        done
      done
    end
  end;
  if incremental then mark_regs_dirty t g.Graph.regs_of_in.(net)

(* Forward pass over the level stacks: nodes of level l, then classes
   of level l.  A level-l node pushes only classes of level >= l and a
   level-l class only nodes of a later level, so no stack grows while
   it is walked.  Classes caught in combinational cycles live in the
   overflow slot and are relaxed to a bounded fixpoint. *)
let run_pass t ~emit_conflict ~incremental =
  if t.any_scheduled then begin
    t.any_scheduled <- false;
    let levels = overflow_slot t in
    for l = 0 to levels - 1 do
      let n = t.node_fill.(l) in
      if n > 0 then begin
        t.node_fill.(l) <- 0;
        let s = t.node_stack.(l) in
        for k = 0 to n - 1 do
          process_node t s.(k)
        done
      end;
      let n = t.net_fill.(l) in
      if n > 0 then begin
        t.net_fill.(l) <- 0;
        let s = t.net_stack.(l) in
        for k = 0 to n - 1 do
          process_net t ~emit_conflict ~incremental s.(k)
        done
      end
    done;
    (* overflow: combinational cycles (designs with check errors only) —
       iterate to a bounded fixpoint; unmark before processing so items
       can be re-scheduled by later changes *)
    if t.node_fill.(levels) > 0 || t.net_fill.(levels) > 0 then begin
      let budget = ref 1000 in
      let continue_ = ref true in
      while !continue_ && !budget > 0 do
        continue_ := false;
        decr budget;
        let n = t.net_fill.(levels) in
        if n > 0 then begin
          t.net_fill.(levels) <- 0;
          continue_ := true;
          let s = t.net_stack.(levels) in
          for k = 0 to n - 1 do
            let net = s.(k) in
            t.net_mark.(net) <- t.epoch - 1;
            process_net t ~emit_conflict ~incremental net
          done
        end;
        let n = t.node_fill.(levels) in
        if n > 0 then begin
          t.node_fill.(levels) <- 0;
          continue_ := true;
          let s = t.node_stack.(levels) in
          for k = 0 to n - 1 do
            let node = s.(k) in
            t.node_mark.(node) <- t.epoch - 1;
            process_node t node
          done
        end
      done
    end
  end

(* end-of-cycle register latch: "If in is not changed during a clock
   cycle, it keeps its value" (section 5.1) — a register input whose
   drivers all produced NOINFL was not changed, even though a boolean
   *read* of that net sees UNDEF; hence we look at the driving count,
   not the fired value. *)
let latch_reg t i =
  let g = t.g in
  let c = g.Graph.reg_in.(i) in
  let old = t.reg_state.(i) in
  (if g.Graph.producer_count.(c) = 0 then (
     (* producer-less: a testbench input or a floating pin *)
     match t.values.(c) with
     | None | Some Logic.Noinfl -> ()
     | Some v -> t.reg_state.(i) <- Logic.booleanize v)
   else if t.tally.(c) <> 0 then
     t.reg_state.(i) <- Logic.booleanize (resolved t.tally.(c)));
  (* a changed stored value is a changed seed for the next cycle *)
  if not (Logic.equal old t.reg_state.(i)) then mark_seed t g.Graph.reg_out.(i)

(* ------------------------------------------------------------------ *)
(* One full clock cycle (Firing; Incremental cold start; cyclic designs) *)
(* ------------------------------------------------------------------ *)

let step_full t =
  let g = t.g in
  let n_nodes = Array.length g.Graph.nodes in
  let n = g.Graph.n_classes in
  (* the firing writes [values] directly and leaves [live] stale until
     [rebuild_live] below *)
  Array.fill t.values 0 n None;
  Array.fill t.produced 0 n_nodes None;
  Array.fill t.tally 0 n 0;
  Array.fill t.fired 0 n false;
  Array.blit g.Graph.producer_count 0 t.remaining 0 n;
  List.iter (fun c -> t.in_conflict.(c) <- false) t.conflict_list;
  t.conflict_list <- [];
  t.trace <- [];
  let worklist = Queue.create () in
  let fire net v =
    if not t.fired.(net) then begin
      t.fired.(net) <- true;
      t.values.(net) <- Some v;
      if t.trace_enabled then t.trace <- (net, v) :: t.trace;
      Graph.iter_consumers g net (fun nid -> Queue.add nid worklist)
    end
  in
  (* Incremental resolution: the tally resolves what has been produced
     so far; a second driving value is a conflict and forces UNDEF.
     Firing rule (a) of section 8: a boolean net fires on its first
     driving value; a multiplex net fires once all producers fired. *)
  let produce node_id net v =
    if t.produced.(node_id) = None then begin
      set_produced t node_id net v;
      t.remaining.(net) <- t.remaining.(net) - 1;
      let driving = not (Logic.equal v Logic.Noinfl) in
      if driving && drives t.tally.(net) = 2 then begin
        conflict_error t net;
        t.values.(net) <- Some Logic.Undef;
        if not t.in_conflict.(net) then begin
          t.in_conflict.(net) <- true;
          t.conflict_list <- net :: t.conflict_list
        end
      end;
      match g.Graph.class_kind.(net) with
      | Etype.KBool ->
          if driving then fire net (Logic.booleanize (resolved t.tally.(net)))
          else if t.remaining.(net) = 0 && not t.fired.(net) then
            fire net Logic.Undef
      | Etype.KMux ->
          if t.remaining.(net) = 0 then fire net (resolved t.tally.(net))
    end
  in
  let try_node node_id =
    if t.produced.(node_id) = None then begin
      t.node_visits <- t.node_visits + 1;
      match g.Graph.nodes.(node_id) with
      | Graph.Ngate { op = Netlist.Grandom; output; _ } ->
          produce node_id output (random_value t output)
      | Graph.Ngate { op; inputs; output } -> (
          match eval_gate t op inputs with
          | Some v -> produce node_id output v
          | None -> ())
      | Graph.Ndriver { guard; source; target } -> (
          match eval_driver t guard source with
          | Some v -> produce node_id target v
          | None -> ())
    end
  in
  let rec drain () =
    match Queue.take_opt worklist with
    | Some node_id ->
        try_node node_id;
        drain ()
    | None -> ()
  in
  (* seed producer-less classes: testbench inputs, register outputs, CLK,
     RSET, and undriven nets (which read UNDEF) — register outputs via
     the create-time class -> register map, not a per-cycle hashtable *)
  for net = 0 to n - 1 do
    if t.remaining.(net) = 0 then fire net (seed_value t net)
  done;
  (* nodes with only constant inputs fire without stimulus *)
  Array.iter try_node t.const_nodes;
  drain ();
  (* defensive: anything still unfired (only on designs with check
     errors, e.g. combinational cycles) reads UNDEF *)
  let rec mop_up budget =
    if budget > 0 then begin
      let stuck = ref false in
      for net = 0 to n - 1 do
        if (not t.fired.(net)) && Graph.consumer_count g net > 0 then begin
          stuck := true;
          fire net Logic.Undef
        end
      done;
      if !stuck then begin
        drain ();
        mop_up (budget - 1)
      end
    end
  in
  mop_up 1000;
  (* a cone pass reads [live]: this cycle's re-propagation, or the next
     cycle's on an incremental handle, whose cold cycle this is *)
  if t.conflict_list <> [] || (t.engine = Incremental && t.sched.Sched.acyclic)
  then rebuild_live t;
  (* Conflict re-propagation: a second driving value forces a net to
     UNDEF *after* consumers may already have fired on the first value,
     which would make downstream values depend on the engine's schedule.
     Strictly re-evaluate the downstream cone of every conflicted net so
     the cycle's final values are schedule-independent. *)
  if t.conflict_list <> [] then begin
    t.epoch <- t.epoch + 1;
    List.iter
      (fun c -> Graph.iter_consumers g c (fun node -> schedule_node t node))
      t.conflict_list;
    run_pass t ~emit_conflict:true ~incremental:false
  end;
  (* latch the registers *)
  for i = 0 to Array.length g.Graph.regs - 1 do
    latch_reg t i
  done;
  (* switching-activity accounting: count value changes between
     consecutive cycles (the classic dynamic-power proxy) *)
  for net = 0 to n - 1 do
    (match (t.prev_values.(net), t.values.(net)) with
    | Some a, Some b when not (Logic.equal a b) ->
        t.toggles.(net) <- t.toggles.(net) + 1
    | _ -> ());
    t.prev_values.(net) <- t.values.(net)
  done;
  t.started <- true;
  t.cycle <- t.cycle + 1

(* ------------------------------------------------------------------ *)
(* One incremental clock cycle                                          *)
(* ------------------------------------------------------------------ *)

let step_incremental t =
  let g = t.g in
  t.epoch <- t.epoch + 1;
  t.trace <- [];
  t.changed <- 0;
  (* RANDOM sources re-draw every cycle; each draw is the pure function
     {!random_value} of the output class, so neither order nor engine
     affects the stream *)
  Array.iter
    (fun node ->
      t.node_visits <- t.node_visits + 1;
      let out = Graph.node_output g.Graph.nodes.(node) in
      let v = random_value t out in
      if not (holds t.produced.(node) v) then begin
        set_produced t node out v;
        schedule_net t out
      end)
    t.random_nodes;
  (* seeds that may have changed: pokes/unpokes since last cycle and
     register outputs that latched a new value *)
  let dirty = t.seed_dirty_list in
  t.seed_dirty_list <- [];
  List.iter
    (fun c ->
      t.seed_dirty.(c) <- false;
      if
        g.Graph.producer_count.(c) = 0
        && not (holds t.values.(c) (seed_value t c))
      then schedule_net t c)
    dirty;
  run_pass t ~emit_conflict:false ~incremental:true;
  (* a traced cycle lists its changed classes in class order, as a
     program cycle's sweep does ([t.trace] is newest first) *)
  if t.trace_enabled then
    t.trace <- List.sort (fun (a, _) (b, _) -> compare b a) t.trace;
  (* the runtime multiple-drive check re-reports a standing conflict
     every cycle, like the firing engine, in class order *)
  if t.conflict_list <> [] then begin
    t.conflict_list <- List.filter (fun c -> t.in_conflict.(c)) t.conflict_list;
    List.iter (fun c -> conflict_error t c) (List.sort compare t.conflict_list)
  end;
  (* latch only the registers whose input resolution changed *)
  let regs = t.reg_dirty_list in
  t.reg_dirty_list <- [];
  List.iter
    (fun i ->
      t.reg_dirty.(i) <- false;
      latch_reg t i)
    regs;
  t.cycle <- t.cycle + 1

(* ------------------------------------------------------------------ *)
(* One program cycle                                                   *)
(* ------------------------------------------------------------------ *)

(* the run's one-run store, allocated on its first program cycle, so
   templates and batch clones that never step one allocate nothing *)
let store t prog =
  match t.cstate with
  | Some st -> st
  | None ->
      let st = Bytecode.create_sliced prog in
      Bytecode.reset_sliced prog st ~seeds:[| t.seed |];
      t.cstate <- Some st;
      st

(* the store's copy of class [c]'s poke (or release) *)
let sync_poke t st c =
  match t.poked.(c) with
  | Some v -> Bytecode.poke_run st ~run:0 c v
  | None -> Bytecode.unpoke_run st ~run:0 c

(* the conflicting classes of a one-run cycle, in class order *)
let report_conflicts t confs =
  List.iter (fun (c, _) -> conflict_error t c) (List.sort compare confs)

(* One cycle through the program, for the compiled engine and the
   incremental engine's program stretches alike.  The program is
   authoritative for net values (the store) and register contents
   while it runs: peeks and snapshots read the store ([value_of_net],
   [snapshot]), the change sweep accrues toggles and the trace without
   touching [t.values], and [reg_state] follows the store's registers,
   so [reg_states] needs no dispatch.  On the incremental engine each
   register change is a dirty seed, as [latch_reg] marks it, for the
   busy rule and for the cone pass to take the run back; the compiled
   engine marks none, since the compare per register cost its
   patternmatch(9) cycle 13 % (E27). *)
let program_cycle t prog st =
  let dirty = t.seed_dirty_list in
  t.seed_dirty_list <- [];
  List.iter
    (fun c ->
      t.seed_dirty.(c) <- false;
      sync_poke t st c)
    dirty;
  (* the runtime multiple-drive check re-reports a standing conflict
     every cycle, in class order like the warm incremental path *)
  report_conflicts t (Bytecode.run_sliced prog st ~cycle:t.cycle);
  t.node_visits <- t.node_visits + prog.Bytecode.visits_per_cycle;
  t.trace <- [];
  let on_change =
    if t.trace_enabled then
      Some (fun c -> t.trace <- (c, Bytecode.get_run st ~run:0 c) :: t.trace)
    else None
  in
  t.changed <-
    Bytecode.sweep st ~first:(not t.started) ~toggles:t.toggles ~on_change;
  for i = 0 to Array.length t.g.Graph.regs - 1 do
    let v = Bytecode.get_reg st i in
    if t.engine = Incremental && not (Logic.equal v t.reg_state.(i)) then
      mark_seed t t.g.Graph.reg_out.(i);
    t.reg_state.(i) <- v
  done;
  t.started <- true;
  t.cycle <- t.cycle + 1

(* ------------------------------------------------------------------ *)
(* Incremental engine: busy cycles through the compiled program         *)
(* ------------------------------------------------------------------ *)

(* The cone pass costs 100-500 ns per visited node; a program cycle
   evaluates every node, but for far less per node.  So a busy run of
   the incremental engine hands its cycles to the {!Compile}d program and
   takes them back when activity drops.  The rule reads the cycle's
   toggles, which both evaluators count alike, and never the clock, so
   the switch decisions are a function of the run's values alone:

   - a cycle is busy when the classes it toggled reach
     [dense_num/dense_den] of the graph's classes and it changed at most
     one stored register value;
   - after [enter_after] busy cone cycle the next cycle runs the
     program; after [switch_after] program cycles in a row that are not
     busy the next one runs the cone pass again.

   DESIGN.md gives the measurement behind both constants.  Either
   evaluator reports the same run: values, errors in class order,
   toggles and the trace of changed classes in class order.
   [node_visits] counts what ran: a program cycle adds the program's
   [visits_per_cycle], as the compiled engine does.  A program cycle
   commits whatever it latches; the register clause only keeps
   register-heavy designs in the cone pass, as measured so far, until
   the rule is re-derived (DESIGN.md). *)
let dense_num = 1

let dense_den = 8

let enter_after = 1

let switch_after = 4

(* the seeds left listed after a cycle are the registers it changed *)
let busy t =
  t.changed * dense_den >= dense_num * t.g.Graph.n_classes
  && match t.seed_dirty_list with _ :: _ :: _ -> false | _ -> true

(* the cycle about to run has something to propagate: a seed that may
   have changed (a poke, a register that latched a new value) or a
   RANDOM source.  Without one a cone cycle costs O(1), and entering
   the program for it would buy nothing and commit the run to
   [switch_after] program cycles and a strict pass to leave *)
let pending t = t.seed_dirty_list <> [] || Array.length t.random_nodes > 0

(* built at most once per template, whichever domain asks first *)
let shared_program t =
  match Atomic.get t.iprog.built with
  | Some p -> p
  | None ->
      Mutex.protect t.iprog.lock (fun () ->
          match Atomic.get t.iprog.built with
          | Some p -> p
          | None ->
              let p = Compile.build t.g t.sched in
              Atomic.set t.iprog.built (Some p);
              p)

(* Hand the run to the program: the store (at power-up — fresh, or
   reset when the last program stretch ended) takes the standing pokes
   and register contents, and its previous-cycle values take this
   cycle's values, so toggle counting carries on across the switch. *)
let enter_program t prog =
  let st = store t prog in
  for c = 0 to t.g.Graph.n_classes - 1 do
    sync_poke t st c;
    Bytecode.set_prev st c (Option.value ~default:Logic.Undef t.values.(c))
  done;
  Array.iteri (Bytecode.set_reg st) t.reg_state;
  t.program <- Some prog;
  t.run_len <- 0

(* Take the run back at the last committed cycle, which the store's
   previous-cycle values hold: decode it into [values], then rebuild the
   per-node and per-class resolution state the cone pass reads with one
   strict pass (RANDOM draws at that cycle, [t.cycle - 1]).  The store
   goes back to power-up, so peeks and snapshots read [values] again. *)
let leave_program t prog st =
  let g = t.g in
  for c = 0 to g.Graph.n_classes - 1 do
    let v = some_value (Bytecode.get_prev st c) in
    set_value t c v;
    t.prev_values.(c) <- v
  done;
  let cycle = t.cycle - 1 in
  Array.iteri
    (fun node n ->
      let v =
        match n with
        | Graph.Ngate { op = Netlist.Grandom; output; _ } ->
            Logic.of_bool (Prand.bool ~seed:t.seed ~net:output ~cycle)
        | _ -> strict_eval_node t node
      in
      set_produced t node (Graph.node_output n) v)
    g.Graph.nodes;
  List.iter (fun c -> t.in_conflict.(c) <- false) t.conflict_list;
  t.conflict_list <- [];
  for c = 0 to g.Graph.n_classes - 1 do
    if g.Graph.producer_count.(c) > 0 then
      ignore (finalize_net t ~emit_conflict:false c)
  done;
  Bytecode.reset_sliced prog st ~seeds:[| t.seed |];
  t.program <- None;
  t.run_len <- 0

let step_warm t =
  (match t.program with
  | Some prog when t.run_len >= switch_after ->
      leave_program t prog (store t prog)
  | None when t.run_len >= enter_after && pending t -> (
      match shared_program t with
      | Some prog -> enter_program t prog
      | None -> t.run_len <- 0 (* nothing to switch to *))
  | _ -> ());
  (match t.program with
  | Some prog ->
      program_cycle t prog (store t prog);
      t.program_cycles <- t.program_cycles + 1
  | None -> step_incremental t);
  (* a busy cone cycle, or a sparse program cycle, is one more step
     towards the other evaluator *)
  if busy t = Option.is_none t.program then
    t.run_len <- t.run_len + 1
  else t.run_len <- 0

let compiled_program t = t.cprog

let step t =
  match t.engine with
  | Incremental when t.started && t.sched.Sched.acyclic -> step_warm t
  | Compiled -> (
      match t.cprog with
      | Some prog -> program_cycle t prog (store t prog)
      | None -> step_full t (* combinational cycle: no schedule to compile *))
  | _ -> step_full t

let step_n t n =
  for _ = 1 to n do
    step t
  done

(* step until [pred] holds, at most [max] cycles; returns the number of
   cycles stepped, or [None] on timeout *)
let run_until t ~max pred =
  let rec go n =
    if n >= max then None
    else begin
      step t;
      if pred t then Some (n + 1) else go (n + 1)
    end
  in
  go 0

(* pulse RSET for one cycle, restoring whatever the testbench had poked
   (or not poked) on RSET before the pulse *)
let reset t =
  let rset = t.g.Graph.rset in
  let saved = t.poked.(rset) in
  t.poked.(rset) <- Some Logic.One;
  mark_seed t rset;
  step t;
  t.poked.(rset) <- saved;
  mark_seed t rset

(* full power-up re-initialization: the handle behaves exactly like a
   fresh [create] with the same design, engine and seed — every residual
   bit of cross-cycle state (values, register contents, pokes, dirty
   sets, epoch stamps, counters) is cleared, so re-entry is
   reproducible *)
let restart t =
  clear_values t;
  Array.fill t.produced 0 (Array.length t.produced) None;
  Array.fill t.remaining 0 (Array.length t.remaining) 0;
  Array.fill t.tally 0 (Array.length t.tally) 0;
  Array.fill t.fired 0 (Array.length t.fired) false;
  Array.iteri
    (fun i (r : Netlist.reg) -> t.reg_state.(i) <- r.Netlist.rinit)
    t.g.Graph.regs;
  Array.fill t.poked 0 (Array.length t.poked) None;
  t.cycle <- 0;
  t.errors <- [];
  t.node_visits <- 0;
  t.trace <- [];
  Array.fill t.prev_values 0 (Array.length t.prev_values) None;
  Array.fill t.toggles 0 (Array.length t.toggles) 0;
  t.started <- false;
  t.epoch <- 0;
  Array.fill t.node_mark 0 (Array.length t.node_mark) 0;
  Array.fill t.net_mark 0 (Array.length t.net_mark) 0;
  Array.fill t.node_fill 0 (Array.length t.node_fill) 0;
  Array.fill t.net_fill 0 (Array.length t.net_fill) 0;
  t.any_scheduled <- false;
  Array.fill t.seed_dirty 0 (Array.length t.seed_dirty) false;
  t.seed_dirty_list <- [];
  Array.fill t.in_conflict 0 (Array.length t.in_conflict) false;
  t.conflict_list <- [];
  Array.fill t.reg_dirty 0 (Array.length t.reg_dirty) false;
  t.reg_dirty_list <- [];
  (* back to the cone pass; the incremental engine's store is already
     at power-up unless a program stretch is running *)
  (match (t.cprog, t.program, t.cstate) with
  | Some prog, _, Some st | None, Some prog, Some st ->
      Bytecode.reset_sliced prog st ~seeds:[| t.seed |]
  | _ -> ());
  t.program <- None;
  t.run_len <- 0;
  t.program_cycles <- 0

(* switching activity: nets with the most value changes so far,
   descending; gate temporaries (names containing '#') are skipped *)
let activity ?(top = 10) t =
  let rows = ref [] in
  Array.iteri
    (fun net count ->
      if count > 0 && not (String.contains t.g.Graph.names.(net) '#') then
        rows := (t.g.Graph.names.(net), count) :: !rows)
    t.toggles;
  let sorted = List.sort (fun (_, a) (_, b) -> compare b a) !rows in
  List.filteri (fun i _ -> i < top) sorted

let total_toggles t = Array.fold_left ( + ) 0 t.toggles

(* snapshot of all net values, indexed by original net id with the value
   stored at each alias class's union-find root — the representation
   predates compaction, and the engine-equivalence tests compare these
   arrays structurally *)
let snapshot t =
  let g = t.g in
  match t.cstate with
  | Some st when Bytecode.ran st ->
      (* every class is evaluated every compiled cycle, so every
         representative reads [Some] — exactly like the firing
         engine after its first full cycle *)
      Array.init g.Graph.n_nets (fun i ->
          let c = g.Graph.canon.(i) in
          if g.Graph.rep.(c) = i then Some (Bytecode.get_run st ~run:0 c)
          else None)
  | _ when Option.is_some t.cprog ->
      (* a program handle before its first cycle: nothing fired *)
      Array.make g.Graph.n_nets None
  | _ ->
      Array.init g.Graph.n_nets (fun i ->
          let c = g.Graph.canon.(i) in
          if g.Graph.rep.(c) = i then t.values.(c) else None)

(* ------------------------------------------------------------------ *)
(* Batch engine: whole independent runs sharded over the pool           *)
(* ------------------------------------------------------------------ *)

(* The parallelism Zeus actually has is many independent runs (fuzz
   cases, stimulus vectors, regression corpora): sharding whole runs
   needs zero cross-run barriers, and the splitmix RANDOM — a pure
   function of (seed, class, cycle) — makes every run replay
   deterministically wherever it lands.

   The executor reads one form, the packed {!Stimulus}: every path was
   resolved once, before any fan-out, by the front end that built it
   (the deck reader, or [run_batch]'s string wrapper), so the workers
   never see a path string.  Each run's pokes are a stream of (entry,
   value) varints, expanded to class pokes as each line is applied; the
   only per-batch work here maps each entry's nets to classes.  Three
   execution paths, all bit-identical to a serial run:

   - the bit-sliced path: up to [lanes] (at most 63) consecutive runs
     with equal cycle counts form a group on the compiled program's
     bit-sliced store ({!Bytecode.run_sliced}), run r of the group in
     bit r of every word, so one dispatch walk of word ops evaluates
     the whole group.  Each domain allocates its store once and resets
     it between groups;
   - a zero-cycle run never steps, so its watches read the power-up
     value every engine gives a fresh handle: UNDEF on every bit;
   - the serial fallback (interpreted engines, combinational-cycle
     designs, [lanes = 1]): a fresh per-run handle stepped with the
     template's engine.

   This sharding layer is the pool's only user inside the simulator;
   stepping a handle never forks, so inner handles cannot nest a
   region. *)

type batch_run = Stimulus.batch_run = {
  br_stim : (string * Logic.t list) list array;
  br_cycles : int;
  br_seed : int option;
  br_watch : string list;
}

type batch_result = {
  bres_snaps : Logic.t option array list;
      (* per cycle, when requested: the last one is the final state *)
  bres_errors : runtime_error list;
  bres_watched : (string * Logic.t list) list;
}

(* deterministic functions of (design, runs, jobs, lanes): no
   wall-clock, so they are golden-testable under --stats *)
type batch_stats = {
  bs_runs : int;
  bs_jobs : int;
  bs_lanes : int; (* group width: runs per bit-sliced pass *)
  bs_lane_groups : int; (* bit-sliced groups executed *)
  bs_lane_runs : int; (* runs evaluated through the bit-sliced path *)
  bs_serial_runs : int; (* runs evaluated one at a time, or not at all *)
  bs_cycles : int; (* total cycles across all runs *)
}

(* A fresh handle sharing the compile artifacts (graph, schedule,
   bytecode program, the incremental engine's on-demand program) of [t]
   but owning every piece of mutable run state — the per-run clone of
   the batch engine's serial path. *)
let fresh_like t ~seed =
  alloc ~g:t.g ~sched:t.sched ~engine:t.engine ~seed
    ~const_nodes:t.const_nodes ~random_nodes:t.random_nodes
    ~guards:(t.guard_off, t.guarded) ~cprog:t.cprog ~iprog:t.iprog ~jobs:t.jobs

(* the watched paths of [run], read through [value] *)
let watched (st : Stimulus.t) (run : Stimulus.run) value =
  Array.fold_right
    (fun w acc ->
      let e = st.Stimulus.watches.(w) in
      (e.path, Array.fold_right (fun id l -> value id :: l) e.nets []) :: acc)
    run.Stimulus.watch []

(* run [run] of [st], one fresh handle, the template's engine *)
let batch_exec_serial tmpl st classes (run : Stimulus.run) ~snapshots =
  let t =
    fresh_like tmpl ~seed:(Option.value run.Stimulus.seed ~default:tmpl.seed)
  in
  let poke _ c v =
    t.poked.(c) <- some_value v;
    mark_seed t c
  in
  let cur = [| run.Stimulus.off |] and snaps = ref [] in
  for c = 0 to run.Stimulus.cycles - 1 do
    if c < run.Stimulus.lines then Stimulus.apply_line st classes cur 0 poke;
    step t;
    if snapshots then snaps := snapshot t :: !snaps
  done;
  {
    bres_snaps = List.rev !snaps;
    bres_errors = runtime_errors t;
    bres_watched = watched st run (value_of_net t);
  }

(* Runs [lo, hi) share one cycle count: one group on the domain's
   bit-sliced store [w], run [lo + r] in bit r. *)
let batch_exec_sliced tmpl prog w st classes lo hi ~snapshots =
  let g = tmpl.g in
  let runs = st.Stimulus.runs in
  let n = hi - lo in
  Bytecode.reset_sliced prog w
    ~seeds:
      (Array.init n (fun r ->
           Option.value runs.(lo + r).Stimulus.seed ~default:tmpl.seed));
  let poke r c v = Bytecode.poke_run w ~run:r c v in
  let cur = Array.init n (fun r -> runs.(lo + r).Stimulus.off) in
  let errors = Array.make n [] (* newest first, like [t.errors] *)
  and snaps = Array.make n [] in
  let snapshot_of r =
    Array.init g.Graph.n_nets (fun i ->
        let c = g.Graph.canon.(i) in
        if g.Graph.rep.(c) = i then Some (Bytecode.get_run w ~run:r c)
        else None)
  in
  for c = 0 to runs.(lo).Stimulus.cycles - 1 do
    for r = 0 to n - 1 do
      if c < runs.(lo + r).Stimulus.lines then
        Stimulus.apply_line st classes cur r poke
    done;
    (match Bytecode.run_sliced prog w ~cycle:c with
    | [] -> ()
    | confs ->
        (* each run reports its conflicts in class order *)
        let message = conflict_message c in
        List.iter
          (fun (cls, hit) ->
            for r = 0 to n - 1 do
              if (hit lsr r) land 1 = 1 then
                errors.(r) <-
                  drive_conflict g ~cycle:c ~message cls :: errors.(r)
            done)
          (List.sort (fun (a, _) (b, _) -> compare a b) confs));
    if snapshots then
      for r = 0 to n - 1 do
        snaps.(r) <- snapshot_of r :: snaps.(r)
      done
  done;
  Array.init n (fun r ->
      let value id =
        read_net g id (Bytecode.get_run w ~run:r g.Graph.canon.(id))
      in
      {
        bres_snaps = List.rev snaps.(r);
        bres_errors = List.rev errors.(r);
        bres_watched = watched st runs.(lo + r) value;
      })

let run_stimulus ?jobs ?(lanes = Bytecode.max_runs) ?(snapshots = false) t
    (st : Stimulus.t) =
  (* each entry's classes, once per batch *)
  let classes =
    Array.map
      (fun (e : Stimulus.entry) -> Array.map (canon t) e.Stimulus.nets)
      st.Stimulus.entries
  in
  let runs = st.Stimulus.runs in
  let nruns = Array.length runs in
  let jobs =
    let requested = Option.value jobs ~default:t.jobs in
    max 1 (min (min requested Pool.max_jobs) (max 1 nruns))
  in
  let lanes = max 1 (min Bytecode.max_runs lanes) in
  let results = Array.make nruns None in
  (* per-domain counters, merged after the join: contiguous sharding
     makes them (and the results) deterministic for a given [jobs] *)
  let d_groups = Array.make jobs 0
  and d_lane_runs = Array.make jobs 0
  and d_serial_runs = Array.make jobs 0 in
  let exec_slice d =
    let lo = nruns * d / jobs and hi = nruns * (d + 1) / jobs in
    (* this domain's bit-sliced store, allocated on its first group *)
    let store = ref None in
    let i = ref lo in
    while !i < hi do
      let j = !i in
      match t.cprog with
      | _ when runs.(j).Stimulus.cycles <= 0 ->
          (* never stepped: every engine's fresh handle reads UNDEF *)
          results.(j) <-
            Some
              {
                bres_snaps = [];
                bres_errors = [];
                bres_watched = watched st runs.(j) (fun _ -> Logic.Undef);
              };
          d_serial_runs.(d) <- d_serial_runs.(d) + 1;
          incr i
      | Some prog when lanes > 1 ->
          (* greedy group: consecutive runs sharing a cycle count *)
          let k = ref (j + 1) in
          while
            !k < hi
            && !k - j < lanes
            && runs.(!k).Stimulus.cycles = runs.(j).Stimulus.cycles
          do
            incr k
          done;
          let w =
            match !store with
            | Some w -> w
            | None ->
                let w = Bytecode.create_sliced prog in
                store := Some w;
                w
          in
          Array.iteri
            (fun o r -> results.(j + o) <- Some r)
            (batch_exec_sliced t prog w st classes j !k ~snapshots);
          d_groups.(d) <- d_groups.(d) + 1;
          d_lane_runs.(d) <- d_lane_runs.(d) + (!k - j);
          i := !k
      | _ ->
          results.(j) <-
            Some (batch_exec_serial t st classes runs.(j) ~snapshots);
          d_serial_runs.(d) <- d_serial_runs.(d) + 1;
          incr i
    done
  in
  if nruns > 0 then Pool.run ~jobs exec_slice;
  let sum = Array.fold_left ( + ) 0 in
  let stats =
    {
      bs_runs = nruns;
      bs_jobs = jobs;
      bs_lanes = lanes;
      bs_lane_groups = sum d_groups;
      bs_lane_runs = sum d_lane_runs;
      bs_serial_runs = sum d_serial_runs;
      bs_cycles =
        Array.fold_left (fun acc r -> acc + r.Stimulus.cycles) 0 runs;
    }
  in
  ( Array.to_list
      (Array.map
         (function Some r -> r | None -> assert false (* all slots filled *))
         results),
    stats )

(* the string-path front end: the same packed form, the same executor *)
let run_batch ?jobs ?lanes ?snapshots t runs =
  match Stimulus.of_batch_runs (design t) (Array.of_list runs) with
  | Error msg -> Error ("Sim.run_batch: " ^ msg)
  | Ok st -> Ok (run_stimulus ?jobs ?lanes ?snapshots t st)
