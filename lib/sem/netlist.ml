(* The elaborated, bit-level design.

   Elaboration flattens every structured signal into *nets* (one per basic
   substructure) and translates statements into:
   - gates (the predefined function components, bit-blasted),
   - registers (REG instances),
   - drivers (assignments, unconditional or guarded by a condition net),
   - alias classes ("==", union-find).

   Per-net bookkeeping (role, pin-of-instance, reads, stars) feeds the
   static checker. *)

open Zeus_base

type src =
  | Snet of int
  | Sconst of Logic.t

type gate_op =
  | Gand
  | Gor
  | Gnand
  | Gnor
  | Gxor
  | Gnot
  | Gequal (* inputs are the two operands' bits, concatenated *)
  | Grandom (* no inputs; pseudo-random source, section 7 *)

let gate_op_to_string = function
  | Gand -> "AND"
  | Gor -> "OR"
  | Gnand -> "NAND"
  | Gnor -> "NOR"
  | Gxor -> "XOR"
  | Gnot -> "NOT"
  | Gequal -> "EQUAL"
  | Grandom -> "RANDOM"

type net = {
  id : int;
  name : string; (* hierarchical path *)
  kind : Etype.kind;
  (* pin of an instance: (instance id, port mode as seen from inside) *)
  pin : (int * Etype.mode) option;
  loc : Loc.t;
  mutable reads : int; (* number of places reading this net *)
  mutable starred : bool; (* explicitly closed with "*" *)
  mutable touched : int list; (* instance scopes that read/drove/starred it *)
}

type gate = {
  gid : int;
  op : gate_op;
  inputs : src list;
  output : int;
  gloc : Loc.t;
}

type reg = {
  rid : int;
  rin : int;
  rout : int;
  rpath : string;
  rinit : Logic.t; (* power-up value; UNDEF unless REG(c) was used *)
}

type driver = {
  did : int;
  target : int;
  guard : src option; (* None: unconditional *)
  source : src;
  dloc : Loc.t;
}

type instance = {
  iid : int;
  ipath : string;
  itype : string; (* type name for diagnostics *)
  iloc : Loc.t;
  mutable connected : bool; (* a connection statement was given *)
  mutable iports : (string * Etype.mode * int list) list; (* port -> bit nets *)
  mutable is_function_call : bool; (* inlined function component instance *)
}

type t = {
  mutable nets : net array; (* growable; slots >= n_nets are junk *)
  mutable n_nets : int;
  mutable gates : gate list;
  mutable n_gates : int;
  mutable drivers : driver list;
  mutable n_drivers : int;
  mutable regs : reg list;
  mutable n_regs : int;
  mutable instances : instance list;
  mutable n_instances : int;
  (* union-find for "==" aliases *)
  mutable uf_parent : int array;
  (* ordering constraints from SEQUENTIAL: (before, after) net sets *)
  mutable order_constraints : (Loc.t * int list * int list) list;
  driver_index : (int, driver list) Hashtbl.t; (* raw target -> drivers *)
  inst_index : (int, instance) Hashtbl.t;
}

let create () =
  {
    nets = [||];
    n_nets = 0;
    gates = [];
    n_gates = 0;
    drivers = [];
    n_drivers = 0;
    regs = [];
    n_regs = 0;
    instances = [];
    n_instances = 0;
    uf_parent = Array.make 64 0;
    order_constraints = [];
    driver_index = Hashtbl.create 64;
    inst_index = Hashtbl.create 64;
  }

let net_count t = t.n_nets

let fresh_net t ~name ~kind ?pin ~loc () =
  let id = t.n_nets in
  let n = { id; name; kind; pin; loc; reads = 0; starred = false; touched = [] } in
  if id >= Array.length t.nets then begin
    let cap = max 64 (2 * Array.length t.nets) in
    let bigger = Array.make cap n in
    Array.blit t.nets 0 bigger 0 (Array.length t.nets);
    t.nets <- bigger
  end;
  t.nets.(id) <- n;
  t.n_nets <- id + 1;
  if id >= Array.length t.uf_parent then begin
    let bigger = Array.make (max 64 (2 * Array.length t.uf_parent)) 0 in
    Array.blit t.uf_parent 0 bigger 0 (Array.length t.uf_parent);
    t.uf_parent <- bigger
  end;
  t.uf_parent.(id) <- id;
  id

let nets_array t = Array.sub t.nets 0 t.n_nets

let net t id =
  if id < 0 || id >= t.n_nets then invalid_arg "Netlist.net: bad id";
  t.nets.(id)

let add_gate t ~op ~inputs ~output ~loc =
  let g = { gid = t.n_gates; op; inputs; output; gloc = loc } in
  t.gates <- g :: t.gates;
  t.n_gates <- t.n_gates + 1;
  g.gid

let add_reg t ~rin ~rout ~path ~init =
  let r = { rid = t.n_regs; rin; rout; rpath = path; rinit = init } in
  t.regs <- r :: t.regs;
  t.n_regs <- t.n_regs + 1;
  r.rid

(* "It is allowed to specify connections several times as long as they
   are identical" (section 4.3): an exact duplicate of an existing drive
   (same target, source and guard) is dropped. *)
let touch t ~scope id =
  let n = t.nets.(id) in
  if not (List.memq scope n.touched) then n.touched <- scope :: n.touched

let add_driver t ~scope ~target ~guard ~source ~loc =
  touch t ~scope target;
  let duplicate =
    List.exists
      (fun d ->
        d.target = target && d.source = source && d.guard = guard)
      (Option.value ~default:[] (Hashtbl.find_opt t.driver_index target))
  in
  if duplicate then -1
  else begin
    let d = { did = t.n_drivers; target; guard; source; dloc = loc } in
    t.drivers <- d :: t.drivers;
    t.n_drivers <- t.n_drivers + 1;
    Hashtbl.replace t.driver_index target
      (d :: Option.value ~default:[] (Hashtbl.find_opt t.driver_index target));
    d.did
  end

let add_instance t ~path ~type_name ~ports ~loc =
  let i =
    {
      iid = t.n_instances;
      ipath = path;
      itype = type_name;
      iloc = loc;
      connected = false;
      iports = ports;
      is_function_call = false;
    }
  in
  t.instances <- i :: t.instances;
  t.n_instances <- t.n_instances + 1;
  Hashtbl.replace t.inst_index i.iid i;
  i

(* Net ids written (driver targets, gate outputs) since the given driver
   and gate counts — used to build SEQUENTIAL ordering constraints. *)
let writes_since t ~drivers:n_d ~gates:n_g =
  let rec take_drivers acc = function
    | d :: rest when d.did >= n_d -> take_drivers (d.target :: acc) rest
    | _ -> acc
  in
  let rec take_gates acc = function
    | g :: rest when g.gid >= n_g -> take_gates (g.output :: acc) rest
    | _ -> acc
  in
  take_drivers (take_gates [] t.gates) t.drivers

let counts t = (t.n_drivers, t.n_gates)

let instance_count t = t.n_instances

let find_instance t iid = Hashtbl.find t.inst_index iid

let add_order_constraint t ~loc ~before ~after =
  t.order_constraints <- (loc, before, after) :: t.order_constraints

(* --- union-find ------------------------------------------------------ *)

let rec find t i =
  let p = t.uf_parent.(i) in
  if p = i then i
  else begin
    let r = find t p in
    t.uf_parent.(i) <- r;
    r
  end

let union t ~scope a b =
  touch t ~scope a;
  touch t ~scope b;
  let ra = find t a and rb = find t b in
  if ra <> rb then t.uf_parent.(rb) <- ra

let canonical t i = find t i

let same_class t a b = find t a = find t b

(* --- read/star bookkeeping ------------------------------------------- *)

let mark_read t ~scope id =
  (net t id).reads <- (net t id).reads + 1;
  touch t ~scope id

let mark_read_src t ~scope = function
  | Snet id -> mark_read t ~scope id
  | Sconst _ -> ()

let mark_starred t ~scope id =
  (net t id).starred <- true;
  touch t ~scope id

(* --- accessors for later phases -------------------------------------- *)

let gates t = List.rev t.gates

let drivers t = List.rev t.drivers

let regs t = List.rev t.regs

let instances t = List.rev t.instances

let order_constraints t = List.rev t.order_constraints

(* a shallow variant of [t] with replaced gate/driver lists plus extra
   alias unions — the reducer's copy-propagation hook.  Nets and
   instances are shared; the union-find is copied first, so the
   original's classes are untouched; usage bookkeeping ([reads],
   [touched]) is deliberately not updated: these unions are an
   optimization artifact, not source-level '==' aliases. *)
let with_nodes_merged t ~gates ~drivers ~merges =
  let t' =
    {
      t with
      gates = List.rev gates;
      n_gates = List.length gates;
      drivers = List.rev drivers;
      n_drivers = List.length drivers;
      uf_parent = Array.copy t.uf_parent;
    }
  in
  List.iter
    (fun (a, b) ->
      let ra = find t' a and rb = find t' b in
      if ra <> rb then t'.uf_parent.(rb) <- ra)
    merges;
  t'

let stats t =
  Fmt.str "nets=%d gates=%d drivers=%d regs=%d instances=%d" t.n_nets
    t.n_gates t.n_drivers t.n_regs t.n_instances
