(* Structural Verilog backend.

   The emitter works on the compacted class graph ([Graph.t]) in
   levelized schedule order ([Sched.t]), so the output reads top-down
   like the evaluation itself.  Everything here is calibrated against
   sim.ml's semantics, not against what "looks like" the obvious
   Verilog:

   - [Sim.finalize_net] counts every non-NOINFL produced value and
     forces UNDEF on the second one *even when the values agree*.
     Verilog's native wired resolution would merge agreeing drivers, so
     a multi-producer class gets one wire per producer plus an explicit
     first-non-z resolver that yields x on any second driving value.
   - A KBool class with drives = 0 reads UNDEF where the raw resolution
     is NOINFL; registers latch from the *raw* value (all-z keeps the
     stored value).  Classes where the two differ get a separate
     ...$raw wire.
   - [seed_value] consults pokes first, then CLK (constant 1), RSET
     (constant 0), register state, UNDEF.  Producer-less input classes
     become ports; CLK becomes a constant-1 wire plus a separate
     edge-only clock port; producer-less register outputs read their
     always-block reg.
   - RANDOM nodes become input ports: the stream is a pure function of
     (seed, class, cycle) ([Prand]), so a testbench can replay it. *)

open Zeus_base
open Zeus_sem
module Sim = Zeus_sim.Sim
module Prand = Zeus_sim.Prand

(* ------------------------------------------------------------------ *)
(* Name mangling                                                        *)
(* ------------------------------------------------------------------ *)

let reserved_words =
  [
    (* Verilog-2001 *)
    "always"; "and"; "assign"; "automatic"; "begin"; "buf"; "bufif0";
    "bufif1"; "case"; "casex"; "casez"; "cell"; "cmos"; "config";
    "deassign"; "default"; "defparam"; "design"; "disable"; "edge";
    "else"; "end"; "endcase"; "endconfig"; "endfunction"; "endgenerate";
    "endmodule"; "endprimitive"; "endspecify"; "endtable"; "endtask";
    "event"; "for"; "force"; "forever"; "fork"; "function"; "generate";
    "genvar"; "highz0"; "highz1"; "if"; "ifnone"; "incdir"; "include";
    "initial"; "inout"; "input"; "instance"; "integer"; "join"; "large";
    "liblist"; "library"; "localparam"; "macromodule"; "medium";
    "module"; "nand"; "negedge"; "nmos"; "nor"; "noshowcancelled";
    "not"; "notif0"; "notif1"; "or"; "output"; "parameter"; "pmos";
    "posedge"; "primitive"; "pull0"; "pull1"; "pulldown"; "pullup";
    "pulsestyle_ondetect"; "pulsestyle_onevent"; "rcmos"; "real";
    "realtime"; "reg"; "release"; "repeat"; "rnmos"; "rpmos"; "rtran";
    "rtranif0"; "rtranif1"; "scalared"; "showcancelled"; "signed";
    "small"; "specify"; "specparam"; "strong0"; "strong1"; "supply0";
    "supply1"; "table"; "task"; "time"; "tran"; "tranif0"; "tranif1";
    "tri"; "tri0"; "tri1"; "triand"; "trior"; "trireg"; "unsigned";
    "use"; "uwire"; "vectored"; "wait"; "wand"; "weak0"; "weak1";
    "while"; "wire"; "wor"; "xnor"; "xor";
    (* common SystemVerilog type keywords, so the output also loads in
       -g2012 tools without escaping surprises *)
    "always_comb"; "always_ff"; "always_latch"; "bit"; "byte"; "enum";
    "int"; "interface"; "logic"; "longint"; "modport"; "packed";
    "shortint"; "struct"; "typedef"; "union";
  ]

(* built at module initialization, not lazily: exports run on several
   domains at once, and a lazy forced concurrently raises *)
let reserved_tbl =
  let h = Hashtbl.create 256 in
  List.iter (fun w -> Hashtbl.replace h w ()) reserved_words;
  h

let is_reserved w = Hashtbl.mem reserved_tbl w

let hex_digit = "0123456789abcdef"

(* The wrapper prefix "v$" never appears in an unwrapped escape result
   (escaping a literal "v$..." yields "v$$...", which is itself wrapped
   below), so mangling stays injective and demangle can strip exactly
   one prefix.

   Identifier characters pass through; '.', '[', ']', '#' and '$'
   become two-byte escapes and every other byte "$x" plus two
   lowercase hex digits.  Mangling runs once per class name, so it
   measures its output first and fills exact-size bytes in plain
   loops.  The wrap test reads the source: an escape starts with '$',
   so the escaped name starts with a digit or '$' exactly when the
   source does not start with a letter or '_', it starts with "v$"
   exactly when the source starts with 'v' and an escaped byte, and
   only an unescaped name can be a reserved word (every reserved word
   is plain). *)
let mangle s =
  let n = String.length s in
  let len = ref 0 in
  for i = 0 to n - 1 do
    len :=
      !len
      +
      match String.unsafe_get s i with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> 1
      | '.' | '[' | ']' | '#' | '$' -> 2
      | _ -> 4
  done;
  let wrap =
    n = 0
    || (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '_' -> false | _ -> true)
    || (!len = n && is_reserved s)
    || n >= 2
       && s.[0] = 'v'
       && match s.[1] with
          | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> false
          | _ -> true
  in
  let off = if wrap then 2 else 0 in
  let b = Bytes.create (off + !len) in
  if wrap then Bytes.blit_string "v$" 0 b 0 2;
  let j = ref off in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' ->
        Bytes.unsafe_set b !j c;
        incr j
    | '.' | '[' | ']' | '#' | '$' ->
        Bytes.unsafe_set b !j '$';
        Bytes.unsafe_set b (!j + 1)
          (match c with
          | '.' -> 'd'
          | '[' -> 'b'
          | ']' -> 'e'
          | '#' -> 'h'
          | _ -> '$');
        j := !j + 2
    | _ ->
        Bytes.unsafe_set b !j '$';
        Bytes.unsafe_set b (!j + 1) 'x';
        Bytes.unsafe_set b (!j + 2) hex_digit.[Char.code c lsr 4];
        Bytes.unsafe_set b (!j + 3) hex_digit.[Char.code c land 15];
        j := !j + 4
  done;
  Bytes.unsafe_to_string b

let demangle s =
  let body =
    if String.starts_with ~prefix:"v$" s then
      String.sub s 2 (String.length s - 2)
    else s
  in
  let n = String.length body in
  let buf = Buffer.create n in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let i = ref 0 in
  while !i < n do
    (if body.[!i] = '$' && !i + 1 < n then begin
       (match body.[!i + 1] with
       | '$' -> Buffer.add_char buf '$'; i := !i + 2
       | 'd' -> Buffer.add_char buf '.'; i := !i + 2
       | 'b' -> Buffer.add_char buf '['; i := !i + 2
       | 'e' -> Buffer.add_char buf ']'; i := !i + 2
       | 'h' -> Buffer.add_char buf '#'; i := !i + 2
       | 'x' when !i + 3 < n -> (
           match (hex body.[!i + 2], hex body.[!i + 3]) with
           | Some h, Some l ->
               Buffer.add_char buf (Char.chr ((h * 16) + l));
               i := !i + 4
           | _ ->
               Buffer.add_char buf body.[!i];
               incr i)
       | _ ->
           Buffer.add_char buf body.[!i];
           incr i)
     end
     else begin
       Buffer.add_char buf body.[!i];
       incr i
     end)
  done;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Export                                                               *)
(* ------------------------------------------------------------------ *)

(* Two passes.  [lower] settles everything a module needs before any
   byte of it exists: every name (each [uniq] call, in one fixed
   order), every declaration, every gate's shape (each
   [Unsupported_exn] is raised there) and how each class is assigned.
   [write] then renders the module from that plan and the class graph
   through a [string -> unit] sink, piece by piece; it cannot fail, so
   a rejected design writes nothing, and the text is never held
   whole unless the sink holds it ([export]). *)

type dir =
  | Input
  | Output

type port = {
  pdir : dir;
  pname : string;
  ppath : string;
  pclass : int;
}

(* how a scheduled class is assigned *)
type class_plan =
  | Port  (* an input port: driven from outside, nothing to assign *)
  | Direct
      (* the class wire takes its one producer's expression, or, with
         no producer, CLK's constant 1, its register's reg or x *)
  | Raw of string
      (* a boolean class whose one producer may release: the raw wire
         carries the producer, the class wire its booleanization *)
  | Resolved of string array * string option
      (* one wire per producer, in producer order, and the first-non-z
         resolver over them, into the raw wire when the boolean class
         may read z, else into the class wire *)

type plan = {
  module_name : string;
  ports : port list;
  net_count : int;
  reg_count : int;
  design : Elaborate.design;
  graph : Graph.t;
  sched : Sched.t;
  wire_of_class : string array;
  clk_port : string;
  random_ports : (int * string) list;
  classes : class_plan array;  (* per class *)
  port_class : bool array;  (* declared by its port declaration *)
  may_z : bool array;  (* per class: the exposed value may read z *)
  reg_names : string array;  (* per register: its always-block reg *)
}

type t = {
  module_name : string;
  ports : port list;
  net_count : int;
  reg_count : int;
  text : string;
  design : Elaborate.design;
  graph : Graph.t;
  wire_of_class : string array;
  clk_port : string;
  random_ports : (int * string) list;
  plan : plan;
}

type error =
  | Cyclic
  | Unsupported of string

let error_to_string = function
  | Cyclic ->
      "design has a combinational cycle: no static schedule, cannot be \
       lowered to continuous assignments"
  | Unsupported msg -> "unsupported design: " ^ msg

exception Unsupported_exn of string

let lit = function
  | Logic.Zero -> "1'b0"
  | Logic.One -> "1'b1"
  | Logic.Undef -> "1'bx"
  | Logic.Noinfl -> "1'bz"

let logic_vchar = function
  | Logic.Zero -> '0'
  | Logic.One -> '1'
  | Logic.Undef -> 'x'
  | Logic.Noinfl -> 'z'

let default_module_name (design : Elaborate.design) =
  match design.Elaborate.tops with
  | (name, _) :: _ -> mangle name
  | [] -> "zeus_top"

(* the gate shapes the writer renders; anything else is rejected *)
let check_gate op (inputs : Netlist.src array) =
  match (op, Array.length inputs) with
  | (Netlist.Grandom | Netlist.Gequal), 0 -> ()
  | _, 0 ->
      raise
        (Unsupported_exn (Netlist.gate_op_to_string op ^ " gate with no inputs"))
  | Netlist.Gnot, k when k > 1 ->
      raise (Unsupported_exn "NOT gate with several inputs")
  | Netlist.Gequal, k when k mod 2 <> 0 ->
      raise (Unsupported_exn "EQUAL gate with odd input count")
  | _ -> ()

let lower ?module_name (design : Elaborate.design) =
  let g = Graph.build design in
  let sched = Sched.build g in
  if not sched.Sched.acyclic then Error Cyclic
  else
    try
      let n = g.Graph.n_classes in
      let nl = design.Elaborate.netlist in
      let module_name =
        match module_name with
        | Some m -> m
        | None -> default_module_name design
      in
      let producerless c = g.Graph.producer_count.(c) = 0 in
      if not (producerless g.Graph.clk) then
        raise (Unsupported_exn "the predefined CLK net is driven");
      (* input ports: producer-less IN/INOUT pins of root instances
         (plus RSET), named after the first pin net of each class *)
      let top_inputs = Graph.top_input_nets design in
      let in_path = Array.make n None in
      let is_input = Array.make n false in
      List.iter
        (fun id ->
          let c = g.Graph.canon.(id) in
          if in_path.(c) = None then
            in_path.(c) <- Some (Netlist.net nl id).Netlist.name;
          if producerless c && c <> g.Graph.clk then is_input.(c) <- true)
        top_inputs;
      Array.iteri
        (fun c inp ->
          if inp && Graph.reg_of_out g c >= 0 then
            raise
              (Unsupported_exn
                 (Printf.sprintf
                    "input '%s' is aliased to the output of register '%s': \
                     the simulator gives a poke priority over the stored \
                     value dynamically"
                    g.Graph.names.(c)
                    g.Graph.regs.(Graph.reg_of_out g c).Netlist.rpath)))
        is_input;
      (* output ports: OUT pins of root instances (and driven INOUT
         pins, which the input scan skipped) *)
      let out_path = Array.make n None in
      List.iter
        (fun (i : Netlist.instance) ->
          if not (String.contains i.Netlist.ipath '.') then
            List.iter
              (fun (_, m, nets) ->
                match m with
                | Etype.Out | Etype.Inout ->
                    List.iter
                      (fun id ->
                        let c = g.Graph.canon.(id) in
                        if out_path.(c) = None then
                          out_path.(c) <-
                            Some (Netlist.net nl id).Netlist.name)
                      nets
                | Etype.In -> ())
              i.Netlist.iports)
        (Netlist.instances nl);
      let is_output =
        Array.init n (fun c -> out_path.(c) <> None && not is_input.(c))
      in
      let port_class = Array.init n (fun c -> is_input.(c) || is_output.(c)) in
      (* class wire names: port classes take their pin path, everything
         else its representative's name.  Representative names are not
         unique across classes (elaboration synthesizes internal nets
         with repeating names), so every name goes through [uniq] —
         ports first, keeping their pin paths stable. *)
      let used = Hashtbl.create (2 * n) in
      let uniq base =
        if not (Hashtbl.mem used base) then begin
          Hashtbl.replace used base ();
          base
        end
        else begin
          let i = ref 0 in
          while Hashtbl.mem used (Printf.sprintf "%s$%d" base !i) do
            incr i
          done;
          let name = Printf.sprintf "%s$%d" base !i in
          Hashtbl.replace used name ();
          name
        end
      in
      let wire = Array.make n "" in
      for c = 0 to n - 1 do
        if port_class.(c) then
          wire.(c) <-
            uniq
              (mangle
                 (match if is_input.(c) then in_path.(c) else out_path.(c) with
                 | Some p -> p
                 | None -> g.Graph.names.(c)))
      done;
      for c = 0 to n - 1 do
        if not port_class.(c) then wire.(c) <- uniq (mangle g.Graph.names.(c))
      done;
      let clk_port = uniq "clk" in
      (* RANDOM nodes: one input port per output class (two RANDOM
         nodes on one class draw the same value — and conflict — in the
         simulator, which the resolver reproduces) *)
      let random_ports = ref [] in
      Array.iter
        (function
          | Graph.Ngate { op = Netlist.Grandom; output; _ } ->
              if not (List.mem_assoc output !random_ports) then
                random_ports :=
                  (output, uniq (Printf.sprintf "rnd$%d" output))
                  :: !random_ports
          | _ -> ())
        g.Graph.nodes;
      let random_ports =
        List.sort (fun (a, _) (b, _) -> compare a b) !random_ports
      in
      let reg_names =
        Array.map
          (fun (r : Netlist.reg) -> uniq (mangle r.Netlist.rpath))
          g.Graph.regs
      in
      (* --- z-capability analysis (conservative "may read NOINFL") --- *)
      let exp_z = Array.make n (-1) in
      let rec exposed_can_z c =
        if exp_z.(c) >= 0 then exp_z.(c) = 1
        else begin
          let r =
            if producerless c then is_input.(c) (* ports may be driven z *)
            else
              match g.Graph.class_kind.(c) with
              | Etype.KBool -> false (* booleanized: z reads as x *)
              | Etype.KMux -> raw_can_z c
          in
          exp_z.(c) <- (if r then 1 else 0);
          r
        end
      and raw_can_z c =
        (* the raw resolution is z only when every producer released *)
        let all = ref true in
        Graph.iter_producers g c (fun nid ->
            if not (node_can_z nid) then all := false);
        !all
      and node_can_z nid =
        match g.Graph.nodes.(nid) with
        | Graph.Ngate _ -> false (* gates booleanize: 0/1/x only *)
        | Graph.Ndriver { guard = Some _; _ } -> true
        | Graph.Ndriver { guard = None; source; _ } -> src_can_z source
      and src_can_z = function
        | Netlist.Sconst v -> Logic.equal v Logic.Noinfl
        | Netlist.Snet c -> exposed_can_z c
      in
      (* --- the class plans, in the writer's order --- *)
      let extra_wires = ref 0 in
      let extra_wire name =
        incr extra_wires;
        uniq name
      in
      let classes = Array.make n Direct in
      for l = 0 to sched.Sched.max_level do
        Array.iter
          (fun c ->
            (* in level order, so the analysis recursion stays shallow:
               every source class is settled already *)
            ignore (exposed_can_z c);
            if is_input.(c) then classes.(c) <- Port
            else if not (producerless c) then begin
              Graph.iter_producers g c (fun nid ->
                  match g.Graph.nodes.(nid) with
                  | Graph.Ngate { op; inputs; _ } -> check_gate op inputs
                  | Graph.Ndriver _ -> ());
              let k = g.Graph.producer_count.(c) in
              (* the exposed value booleanizes (z -> x), but the register
                 latch keys off the raw value *)
              let raw_z =
                g.Graph.class_kind.(c) = Etype.KBool && raw_can_z c
              in
              if k = 1 then begin
                if raw_z then classes.(c) <- Raw (extra_wire (wire.(c) ^ "$raw"))
              end
              else begin
                let pws =
                  Array.init k (fun i ->
                      extra_wire (Printf.sprintf "%s$p%d" wire.(c) i))
                in
                let raw =
                  if raw_z then Some (extra_wire (wire.(c) ^ "$raw")) else None
                in
                classes.(c) <- Resolved (pws, raw)
              end
            end)
          sched.Sched.nets_at.(l)
      done;
      let may_z = Array.map (fun z -> z = 1) exp_z in
      let input_ports =
        List.filter_map
          (fun c ->
            if is_input.(c) then
              Some
                {
                  pdir = Input;
                  pname = wire.(c);
                  ppath =
                    (match in_path.(c) with
                    | Some p -> p
                    | None -> g.Graph.names.(c));
                  pclass = c;
                }
            else None)
          (List.init n Fun.id)
      in
      let rports =
        List.map
          (fun (c, name) ->
            {
              pdir = Input;
              pname = name;
              ppath = g.Graph.names.(c);
              pclass = c;
            })
          random_ports
      in
      let output_ports =
        List.filter_map
          (fun c ->
            if is_output.(c) then
              Some
                {
                  pdir = Output;
                  pname = wire.(c);
                  ppath =
                    (match out_path.(c) with
                    | Some p -> p
                    | None -> g.Graph.names.(c));
                  pclass = c;
                }
            else None)
          (List.init n Fun.id)
      in
      let ports =
        { pdir = Input; pname = clk_port; ppath = "CLK"; pclass = -1 }
        :: input_ports
        @ rports @ output_ports
      in
      let class_wires =
        Array.fold_left (fun k p -> if p then k else k + 1) 0 port_class
      in
      Ok
        {
          module_name;
          ports;
          net_count = List.length ports + class_wires + !extra_wires;
          reg_count = Array.length g.Graph.regs;
          design;
          graph = g;
          sched;
          wire_of_class = wire;
          clk_port;
          random_ports;
          classes;
          port_class;
          may_z;
          reg_names;
        }
    with Unsupported_exn msg -> Error (Unsupported msg)

(* The module text, header to endmodule, a few bytes per [out] call *)
let write (p : plan) out =
  let g = p.graph in
  let wire = p.wire_of_class in
  let src = function
    | Netlist.Sconst v -> out (lit v)
    | Netlist.Snet c -> out wire.(c)
  in
  let may_z = function
    | Netlist.Sconst v -> Logic.equal v Logic.Noinfl
    | Netlist.Snet c -> p.may_z.(c)
  in
  (* booleanize: z reads as x *)
  let bz write_e =
    out "((";
    write_e ();
    out " === 1'bz) ? 1'bx : ";
    write_e ();
    out ")"
  in
  let join sep inputs =
    out "(";
    Array.iteri
      (fun i s ->
        if i > 0 then out sep;
        src s)
      inputs;
    out ")"
  in
  let gate op (inputs : Netlist.src array) output =
    match (op, inputs) with
    | Netlist.Grandom, _ -> out (List.assoc output p.random_ports)
    | Netlist.Gequal, [||] -> out "1'b1" (* empty fold base *)
    | Netlist.Gequal, _ ->
        (* EQUAL concatenates the two operands' bit lists: AND of
           per-bit XNOR over the two halves *)
        let half = Array.length inputs / 2 in
        if half > 1 then out "(";
        for i = 0 to half - 1 do
          if i > 0 then out " & ";
          out "(";
          src inputs.(i);
          out " ~^ ";
          src inputs.(i + half);
          out ")"
        done;
        if half > 1 then out ")"
    | Netlist.Gnot, _ | (Netlist.Gnand | Netlist.Gnor), [| _ |] ->
        (* NOT reads its one input ([check_gate] rejects the others) *)
        out "(~";
        src inputs.(0);
        out ")"
    | (Netlist.Gand | Netlist.Gor | Netlist.Gxor), [| s |] ->
        (* n-ary gates booleanize a lone operand (z reads as x); Verilog
           has no unary pass-through that does, so spell it *)
        if may_z s then bz (fun () -> src s) else src s
    | Netlist.Gand, _ -> join " & " inputs
    | Netlist.Gor, _ -> join " | " inputs
    | Netlist.Gxor, _ -> join " ^ " inputs
    | Netlist.Gnand, _ ->
        out "(~";
        join " & " inputs;
        out ")"
    | Netlist.Gnor, _ ->
        out "(~";
        join " | " inputs;
        out ")"
  in
  let node nid =
    match g.Graph.nodes.(nid) with
    | Graph.Ngate { op; inputs; output } -> gate op inputs output
    | Graph.Ndriver { guard = None; source; _ } -> src source
    | Graph.Ndriver { guard = Some (Netlist.Sconst v); source; _ } -> (
        (* guards go through the implicit amplifier *)
        match Logic.booleanize v with
        | Logic.One -> src source
        | Logic.Zero -> out "1'bz"
        | _ -> out "1'bx")
    | Graph.Ndriver { guard = Some gs; source; _ } ->
        (* an undefined (x or z) guard *drives* UNDEF — it does not
           release the net, so the plain [g ? s : 1'bz] idiom would
           diverge from the simulator on every undefined guard *)
        out "((";
        src gs;
        out " === 1'b1) ? ";
        src source;
        out " : (";
        src gs;
        out " === 1'b0) ? 1'bz : 1'bx)"
  in
  (* first non-z wins; any second non-z forces x — exactly
     [Logic.resolve], which conflicts even on agreeing values.  The
     expression is O(k^2) bytes, written piecewise *)
  let resolver pws =
    let k = Array.length pws in
    let rec others j v =
      if j >= k then out v
      else begin
        out "((";
        out pws.(j);
        out " === 1'bz) ? ";
        others (j + 1) v;
        out " : 1'bx)"
      end
    in
    let rec first i =
      if i = k - 1 then out pws.(i)
      else begin
        out "((";
        out pws.(i);
        out " === 1'bz) ? ";
        first (i + 1);
        out " : ";
        others (i + 1) pws.(i);
        out ")"
      end
    in
    first 0
  in
  let assign name write_e =
    out "  assign ";
    out name;
    out " = ";
    write_e ();
    out ";\n"
  in
  let decl name =
    out "  wire ";
    out name;
    out ";\n"
  in
  let first_producer c = g.Graph.prod_nodes.(g.Graph.prod_off.(c)) in
  (* the wire a register latches from: the raw resolution *)
  let raw_wire c =
    match p.classes.(c) with
    | Raw rw | Resolved (_, Some rw) -> rw
    | Port | Direct | Resolved (_, None) -> wire.(c)
  in
  let levels = p.sched.Sched.nets_at in
  (* --- header --- *)
  out
    (Printf.sprintf
       "// %s: structural Verilog export of a Zeus design (zeusc export \
        --verilog)\n\
        // Four-valued nets: Zeus UNDEF is x, NOINFL is z.  Drive RSET low, \
        toggle %s;\n\
        // registers latch on posedge and power up at x unless REG(c) gave \
        a value.\n"
       p.module_name p.clk_port);
  out
    (Printf.sprintf "module %s (%s);\n" p.module_name
       (String.concat ", " (List.map (fun q -> q.pname) p.ports)));
  List.iter
    (fun q ->
      out
        (Printf.sprintf "  %s %s;%s\n"
           (match q.pdir with Input -> "input" | Output -> "output")
           q.pname
           (if q.pclass = -1 then
              " // latch edge only: the Zeus CLK value is the constant-1 \
               wire"
            else if List.mem_assoc q.pclass p.random_ports then
              Printf.sprintf " // RANDOM stream of '%s'" q.ppath
            else "")))
    p.ports;
  (* --- declarations: one wire per class, minus the ports (port decls
     declare nets), then the raw and per-producer wires --- *)
  Array.iteri (fun c w -> if not p.port_class.(c) then decl w) wire;
  Array.iter
    (Array.iter (fun c ->
         match p.classes.(c) with
         | Raw rw -> decl rw
         | Resolved (pws, raw) ->
             Array.iter decl pws;
             Option.iter decl raw
         | Port | Direct -> ()))
    levels;
  (* --- continuous assignments, in schedule order --- *)
  Array.iter
    (Array.iter (fun c ->
         let w = wire.(c) in
         match p.classes.(c) with
         | Port -> ()
         | Direct ->
             assign w (fun () ->
                 if c = g.Graph.clk then
                   (* the CLK *value* is the constant 1 of [seed_value];
                      the latch edge is the separate clk port *)
                   out "1'b1"
                 else if g.Graph.producer_count.(c) > 0 then
                   node (first_producer c)
                 else
                   let r = Graph.reg_of_out g c in
                   out (if r >= 0 then p.reg_names.(r) else "1'bx"))
         | Raw rw ->
             assign rw (fun () -> node (first_producer c));
             assign w (fun () -> bz (fun () -> out rw))
         | Resolved (pws, raw) ->
             let base = g.Graph.prod_off.(c) in
             Array.iteri
               (fun i pw ->
                 assign pw (fun () -> node g.Graph.prod_nodes.(base + i)))
               pws;
             assign (Option.value raw ~default:w) (fun () -> resolver pws);
             Option.iter (fun rw -> assign w (fun () -> bz (fun () -> out rw))) raw))
    levels;
  (* --- registers: latch at the clock edge iff the raw input resolution
     is not z (all-NOINFL keeps the stored value, section 5.1); power-up
     is Verilog's default x unless REG(c) gave a value --- *)
  Array.iteri
    (fun i (r : Netlist.reg) ->
      let q = p.reg_names.(i) and src = raw_wire g.Graph.reg_in.(i) in
      out "  reg ";
      out q;
      out ";\n";
      (match r.Netlist.rinit with
      | Logic.Zero | Logic.One ->
          out "  initial ";
          out q;
          out " = ";
          out (lit r.Netlist.rinit);
          out ";\n"
      | _ -> ());
      out "  always @(posedge ";
      out p.clk_port;
      out ")\n    if (";
      out src;
      out " !== 1'bz) ";
      out q;
      out " <= ";
      out src;
      out ";\n")
    g.Graph.regs;
  out "endmodule\n"

let export ?module_name design =
  Result.map
    (fun (p : plan) ->
      let b = Buffer.create 65536 in
      write p (Buffer.add_string b);
      {
        module_name = p.module_name;
        ports = p.ports;
        net_count = p.net_count;
        reg_count = p.reg_count;
        text = Buffer.contents b;
        design = p.design;
        graph = p.graph;
        wire_of_class = p.wire_of_class;
        clk_port = p.clk_port;
        random_ports = p.random_ports;
        plan = p;
      })
    (lower ?module_name design)

(* ------------------------------------------------------------------ *)
(* Self-checking testbench                                              *)
(* ------------------------------------------------------------------ *)

type deck = (string * Logic.t) list list

let random_deck ?(seed = 0x5eed) ~cycles (t : plan) =
  let inputs =
    List.filter
      (fun p ->
        p.pdir = Input && p.pclass >= 0
        && not (List.mem_assoc p.pclass t.random_ports))
      t.ports
  in
  List.init cycles (fun cycle ->
      List.map
        (fun p ->
          let bits = Prand.bits64 ~seed ~net:p.pclass ~cycle in
          let v =
            if Int64.equal (Int64.logand (Int64.shift_right_logical bits 1) 1L) 1L
            then Logic.One
            else Logic.Zero
          in
          (p.ppath, v))
        inputs)

let testbench ?(seed = 0x5eed) ?(tb_name = "zeus_tb") (t : plan) (deck : deck) =
  let g = t.graph in
  let n = g.Graph.n_classes in
  let tb_name = if tb_name = t.module_name then tb_name ^ "$t" else tb_name in
  (* map each poke to the input port that carries it; pokes to driven
     classes are ignored exactly as [seed_value] ignores them *)
  let port_of_class = Hashtbl.create 16 in
  List.iter
    (fun p ->
      if p.pdir = Input && p.pclass >= 0 then
        Hashtbl.replace port_of_class p.pclass p.pname)
    t.ports;
  let exception Bad of string in
  try
    let resolved_deck =
      List.map
        (fun pokes ->
          List.filter_map
            (fun (path, v) ->
              match Elaborate.resolve_path t.design path with
              | Error msg ->
                  raise (Bad (Printf.sprintf "poke '%s': %s" path msg))
              | Ok [ id ] ->
                  let c = g.Graph.canon.(id) in
                  if c = g.Graph.clk then
                    raise
                      (Bad
                         (Printf.sprintf
                            "poke '%s' targets the predefined CLK net" path))
                  else if g.Graph.producer_count.(c) > 0 then
                    None (* driven: the simulator ignores the poke *)
                  else (
                    match Hashtbl.find_opt port_of_class c with
                    | Some port -> Some (path, port, v)
                    | None ->
                        raise
                          (Bad
                             (Printf.sprintf
                                "poke '%s' targets an undriven net that is \
                                 not an exported input port"
                                path)))
              | Ok _ ->
                  raise
                    (Bad
                       (Printf.sprintf "poke '%s' is not a single net" path)))
            pokes)
        deck
    in
    (* the reference run: the incremental engine, poked by path exactly
       like the oracle's serial reference *)
    let sim = Sim.create ~engine:Sim.Incremental ~seed t.design in
    let expected =
      List.map
        (fun pokes ->
          List.iter (fun (path, _, v) -> Sim.poke sim path [ v ]) pokes;
          Sim.step sim;
          let snap = Sim.snapshot sim in
          String.init n (fun i ->
              (* literal bit order: MSB first is class n-1 *)
              let c = n - 1 - i in
              match snap.(g.Graph.rep.(c)) with
              | Some v -> logic_vchar v
              | None -> 'x'))
        resolved_deck
    in
    let buf = Buffer.create 8192 in
    let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pf "`timescale 1ns/1ns\n";
    pf "// Self-checking bench: replays a %d-cycle Zeus stimulus deck and\n"
      (List.length deck);
    pf "// compares every class wire against the incremental engine's\n";
    pf "// snapshot (seed %d) before each latch edge.\n" seed;
    pf "module %s;\n" tb_name;
    pf "  reg %s;\n" t.clk_port;
    let tb_inputs =
      List.filter (fun p -> p.pdir = Input && p.pclass >= 0) t.ports
    in
    List.iter (fun p -> pf "  reg %s;\n" p.pname) tb_inputs;
    pf "  %s dut(%s);\n" t.module_name
      (String.concat ", "
         (List.map
            (fun p ->
              match p.pdir with
              | Input -> Printf.sprintf ".%s(%s)" p.pname p.pname
              | Output -> Printf.sprintf ".%s()" p.pname)
            t.ports));
    (* one vector over every class wire, via hierarchical references *)
    pf "  wire [%d:0] zeus$vec = {" (n - 1);
    for i = 0 to n - 1 do
      let c = n - 1 - i in
      if i > 0 then pf ",";
      if i mod 6 = 0 then pf "\n     " else pf " ";
      pf "dut.%s" t.wire_of_class.(c)
    done;
    pf " };\n";
    pf "  reg [%d:0] zeus$exp;\n" (n - 1);
    pf "  integer zeus$i;\n";
    let name_w =
      Array.fold_left (fun m w -> max m (String.length w)) 1 t.wire_of_class
    in
    pf "  reg [8*%d:1] zeus$name [0:%d];\n" name_w (n - 1);
    pf "  initial begin\n";
    Array.iteri (fun c w -> pf "    zeus$name[%d] = \"%s\";\n" c w)
      t.wire_of_class;
    pf "  end\n";
    pf "  task zeus$check(input integer cycle);\n";
    pf "    begin\n";
    pf "      if (zeus$vec !== zeus$exp) begin\n";
    pf "        for (zeus$i = 0; zeus$i < %d; zeus$i = zeus$i + 1)\n" n;
    pf "          if (zeus$vec[zeus$i] !== zeus$exp[zeus$i])\n";
    pf
      "            $display(\"MISMATCH cycle %%0d class %%0d %%0s: \
       zeus=%%b verilog=%%b\",\n\
      \                     cycle, zeus$i, zeus$name[zeus$i], \
       zeus$exp[zeus$i], zeus$vec[zeus$i]);\n";
    pf "        $fatal(2, \"zeus/verilog divergence at cycle %%0d\", cycle);\n";
    pf "      end\n";
    pf "    end\n";
    pf "  endtask\n";
    pf "  initial begin\n";
    pf "    %s = 1'b0;\n" t.clk_port;
    (* power-up input values: unpoked inputs read UNDEF, RSET reads 0 *)
    List.iter
      (fun p ->
        pf "    %s = %s;\n" p.pname
          (if p.pclass = g.Graph.rset then "1'b0" else "1'bx"))
      tb_inputs;
    List.iteri
      (fun i (pokes, exp) ->
        pf "    // cycle %d\n" (i + 1);
        List.iter
          (fun (_, port, v) -> pf "    %s = %s;\n" port (lit v))
          pokes;
        List.iter
          (fun (c, name) ->
            pf "    %s = %s;\n" name
              (lit (Logic.of_bool (Prand.bool ~seed ~net:c ~cycle:i))))
          t.random_ports;
        pf "    #1;\n";
        pf "    zeus$exp = %d'b%s;\n" n exp;
        pf "    zeus$check(%d);\n" (i + 1);
        pf "    %s = 1'b1; #1; %s = 1'b0; #1;\n" t.clk_port t.clk_port)
      (List.combine resolved_deck expected);
    pf "    $display(\"ZEUS_TB_OK\");\n";
    pf "    $finish;\n";
    pf "  end\n";
    pf "endmodule\n";
    Ok (Buffer.contents buf)
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Minimal structural reader (round-trip property)                      *)
(* ------------------------------------------------------------------ *)

type vmodule = {
  vm_name : string;
  vm_ports : (dir * string) list;
  vm_nets : int;
}

type token =
  | Tid of string
  | Tsym of char

let tokenize text =
  let n = String.length text in
  let toks = ref [] in
  let i = ref 0 in
  let is_id_start c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '_' | '$' -> true | _ -> false
  in
  let is_id c =
    match c with
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '$' -> true
    | _ -> false
  in
  while !i < n do
    let c = text.[!i] in
    if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      i := !i + 2;
      while
        !i + 1 < n && not (text.[!i] = '*' && text.[!i + 1] = '/')
      do
        incr i
      done;
      i := min n (!i + 2)
    end
    else if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '\\' then begin
      (* escaped identifier: up to the next whitespace *)
      incr i;
      let start = !i in
      while
        !i < n
        && not
             (text.[!i] = ' ' || text.[!i] = '\t' || text.[!i] = '\n'
            || text.[!i] = '\r')
      do
        incr i
      done;
      toks := Tid (String.sub text start (!i - start)) :: !toks
    end
    else if is_id_start c then begin
      let start = !i in
      while !i < n && is_id text.[!i] do incr i done;
      toks := Tid (String.sub text start (!i - start)) :: !toks
    end
    else if c >= '0' && c <= '9' then begin
      (* sized literals like 1'bz read as one ignorable token *)
      while
        !i < n
        &&
        match text.[!i] with
        | '0' .. '9' | '\'' | 'a' .. 'z' | 'A' .. 'Z' | '_' -> true
        | _ -> false
      do
        incr i
      done
    end
    else if c = '"' then begin
      incr i;
      while !i < n && text.[!i] <> '"' do incr i done;
      incr i
    end
    else begin
      toks := Tsym c :: !toks;
      incr i
    end
  done;
  List.rev !toks

let parse_module text =
  let toks = tokenize text in
  (* find the module header *)
  let rec find_module = function
    | Tid "module" :: Tid name :: rest -> Ok (name, rest)
    | _ :: rest -> find_module rest
    | [] -> Error "no module header found"
  in
  match find_module toks with
  | Error e -> Error e
  | Ok (name, rest) -> (
      let rec header acc = function
        | Tsym ')' :: Tsym ';' :: rest -> Ok (List.rev acc, rest)
        | Tid p :: rest -> header (p :: acc) rest
        | Tsym ('(' | ',') :: rest -> header acc rest
        | Tsym ';' :: rest -> Ok (List.rev acc, rest) (* portless module *)
        | _ -> Error "unparsable module header"
      in
      match header [] rest with
      | Error e -> Error e
      | Ok (port_names, rest) ->
          let dirs = Hashtbl.create 16 in
          let nets = ref 0 in
          (* declaration statement: optional range, then a comma list of
             identifiers; '=' (net decl assignment) skips to ';' *)
          let rec decl kind toks =
            match toks with
            | Tsym '[' :: rest ->
                let rec skip = function
                  | Tsym ']' :: rest -> rest
                  | _ :: rest -> skip rest
                  | [] -> []
                in
                decl kind (skip rest)
            | Tid id :: rest ->
                incr nets;
                (match kind with
                | Some d -> Hashtbl.replace dirs id d
                | None -> ());
                ids kind rest
            | rest -> rest
          and ids kind = function
            | Tsym ',' :: rest -> decl kind rest
            | Tsym ';' :: rest -> rest
            | Tsym '=' :: rest ->
                let rec skip = function
                  | Tsym ';' :: rest -> rest
                  | _ :: rest -> skip rest
                  | [] -> []
                in
                skip rest
            | _ :: rest -> ids kind rest
            | [] -> []
          in
          let rec scan = function
            | Tid "endmodule" :: _ | [] -> ()
            | Tid "input" :: rest -> scan (decl (Some Input) rest)
            | Tid "output" :: rest -> scan (decl (Some Output) rest)
            | Tid "wire" :: rest -> scan (decl None rest)
            | _ :: rest -> scan rest
          in
          scan rest;
          let missing = ref None in
          let ports =
            List.map
              (fun p ->
                match Hashtbl.find_opt dirs p with
                | Some d -> (d, p)
                | None ->
                    if !missing = None then missing := Some p;
                    (Input, p))
              port_names
          in
          (match !missing with
          | Some p ->
              Error (Printf.sprintf "port '%s' has no direction declaration" p)
          | None -> Ok { vm_name = name; vm_ports = ports; vm_nets = !nets }))
