(* Flat bytecode for the compiled simulation engine.

   The compiler ({!Compile}) lowers the levelized schedule over the
   compacted class graph into one dense opcode array; this module holds
   the program representation and its two stores, each with the
   dispatch loop that executes one clock cycle on it: the class-packed
   store of a single run ([run_cycle]) and the bit-sliced store of the
   batch engine ([run_sliced]), where bit r of every word is run r of a
   group of up to 63 independent runs.

   Values are encoded two planes per net, Verilog aval/bval style:

     plane a   plane b
        0         0      ZERO
        1         0      ONE
        0         1      NOINFL  (Z)
        1         1      UNDEF   (X)

   In the single-run store 32 consecutive classes share one word of
   each plane, so the wide vectorizable ops (register latch/seed, copy,
   NOT, guarded multiplex resolution) evaluate 32 nets per handful of
   word ops; everything else runs through scalar opcodes whose operand
   indices were resolved at compile time (no option boxing, no list
   traversal, no pointer chasing).  The bit-sliced store gives each
   class its own word per plane instead, one run per bit.

   Semantics are the strict levelized evaluation of {!Sim}: because
   every operand was finalized on a lower level before it is read, the
   program computes exactly the fixpoint every other engine converges
   to (the section 8 "all orders agree" invariant), including conflict
   forcing to UNDEF, register latch rules and the stateless RANDOM
   stream keyed by (seed, class, cycle). *)

open Zeus_base

(* ------------------------------------------------------------------ *)
(* Value codes                                                          *)
(* ------------------------------------------------------------------ *)

let code_zero = 0
let code_one = 1
let code_z = 2 (* NOINFL *)
let code_x = 3 (* UNDEF *)

let decode = [| Logic.Zero; Logic.One; Logic.Noinfl; Logic.Undef |]

let encode = function
  | Logic.Zero -> code_zero
  | Logic.One -> code_one
  | Logic.Noinfl -> code_z
  | Logic.Undef -> code_x

(* the implicit amplifier: NOINFL reads UNDEF on a boolean net *)
let bool_code c = if c = code_z then code_x else c

(* 16-entry truth tables folded from {!Logic} at module init, so the
   scalar gate ops provably share the reference semantics *)
let tbl2 f =
  Array.init 16 (fun i -> encode (f decode.(i lsr 2) decode.(i land 3)))

let and2 = tbl2 Logic.and2
let or2 = tbl2 Logic.or2
let xor2 = tbl2 Logic.xor2
let equal2 = tbl2 Logic.equal2
let not1 = Array.init 4 (fun i -> encode (Logic.not_ decode.(i)))

(* ------------------------------------------------------------------ *)
(* Operand encoding                                                     *)
(* ------------------------------------------------------------------ *)

(* an operand is a class id when >= 0, else an immediate constant *)
let imm code = -1 - code
let no_guard = min_int

(* gate kinds *)
let gand = 0
let gor = 1
let gnand = 2
let gnor = 3
let gxor = 4
let gnot = 5
let gequal = 6

(* Oseed kinds below 0; >= 0 is a register index *)
let seed_plain = -1
let seed_clk = -2
let seed_rset = -3

type op =
  (* scalar *)
  | Oseed of { cls : int; kind : int }
  | Ogate of { gate : int; args : int array; out : int; prod : int; kbool : bool }
  | Orandom of { out : int; prod : int }
  | Odriver of { guard : int; src : int; out : int; prod : int; kbool : bool }
  | Oresolve of { out : int; prods : int array; kbool : bool; chk : bool }
  | Olatch of { reg : int; cls : int; seeded : bool }
  (* vector: classes [dst, dst+len) (or registers [reg, reg+len));
     [dr] is false when no lane feeds a register, so the driven-plane
     write (read only by the latch ops) can be skipped *)
  | Ovseed of { cls : int; len : int }
  | Ovregseed of { reg : int; cls : int; len : int }
  | Ovcopy of { src : int; dst : int; len : int; kbool : bool; dr : bool }
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
  | Ovlatch of { reg : int; cls : int; len : int; seeded : bool }

type prog = {
  ops : op array;
  n_classes : int;
  n_nodes : int;
  n_slots : int; (* scratch slots: producers of multi-producer classes *)
  reg_init : int array; (* initial register codes *)
  visits_per_cycle : int; (* node evaluations represented per cycle *)
  scalar_ops : int;
  vector_ops : int;
  vector_lanes : int; (* classes covered by vector ops *)
  check_ops : int; (* conflict-check sites kept (classes) *)
  discharged_ops : int; (* conflict-check sites statically discharged *)
  compile_secs : float;
}

(* ------------------------------------------------------------------ *)
(* Packed state                                                         *)
(* ------------------------------------------------------------------ *)

let bits = 32
let mask32 = 0xFFFFFFFF

type state = {
  n : int; (* classes *)
  nw : int; (* data words per plane (arrays hold one pad word more) *)
  a : int array; (* value planes, current cycle *)
  b : int array;
  pa : int array; (* previous cycle, for toggles/trace *)
  pb : int array;
  driven : int array; (* 1 = some producer drove a non-NOINFL value *)
  pm : int array; (* poked mask *)
  pva : int array; (* poked value planes *)
  pvb : int array;
  scratch : Bytes.t; (* produced codes, per node (multi-producer nets) *)
  ra : int array; (* register planes *)
  rb : int array;
  mutable ran : bool; (* at least one compiled cycle has run *)
}

let data_words n = (n + bits - 1) / bits

let create_state (prog : prog) =
  let nw = data_words prog.n_classes in
  let rw = data_words (Array.length prog.reg_init) in
  let st =
    {
      n = prog.n_classes;
      nw;
      a = Array.make (nw + 1) mask32;
      b = Array.make (nw + 1) mask32;
      pa = Array.make (nw + 1) mask32;
      pb = Array.make (nw + 1) mask32;
      driven = Array.make (nw + 1) 0;
      pm = Array.make (nw + 1) 0;
      pva = Array.make (nw + 1) 0;
      pvb = Array.make (nw + 1) 0;
      scratch = Bytes.make (max 1 prog.n_slots) '\000';
      ra = Array.make (rw + 1) 0;
      rb = Array.make (rw + 1) 0;
      ran = false;
    }
  in
  Array.iteri
    (fun r code ->
      let w = r lsr 5 and s = r land 31 in
      st.ra.(w) <- st.ra.(w) lor ((code land 1) lsl s);
      st.rb.(w) <- st.rb.(w) lor ((code lsr 1) lsl s))
    prog.reg_init;
  st

let reset_state (prog : prog) (st : state) =
  let fill p v = Array.fill p 0 (Array.length p) v in
  fill st.a mask32;
  fill st.b mask32;
  fill st.pa mask32;
  fill st.pb mask32;
  fill st.driven 0;
  fill st.pm 0;
  fill st.pva 0;
  fill st.pvb 0;
  Bytes.fill st.scratch 0 (Bytes.length st.scratch) '\000';
  fill st.ra 0;
  fill st.rb 0;
  Array.iteri
    (fun r code ->
      let w = r lsr 5 and s = r land 31 in
      st.ra.(w) <- st.ra.(w) lor ((code land 1) lsl s);
      st.rb.(w) <- st.rb.(w) lor ((code lsr 1) lsl s))
    prog.reg_init;
  st.ran <- false

(* ------------------------------------------------------------------ *)
(* Bit primitives                                                       *)
(* ------------------------------------------------------------------ *)

let get_bit p i = (Array.unsafe_get p (i lsr 5) lsr (i land 31)) land 1

let set_bit p i v =
  let w = i lsr 5 and r = i land 31 in
  Array.unsafe_set p w
    (Array.unsafe_get p w land lnot (1 lsl r) lor (v lsl r))

let get_code st c = get_bit st.a c lor (get_bit st.b c lsl 1)

let set_code st c code =
  set_bit st.a c (code land 1);
  set_bit st.b c (code lsr 1)

let get st c = decode.(get_code st c)

let reg_get st r = decode.(get_bit st.ra r lor (get_bit st.rb r lsl 1))

let ran st = st.ran

(* scalar operand read: class or immediate *)
let read_code st s = if s >= 0 then get_code st s else -1 - s

(* 32-bit window starting at bit [pos]; the pad word keeps [i+1] legal *)
let read32 p pos =
  let i = pos lsr 5 and r = pos land 31 in
  if r = 0 then Array.unsafe_get p i land mask32
  else
    (Array.unsafe_get p i lsr r)
    lor (Array.unsafe_get p (i + 1) lsl (bits - r))
    land mask32

(* source-window read with immediate broadcast *)
let src32a st s off =
  if s >= 0 then read32 st.a (s + off) else ((-1 - s) land 1) * mask32

let src32b st s off =
  if s >= 0 then read32 st.b (s + off) else (((-1 - s) lsr 1) land 1) * mask32

(* write the low [k] bits of [v] at bit [pos]; callers chunk at word
   boundaries so the write never crosses one *)
let write32 p pos k v =
  let i = pos lsr 5 and r = pos land 31 in
  if k = bits then Array.unsafe_set p i (v land mask32)
  else
    let m = (mask32 lsr (bits - k)) lsl r in
    Array.unsafe_set p i
      (Array.unsafe_get p i land lnot m lor ((v lsl r) land m))

(* ------------------------------------------------------------------ *)
(* Poke mirror                                                          *)
(* ------------------------------------------------------------------ *)

(* the packed poked planes are the single-run state's only poke store:
   Sim drains its dirty-seed list into them, and every seed op (scalar
   and wide) reads them *)
let sync_poke st c (v : Logic.t option) =
  match v with
  | None -> set_bit st.pm c 0
  | Some v ->
      let code = encode v in
      set_bit st.pm c 1;
      set_bit st.pva c (code land 1);
      set_bit st.pvb c (code lsr 1)

(* ------------------------------------------------------------------ *)
(* Mid-run entry                                                        *)
(* ------------------------------------------------------------------ *)

(* a handle that hands a run over to the program part-way through loads
   its stored register values and primes the previous-cycle planes with
   its last values, so the next [sweep] counts toggles across the
   hand-over; taking the run back, it reads the last swept cycle from
   the previous-cycle planes *)
let set_reg st r (v : Logic.t) =
  let code = encode v in
  set_bit st.ra r (code land 1);
  set_bit st.rb r (code lsr 1)

let get_prev st c =
  decode.(get_bit st.pa c lor (get_bit st.pb c lsl 1))

let set_prev st c (v : Logic.t) =
  let code = encode v in
  set_bit st.pa c (code land 1);
  set_bit st.pb c (code lsr 1)

(* ------------------------------------------------------------------ *)
(* Dispatch loop                                                        *)
(* ------------------------------------------------------------------ *)

(* Execute one clock cycle for a single run.  Pokes come from the
   packed mirror ([sync_poke]); register state lives in the packed
   planes.  Returns the classes that saw a drive conflict this cycle
   (unsorted).

   Vector ops iterate their [len] lanes in destination-word-aligned
   chunks (each write32 stays inside one word); the chunk loops are
   written out longhand in the dispatch arms — a shared iterator would
   allocate a closure per op per cycle, which is exactly the overhead
   the compiled engine exists to avoid.

   Guarded drivers produce NOINFL on guard 0, the source value on
   guard 1 and UNDEF on an undefined guard; "driving" is any
   non-NOINFL produce, so on guard 1 the driving mask follows the
   source's non-NOINFL lanes: [sa lor lnot sb]. *)
let run_cycle (prog : prog) (st : state) ~seed ~cycle =
  let confs = ref [] in
  Array.fill st.driven 0 (Array.length st.driven) 0;
  let ops = prog.ops in
  for k = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops k with
    | Oseed { cls; kind } ->
        let code =
          if get_bit st.pm cls = 1 then
            get_bit st.pva cls lor (get_bit st.pvb cls lsl 1)
          else if kind >= 0 then
            get_bit st.ra kind lor (get_bit st.rb kind lsl 1)
          else if kind = seed_clk then code_one
          else if kind = seed_rset then code_zero
          else code_x
        in
        set_code st cls code
    | Ogate { gate; args; out; prod; kbool } ->
        let v =
          if gate = gnot then not1.(read_code st args.(0))
          else if gate = gequal then begin
            let half = Array.length args / 2 in
            let acc = ref code_one in
            for i = 0 to half - 1 do
              acc :=
                and2.((!acc lsl 2)
                      lor equal2.((read_code st args.(i) lsl 2)
                                  lor read_code st args.(i + half)))
            done;
            !acc
          end
          else begin
            let tbl = if gate = gand || gate = gnand then and2 else
                      if gate = gxor then xor2 else or2 in
            let acc = ref (if gate = gand || gate = gnand then code_one
                           else code_zero) in
            for i = 0 to Array.length args - 1 do
              acc := tbl.((!acc lsl 2) lor read_code st args.(i))
            done;
            if gate = gnand || gate = gnor then not1.(!acc) else !acc
          end
        in
        if prod >= 0 then Bytes.unsafe_set st.scratch prod (Char.unsafe_chr v)
        else begin
          set_code st out (if kbool then bool_code v else v);
          set_bit st.driven out (if v = code_z then 0 else 1)
        end
    | Orandom { out; prod } ->
        let v =
          if Prand.bool ~seed ~net:out ~cycle then code_one else code_zero
        in
        if prod >= 0 then Bytes.unsafe_set st.scratch prod (Char.unsafe_chr v)
        else begin
          set_code st out v;
          set_bit st.driven out 1
        end
    | Odriver { guard; src; out; prod; kbool } ->
        let v =
          if guard = no_guard then read_code st src
          else
            match bool_code (read_code st guard) with
            | 0 -> code_z
            | 1 -> read_code st src
            | _ -> code_x
        in
        if prod >= 0 then Bytes.unsafe_set st.scratch prod (Char.unsafe_chr v)
        else begin
          set_code st out (if kbool then bool_code v else v);
          set_bit st.driven out (if v = code_z then 0 else 1)
        end
    | Oresolve { out; prods; kbool; chk } ->
        let drives = ref 0 and dval = ref code_z in
        for i = 0 to Array.length prods - 1 do
          let c = Char.code (Bytes.unsafe_get st.scratch prods.(i)) in
          if c <> code_z then begin
            incr drives;
            dval := (if !drives = 1 then c else code_x)
          end
        done;
        let v =
          if kbool then if !drives = 0 then code_x else bool_code !dval
          else !dval
        in
        set_code st out v;
        set_bit st.driven out (if !drives > 0 then 1 else 0);
        if chk && !drives >= 2 then confs := out :: !confs
    | Olatch { reg; cls; seeded } ->
        let v = get_code st cls in
        let latch = if seeded then v <> code_z else get_bit st.driven cls = 1 in
        if latch then begin
          let c = bool_code v in
          set_bit st.ra reg (c land 1);
          set_bit st.rb reg (c lsr 1)
        end
    | Ovseed { cls; len } ->
        (* producer-less non-register classes: the poke if present,
           else UNDEF (all-ones in both planes) *)
        let p = ref 0 in
        while !p < len do
          let pos = cls + !p in
          let k = min (bits - (pos land 31)) (len - !p) in
          let m = read32 st.pm pos in
          let pva = read32 st.pva pos and pvb = read32 st.pvb pos in
          write32 st.a pos k ((m land pva) lor lnot m);
          write32 st.b pos k ((m land pvb) lor lnot m);
          p := !p + k
        done
    | Ovregseed { reg; cls; len } ->
        let p = ref 0 in
        while !p < len do
          let pos = cls + !p in
          let k = min (bits - (pos land 31)) (len - !p) in
          let m = read32 st.pm pos in
          let ra = read32 st.ra (reg + !p) and rb = read32 st.rb (reg + !p) in
          let pva = read32 st.pva pos and pvb = read32 st.pvb pos in
          write32 st.a pos k ((m land pva) lor (lnot m land ra));
          write32 st.b pos k ((m land pvb) lor (lnot m land rb));
          p := !p + k
        done
    | Ovcopy { src; dst; len; kbool; dr } ->
        let p = ref 0 in
        while !p < len do
          let pos = dst + !p in
          let k = min (bits - (pos land 31)) (len - !p) in
          let sa = src32a st src !p and sb = src32b st src !p in
          write32 st.a pos k (if kbool then sa lor sb else sa);
          write32 st.b pos k sb;
          if dr then write32 st.driven pos k (sa lor lnot sb);
          p := !p + k
        done
    | Ovnot { src; dst; len; dr } ->
        let p = ref 0 in
        while !p < len do
          let pos = dst + !p in
          let k = min (bits - (pos land 31)) (len - !p) in
          let sa = src32a st src !p and sb = src32b st src !p in
          write32 st.a pos k (lnot sa lor sb);
          write32 st.b pos k sb;
          if dr then write32 st.driven pos k mask32;
          p := !p + k
        done
    | Ovdriver { guard; src; dst; len; kbool; dr } ->
        let g = read_code st guard in
        let p = ref 0 in
        while !p < len do
          let pos = dst + !p in
          let k = min (bits - (pos land 31)) (len - !p) in
          (if g = code_zero then begin
             (* all lanes NOINFL (UNDEF through a boolean read) *)
             write32 st.a pos k (if kbool then mask32 else 0);
             write32 st.b pos k mask32;
             if dr then write32 st.driven pos k 0
           end
           else if g = code_one then begin
             let sa = src32a st src !p and sb = src32b st src !p in
             let m = sa lor (lnot sb land mask32) in
             let vb = (m land sb) lor (lnot m land mask32) in
             let va = m land sa in
             write32 st.a pos k (if kbool then va lor vb else va);
             write32 st.b pos k vb;
             if dr then write32 st.driven pos k m
           end
           else begin
             (* undefined guard: UNDEF everywhere, all lanes driving *)
             write32 st.a pos k mask32;
             write32 st.b pos k mask32;
             if dr then write32 st.driven pos k mask32
           end);
          p := !p + k
        done
    | Ovmux2 { g1; s1; g2; s2; dst; len; kbool; dr; chk } ->
        (* per-driver mode is loop-invariant: 0 = guard 0 (NOINFL),
           1 = guard 1 (source window), 2 = undefined guard (UNDEF) *)
        let gc1 = read_code st g1 and gc2 = read_code st g2 in
        if
          (gc1 = code_one && gc2 = code_zero)
          || (gc1 = code_zero && gc2 = code_one)
        then begin
          (* the common case — exactly one definite guard — degenerates
             to a single guarded copy: no conflicts, one source window *)
          let s = if gc1 = code_one then s1 else s2 in
          let p = ref 0 in
          while !p < len do
            let pos = dst + !p in
            let k = min (bits - (pos land 31)) (len - !p) in
            let sa = src32a st s !p and sb = src32b st s !p in
            let m = sa lor (lnot sb land mask32) in
            let vb = (m land sb) lor (lnot m land mask32) in
            let va = m land sa in
            write32 st.a pos k (if kbool then va lor vb else va);
            write32 st.b pos k vb;
            if dr then write32 st.driven pos k m;
            p := !p + k
          done
        end
        else begin
          let md1 =
            if gc1 = code_zero then 0 else if gc1 = code_one then 1 else 2
          and md2 =
            if gc2 = code_zero then 0 else if gc2 = code_one then 1 else 2
          in
          let p = ref 0 in
          while !p < len do
            let pos = dst + !p in
            let k = min (bits - (pos land 31)) (len - !p) in
            let sa1 = if md1 = 1 then src32a st s1 !p else 0
            and sb1 = if md1 = 1 then src32b st s1 !p else 0 in
            let m1 =
              if md1 = 0 then 0
              else if md1 = 2 then mask32
              else sa1 lor (lnot sb1 land mask32)
            in
            let p1a = if md1 = 2 then mask32 else sa1
            and p1b = if md1 = 2 then mask32 else sb1 in
            let sa2 = if md2 = 1 then src32a st s2 !p else 0
            and sb2 = if md2 = 1 then src32b st s2 !p else 0 in
            let m2 =
              if md2 = 0 then 0
              else if md2 = 2 then mask32
              else sa2 lor (lnot sb2 land mask32)
            in
            let p2a = if md2 = 2 then mask32 else sa2
            and p2b = if md2 = 2 then mask32 else sb2 in
            let both = m1 land m2 in
            let only1 = m1 land lnot m2 and only2 = m2 land lnot m1 in
            let none = lnot (m1 lor m2) in
            let va = (only1 land p1a) lor (only2 land p2a) lor both in
            let vb = (only1 land p1b) lor (only2 land p2b) lor both lor none in
            write32 st.a pos k (if kbool then va lor vb else va);
            write32 st.b pos k vb;
            if dr then write32 st.driven pos k (m1 lor m2);
            (* window values: lane j of this chunk is bit j *)
            let conf = if chk then both land (mask32 lsr (bits - k)) else 0 in
            if conf <> 0 then
              for j = 0 to k - 1 do
                if (conf lsr j) land 1 = 1 then
                  confs := (dst + !p + j) :: !confs
              done;
            p := !p + k
          done
        end
    | Ovlatch { reg; cls; len; seeded } ->
        let p = ref 0 in
        while !p < len do
          let pos = reg + !p in
          let k = min (bits - (pos land 31)) (len - !p) in
          let va = read32 st.a (cls + !p) and vb = read32 st.b (cls + !p) in
          let m =
            if seeded then va lor (lnot vb land mask32)
            else read32 st.driven (cls + !p)
          in
          let oa = read32 st.ra pos and ob = read32 st.rb pos in
          write32 st.ra pos k ((m land (va lor vb)) lor (lnot m land oa));
          write32 st.rb pos k ((m land vb) lor (lnot m land ob));
          p := !p + k
        done
  done;
  st.ran <- true;
  !confs

(* ------------------------------------------------------------------ *)
(* Bit-sliced batch store                                               *)
(* ------------------------------------------------------------------ *)

(* The batch engine runs many independent runs of one program.  Its
   store is the transpose of [state]: every class (scratch slot,
   register, poke entry) owns one word per plane, and bit r of each
   word belongs to run r of the group, so one OCaml word carries up to
   [max_runs] runs.  Each op then evaluates its class for all of them
   with a few bitwise operations — the four-valued tables unfolded into
   Boolean formulas over the two planes:

     is ZERO  = lnot a land lnot b      is ONE   = a land lnot b
     driving  = a lor lnot b            (anything but NOINFL)
     undefined (UNDEF or NOINFL) = b    booleanize: a := a lor b

   A gate folds "some input forces the result" and "every input agrees"
   masks over its inputs; a guarded driver splits its guard into
   0 / 1 / undefined masks once; a resolution folds "one driving" and
   "two or more driving" masks over its producers, and a nonzero
   "two or more" word (of a checked class) is that class's conflict in
   exactly those runs.  A vector op is the same word step over each of
   its classes.  The test suite checks every formula against the scalar
   tables above ([and2], [or2], [xor2], [equal2], [not1], [bool_code]),
   which stay the one statement of the semantics. *)

let max_runs = Sys.int_size

type sliced = {
  wa : int array; (* per class: plane a, bit r = run r *)
  wb : int array;
  wdr : int array; (* per class: driven flags *)
  wsa : int array; (* per scratch slot *)
  wsb : int array;
  wra : int array; (* per register *)
  wrb : int array;
  wslot : int array; (* per class: its poke entry, -1 with producers *)
  wpm : int array; (* per poke entry: poked runs *)
  wpa : int array; (* per poke entry: poked value planes *)
  wpb : int array;
  wseeds : int array; (* per run: RANDOM seed *)
  mutable wruns : int; (* runs in this group *)
}

(* an immediate's plane broadcast to every run *)
let imm_a s = -((-1 - s) land 1)
let imm_b s = -(((-1 - s) lsr 1) land 1)

let opa w s = if s >= 0 then Array.unsafe_get w.wa s else imm_a s
let opb w s = if s >= 0 then Array.unsafe_get w.wb s else imm_b s

(* operand [s] of lane [i] of a vector op: immediates repeat *)
let lane s i = if s >= 0 then s + i else s

(* poke entries for exactly the producer-less classes, which are the
   classes the seed ops load *)
let poke_slots (prog : prog) =
  let slot = Array.make prog.n_classes (-1) and n = ref 0 in
  let add c =
    slot.(c) <- !n;
    incr n
  in
  Array.iter
    (function
      | Oseed { cls; _ } -> add cls
      | Ovseed { cls; len } | Ovregseed { cls; len; _ } ->
          for c = cls to cls + len - 1 do
            add c
          done
      | _ -> ())
    prog.ops;
  (slot, !n)

let create_sliced (prog : prog) =
  let wslot, n_pokes = poke_slots prog in
  let n = prog.n_classes in
  {
    wa = Array.make n (-1);
    wb = Array.make n (-1);
    wdr = Array.make n 0;
    wsa = Array.make prog.n_slots 0;
    wsb = Array.make prog.n_slots 0;
    wra = Array.map (fun code -> -(code land 1)) prog.reg_init;
    wrb = Array.map (fun code -> -(code lsr 1)) prog.reg_init;
    wslot;
    wpm = Array.make n_pokes 0;
    wpa = Array.make n_pokes 0;
    wpb = Array.make n_pokes 0;
    wseeds = Array.make max_runs 0;
    wruns = 0;
  }

let reset_sliced (prog : prog) w ~(seeds : int array) =
  let runs = Array.length seeds in
  if runs < 1 || runs > max_runs then
    invalid_arg "Bytecode.reset_sliced: group size";
  Array.iteri
    (fun i code ->
      w.wra.(i) <- -(code land 1);
      w.wrb.(i) <- -(code lsr 1))
    prog.reg_init;
  Array.fill w.wpm 0 (Array.length w.wpm) 0;
  Array.blit seeds 0 w.wseeds 0 runs;
  w.wruns <- runs

(* a poke sets run [run]'s bit of the class's poke entry; a class with
   producers has none, and the engines ignore a poke of it *)
let poke_run w ~run c (v : Logic.t) =
  let s = w.wslot.(c) in
  if s >= 0 then begin
    let bit = 1 lsl run and code = encode v in
    w.wpm.(s) <- w.wpm.(s) lor bit;
    w.wpa.(s) <- (if code land 1 = 1 then w.wpa.(s) lor bit
                  else w.wpa.(s) land lnot bit);
    w.wpb.(s) <- (if code lsr 1 = 1 then w.wpb.(s) lor bit
                  else w.wpb.(s) land lnot bit)
  end

let get_run w ~run c =
  decode.(((w.wa.(c) lsr run) land 1) lor (((w.wb.(c) lsr run) land 1) lsl 1))

(* a producer's value words: to its scratch slot, or (sole producer)
   to its class, booleanized on a boolean class, with its driven flags *)
let produce w ~prod ~out ~kbool va vb =
  if prod >= 0 then begin
    Array.unsafe_set w.wsa prod va;
    Array.unsafe_set w.wsb prod vb
  end
  else begin
    Array.unsafe_set w.wa out (if kbool then va lor vb else va);
    Array.unsafe_set w.wb out vb;
    Array.unsafe_set w.wdr out (va lor lnot vb)
  end

(* a producer-less class's seed: the poked runs read their poke, the
   others [xa]/[xb] (CLK, RSET, the register or UNDEF) *)
let seed w c xa xb =
  let s = Array.unsafe_get w.wslot c in
  let m = Array.unsafe_get w.wpm s in
  Array.unsafe_set w.wa c
    (m land Array.unsafe_get w.wpa s lor (lnot m land xa));
  Array.unsafe_set w.wb c
    (m land Array.unsafe_get w.wpb s lor (lnot m land xb))

(* the end-of-cycle latch of register [r] from class [c] *)
let latch w ~seeded r c =
  let va = Array.unsafe_get w.wa c and vb = Array.unsafe_get w.wb c in
  let m = if seeded then va lor lnot vb else Array.unsafe_get w.wdr c in
  Array.unsafe_set w.wra r
    (m land (va lor vb) lor (lnot m land Array.unsafe_get w.wra r));
  Array.unsafe_set w.wrb r
    (m land vb lor (lnot m land Array.unsafe_get w.wrb r))

(* Execute one clock cycle for every run of the group.  Returns the
   drive conflicts as (class, runs) pairs, unsorted: bit r of [runs]
   set when run r saw two or more driving values on the class. *)
let run_sliced (prog : prog) w ~cycle =
  let confs = ref [] in
  let live = if w.wruns = max_runs then -1 else (1 lsl w.wruns) - 1 in
  Array.fill w.wdr 0 (Array.length w.wdr) 0;
  let ops = prog.ops in
  for k = 0 to Array.length ops - 1 do
    match Array.unsafe_get ops k with
    | Oseed { cls; kind } ->
        if kind >= 0 then
          seed w cls (Array.unsafe_get w.wra kind) (Array.unsafe_get w.wrb kind)
        else if kind = seed_clk then seed w cls (-1) 0
        else if kind = seed_rset then seed w cls 0 0
        else seed w cls (-1) (-1)
    | Ogate { gate; args; out; prod; kbool } ->
        if gate = gnot then begin
          let a = opa w args.(0) and b = opb w args.(0) in
          produce w ~prod ~out ~kbool (lnot a lor b) b
        end
        else if gate = gxor then begin
          (* parity of the defined runs; any undefined input is UNDEF *)
          let p = ref 0 and u = ref 0 in
          for i = 0 to Array.length args - 1 do
            p := !p lxor opa w args.(i);
            u := !u lor opb w args.(i)
          done;
          produce w ~prod ~out ~kbool (!p lor !u) !u
        end
        else begin
          (* [force]: some input (pair) decides the result on its own —
             a ZERO for AND/NAND, a ONE for OR/NOR, an unequal defined
             pair for EQUAL; [all]: every input (pair) is the identity
             (ONE, ZERO, an equal defined pair) *)
          let force = ref 0 and all = ref (-1) in
          if gate = gequal then begin
            let half = Array.length args / 2 in
            for i = 0 to half - 1 do
              let x = args.(i) and y = args.(i + half) in
              let def = lnot (opb w x lor opb w y) in
              let ne = opa w x lxor opa w y in
              force := !force lor (def land ne);
              all := !all land def land lnot ne
            done
          end
          else begin
            let conj = gate = gand || gate = gnand in
            for i = 0 to Array.length args - 1 do
              let a = opa w args.(i) and b = opb w args.(i) in
              let lo = lnot a land lnot b and hi = a land lnot b in
              force := !force lor (if conj then lo else hi);
              all := !all land (if conj then hi else lo)
            done
          end;
          (* AND/EQUAL: 0 on [force], else 1 on [all]; OR: 1 on
             [force], else 0 on [all]; UNDEF otherwise.  NAND/NOR
             invert it as NOT does *)
          let vb = lnot (!force lor !all) in
          let va =
            if gate = gor || gate = gnor then lnot !all else lnot !force
          in
          if gate = gnand || gate = gnor then
            produce w ~prod ~out ~kbool (lnot va lor vb) vb
          else produce w ~prod ~out ~kbool va vb
        end
    | Orandom { out; prod } ->
        let r = ref 0 in
        for run = 0 to w.wruns - 1 do
          if Prand.bool ~seed:(Array.unsafe_get w.wseeds run) ~net:out ~cycle
          then r := !r lor (1 lsl run)
        done;
        produce w ~prod ~out ~kbool:false !r 0
    | Odriver { guard; src; out; prod; kbool } ->
        let sa = opa w src and sb = opb w src in
        if guard = no_guard then produce w ~prod ~out ~kbool sa sb
        else begin
          let ga = opa w guard and gb = opb w guard in
          let g1 = ga land lnot gb in
          produce w ~prod ~out ~kbool
            ((g1 land sa) lor gb)
            (lnot (ga lor gb) lor (g1 land sb) lor gb)
        end
    | Oresolve { out; prods; kbool; chk } ->
        let one = ref 0 and two = ref 0 and sa = ref 0 and sb = ref 0 in
        for i = 0 to Array.length prods - 1 do
          let p = Array.unsafe_get prods i in
          let pa = Array.unsafe_get w.wsa p and pb = Array.unsafe_get w.wsb p in
          let d = pa lor lnot pb in
          two := !two lor (!one land d);
          one := !one lor d;
          sa := !sa lor (d land pa);
          sb := !sb lor (d land pb)
        done;
        let va = !sa lor !two and vb = !sb lor !two lor lnot !one in
        Array.unsafe_set w.wa out (if kbool then va lor vb else va);
        Array.unsafe_set w.wb out vb;
        Array.unsafe_set w.wdr out !one;
        if chk && !two land live <> 0 then
          confs := (out, !two land live) :: !confs
    | Olatch { reg; cls; seeded } -> latch w ~seeded reg cls
    | Ovseed { cls; len } ->
        for c = cls to cls + len - 1 do
          seed w c (-1) (-1)
        done
    | Ovregseed { reg; cls; len } ->
        for i = 0 to len - 1 do
          seed w (cls + i)
            (Array.unsafe_get w.wra (reg + i))
            (Array.unsafe_get w.wrb (reg + i))
        done
    | Ovcopy { src; dst; len; kbool; dr } ->
        for i = 0 to len - 1 do
          let s = lane src i and c = dst + i in
          let sa = opa w s and sb = opb w s in
          Array.unsafe_set w.wa c (if kbool then sa lor sb else sa);
          Array.unsafe_set w.wb c sb;
          if dr then Array.unsafe_set w.wdr c (sa lor lnot sb)
        done
    | Ovnot { src; dst; len; dr } ->
        for i = 0 to len - 1 do
          let s = lane src i and c = dst + i in
          let sb = opb w s in
          Array.unsafe_set w.wa c (lnot (opa w s) lor sb);
          Array.unsafe_set w.wb c sb;
          if dr then Array.unsafe_set w.wdr c (-1)
        done
    | Ovdriver { guard; src; dst; len; kbool; dr } ->
        let ga = opa w guard and gb = opb w guard in
        let g1 = ga land lnot gb and g0 = lnot (ga lor gb) in
        for i = 0 to len - 1 do
          let s = lane src i and c = dst + i in
          let va = (g1 land opa w s) lor gb
          and vb = g0 lor (g1 land opb w s) lor gb in
          Array.unsafe_set w.wa c (if kbool then va lor vb else va);
          Array.unsafe_set w.wb c vb;
          if dr then Array.unsafe_set w.wdr c (va lor lnot vb)
        done
    | Ovmux2 { g1; s1; g2; s2; dst; len; kbool; dr; chk } ->
        let ga1 = opa w g1 and gb1 = opb w g1 in
        let on1 = ga1 land lnot gb1 and off1 = lnot (ga1 lor gb1) in
        let ga2 = opa w g2 and gb2 = opb w g2 in
        let on2 = ga2 land lnot gb2 and off2 = lnot (ga2 lor gb2) in
        for i = 0 to len - 1 do
          let x = lane s1 i and y = lane s2 i and c = dst + i in
          let p1a = (on1 land opa w x) lor gb1
          and p1b = off1 lor (on1 land opb w x) lor gb1 in
          let p2a = (on2 land opa w y) lor gb2
          and p2b = off2 lor (on2 land opb w y) lor gb2 in
          let d1 = p1a lor lnot p1b and d2 = p2a lor lnot p2b in
          let two = d1 land d2 and one = d1 lor d2 in
          let va = (d1 land p1a) lor (d2 land p2a) lor two in
          let vb = (d1 land p1b) lor (d2 land p2b) lor two lor lnot one in
          Array.unsafe_set w.wa c (if kbool then va lor vb else va);
          Array.unsafe_set w.wb c vb;
          if dr then Array.unsafe_set w.wdr c one;
          if chk && two land live <> 0 then
            confs := (c, two land live) :: !confs
        done
    | Ovlatch { reg; cls; len; seeded } ->
        for i = 0 to len - 1 do
          latch w ~seeded (reg + i) (cls + i)
        done
  done;
  !confs

(* ------------------------------------------------------------------ *)
(* Change sweep (toggles + trace)                                       *)
(* ------------------------------------------------------------------ *)

(* Compare against the previous cycle's planes, ascending class order:
   count toggles (only when a previous cycle exists, like every other
   engine), report changed classes to [on_change] and return how many
   toggled.  [first] is the cold-start cycle: every class is fresh, so
   the trace lists them all but no toggles accrue. *)
let sweep (st : state) ~first ~(toggles : int array)
    ~(on_change : (int -> unit) option) =
  let changed = ref 0 in
  if first then (
    match on_change with
    | Some f ->
        for c = 0 to st.n - 1 do
          f c
        done
    | None -> ())
  else
    for w = 0 to st.nw - 1 do
      let d =
        ((st.a.(w) lxor st.pa.(w)) lor (st.b.(w) lxor st.pb.(w))) land mask32
      in
      if d <> 0 then begin
        let base = w * bits in
        let d = ref d and j = ref 0 in
        while !d <> 0 do
          if !d land 1 = 1 then begin
            let c = base + !j in
            toggles.(c) <- toggles.(c) + 1;
            incr changed;
            match on_change with Some f -> f c | None -> ()
          end;
          d := !d lsr 1;
          incr j
        done
      end
    done;
  Array.blit st.a 0 st.pa 0 (Array.length st.a);
  Array.blit st.b 0 st.pb 0 (Array.length st.b);
  !changed
