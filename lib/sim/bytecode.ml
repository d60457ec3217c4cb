(* Flat bytecode for the compiled simulation engine.

   The compiler ({!Compile}) lowers the levelized schedule over the
   compacted class graph into one dense opcode array; this module holds
   the program representation, its store and the dispatch loop that
   executes one clock cycle on it ([run_sliced]).  The store is
   bit-sliced: every class owns one word per plane, and bit r of every
   word is run r of a group of up to 63 independent runs.  The batch
   engine fills the group; a single run (a {!Sim} handle of the
   compiled engine, or a busy stretch of the incremental one) is a
   group of one.

   Values are encoded two planes per net, Verilog aval/bval style:

     plane a   plane b
        0         0      ZERO
        1         0      ONE
        0         1      NOINFL  (Z)
        1         1      UNDEF   (X)

   Operand indices were all resolved at compile time (no option boxing,
   no list traversal, no pointer chasing), and the wide vectorizable
   ops (register latch/seed, copy, NOT, guarded multiplex resolution)
   walk a run of consecutive classes with no per-lane dispatch.

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
(* Bit-sliced store                                                     *)
(* ------------------------------------------------------------------ *)

(* Every class (scratch slot, register, poke entry) owns one word per
   plane, and bit r of each word belongs to run r of the group, so one
   OCaml word carries up to [max_runs] runs.  Each op then evaluates its
   class for all of them with a few bitwise operations — the
   four-valued tables of {!Logic} unfolded into Boolean formulas over
   the two planes:

     is ZERO  = lnot a land lnot b      is ONE   = a land lnot b
     driving  = a lor lnot b            (anything but NOINFL)
     undefined (UNDEF or NOINFL) = b    booleanize: a := a lor b

   A gate folds "some input forces the result" and "every input agrees"
   masks over its inputs; a guarded driver splits its guard into
   0 / 1 / undefined masks once; a resolution folds "one driving" and
   "two or more driving" masks over its producers, and a nonzero
   "two or more" word (of a checked class) is that class's conflict in
   exactly those runs.  A vector op is the same word step over each of
   its classes.  The test suite checks every formula against a scalar
   evaluator built on {!Logic} alone.

   Bits past the group's last run hold whatever the formulas make of
   them ([lnot] sets them), so every read of a run — [get_run], the
   one-run operations below, the conflict masks — looks at that run's
   bit only. *)

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
  prev : Bytes.t; (* per class: run 0's code at the last [sweep] *)
  mutable ran : bool; (* a cycle has run since the last reset *)
}

(* an immediate operand's plane words, broadcast to every run, by code *)
let imm_planes_a = [| 0; -1; 0; -1 |]
let imm_planes_b = [| 0; 0; -1; -1 |]

let opa w s =
  if s >= 0 then Array.unsafe_get w.wa s
  else Array.unsafe_get imm_planes_a (-1 - s)

let opb w s =
  if s >= 0 then Array.unsafe_get w.wb s
  else Array.unsafe_get imm_planes_b (-1 - s)

(* A vector op's source run, decided once per op: lane i reads index
   [src_at s + src_step s * i] of the planes [src_a w s], [src_b w s] —
   the store for a class run, or the immediate's plane words with step
   0 for an immediate, which repeats. *)
let src_a w s = if s >= 0 then w.wa else imm_planes_a
let src_b w s = if s >= 0 then w.wb else imm_planes_b
let src_at s = if s >= 0 then s else -1 - s
let src_step s = if s >= 0 then 1 else 0

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
    prev = Bytes.make n (Char.chr code_x);
    ran = false;
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
  w.wruns <- runs;
  w.ran <- false

let ran w = w.ran

(* run [run]'s bit of [word] set to [v] (0 or 1) *)
let with_bit word run v = word land lnot (1 lsl run) lor (v lsl run)

(* a poke sets run [run]'s bit of the class's poke entry; a class with
   producers has none, and the engines ignore a poke of it *)
let poke_run w ~run c (v : Logic.t) =
  let s = w.wslot.(c) in
  if s >= 0 then begin
    let code = encode v in
    w.wpm.(s) <- with_bit w.wpm.(s) run 1;
    w.wpa.(s) <- with_bit w.wpa.(s) run (code land 1);
    w.wpb.(s) <- with_bit w.wpb.(s) run (code lsr 1)
  end

let unpoke_run w ~run c =
  let s = w.wslot.(c) in
  if s >= 0 then w.wpm.(s) <- with_bit w.wpm.(s) run 0

(* run [run]'s code in the plane words [a] and [b] *)
let code_at run a b = ((a lsr run) land 1) lor (((b lsr run) land 1) lsl 1)

let get_run w ~run c = decode.(code_at run w.wa.(c) w.wb.(c))

(* ------------------------------------------------------------------ *)
(* One-run groups                                                       *)
(* ------------------------------------------------------------------ *)

(* A single run is the group of one, run 0.  Its handle reads and writes
   registers through run 0's bit, and keeps run 0's previous-cycle value
   of every class in [prev]: the change [sweep] compares against it, and
   a handle that hands a run over to the program part-way through primes
   it with its last values (so toggles count across the hand-over), and
   reads the last swept cycle back from it when it takes the run back. *)

let get_reg w r = decode.(code_at 0 w.wra.(r) w.wrb.(r))

let set_reg w r (v : Logic.t) =
  let code = encode v in
  w.wra.(r) <- with_bit w.wra.(r) 0 (code land 1);
  w.wrb.(r) <- with_bit w.wrb.(r) 0 (code lsr 1)

let get_prev w c = decode.(Char.code (Bytes.get w.prev c))
let set_prev w c (v : Logic.t) = Bytes.set w.prev c (Char.unsafe_chr (encode v))

(* run 0's code of class [c] *)
let code0 w c =
  (Array.unsafe_get w.wa c land 1) lor ((Array.unsafe_get w.wb c land 1) lsl 1)

(* Compare run 0 against [prev], ascending class order: count toggles
   (only when a previous cycle exists, like every other engine), report
   changed classes to [on_change], bring [prev] up to date and return
   how many toggled.  [first] is the cold-start cycle: every class is
   fresh, so the trace lists them all but no toggles accrue.  A busy
   cycle changes classes in no predictable pattern, so without a trace
   the loop has no branch on the change: it adds the change bit to
   every class's toggle count. *)
let sweep w ~first ~(toggles : int array) ~(on_change : (int -> unit) option) =
  let prev = w.prev in
  let n = Bytes.length prev in
  let changed = ref 0 in
  (if first then begin
     for c = 0 to n - 1 do
       Bytes.unsafe_set prev c (Char.unsafe_chr (code0 w c))
     done;
     match on_change with
     | Some f ->
         for c = 0 to n - 1 do
           f c
         done
     | None -> ()
   end
   else
     match on_change with
     | None ->
         let wa = w.wa and wb = w.wb in
         for c = 0 to n - 1 do
           (* [code0], written out: ocamlopt would call it per class *)
           let code =
             (Array.unsafe_get wa c land 1)
             lor ((Array.unsafe_get wb c land 1) lsl 1)
           in
           let d = code lxor Char.code (Bytes.unsafe_get prev c) in
           let ch = (d lor (d lsr 1)) land 1 in
           Bytes.unsafe_set prev c (Char.unsafe_chr code);
           Array.unsafe_set toggles c (Array.unsafe_get toggles c + ch);
           changed := !changed + ch
         done
     | Some f ->
         for c = 0 to n - 1 do
           let code = code0 w c in
           if code <> Char.code (Bytes.unsafe_get prev c) then begin
             Bytes.unsafe_set prev c (Char.unsafe_chr code);
             toggles.(c) <- toggles.(c) + 1;
             incr changed;
             f c
           end
         done);
  !changed

(* ------------------------------------------------------------------ *)
(* Dispatch loop                                                        *)
(* ------------------------------------------------------------------ *)

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
   set when run r saw two or more driving values on the class.

   The vector arms test an immediate source operand, the booleanize
   ([kbool], as the mask [bm]) and the driven-plane write ([dr]) once
   per op, not once per lane.  Every class with producers has its
   driven flags written each cycle by the op that produces it (a vector
   op skips them only when no lane feeds a register), so the latches
   never read a stale flag. *)
let run_sliced (prog : prog) w ~cycle =
  let confs = ref [] in
  let live = if w.wruns = max_runs then -1 else (1 lsl w.wruns) - 1 in
  let wa = w.wa and wb = w.wb and wdr = w.wdr in
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
        Array.unsafe_set wa out (if kbool then va lor vb else va);
        Array.unsafe_set wb out vb;
        Array.unsafe_set wdr out !one;
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
        let bm = if kbool then -1 else 0 in
        if src < 0 then begin
          let sa = opa w src and sb = opb w src in
          Array.fill wa dst len (sa lor (sb land bm));
          Array.fill wb dst len sb;
          if dr then Array.fill wdr dst len (sa lor lnot sb)
        end
        else if dr then
          for i = 0 to len - 1 do
            let sa = Array.unsafe_get wa (src + i)
            and sb = Array.unsafe_get wb (src + i) in
            Array.unsafe_set wa (dst + i) (sa lor (sb land bm));
            Array.unsafe_set wb (dst + i) sb;
            Array.unsafe_set wdr (dst + i) (sa lor lnot sb)
          done
        else
          for i = 0 to len - 1 do
            let sa = Array.unsafe_get wa (src + i)
            and sb = Array.unsafe_get wb (src + i) in
            Array.unsafe_set wa (dst + i) (sa lor (sb land bm));
            Array.unsafe_set wb (dst + i) sb
          done
    | Ovnot { src; dst; len; dr } ->
        if dr then Array.fill wdr dst len (-1);
        if src < 0 then begin
          let sb = opb w src in
          Array.fill wa dst len (lnot (opa w src) lor sb);
          Array.fill wb dst len sb
        end
        else
          for i = 0 to len - 1 do
            let sb = Array.unsafe_get wb (src + i) in
            Array.unsafe_set wa (dst + i)
              (lnot (Array.unsafe_get wa (src + i)) lor sb);
            Array.unsafe_set wb (dst + i) sb
          done
    | Ovdriver { guard; src; dst; len; kbool; dr } ->
        let ga = opa w guard and gb = opb w guard in
        let g1 = ga land lnot gb and g0 = lnot (ga lor gb) in
        let bm = if kbool then -1 else 0 in
        let sa = src_a w src and sb = src_b w src in
        let x = src_at src and st = src_step src in
        for i = 0 to len - 1 do
          let s = x + (st * i) and c = dst + i in
          let va = (g1 land Array.unsafe_get sa s) lor gb
          and vb = g0 lor (g1 land Array.unsafe_get sb s) lor gb in
          Array.unsafe_set wa c (va lor (vb land bm));
          Array.unsafe_set wb c vb;
          if dr then Array.unsafe_set wdr c (va lor lnot vb)
        done
    | Ovmux2 { g1; s1; g2; s2; dst; len; kbool; dr; chk } ->
        let ga1 = opa w g1 and gb1 = opb w g1 in
        let on1 = ga1 land lnot gb1 and off1 = lnot (ga1 lor gb1) in
        let ga2 = opa w g2 and gb2 = opb w g2 in
        let on2 = ga2 land lnot gb2 and off2 = lnot (ga2 lor gb2) in
        let bm = if kbool then -1 else 0 in
        let a1 = src_a w s1 and b1 = src_b w s1 and x1 = src_at s1 in
        let a2 = src_a w s2 and b2 = src_b w s2 and x2 = src_at s2 in
        let st1 = src_step s1 and st2 = src_step s2 in
        if ((on1 land off2) lor (off1 land on2)) land live = live then
          (* every run has exactly one definite guard on: each lane is
             the selected source, with no conflict to find *)
          for i = 0 to len - 1 do
            let x = x1 + (st1 * i) and y = x2 + (st2 * i) and c = dst + i in
            let va =
              (on1 land Array.unsafe_get a1 x) lor (on2 land Array.unsafe_get a2 y)
            and vb =
              (on1 land Array.unsafe_get b1 x) lor (on2 land Array.unsafe_get b2 y)
            in
            Array.unsafe_set wa c (va lor (vb land bm));
            Array.unsafe_set wb c vb;
            if dr then Array.unsafe_set wdr c (va lor lnot vb)
          done
        else begin
          let chkmask = if chk then live else 0 in
          for i = 0 to len - 1 do
            let x = x1 + (st1 * i) and y = x2 + (st2 * i) and c = dst + i in
            let p1a = (on1 land Array.unsafe_get a1 x) lor gb1
            and p1b = off1 lor (on1 land Array.unsafe_get b1 x) lor gb1 in
            let p2a = (on2 land Array.unsafe_get a2 y) lor gb2
            and p2b = off2 lor (on2 land Array.unsafe_get b2 y) lor gb2 in
            let d1 = p1a lor lnot p1b and d2 = p2a lor lnot p2b in
            let two = d1 land d2 and one = d1 lor d2 in
            let va = (d1 land p1a) lor (d2 land p2a) lor two in
            let vb = (d1 land p1b) lor (d2 land p2b) lor two lor lnot one in
            Array.unsafe_set wa c (va lor (vb land bm));
            Array.unsafe_set wb c vb;
            if dr then Array.unsafe_set wdr c one;
            if two land chkmask <> 0 then
              confs := (c, two land chkmask) :: !confs
          done
        end
    | Ovlatch { reg; cls; len; seeded } ->
        for i = 0 to len - 1 do
          latch w ~seeded (reg + i) (cls + i)
        done
  done;
  w.ran <- true;
  !confs
