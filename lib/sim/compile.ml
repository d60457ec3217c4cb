(* One-time compiler from the levelized schedule ({!Sched}) over the
   compacted class graph ({!Graph}) to the flat bytecode of
   {!Bytecode}.

   Lowering follows the schedule level by level — every operand a node
   reads was finalized on a strictly lower level, so the emitted
   straight-line program is a strict levelized evaluation and computes
   the same per-cycle fixpoint as every other engine.  The program
   shape per cycle is:

     seeds        producer-less classes (pokes, CLK, RSET, registers)
     level 0..L   node ops, then multi-producer net resolutions
     latches      end-of-cycle register latch

   A peephole vectorizer turns stride-1 runs into wide ops, each one
   dispatch for all its classes: register seeds and latches over
   consecutive register files, unguarded copies, NOT chains, single
   guarded drivers sharing one guard, and the two-driver guarded
   multiplex shape (IF g THEN x := a ELSE x := b) that array
   elaboration emits in bulk.  Anything that does not form a run stays
   scalar; a wide op computes exactly what its scalar spelling would
   (the word-formula test checks both against one scalar evaluator),
   so vectorization never changes values. *)

open Zeus_sem

(* shortest stride-1 run worth a vector op *)
let vmin = 4

let encode_src = function
  | Netlist.Snet c -> c
  | Netlist.Sconst v -> Bytecode.imm (Bytecode.encode v)

let gate_kind = function
  | Netlist.Gand -> Bytecode.gand
  | Netlist.Gor -> Bytecode.gor
  | Netlist.Gnand -> Bytecode.gnand
  | Netlist.Gnor -> Bytecode.gnor
  | Netlist.Gxor -> Bytecode.gxor
  | Netlist.Gnot -> Bytecode.gnot
  | Netlist.Gequal -> Bytecode.gequal
  | Netlist.Grandom -> assert false

(* does operand [b] continue a stride-1 run after [a]?  immediates
   must repeat, classes must be consecutive *)
let src_follows a b = if a < 0 then b = a else b = a + 1

(* [discharged c]: the static provers (combinational lint or the
   bounded sequential prover) showed class [c] can never double-drive
   under the defined-inputs environment assumption — its conflict-check
   op is compiled with [chk = false].  Values are unaffected: a
   discharged resolution still forces UNDEF if the proof assumption is
   violated, only the runtime report is elided. *)
let build ?(discharged = fun _ -> false) (g : Graph.t) (sched : Sched.t) :
    Bytecode.prog option =
  if not sched.Sched.acyclic then None
  else begin
    let t0 = Sys.time () in
    let n = g.Graph.n_classes in
    let n_nodes = Array.length g.Graph.nodes in
    let kbool c = g.Graph.class_kind.(c) = Etype.KBool in
    (* the producers of multi-producer classes write dense scratch
       slots, which the resolution ops then read *)
    let slot = Array.make (max 1 n_nodes) (-1) and n_slots = ref 0 in
    Array.iteri
      (fun node nd ->
        if g.Graph.producer_count.(Graph.node_output nd) >= 2 then begin
          slot.(node) <- !n_slots;
          incr n_slots
        end)
      g.Graph.nodes;
    let prod_slot node = slot.(node) in
    (* the driven plane is read only by the latch ops, so a vector op
       whose lanes feed no register can skip maintaining it *)
    let range_feeds_reg dst len =
      let r = ref false in
      for c = dst to dst + len - 1 do
        if g.Graph.regs_of_in.(c) <> [] then r := true
      done;
      !r
    in
    (* ---- pass 1: plan multi-producer resolutions per level -------- *)
    (* the two-guarded-driver multiplex shape vectorizes; its producer
       nodes are then elided from the node phase (their produce is
       folded into the wide resolution, which reads guards and sources
       directly — all on strictly lower levels) *)
    let consumed = Array.make (max 1 n_nodes) false in
    let resolves = Array.make (sched.Sched.max_level + 1) [] in
    let mux2_of c =
      if g.Graph.producer_count.(c) <> 2 then None
      else
        let o = g.Graph.prod_off.(c) in
        let p0 = g.Graph.prod_nodes.(o) and p1 = g.Graph.prod_nodes.(o + 1) in
        match (g.Graph.nodes.(p0), g.Graph.nodes.(p1)) with
        | ( Graph.Ndriver { guard = Some ga; source = sa; _ },
            Graph.Ndriver { guard = Some gb; source = sb; _ } ) ->
            Some
              ( p0, p1,
                encode_src ga, encode_src sa,
                encode_src gb, encode_src sb )
        | _ -> None
    in
    for l = 0 to sched.Sched.max_level do
      let out = ref [] in
      let run = ref [] (* (class, node1, node2), reversed *) in
      let run_prev = ref (-2) and run_base = ref 0 in
      let run_g1 = ref 0 and run_g2 = ref 0 in
      let run_bs1 = ref 0 and run_bs2 = ref 0 in
      let run_s1 = ref 0 and run_s2 = ref 0 in
      let run_kbool = ref false in
      let run_chk = ref true in
      let scalar_resolve c =
        let o = g.Graph.prod_off.(c) in
        let prods =
          Array.init g.Graph.producer_count.(c) (fun i ->
              prod_slot g.Graph.prod_nodes.(o + i))
        in
        out :=
          Bytecode.Oresolve
            { out = c; prods; kbool = kbool c; chk = not (discharged c) }
          :: !out
      in
      let flush () =
        let members = List.rev !run in
        run := [];
        let len = List.length members in
        if len >= vmin then begin
          List.iter
            (fun (_, p0, p1) ->
              consumed.(p0) <- true;
              consumed.(p1) <- true)
            members;
          out :=
            Bytecode.Ovmux2
              {
                g1 = !run_g1;
                s1 = !run_bs1;
                g2 = !run_g2;
                s2 = !run_bs2;
                dst = !run_base;
                len;
                kbool = !run_kbool;
                dr = range_feeds_reg !run_base len;
                chk = !run_chk;
              }
            :: !out
        end
        else List.iter (fun (c, _, _) -> scalar_resolve c) members
      in
      Array.iter
        (fun c ->
          if g.Graph.producer_count.(c) >= 2 then
            match mux2_of c with
            | Some (p0, p1, g1, s1, g2, s2) ->
                if
                  !run <> [] && c = !run_prev + 1 && g1 = !run_g1
                  && g2 = !run_g2
                  && src_follows !run_s1 s1
                  && src_follows !run_s2 s2
                  && kbool c = !run_kbool
                  && not (discharged c) = !run_chk
                then begin
                  run := (c, p0, p1) :: !run;
                  run_prev := c;
                  run_s1 := s1;
                  run_s2 := s2
                end
                else begin
                  flush ();
                  run := [ (c, p0, p1) ];
                  run_base := c;
                  run_prev := c;
                  run_g1 := g1;
                  run_g2 := g2;
                  run_bs1 := s1;
                  run_bs2 := s2;
                  run_s1 := s1;
                  run_s2 := s2;
                  run_kbool := kbool c;
                  run_chk := not (discharged c)
                end
            | None ->
                flush ();
                scalar_resolve c)
        sched.Sched.nets_at.(l);
      flush ();
      resolves.(l) <- List.rev !out
    done;
    (* ---- pass 2: emit the program --------------------------------- *)
    let ops = ref [] in
    let emit op = ops := op :: !ops in
    (* a generic run partitioner: [next a b] says b extends a's run *)
    let run_partition arr next emit_vec emit_scalar =
      let m = Array.length arr in
      let i = ref 0 in
      while !i < m do
        let j = ref (!i + 1) in
        while !j < m && next arr.(!j - 1) arr.(!j) do
          incr j
        done;
        let len = !j - !i in
        if len >= vmin then emit_vec arr.(!i) len
        else
          for k = !i to !j - 1 do
            emit_scalar arr.(k)
          done;
        i := !j
      done
    in
    (* seeds: producer-less classes in ascending class order; runs of
       register outputs become wide register seeds *)
    let seed_kind c =
      if c = g.Graph.clk then Bytecode.seed_clk
      else if c = g.Graph.rset then Bytecode.seed_rset
      else if Graph.reg_of_out g c >= 0 then Graph.reg_of_out g c
      else Bytecode.seed_plain
    in
    let c = ref 0 in
    while !c < n do
      if g.Graph.producer_count.(!c) = 0 then begin
        let k = seed_kind !c in
        if k >= 0 then begin
          let len = ref 1 in
          while
            !c + !len < n
            && g.Graph.producer_count.(!c + !len) = 0
            && seed_kind (!c + !len) = k + !len
          do
            incr len
          done;
          if !len >= vmin then
            emit (Bytecode.Ovregseed { reg = k; cls = !c; len = !len })
          else
            for j = 0 to !len - 1 do
              emit (Bytecode.Oseed { cls = !c + j; kind = k + j })
            done;
          c := !c + !len
        end
        else if k = Bytecode.seed_plain then begin
          let len = ref 1 in
          while
            !c + !len < n
            && g.Graph.producer_count.(!c + !len) = 0
            && seed_kind (!c + !len) = Bytecode.seed_plain
          do
            incr len
          done;
          if !len >= vmin then
            emit (Bytecode.Ovseed { cls = !c; len = !len })
          else
            for j = 0 to !len - 1 do
              emit (Bytecode.Oseed { cls = !c + j; kind = k })
            done;
          c := !c + !len
        end
        else begin
          emit (Bytecode.Oseed { cls = !c; kind = k });
          incr c
        end
      end
      else incr c
    done;
    (* levels: node ops (scalar in node order, stride-1 copy / NOT /
       single-guarded-driver runs vectorized), then the planned
       multi-producer resolutions *)
    for l = 0 to sched.Sched.max_level do
      let copies = ref [] and nots = ref [] and gdrv = ref [] in
      Array.iter
        (fun node ->
          if not consumed.(node) then
            match g.Graph.nodes.(node) with
            | Graph.Ngate { op = Netlist.Grandom; output; _ } ->
                emit
                  (Bytecode.Orandom
                     { out = output; prod = prod_slot node })
            | Graph.Ngate { op = Netlist.Gnot; inputs = [| s |]; output }
              when g.Graph.producer_count.(output) = 1 ->
                nots := (output, encode_src s) :: !nots
            | Graph.Ngate { op; inputs; output } ->
                emit
                  (Bytecode.Ogate
                     {
                       gate = gate_kind op;
                       args = Array.map encode_src inputs;
                       out = output;
                       prod = prod_slot node;
                       kbool = kbool output;
                     })
            | Graph.Ndriver { guard = None; source; target }
              when g.Graph.producer_count.(target) = 1 ->
                copies := (target, encode_src source) :: !copies
            | Graph.Ndriver { guard = Some gs; source; target }
              when g.Graph.producer_count.(target) = 1 ->
                gdrv := (encode_src gs, target, encode_src source) :: !gdrv
            | Graph.Ndriver { guard; source; target } ->
                emit
                  (Bytecode.Odriver
                     {
                       guard =
                         (match guard with
                         | None -> Bytecode.no_guard
                         | Some gs -> encode_src gs);
                       src = encode_src source;
                       out = target;
                       prod = prod_slot node;
                       kbool = kbool target;
                     }))
        sched.Sched.nodes_at.(l);
      run_partition
        (Array.of_list (List.sort compare !copies))
        (fun (d1, s1) (d2, s2) ->
          d2 = d1 + 1 && src_follows s1 s2 && kbool d2 = kbool d1)
        (fun (d, s) len ->
          emit
            (Bytecode.Ovcopy
               {
                 src = s;
                 dst = d;
                 len;
                 kbool = kbool d;
                 dr = range_feeds_reg d len;
               }))
        (fun (d, s) ->
          emit
            (Bytecode.Odriver
               {
                 guard = Bytecode.no_guard;
                 src = s;
                 out = d;
                 prod = -1;
                 kbool = kbool d;
               }));
      run_partition
        (Array.of_list (List.sort compare !nots))
        (fun (d1, s1) (d2, s2) -> d2 = d1 + 1 && src_follows s1 s2)
        (fun (d, s) len ->
          emit
            (Bytecode.Ovnot
               { src = s; dst = d; len; dr = range_feeds_reg d len }))
        (fun (d, s) ->
          emit
            (Bytecode.Ogate
               {
                 gate = Bytecode.gnot;
                 args = [| s |];
                 out = d;
                 prod = -1;
                 kbool = kbool d;
               }));
      run_partition
        (Array.of_list (List.sort compare !gdrv))
        (fun (ga, d1, s1) (gb, d2, s2) ->
          ga = gb && d2 = d1 + 1 && src_follows s1 s2 && kbool d2 = kbool d1)
        (fun (gu, d, s) len ->
          emit
            (Bytecode.Ovdriver
               {
                 guard = gu;
                 src = s;
                 dst = d;
                 len;
                 kbool = kbool d;
                 dr = range_feeds_reg d len;
               }))
        (fun (gu, d, s) ->
          emit
            (Bytecode.Odriver
               { guard = gu; src = s; out = d; prod = -1; kbool = kbool d }));
      List.iter emit resolves.(l)
    done;
    (* latches: register-index order; stride-1 runs over consecutive
       input classes become wide latches *)
    let n_regs = Array.length g.Graph.regs in
    let seeded i = g.Graph.producer_count.(g.Graph.reg_in.(i)) = 0 in
    let i = ref 0 in
    while !i < n_regs do
      let j = ref (!i + 1) in
      while
        !j < n_regs
        && g.Graph.reg_in.(!j) = g.Graph.reg_in.(!j - 1) + 1
        && seeded !j = seeded !i
      do
        incr j
      done;
      let len = !j - !i in
      if len >= vmin then
        emit
          (Bytecode.Ovlatch
             { reg = !i; cls = g.Graph.reg_in.(!i); len; seeded = seeded !i })
      else
        for k = !i to !j - 1 do
          emit
            (Bytecode.Olatch
               { reg = k; cls = g.Graph.reg_in.(k); seeded = seeded k })
        done;
      i := !j
    done;
    let ops = Array.of_list (List.rev !ops) in
    let scalar = ref 0 and vector = ref 0 and lanes = ref 0 in
    let checks = ref 0 and disch = ref 0 in
    Array.iter
      (function
        | Bytecode.Ovseed { len; _ }
        | Bytecode.Ovregseed { len; _ }
        | Bytecode.Ovcopy { len; _ }
        | Bytecode.Ovnot { len; _ }
        | Bytecode.Ovdriver { len; _ }
        | Bytecode.Ovmux2 { len; _ }
        | Bytecode.Ovlatch { len; _ } ->
            incr vector;
            lanes := !lanes + len
        | _ -> incr scalar)
      ops;
    (* conflict-check sites, counted in classes (an Ovmux2 checks one
       class per lane) *)
    Array.iter
      (function
        | Bytecode.Oresolve { chk; _ } ->
            if chk then incr checks else incr disch
        | Bytecode.Ovmux2 { len; chk; _ } ->
            if chk then checks := !checks + len else disch := !disch + len
        | _ -> ())
      ops;
    Some
      {
        Bytecode.ops;
        n_classes = n;
        n_nodes;
        n_slots = !n_slots;
        reg_init =
          Array.map
            (fun (r : Netlist.reg) -> Bytecode.encode r.Netlist.rinit)
            g.Graph.regs;
        visits_per_cycle = n_nodes;
        scalar_ops = !scalar;
        vector_ops = !vector;
        vector_lanes = !lanes;
        check_ops = !checks;
        discharged_ops = !disch;
        compile_secs = Sys.time () -. t0;
      }
  end
