(* The bounded sequential prover: k-cycle symbolic reachability over
   the elaborated netlist.

   The combinational prover (Lint pass 1) demotes any net whose driver
   exclusivity depends on register state to needs-runtime-check; the
   value-set pass is flow-insensitive, so a register that is *ever*
   multi-driven is assumed UNDEF-capable forever, which demotes every
   guard over it.  This module re-runs both with state sensitivity:

   - Registers are tracked as value-set masks (Absint.m_zero & co.),
     one per register, starting at the power-up value.  One abstract
     cycle runs Absint.value_sets with register outputs reading the
     current state (not the cross-cycle union), and the
     conflict-injects-UNDEF rule only fires when the class's producer
     pairs are not exclusive *in this state* — each pair is re-proved
     with the bounded DPLL solver after substituting the state masks
     into the guard formulas.  Substitution is the sound boolean
     over-approximation of the four-valued evaluation:
       {0}         |-> false
       {1}         |-> true
       {0,1}       |-> the shared variable (boolean case)
       contains U  |-> a fresh variable *per occurrence*
     The per-occurrence renaming is what makes UNSAT sound under
     Kleene semantics: whenever booleanize(eval4 g) is 1 or UNDEF
     (both of which drive), some per-occurrence boolean completion of
     the UNDEF leaves evaluates g to 1 — by induction, renamed
     occurrences are independent across subtrees.  So if every
     completion refutes g1 /\ g2, no reachable state makes both
     drivers fire.  Opaque leaves (combinational cycles, multi-driven
     guard nets) are renamed the same way, which is a further sound
     weakening.

   - Union-accumulating the transfer function converges in <= 4R+1
     iterations (masks only grow).  The fixpoint over-approximates
     every state reachable from power-up under defined inputs; a
     needs-runtime-check class whose pairs are exclusive at the
     fixpoint is upgraded to Safe_sequential and its runtime conflict
     check can be discharged (Compile consults [discharged]).

   - A cycle-indexed trajectory (RSET = {1} for one cycle, {0} after,
     starting from the fixpoint = "any reachable pre-reset state")
     yields the reset-coverage lints: Z601 when a register can still
     hold UNDEF depth cycles after the pulse, Z602 when an observable
     net still reads UNDEF after reset settles *and* the UNDEF
     vanishes once the registers' UNDEF bits are stripped — i.e. the
     power-up UNDEF escapes the reset cone, rather than being a
     combinational artefact already reported by Z2xx.

   - For small acyclic designs without RANDOM, a concrete breadth-first
     search over register states (inputs enumerated over {0,1})
     produces Z603: an actual stimulus trace that makes two drivers of
     an unproven net fire in one cycle.  The mini-evaluator runs
     Absint.node_mask on singleton masks and mirrors the simulator
     exactly (guards booleanized, an UNDEF guard drives
     UNDEF, two driving values force UNDEF and count as a conflict,
     registers keep their value on an all-NOINFL input), and oracle
     row O8 replays the traces through the real engines.

   Everything shares Lint's environment assumption: inputs are poked
   to defined values.  Discharge is therefore opt-in at simulation
   time (zeusc sim --discharge). *)

open Zeus_base

type witness = {
  w_class : int;
  w_name : string;
  w_cycle : int;
  w_trace : (int * string * Logic.t) list array;
}

type reg_trace = {
  rt_name : string;
  rt_out : int;
  rt_init : int;
  rt_fix : int;
  rt_reset : int array;
}

type report = {
  sp_depth : int;
  sp_regs : reg_trace list;
  sp_upgraded : (int * string) list;
  sp_findings : Diag.t list;
  sp_witnesses : witness list;
  sp_splits : int;
  sp_lint : Lint.report;
}

let default_depth = 8

(* ------------------------------------------------------------------ *)
(* Context: the class graph plus the drive conditions to re-prove       *)
(* ------------------------------------------------------------------ *)

type ctx = {
  g : Graph.t;
  has_random : bool;
  st : Lint.expander;
  conds : (int, Lint.bexp array) Hashtbl.t; (* NRC class -> drive conds *)
  verdict_of : (int, Lint.classification) Hashtbl.t; (* per class *)
  mutable fresh : int; (* per-occurrence renamed variables *)
}

let make_ctx (g : Graph.t) (lintrep : Lint.report) =
  let st = Lint.make_expander g in
  let verdict_of = Hashtbl.create 64 in
  let conds = Hashtbl.create 64 in
  List.iter
    (fun (v : Lint.net_verdict) ->
      let c = g.Graph.canon.(v.Lint.v_net) in
      Hashtbl.replace verdict_of c v.Lint.v_class;
      if v.Lint.v_class = Lint.Needs_runtime_check then begin
        (* drive conditions per producer, in creation order — a gate
           always drives; a driver drives when its guard is 1 or
           undefined (drive_cond).  Expansion is forced here, once. *)
        let cs = ref [] in
        Graph.iter_producers g c (fun i ->
            cs :=
              (match g.Graph.nodes.(i) with
              | Graph.Ngate _ -> Lint.Btrue
              | Graph.Ndriver { guard; _ } -> Lint.drive_cond st guard)
              :: !cs);
        Hashtbl.replace conds c (Array.of_list (List.rev !cs))
      end)
    lintrep.Lint.verdicts;
  {
    g;
    has_random =
      Array.exists
        (function
          | Graph.Ngate { op = Netlist.Grandom; _ } -> true | _ -> false)
        g.Graph.nodes;
    st;
    conds;
    verdict_of;
    fresh = -1_000_000;
  }

(* the combined mask of the registers writing class [c] *)
let regs_mask ctx reg_masks c =
  List.fold_left (fun a i -> a lor reg_masks.(i)) 0 ctx.g.Graph.regs_of_out.(c)

(* ------------------------------------------------------------------ *)
(* Per-state exclusivity                                                *)
(* ------------------------------------------------------------------ *)

(* state mask of a register-output variable, or None when the variable
   is not a (pure) register output *)
let state_mask_of_var ctx reg_masks v =
  if not ctx.g.Graph.reg_out_class.(v) then Some (Absint.m_zero lor Absint.m_one)
  else if ctx.g.Graph.producer_count.(v) = 0 then
    Some (regs_mask ctx reg_masks v)
  else None (* register output with extra producers: opaque *)

(* substitute the state into a guard formula; UNDEF-capable and opaque
   leaves become fresh per-occurrence variables (sound for UNSAT under
   four-valued evaluation, see the header comment) *)
let substitute ctx reg_masks e =
  let fresh_var () =
    ctx.fresh <- ctx.fresh - 1;
    Lint.Bvar ctx.fresh
  in
  let rec go e =
    match e with
    | Lint.Btrue | Lint.Bfalse -> e
    | Lint.Bvar v -> (
        if v < 0 then fresh_var ()
        else if ctx.g.Graph.input_class.(v) then
          Lint.Bvar v (* env-defined: {0,1} *)
        else
          match state_mask_of_var ctx reg_masks v with
          | None -> fresh_var ()
          | Some m ->
              let m = Absint.booleanize_mask m in
              if m land Absint.m_undef <> 0 then fresh_var ()
              else if m = Absint.m_zero then Lint.Bfalse
              else if m = Absint.m_one then Lint.Btrue
              else Lint.Bvar v)
    | Lint.Bopq _ -> fresh_var ()
    | Lint.Bnot a -> Lint.bnot (go a)
    | Lint.Band l -> Lint.band (List.map go l)
    | Lint.Bor l -> Lint.bor (List.map go l)
    | Lint.Bxor (a, b) -> Lint.bxor (go a) (go b)
  in
  go e

(* are all producer pairs of this class exclusive in this state? *)
let class_exclusive ctx ~budget ~splits ~reg_masks conds =
  let np = Array.length conds in
  let sub = Array.map (substitute ctx reg_masks) conds in
  try
    for i = 0 to np - 1 do
      for j = i + 1 to np - 1 do
        match Lint.band [ sub.(i); sub.(j) ] with
        | Lint.Bfalse -> ()
        | f -> (
            match Lint.solve ~budget ~splits f with
            | Lint.Unsat -> ()
            | Lint.Sat _ | Lint.Budget_out -> raise Exit)
      done
    done;
    true
  with Exit -> false

(* the per-class exclusivity decision for one abstract state; only
   needs-runtime-check classes are re-proved (Safe transfers, Conflict
   never does) *)
let compute_exclusive ctx ~budget ~splits ~reg_masks =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun c conds ->
      Hashtbl.replace tbl c (class_exclusive ctx ~budget ~splits ~reg_masks conds))
    ctx.conds;
  fun c ->
    match Hashtbl.find_opt ctx.verdict_of c with
    | Some Lint.Safe | Some Lint.Safe_sequential -> true
    | Some Lint.Conflict -> false
    | Some Lint.Needs_runtime_check -> (
        match Hashtbl.find_opt tbl c with Some b -> b | None -> false)
    | None -> false

(* ------------------------------------------------------------------ *)
(* One abstract cycle                                                   *)
(* ------------------------------------------------------------------ *)

(* combinational value-set masks for one cycle: register outputs read
   the state, inputs are defined, RSET reads [rset_mask], and the
   conflict-injects-UNDEF rule is gated on [exclusive] *)
let cycle_masks ctx ~rset_mask ~reg_masks ~exclusive =
  let g = ctx.g in
  let n = g.Graph.n_classes in
  let seed _ c =
    if g.Graph.input_class.(c) then
      if c = g.Graph.rset then rset_mask else Absint.m_zero lor Absint.m_one
    else if g.Graph.reg_out_class.(c) then regs_mask ctx reg_masks c
    else if g.Graph.producer_count.(c) = 0 then Absint.m_undef
    else 0
  in
  let sets = Absint.value_sets g ~seed ~exclusive in
  let mask_of_src = function
    | Netlist.Sconst v -> Absint.mask_of v
    | Netlist.Snet c -> sets.(c)
  in
  (* per class: can every producer be silent in the same cycle?  Only
     then can a register input keep its stored value — one driver whose
     guard is never 0 (a reset pulse, say) forces a latch no matter how
     many silent siblings it has *)
  let all_silent =
    Array.init n (fun c ->
        g.Graph.producer_count.(c) > 0
        &&
        let silent = ref true in
        Graph.iter_producers g c (fun i ->
            silent :=
              !silent
              &&
              match g.Graph.nodes.(i) with
              | Graph.Ngate _ -> false
              | Graph.Ndriver { guard = None; source; _ } ->
                  mask_of_src source land Absint.m_noinfl <> 0
              | Graph.Ndriver { guard = Some gs; source; _ } ->
                  Absint.booleanize_mask (mask_of_src gs) land Absint.m_zero <> 0
                  || mask_of_src source land Absint.m_noinfl <> 0);
        !silent)
  in
  (sets, all_silent)

(* the register latch: values latch when some driver fires; the stored
   value survives only when every driver can be silent in the same
   cycle ([all_silent]); producer-less inputs latch pokes (defined, by
   the environment assumption) *)
let next_regs ctx (sets, all_silent) reg_masks =
  let g = ctx.g in
  Array.mapi
    (fun i rc ->
      let old = reg_masks.(i) in
      if g.Graph.producer_count.(rc) = 0 then
        if g.Graph.input_class.(rc) then old lor Absint.m_zero lor Absint.m_one
        else old
      else begin
        let m = sets.(rc) in
        let latched = m land (Absint.m_zero lor Absint.m_one lor Absint.m_undef) in
        latched
        lor (if all_silent.(rc) || latched = 0 then old else 0)
      end)
    g.Graph.reg_in

(* ------------------------------------------------------------------ *)
(* Reachability fixpoint and reset trajectory                           *)
(* ------------------------------------------------------------------ *)

let any_input_mask = Absint.m_zero lor Absint.m_one

(* union-accumulated fixpoint from power-up: an over-approximation of
   every reachable register state (RSET free, inputs defined) *)
let powerup_fixpoint ctx ~budget ~splits =
  let reg_masks =
    Array.map
      (fun (r : Netlist.reg) -> Absint.mask_of r.Netlist.rinit)
      ctx.g.Graph.regs
  in
  let limit = (4 * Array.length ctx.g.Graph.regs) + 2 in
  let continue_ = ref true in
  let iters = ref 0 in
  while !continue_ && !iters < limit do
    incr iters;
    let exclusive = compute_exclusive ctx ~budget ~splits ~reg_masks in
    let sets = cycle_masks ctx ~rset_mask:any_input_mask ~reg_masks ~exclusive in
    let next = next_regs ctx sets reg_masks in
    continue_ := false;
    Array.iteri
      (fun i m ->
        let u = reg_masks.(i) lor m in
        if u <> reg_masks.(i) then begin
          reg_masks.(i) <- u;
          continue_ := true
        end)
      next
  done;
  reg_masks

(* forward images through a RSET pulse: index 0 = the pre-reset state
   (the fixpoint), index i = the state i cycles after the pulse began
   (the pulse itself is cycle 1, RSET = {1}; {0} afterwards) *)
let reset_trajectory ctx ~budget ~splits ~depth start =
  let traj = Array.make (depth + 1) [||] in
  traj.(0) <- Array.copy start;
  let cur = ref (Array.copy start) in
  for i = 1 to depth do
    let rset_mask = if i = 1 then Absint.m_one else Absint.m_zero in
    let exclusive = compute_exclusive ctx ~budget ~splits ~reg_masks:!cur in
    let sets = cycle_masks ctx ~rset_mask ~reg_masks:!cur ~exclusive in
    cur := next_regs ctx sets !cur;
    traj.(i) <- Array.copy !cur
  done;
  traj

(* ------------------------------------------------------------------ *)
(* Reporting helpers                                                    *)
(* ------------------------------------------------------------------ *)

(* representative user-visible net of a class, for findings (the lint
   discipline: read or output-pin, no '#', prefer a real location) *)
let class_rep ctx c =
  let visible =
    List.filter
      (fun (net : Netlist.net) ->
        (not (String.contains net.Netlist.name '#'))
        && (net.Netlist.reads > 0
           ||
           match net.Netlist.pin with
           | Some (_, (Etype.Out | Etype.Inout)) -> true
           | _ -> false))
      (List.map (Netlist.net ctx.g.Graph.nl) (Graph.members ctx.g c))
  in
  match
    List.filter (fun (n : Netlist.net) -> not (Loc.is_dummy n.Netlist.loc)) visible
  with
  | net :: _ -> Some net
  | [] -> ( match visible with net :: _ -> Some net | [] -> None)

(* ------------------------------------------------------------------ *)
(* Z601 / Z602                                                          *)
(* ------------------------------------------------------------------ *)

let reset_coverage ctx bag ~budget ~splits ~depth traj =
  let endst = traj.(depth) in
  (* Z601: a register that can still hold UNDEF depth cycles after the
     reset pulse began *)
  Array.iteri
    (fun i (r : Netlist.reg) ->
      if endst.(i) land Absint.m_undef <> 0 then
        let loc = (Netlist.net ctx.g.Graph.nl r.Netlist.rout).Netlist.loc in
        Diag.Bag.warning bag ~code:Diag.Code.seq_uninitialized Diag.Lint_error
          loc
          "register '%s' can still hold UNDEF %d cycle%s after a RSET pulse \
           — no reset path initializes it (reachable: %s)"
          r.Netlist.rpath depth
          (if depth = 1 then "" else "s")
          (Absint.mask_to_string endst.(i)))
    ctx.g.Graph.regs;
  (* Z602: an observable net that reads UNDEF after reset settles,
     where stripping the registers' UNDEF bits removes the UNDEF — the
     power-up UNDEF escapes the reset cone (purely combinational UNDEF
     sources are Z2xx territory and unaffected by the strip) *)
  let exclusive =
    compute_exclusive ctx ~budget ~splits ~reg_masks:endst
  in
  let sets, _ =
    cycle_masks ctx ~rset_mask:Absint.m_zero ~reg_masks:endst ~exclusive
  in
  let stripped =
    Array.map
      (fun m ->
        let s = m land lnot Absint.m_undef in
        if s = 0 then m else s)
      endst
  in
  let exclusive' =
    compute_exclusive ctx ~budget ~splits ~reg_masks:stripped
  in
  let sets', _ =
    cycle_masks ctx ~rset_mask:Absint.m_zero ~reg_masks:stripped
      ~exclusive:exclusive'
  in
  let g = ctx.g in
  let live = Absint.observability g in
  Array.iter
    (fun c ->
      if
        live.(c)
        && (not g.Graph.reg_out_class.(c))
        && (not g.Graph.input_class.(c))
        && Absint.booleanize_mask sets.(c) land Absint.m_undef <> 0
        && Absint.booleanize_mask sets'.(c) land Absint.m_undef = 0
      then
        match class_rep ctx c with
        | Some net ->
            Diag.Bag.warning bag ~code:Diag.Code.seq_undef_escape Diag.Lint_error
              net.Netlist.loc
              "'%s' can still read UNDEF after reset settles, and the UNDEF \
               originates in uninitialized register state — power-up UNDEF \
               escapes the reset cone into an observable net"
              net.Netlist.name
        | None -> ())
    (Graph.by_rep g)

(* ------------------------------------------------------------------ *)
(* Z603: concrete bounded reachability with witness traces              *)
(* ------------------------------------------------------------------ *)

(* hard caps keeping the concrete search cheap; past them the search
   is skipped (the abstract passes already ran) *)
let max_search_inputs = 5
let max_search_regs = 20
let max_search_nets = 3000
let max_search_states = 1024
let max_witnesses = 4

(* one concrete cycle, mirroring the simulator: returns the resolved
   values, the conflicting classes (by ascending representative) and
   the next register state, or None when the sweep fails to stabilize
   (combinational cycle); pokes name classes *)
let concrete_cycle ctx (state : Logic.t array) (pokes : (int * Logic.t) list) =
  let g = ctx.g in
  let n = g.Graph.n_classes in
  let values = Array.make n Logic.Undef in
  let root = Array.make n false in
  (* seeds: CLK is One, RSET defaults to Zero, pokes override *)
  for c = 0 to n - 1 do
    if g.Graph.input_class.(c) then begin
      root.(c) <- true;
      values.(c) <-
        (if c = g.Graph.clk then Logic.One
         else if c = g.Graph.rset then Logic.Zero
         else Logic.Undef)
    end
  done;
  List.iter
    (fun (c, v) -> if root.(c) then values.(c) <- Logic.booleanize v)
    pokes;
  Array.iteri
    (fun i c ->
      if g.Graph.producer_count.(c) = 0 then begin
        root.(c) <- true;
        values.(c) <- state.(i)
      end)
    g.Graph.reg_out;
  let mask_of_src = function
    | Netlist.Sconst v -> Absint.mask_of v
    | Netlist.Snet c -> Absint.mask_of values.(c)
  in
  let kmux c = g.Graph.class_kind.(c) = Etype.KMux in
  let drives = Array.make n 0 in
  let resolve c =
    let d = ref 0 in
    let value = ref Logic.Noinfl in
    Graph.iter_producers g c (fun i ->
        (* the value-set transfer on singleton masks is the
           simulator's evaluation (RANDOM, the one non-singleton
           result, is excluded by has_random) *)
        let pv =
          match
            Absint.values_of_mask
              (Absint.node_mask mask_of_src g.Graph.nodes.(i))
          with
          | [ v ] -> v
          | _ -> Logic.Undef
        in
        if pv <> Logic.Noinfl then begin
          incr d;
          if !d = 1 then value := pv
        end);
    drives.(c) <- !d;
    let v =
      if !d >= 2 then Logic.Undef
      else if !d = 1 then !value
      else if kmux c then Logic.Noinfl
      else Logic.Undef
    in
    if kmux c then v else Logic.booleanize v
  in
  let stable = ref false in
  let sweeps = ref 0 in
  let cap = n + 8 in
  while (not !stable) && !sweeps < cap do
    incr sweeps;
    stable := true;
    for c = 0 to n - 1 do
      if (not root.(c)) && g.Graph.producer_count.(c) > 0 then begin
        let v = resolve c in
        if v <> values.(c) then begin
          values.(c) <- v;
          stable := false
        end
      end
    done
  done;
  if not !stable then None
  else begin
    let conflicts = ref [] in
    for c = 0 to n - 1 do
      if (not root.(c)) && drives.(c) >= 2 then conflicts := c :: !conflicts
    done;
    let conflicts =
      List.sort (fun a b -> compare g.Graph.rep.(a) g.Graph.rep.(b)) !conflicts
    in
    let next =
      Array.mapi
        (fun i rc ->
          if g.Graph.producer_count.(rc) = 0 then
            if root.(rc) && g.Graph.input_class.(rc) then
              Logic.booleanize values.(rc)
            else state.(i)
          else if drives.(rc) >= 1 then Logic.booleanize values.(rc)
          else state.(i))
        g.Graph.reg_in
    in
    Some (values, conflicts, next)
  end

let state_key state =
  String.init (Array.length state) (fun i -> Logic.to_char state.(i))

let concrete_search ctx ~depth =
  let g = ctx.g in
  if ctx.has_random then []
  else if Array.length g.Graph.regs > max_search_regs then []
  else if g.Graph.n_nets > max_search_nets then []
  else if
    (* register outputs must be pure state for the mini-evaluator *)
    Array.exists
      (fun c ->
        g.Graph.producer_count.(c) > 0
        || List.length g.Graph.regs_of_out.(c) > 1)
      g.Graph.reg_out
  then []
  else begin
    let targets =
      Hashtbl.fold
        (fun c v acc -> if v = Lint.Needs_runtime_check then c :: acc else acc)
        ctx.verdict_of []
    in
    if targets = [] then []
    else begin
      (* enumerated inputs: every top input except CLK (held at One),
         by ascending representative *)
      let ins =
        List.filter
          (fun c -> g.Graph.input_class.(c) && c <> g.Graph.clk)
          (Array.to_list (Graph.by_rep g))
      in
      if List.length ins > max_search_inputs then []
      else begin
        let ins = Array.of_list ins in
        let ni = Array.length ins in
        let combos =
          Array.init (1 lsl ni) (fun bits ->
              Array.to_list
                (Array.mapi
                   (fun k c ->
                     (c, if bits land (1 lsl k) <> 0 then Logic.One else Logic.Zero))
                   ins))
        in
        let name_of c = g.Graph.names.(c) in
        let init =
          Array.map (fun (r : Netlist.reg) -> r.Netlist.rinit) g.Graph.regs
        in
        let visited = Hashtbl.create 64 in
        Hashtbl.replace visited (state_key init) ();
        let queue = Queue.create () in
        Queue.add (init, []) queue;
        let witnesses = ref [] in
        let found = Hashtbl.create 8 in
        let remaining_targets = ref (List.length targets) in
        (try
           while not (Queue.is_empty queue) do
             let state, rev_trace = Queue.pop queue in
             let cycle = List.length rev_trace in
             if cycle < depth then
               Array.iter
                 (fun pokes ->
                   match concrete_cycle ctx state pokes with
                   | None -> raise Exit (* unstable: give up entirely *)
                   | Some (_, conflicts, next) ->
                       let rev_trace' = pokes :: rev_trace in
                       List.iter
                         (fun c ->
                           if
                             List.mem c targets
                             && not (Hashtbl.mem found c)
                             && List.length !witnesses < max_witnesses
                           then begin
                             Hashtbl.replace found c ();
                             decr remaining_targets;
                             let trace =
                               Array.of_list
                                 (List.rev_map
                                    (List.map (fun (c, v) ->
                                         (g.Graph.rep.(c), name_of c, v)))
                                    rev_trace')
                             in
                             witnesses :=
                               {
                                 w_class = g.Graph.rep.(c);
                                 w_name = name_of c;
                                 w_cycle = cycle;
                                 w_trace = trace;
                               }
                               :: !witnesses
                           end)
                         conflicts;
                       if
                         !remaining_targets > 0
                         && List.length !witnesses < max_witnesses
                       then begin
                         let key = state_key next in
                         if
                           (not (Hashtbl.mem visited key))
                           && Hashtbl.length visited < max_search_states
                         then begin
                           Hashtbl.replace visited key ();
                           Queue.add (next, rev_trace') queue
                         end
                       end
                       else raise Exit)
                 combos
           done
         with Exit -> ());
        List.rev !witnesses
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let run ?(depth = default_depth) ?(budget = Lint.default_budget) ?lint
    (design : Elaborate.design) =
  let g = Graph.build design in
  let lintrep =
    match lint with
    | Some r -> r
    | None -> Lint.analyze ~budget ~proven_safe:None g
  in
  let ctx = make_ctx g lintrep in
  let splits = ref 0 in
  let bag = Diag.Bag.create () in
  (* 1. reachability fixpoint from power-up *)
  let fix = powerup_fixpoint ctx ~budget ~splits in
  (* 2. upgrades: needs-runtime-check classes exclusive in every
     reachable state *)
  let exclusive_fix = compute_exclusive ctx ~budget ~splits ~reg_masks:fix in
  let upgraded =
    List.filter_map
      (fun (v : Lint.net_verdict) ->
        if
          v.Lint.v_class = Lint.Needs_runtime_check
          && exclusive_fix g.Graph.canon.(v.Lint.v_net)
        then Some (v.Lint.v_net, v.Lint.v_name)
        else None)
      lintrep.Lint.verdicts
  in
  let upgraded_set = Hashtbl.create 16 in
  List.iter (fun (c, _) -> Hashtbl.replace upgraded_set c ()) upgraded;
  let verdicts =
    List.map
      (fun (v : Lint.net_verdict) ->
        if Hashtbl.mem upgraded_set v.Lint.v_net then
          {
            v with
            Lint.v_class = Lint.Safe_sequential;
            Lint.v_detail =
              Printf.sprintf
                "exclusive in every register state reachable from power-up \
                 (was: %s)"
                v.Lint.v_detail;
          }
        else v)
      lintrep.Lint.verdicts
  in
  (* record the refreshed verdicts so reset-coverage and the concrete
     search see the upgrades *)
  List.iter
    (fun (net, _) ->
      Hashtbl.replace ctx.verdict_of g.Graph.canon.(net) Lint.Safe_sequential)
    upgraded;
  (* 3. reset trajectory: Z601 / Z602 *)
  let traj = reset_trajectory ctx ~budget ~splits ~depth fix in
  reset_coverage ctx bag ~budget ~splits ~depth traj;
  (* 4. concrete witness search: Z603 (over the still-unproven nets) *)
  let witnesses = concrete_search ctx ~depth in
  List.iter
    (fun w ->
      let loc =
        match class_rep ctx g.Graph.canon.(w.w_class) with
        | Some net -> net.Netlist.loc
        | None -> (Netlist.net g.Graph.nl w.w_class).Netlist.loc
      in
      let stim =
        String.concat "; "
          (List.mapi
             (fun i pokes ->
               Printf.sprintf "cycle %d: %s" i
                 (String.concat ", "
                    (List.map
                       (fun (_, name, v) ->
                         Printf.sprintf "%s=%s" name (Logic.to_string v))
                       pokes)))
             (Array.to_list w.w_trace))
      in
      Diag.Bag.warning bag ~code:Diag.Code.seq_conflict_reachable
        Diag.Lint_error loc
        "'%s': a runtime drive conflict is reachable at cycle %d from \
         power-up — concrete witness: %s"
        w.w_name w.w_cycle stim)
    witnesses;
  let regs =
    Array.to_list
      (Array.mapi
         (fun i (r : Netlist.reg) ->
           {
             rt_name = r.Netlist.rpath;
             rt_out = g.Graph.rep.(g.Graph.reg_out.(i));
             rt_init = Absint.mask_of r.Netlist.rinit;
             rt_fix = fix.(i);
             rt_reset = Array.map (fun masks -> masks.(i)) traj;
           })
         g.Graph.regs)
  in
  {
    sp_depth = depth;
    sp_regs = regs;
    sp_upgraded = upgraded;
    sp_findings = Diag.Bag.all bag;
    sp_witnesses = witnesses;
    sp_splits = !splits;
    sp_lint =
      {
        lintrep with
        Lint.verdicts;
        (* the Z102 "needs runtime check" warnings of upgraded nets are
           stale — the runtime check was just proved redundant *)
        findings =
          List.filter
            (fun (d : Diag.t) ->
              d.Diag.code <> Some Diag.Code.drive_unproven
              || not
                   (List.exists
                      (fun (_, name) ->
                        let q = "'" ^ name ^ "'" in
                        let ql = String.length q in
                        String.length d.Diag.message >= ql
                        && String.sub d.Diag.message 0 ql = q)
                      upgraded))
            lintrep.Lint.findings;
      };
  }

let discharged (design : Elaborate.design) report =
  let nl = design.Elaborate.netlist in
  let arr = Array.make (Netlist.net_count nl) false in
  List.iter
    (fun (v : Lint.net_verdict) ->
      if v.Lint.v_class = Lint.Safe || v.Lint.v_class = Lint.Safe_sequential
      then arr.(v.Lint.v_net) <- true)
    report.sp_lint.Lint.verdicts;
  arr

(* ------------------------------------------------------------------ *)
(* Summary and JSON                                                     *)
(* ------------------------------------------------------------------ *)

let summary report =
  let nrc_before =
    List.length report.sp_upgraded
    + Lint.count Lint.Needs_runtime_check report.sp_lint
  in
  Printf.sprintf
    "depth %d: %d register%s; %d/%d needs-runtime-check upgraded to \
     safe-sequential; %d finding%s, %d witness%s (%d case splits)"
    report.sp_depth
    (List.length report.sp_regs)
    (if List.length report.sp_regs = 1 then "" else "s")
    (List.length report.sp_upgraded)
    nrc_before
    (List.length report.sp_findings)
    (if List.length report.sp_findings = 1 then "" else "s")
    (List.length report.sp_witnesses)
    (if List.length report.sp_witnesses = 1 then "" else "es")
    report.sp_splits

let json_schema_version = 1

let json_of_report report =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"version\": %d,\n  \"depth\": %d,\n  \"registers\": ["
       json_schema_version report.sp_depth);
  List.iteri
    (fun i rt ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"name\":\"%s\",\"init\":\"%s\",\"reachable\":\"%s\",\"reset\":[%s]}"
           (Diag.json_escape rt.rt_name)
           (Absint.mask_to_string rt.rt_init)
           (Absint.mask_to_string rt.rt_fix)
           (String.concat ","
              (List.map
                 (fun m -> Printf.sprintf "\"%s\"" (Absint.mask_to_string m))
                 (Array.to_list rt.rt_reset)))))
    report.sp_regs;
  Buffer.add_string b "\n  ],\n  \"upgraded\": [";
  List.iteri
    (fun i (_, name) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "\n    \"%s\"" (Diag.json_escape name)))
    report.sp_upgraded;
  Buffer.add_string b "\n  ],\n  \"findings\": [";
  List.iteri
    (fun i (d : Diag.t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    {\"code\":%s,\"severity\":\"%s\",\"message\":\"%s\"}"
           (match d.Diag.code with
           | Some c -> Printf.sprintf "\"%s\"" (Diag.json_escape c)
           | None -> "null")
           (Diag.severity_to_string d.Diag.severity)
           (Diag.json_escape d.Diag.message)))
    report.sp_findings;
  Buffer.add_string b "\n  ],\n  \"witnesses\": [";
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n    {\"net\":\"%s\",\"cycle\":%d,\"trace\":[%s]}"
           (Diag.json_escape w.w_name) w.w_cycle
           (String.concat ","
              (List.map
                 (fun pokes ->
                   Printf.sprintf "[%s]"
                     (String.concat ","
                        (List.map
                           (fun (_, name, v) ->
                             Printf.sprintf "{\"net\":\"%s\",\"value\":\"%s\"}"
                               (Diag.json_escape name) (Logic.to_string v))
                           pokes)))
                 (Array.to_list w.w_trace)))))
    report.sp_witnesses;
  Buffer.add_string b
    (Printf.sprintf
       "\n  ],\n  \"summary\": \
        {\"registers\":%d,\"upgraded\":%d,\"needs_runtime_check\":%d,\"findings\":%d,\"witnesses\":%d,\"splits\":%d}\n\
        }"
       (List.length report.sp_regs)
       (List.length report.sp_upgraded)
       (Lint.count Lint.Needs_runtime_check report.sp_lint)
       (List.length report.sp_findings)
       (List.length report.sp_witnesses)
       report.sp_splits);
  Buffer.contents b
