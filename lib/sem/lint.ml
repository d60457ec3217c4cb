(* The lint engine: static proofs about the elaborated netlist.

   The paper's central claim (section 4.7) is that Zeus's static rules
   exist to rule out power-ground shorts, that deciding the residual
   problem — "is every multiplex net driven at most once per cycle?" —
   is NP-complete, and that the check therefore splits into a static
   part plus a runtime fallback.  This module is that static part:

   1. Drive-conflict prover (Z101/Z102).  For every net with more than
      one producer, the guard of each conditional driver is expanded
      into a boolean formula over *free* variables (testbench inputs,
      register outputs, RANDOM sources) by walking the netlist
      backwards through gates and unconditional forwarding drivers.
      The producers of a class are then checked for mutual
      exclusivity by one class-wide case split (co_drive) under a
      configurable split budget per class (honouring the
      NP-completeness result: we buy completeness up to the budget,
      never beyond); only the pairs it finds co-drivable go to the
      pair solver, for a witness.  A net is

      - [safe]   every pair proved mutually exclusive;
      - [conflict] some pair is satisfiable with a witness over free
        variables only — the environment (or a power-up register
        state, which is UNDEF and hence arbitrary) can realize it;
      - [needs-runtime-check] the budget ran out, or exclusivity
        depends on something the expansion cannot see (multi-driven
        guard nets, UNDEF-capable guards, combinational cycles).

      The prover works in the two-valued abstraction: guards are
      assumed to evaluate to 0 or 1.  Guards that can read UNDEF are
      never proved safe (they are demoted to needs-runtime-check, and
      the UNDEF pass reports them separately).  "Can read UNDEF"
      includes sequential state: a guard over a register output is only
      proved safe when the value-set analysis of pass 2 shows the
      register can never hold UNDEF — at power-up a register reads
      UNDEF unless REG(c) gave it a constant, and an undefined guard
      *drives* (UNDEF), so g and NOT g both fire when g is undefined.

   2. UNDEF-reachability (Z201/Z202).  The value-set fixpoint of
      Absint.value_sets, seeded flow-insensitively: every net gets the
      set of values it can ever carry, from the inputs, register
      power-up values and gate/driver transfer functions.
      Nets that are read but can only ever read UNDEF are reported:
      undriven (Z201) or driven-but-never-defined (Z202).

   3. Dead hardware (Z301/Z302).  Drivers whose guard is statically
      false by Absint's proof table (a conditional branch surviving
      elaboration that can never fire), and instances none of whose
      outputs can reach a register or a root output port (Absint's
      observability closure).

   4. Abstract interpretation (Z501/Z502/Z503).  Absint's
      classification — the proof table zeusc opt reduces by — surfaced
      as findings: nets provably constant every cycle (Z501), nets
      provably stuck at UNDEF every cycle where the UNDEF pass stayed
      silent and some producer can drive a defined value (Z502, e.g.
      an unread output pin whose two drivers always conflict), and
      driven nets that reach nothing observable (Z503; nets under an
      instance already reported dead by Z302, and '*'-starred nets, are
      skipped).

   Findings carry the stable codes of Diag.Code; the simulator's
   runtime multiple-drive check reports Z101 for the violations this
   prover could not exclude, so static and dynamic findings correlate. *)

open Zeus_base

type classification =
  | Safe
  | Safe_sequential
  | Conflict
  | Needs_runtime_check

let classification_to_string = function
  | Safe -> "safe"
  | Safe_sequential -> "safe-sequential"
  | Conflict -> "conflict"
  | Needs_runtime_check -> "needs-runtime-check"

type net_verdict = {
  v_net : int; (* canonical net id *)
  v_name : string;
  v_kind : Etype.kind;
  v_producers : int;
  v_class : classification;
  v_detail : string; (* witness / proof summary / reason *)
}

type report = {
  verdicts : net_verdict list; (* every multi-driven class, by net id *)
  findings : Diag.t list;
  splits : int; (* total case splits spent by the solver *)
}

(* ------------------------------------------------------------------ *)
(* Boolean formulas over netlist nets                                   *)
(* ------------------------------------------------------------------ *)

(* [Bvar] is a free variable (testbench input, register output, RANDOM
   source): a witness over free variables only is realizable.  [Bopq]
   is an opaque variable — a net the expansion could not reduce.  The
   solver may case-split on opaque variables (sound for UNSAT), but a
   witness that assigns one proves nothing. *)
type bexp =
  | Btrue
  | Bfalse
  | Bvar of int
  | Bopq of int
  | Bnot of bexp
  | Band of bexp list
  | Bor of bexp list
  | Bxor of bexp * bexp

let bnot = function
  | Btrue -> Bfalse
  | Bfalse -> Btrue
  | Bnot e -> e
  | e -> Bnot e

let band es =
  let es =
    List.concat_map
      (function Band l -> l | Btrue -> [] | e -> [ e ])
      es
  in
  if List.mem Bfalse es then Bfalse
  else match es with [] -> Btrue | [ e ] -> e | es -> Band es

let bor es =
  let es =
    List.concat_map (function Bor l -> l | Bfalse -> [] | e -> [ e ]) es
  in
  if List.mem Btrue es then Btrue
  else match es with [] -> Bfalse | [ e ] -> e | es -> Bor es

let bxor a b =
  match (a, b) with
  | Bfalse, e | e, Bfalse -> e
  | Btrue, e | e, Btrue -> bnot e
  | a, b -> Bxor (a, b)

let rec exists_var p = function
  | Btrue | Bfalse -> false
  | Bvar v -> p v false
  | Bopq v -> p v true
  | Bnot e -> exists_var p e
  | Band l | Bor l -> List.exists (exists_var p) l
  | Bxor (a, b) -> exists_var p a || exists_var p b

(* ------------------------------------------------------------------ *)
(* Guard expansion                                                      *)
(* ------------------------------------------------------------------ *)

type expander = {
  g : Graph.t;
  free_root : bool array; (* per class: input / reg out / RANDOM *)
  undef_roots : (int, unit) Hashtbl.t; (* opaques that can read UNDEF *)
  memo : bexp option array; (* per class *)
  busy : bool array; (* per class: on the expansion stack *)
  mutable nodes : int; (* formula nodes built so far (size cap) *)
  mutable fresh_opq : int; (* negative ids for constant-UNDEF leaves *)
}

(* keep formulas bounded: past this many nodes, leaves become opaque *)
let expansion_cap = 50_000

let make_expander (g : Graph.t) =
  let free_root =
    Array.mapi
      (fun c input -> input || g.Graph.reg_out_class.(c))
      g.Graph.input_class
  in
  Array.iter
    (function
      | Graph.Ngate { op = Netlist.Grandom; output; _ } ->
          free_root.(output) <- true
      | _ -> ())
    g.Graph.nodes;
  {
    g;
    free_root;
    undef_roots = Hashtbl.create 16;
    memo = Array.make g.Graph.n_classes None;
    busy = Array.make g.Graph.n_classes false;
    nodes = 0;
    fresh_opq = 0;
  }

(* the formula of class [c]: variables are class ids *)
let rec expand st c =
  match st.memo.(c) with
  | Some e -> e
  | None ->
      let e =
        if st.busy.(c) then Bopq c (* combinational cycle *)
        else if st.free_root.(c) then Bvar c
        else begin
          st.busy.(c) <- true;
          let g = st.g in
          let e =
            if st.nodes > expansion_cap then Bopq c
            else
              match g.Graph.producer_count.(c) with
              | 0 ->
                  (* undriven: always reads UNDEF *)
                  Hashtbl.replace st.undef_roots c ();
                  Bopq c
              | 1 -> (
                  let sole = g.Graph.prod_nodes.(g.Graph.prod_off.(c)) in
                  match g.Graph.nodes.(sole) with
                  | Graph.Ngate { op; inputs; _ } -> expand_gate st c op inputs
                  | Graph.Ndriver { guard = None; source; _ } ->
                      expand_src st source
                  | Graph.Ndriver { guard = Some _; _ } ->
                      Bopq c (* value can be NOINFL/UNDEF *))
              | _ -> Bopq c (* multi-driven: resolution is not boolean *)
          in
          st.busy.(c) <- false;
          e
        end
      in
      st.nodes <- st.nodes + 1;
      st.memo.(c) <- Some e;
      e

and expand_src st = function
  | Netlist.Sconst v -> (
      match Logic.booleanize v with
      | Logic.One -> Btrue
      | Logic.Zero -> Bfalse
      | _ ->
          (* a literal UNDEF: never provable either way *)
          st.fresh_opq <- st.fresh_opq - 1;
          Hashtbl.replace st.undef_roots st.fresh_opq ();
          Bopq st.fresh_opq)
  | Netlist.Snet c -> expand st c

and expand_gate st c op inputs =
  let ins () = List.map (expand_src st) (Array.to_list inputs) in
  match (op : Netlist.gate_op) with
  | Netlist.Gand -> band (ins ())
  | Netlist.Gor -> bor (ins ())
  | Netlist.Gnand -> bnot (band (ins ()))
  | Netlist.Gnor -> bnot (bor (ins ()))
  | Netlist.Gnot -> ( match ins () with [ e ] -> bnot e | _ -> Bopq c)
  | Netlist.Gxor -> (
      match ins () with
      | [] -> Bfalse
      | e :: rest -> List.fold_left bxor e rest)
  | Netlist.Gequal ->
      let vs = ins () in
      let len = List.length vs in
      if len mod 2 <> 0 then Bopq c
      else
        let a = List.filteri (fun i _ -> i < len / 2) vs
        and b = List.filteri (fun i _ -> i >= len / 2) vs in
        band (List.map2 (fun x y -> bnot (bxor x y)) a b)
  | Netlist.Grandom -> Bvar c

(* ------------------------------------------------------------------ *)
(* The bounded solver                                                   *)
(* ------------------------------------------------------------------ *)

type sat_result =
  | Unsat
  | Sat of (int * bool) list (* the assigned variables at the leaf *)
  | Budget_out

exception Out_of_budget

(* the split variable of a set of open formulas: the first free
   variable when one is left, otherwise the first opaque one *)
let pick es =
  let first_free = ref None and first_opq = ref None in
  let rec go e =
    !first_free = None
    &&
    match e with
    | Btrue | Bfalse -> true
    | Bvar v ->
        first_free := Some v;
        false
    | Bopq v ->
        if !first_opq = None then first_opq := Some v;
        true
    | Bnot a -> go a
    | Band l | Bor l -> List.for_all go l
    | Bxor (a, b) -> go a && go b
  in
  ignore (List.for_all go es);
  match (!first_free, !first_opq) with
  | Some v, _ -> v
  | None, Some v -> v
  | None, None -> invalid_arg "Lint.pick: no variable in open formula"

(* [budget] bounds the case splits of this one call; [splits]
   accumulates the grand total for the report *)
let solve ~budget ~splits e =
  let spent = ref 0 in
  let env : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let rec eval e =
    match e with
    | Btrue | Bfalse -> e
    | Bvar v | Bopq v -> (
        match Hashtbl.find_opt env v with
        | Some true -> Btrue
        | Some false -> Bfalse
        | None -> e)
    | Bnot a -> bnot (eval a)
    | Band l -> band (List.map eval l)
    | Bor l -> bor (List.map eval l)
    | Bxor (a, b) -> bxor (eval a) (eval b)
  in
  let rec go e =
    match eval e with
    | Btrue ->
        Some (Hashtbl.fold (fun k v acc -> (k, v) :: acc) env [])
    | Bfalse -> None
    | e' ->
        if !spent >= budget then raise Out_of_budget;
        incr spent;
        incr splits;
        let v = pick [ e' ] in
        Hashtbl.replace env v true;
        let r =
          match go e' with
          | Some m -> Some m
          | None ->
              Hashtbl.replace env v false;
              go e'
        in
        Hashtbl.remove env v;
        r
  in
  try match go e with Some m -> Sat m | None -> Unsat
  with Out_of_budget -> Budget_out

(* [e] with variable [v] fixed to [b]; a subformula without [v] is
   returned as it is, not rebuilt *)
let rec cofactor v b e =
  match e with
  | Btrue | Bfalse -> e
  | Bvar x | Bopq x -> if x <> v then e else if b then Btrue else Bfalse
  | Bnot a ->
      let a' = cofactor v b a in
      if a' == a then e else bnot a'
  | Band l ->
      let l' = List.map (cofactor v b) l in
      if List.for_all2 ( == ) l l' then e else band l'
  | Bor l ->
      let l' = List.map (cofactor v b) l in
      if List.for_all2 ( == ) l l' then e else bor l'
  | Bxor (a, c) ->
      let a' = cofactor v b a and c' = cofactor v b c in
      if a' == a && c' == c then e else bxor a' c'

(* The class-wide at-most-one proof: one case split over all drive
   conditions of a class at once.  A branch cofactors every live
   condition, drops those that become false, and marks every pair of
   conditions that are both true.  A condition is settled in a branch
   once its pair with every other live condition is marked: it can add
   no pair below, so it is dropped too, and the branch stops when
   nothing is left — in particular once at most one condition
   survives.  The split variable comes from the first unmarked live
   pair, in [solve]'s order, so a decoder over k address bits costs
   about one split per guard where the pair-by-pair proof costs one per
   pair.  The marked pairs are exactly the pairs whose conjunction is
   satisfiable: the branch that follows a satisfying assignment of
   [ci /\ cj] keeps both live until both are true.  [first] stops at
   the first marked pair, which decides "at most one" alone; [budget]
   bounds the splits of this one call. *)
let co_drive ?(first = false) ~budget ~splits conds =
  let n = Array.length conds in
  (* index sets as bitsets, 63 indices a word *)
  let words = (n / 63) + 1 in
  let bit i = 1 lsl (i mod 63) in
  (* co.(i): the conditions marked with i, allocated on its first mark,
     so an exclusive class allocates none *)
  let co = Array.make n [||] in
  let marked i j = Array.length co.(i) > 0 && co.(i).(j / 63) land bit j <> 0 in
  let mark i j =
    if Array.length co.(i) = 0 then co.(i) <- Array.make words 0;
    co.(i).(j / 63) <- co.(i).(j / 63) lor bit j
  in
  let rec lowest d k = if d land 1 <> 0 then k else lowest (d lsr 1) (k + 1) in
  (* the lowest member of [set] other than [i] whose pair with [i] is
     not marked, or -1 *)
  let open_partner set i =
    let row = co.(i) in
    let rec go w =
      if w = words then -1
      else
        let d = set.(w) land if Array.length row = 0 then -1 else lnot row.(w) in
        let d = if w = i / 63 then d land lnot (bit i) else d in
        if d = 0 then go (w + 1) else (w * 63) + lowest d 0
    in
    go 0
  in
  let spent = ref 0 in
  (* [live]: (index, cofactored condition), in index order, none false;
     [fresh]: the conditions that became true at this node, each marked
     once against every true one *)
  let rec go fresh live =
    List.iter
      (fun i ->
        List.iter
          (fun (j, e) ->
            if i <> j && e = Btrue && not (marked i j) then begin
              mark i j;
              mark j i;
              if first then raise Exit
            end)
          live)
      fresh;
    let set = Array.make words 0 in
    List.iter (fun (i, _) -> set.(i / 63) <- set.(i / 63) lor bit i) live;
    match List.filter (fun (i, _) -> open_partner set i >= 0) live with
    | [] -> ()
    | (i, ei) :: _ as live ->
        if !spent >= budget then raise Out_of_budget;
        incr spent;
        incr splits;
        (* the partner is open with [i], so it survived the filter *)
        let v = pick [ ei; List.assoc (open_partner set i) live ] in
        List.iter
          (fun b ->
            let fresh = ref [] in
            let live =
              List.filter_map
                (fun (i, e) ->
                  match cofactor v b e with
                  | Bfalse -> None
                  | Btrue when e <> Btrue ->
                      fresh := i :: !fresh;
                      Some (i, Btrue)
                  | e -> Some (i, e))
                live
            in
            go !fresh live)
          [ true; false ]
  in
  let live =
    List.filter
      (fun (_, e) -> e <> Bfalse)
      (List.mapi (fun i e -> (i, e)) (Array.to_list conds))
  in
  let pairs () =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j -> if marked i j then Some (i, j) else None)
          (List.init (n - i - 1) (fun k -> i + 1 + k)))
      (List.filter (fun i -> Array.length co.(i) > 0) (List.init n Fun.id))
  in
  try
    go
      (List.filter_map (fun (i, e) -> if e = Btrue then Some i else None) live)
      live;
    Some (pairs ())
  with
  | Exit -> Some (pairs ())
  | Out_of_budget -> None

(* ------------------------------------------------------------------ *)
(* Pass 1: the drive-conflict prover                                    *)
(* ------------------------------------------------------------------ *)

(* a producer of a net class: a driver (with its drive condition) or a
   gate (which always drives) *)
type producer = {
  pr_cond : bexp;
  pr_loc : Loc.t;
}

(* the condition under which a driver produces a driving (non-NOINFL)
   value: its guard is 1 — or undefined, which also drives (UNDEF) *)
let drive_cond st = function
  | None -> Btrue
  | Some (Netlist.Sconst v) -> (
      match Logic.booleanize v with
      | Logic.Zero -> Bfalse
      | _ -> Btrue (* 1 drives the source; UNDEF drives UNDEF *))
  | Some (Netlist.Snet id) -> expand st id

let witness_to_string (g : Graph.t) m =
  let free =
    List.filter_map
      (fun (v, b) -> if v >= 0 then Some (g.Graph.names.(v), b) else None)
      m
  in
  let free = List.sort (fun (a, _) (b, _) -> compare a b) free in
  String.concat ", "
    (List.map (fun (n, b) -> Printf.sprintf "%s=%d" n (if b then 1 else 0)) free)

let prove_conflicts st bag ~budget ~splits ~can_undef =
  let g = st.g in
  let n_gates = Array.length g.Graph.gates in
  (* every producer's drive condition, expanded in creation order
     before any pair is solved, so undef_roots is complete *)
  let cond =
    Array.map
      (function
        | Graph.Ngate _ -> Btrue
        | Graph.Ndriver { guard; _ } -> drive_cond st guard)
      g.Graph.nodes
  in
  let producer i =
    {
      pr_cond = cond.(i);
      pr_loc =
        (if i < n_gates then g.Graph.gates.(i).Netlist.gloc
         else g.Graph.drivers.(i - n_gates).Netlist.dloc);
    }
  in
  let verdicts = ref [] in
  Array.iter
    (fun c ->
      let ps = ref [] in
      Graph.iter_producers g c (fun i -> ps := producer i :: !ps);
      match List.rev !ps with
      | [] | [ _ ] -> ()
      | ps ->
          let name = g.Graph.names.(c) in
          let parr = Array.of_list ps in
          let nps = Array.length parr in
          (* the two UNDEF reasons, once per guard: an opaque leaf that
             can read UNDEF, and a free variable (register output) whose
             value set holds UNDEF *)
          let flag p = Array.map (fun pr -> exists_var p pr.pr_cond) parr in
          let undef_leaf = flag (fun v opq -> opq && Hashtbl.mem st.undef_roots v)
          and undef_state = flag (fun v opq -> (not opq) && v >= 0 && can_undef v) in
          (* a pair is flagged when either guard is and neither is false *)
          let flagged a i j =
            parr.(i).pr_cond <> Bfalse
            && parr.(j).pr_cond <> Bfalse
            && (a.(i) || a.(j))
          in
          let conflict = ref None and unknown = ref None in
          let budget_out loc =
            unknown :=
              Some
                ( Printf.sprintf "solver budget of %d case splits exhausted"
                    budget,
                  loc );
            raise Exit
          in
          (try
             (* one class proof over the guards whose pairs need solving;
                only its co-drivable pairs reach [solve], for the witness *)
             let proved =
               List.filter (fun i -> not undef_leaf.(i)) (List.init nps Fun.id)
             in
             let co_drivable = Hashtbl.create 16 in
             (match
                co_drive ~budget ~splits
                  (Array.of_list (List.map (fun i -> parr.(i).pr_cond) proved))
              with
             | None -> budget_out parr.(1).pr_loc
             | Some co ->
                 let idx = Array.of_list proved in
                 List.iter
                   (fun (a, b) -> Hashtbl.replace co_drivable (idx.(a), idx.(b)) ())
                   co);
             for i = 0 to nps - 1 do
               for j = i + 1 to nps - 1 do
                 if !conflict = None then begin
                   if flagged undef_leaf i j then begin
                     if !unknown = None then
                       unknown :=
                         Some
                           ( "a guard can read UNDEF (an undefined guard \
                              drives)",
                             parr.(j).pr_loc )
                   end
                   else
                     match
                       if Hashtbl.mem co_drivable (i, j) then
                         solve ~budget ~splits
                           (band [ parr.(i).pr_cond; parr.(j).pr_cond ])
                       else Unsat
                     with
                     | Unsat ->
                         (* exclusive over booleans — but an UNDEF guard
                            also drives, so exclusivity only holds if no
                            variable in either guard can read UNDEF
                            (register power-up, or a latched UNDEF) *)
                         if flagged undef_state i j && !unknown = None then
                           unknown :=
                             Some
                               ( "a guard depends on sequential state that \
                                  can read UNDEF (an undefined guard \
                                  drives)",
                                 parr.(j).pr_loc )
                     | Budget_out -> budget_out parr.(j).pr_loc
                     | Sat m ->
                         if List.exists (fun (v, _) -> not (v >= 0 && st.free_root.(v))) m
                         then begin
                           if !unknown = None then
                             unknown :=
                               Some
                                 ( "exclusivity depends on a net the prover \
                                    cannot reduce",
                                   parr.(j).pr_loc )
                         end
                         else
                           conflict :=
                             Some (witness_to_string g m, parr.(i).pr_loc, parr.(j).pr_loc)
                 end
               done
             done
           with Exit -> ());
          let v_class, v_detail =
            match (!conflict, !unknown) with
            | Some (w, l1, l2), _ ->
                let w = if w = "" then "any input" else w in
                Diag.Bag.error bag ~code:Diag.Code.drive_conflict Diag.Lint_error l2
                  "'%s' can receive two driving values in one cycle (drivers \
                   at %a and %a; witness: %s) — this would burn transistors"
                  name Loc.pp l1 Loc.pp l2 w;
                (Conflict, Printf.sprintf "witness: %s" w)
            | None, Some (why, loc) ->
                Diag.Bag.warning bag ~code:Diag.Code.drive_unproven Diag.Lint_error
                  loc
                  "'%s': driver exclusivity not proved (%s) — the runtime \
                   multiple-drive check [%s] guards this net"
                  name why Diag.Code.drive_conflict;
                (Needs_runtime_check, why)
            | None, None ->
                let pairs = nps * (nps - 1) / 2 in
                ( Safe,
                  Printf.sprintf "proved exclusive (%d pair%s)" pairs
                    (if pairs = 1 then "" else "s") )
          in
          verdicts :=
            {
              v_net = g.Graph.rep.(c);
              v_name = name;
              v_kind = g.Graph.class_kind.(c);
              v_producers = nps;
              v_class;
              v_detail;
            }
            :: !verdicts)
    (Graph.by_rep g);
  List.rev !verdicts

(* ------------------------------------------------------------------ *)
(* Pass 2: UNDEF reachability                                           *)
(* ------------------------------------------------------------------ *)

(* returns, per class, whether Z202 reported it, so pass 4 reports a
   stuck class only where this pass stayed silent *)
let undef_pass bag (g : Graph.t) sets =
  let nl = g.Graph.nl in
  let never_defined = Array.make g.Graph.n_classes false in
  (* report per class, through a representative read, user-visible net *)
  Array.iter
    (fun c ->
      let read =
        List.filter
          (fun (net : Netlist.net) ->
            net.Netlist.reads > 0 && not (String.contains net.Netlist.name '#'))
          (List.rev_map (Netlist.net nl) (Graph.members g c))
      in
      let rep =
        match
          List.filter (fun (n : Netlist.net) -> not (Loc.is_dummy n.Netlist.loc)) read
        with
        | net :: _ -> Some net
        | [] -> ( match read with net :: _ -> Some net | [] -> None)
      in
      match rep with
      | None -> ()
      | Some net ->
          if
            g.Graph.producer_count.(c) = 0
            && (not g.Graph.input_class.(c))
            && Graph.reg_of_out g c < 0
          then
            Diag.Bag.warning bag ~code:Diag.Code.undriven_read Diag.Lint_error
              net.Netlist.loc "'%s' is read but never driven — it reads UNDEF \
                               forever"
              net.Netlist.name
          else if sets.(c) land (Absint.m_zero lor Absint.m_one) = 0 then begin
            never_defined.(c) <- true;
            Diag.Bag.warning bag ~code:Diag.Code.undef_only Diag.Lint_error
              net.Netlist.loc
              "'%s' can never carry a defined value — every read yields UNDEF"
              net.Netlist.name
          end)
    (Graph.by_rep g);
  never_defined

(* ------------------------------------------------------------------ *)
(* Pass 3: dead hardware                                                *)
(* ------------------------------------------------------------------ *)

(* returns the paths of instances reported dead, so pass 4 can avoid
   re-reporting every net inside an already-flagged instance *)
let dead_pass bag (ai : Absint.t) =
  let g = ai.Absint.graph in
  let nl = g.Graph.nl in
  let dead_paths = ref [] in
  let guard_value = function
    | Netlist.Sconst v -> Some v
    | Netlist.Snet id -> Absint.const_of (Absint.classification_of_net ai id)
  in
  (* one report per source location: an IF arm over a wide signal makes
     one driver per bit, all at the same loc *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (d : Netlist.driver) ->
      match d.Netlist.guard with
      | None -> ()
      | Some g -> (
          match Option.map Logic.booleanize (guard_value g) with
          | Some Logic.Zero ->
              let key =
                (d.Netlist.dloc.Loc.start.Loc.offset, d.Netlist.dloc.Loc.stop.Loc.offset)
              in
              if not (Hashtbl.mem seen key) then begin
                Hashtbl.replace seen key ();
                Diag.Bag.warning bag ~code:Diag.Code.dead_branch Diag.Lint_error
                  d.Netlist.dloc
                  "branch guard is statically false — the conditional \
                   assignment to '%s' can never fire (dead hardware)"
                  (Netlist.net nl d.Netlist.target).Netlist.name
              end
          | _ -> ()))
    (Netlist.drivers nl);
  let live id = ai.Absint.observable.(g.Graph.canon.(id)) in
  List.iter
    (fun (i : Netlist.instance) ->
      if String.contains i.Netlist.ipath '.' && not i.Netlist.is_function_call
      then begin
        let out_nets =
          List.concat_map
            (fun (_, mode, nets) ->
              match mode with
              | Etype.Out | Etype.Inout -> nets
              | Etype.In -> [])
            i.Netlist.iports
        in
        if out_nets <> [] && not (List.exists live out_nets)
        then begin
          dead_paths := i.Netlist.ipath :: !dead_paths;
          Diag.Bag.warning bag ~code:Diag.Code.dead_instance Diag.Lint_error
            i.Netlist.iloc
            "instance '%s' of '%s': no output reaches a register or an \
             output port — the hardware is dead"
            i.Netlist.ipath i.Netlist.itype
        end
      end)
    (Netlist.instances nl);
  List.rev !dead_paths

(* ------------------------------------------------------------------ *)
(* Pass 4: abstract interpretation (Z501/Z502/Z503)                     *)
(* ------------------------------------------------------------------ *)

let absint_pass bag (ai : Absint.t) sets ~never_defined ~dead_paths =
  let g = ai.Absint.graph in
  let nl = g.Graph.nl in
  let under_dead name =
    List.exists
      (fun p ->
        let lp = String.length p in
        String.length name > lp
        && String.sub name 0 lp = p
        && name.[lp] = '.')
      dead_paths
  in
  (* report through a representative user-visible net, preferring one
     with a real source location (same discipline as the UNDEF pass) *)
  let pick nets =
    match
      List.filter (fun (n : Netlist.net) -> not (Loc.is_dummy n.Netlist.loc)) nets
    with
    | net :: _ -> Some net
    | [] -> ( match nets with net :: _ -> Some net | [] -> None)
  in
  for c = 0 to g.Graph.n_classes - 1 do
    if g.Graph.producer_count.(c) > 0 && not g.Graph.input_class.(c) then begin
      let generated (name : string) =
        (* elaboration helpers with no source-level identity: gate
           temporaries ('#') and the guard/negated-guard nets built for
           IF arms — a negation synthesized for an absent ELSE is
           always unobservable, and blaming it would flag every
           guarded assignment *)
        let suffix s =
          let ls = String.length s and ln = String.length name in
          ln >= ls && String.sub name (ln - ls) ls = s
        in
        String.contains name '#' || suffix ".guard" || suffix ".nguard"
      in
      let visible =
        List.filter
          (fun (n : Netlist.net) -> not (generated n.Netlist.name))
          (List.map (Netlist.net nl) (Graph.members g c))
      in
      (* a net someone looks at: read by logic, or an OUT/INOUT pin *)
      let observed =
        List.filter
          (fun (n : Netlist.net) ->
            n.Netlist.reads > 0
            ||
            match n.Netlist.pin with
            | Some (_, (Etype.Out | Etype.Inout)) -> true
            | _ -> false)
          visible
      in
      (match ai.Absint.cls.(c) with
      | Absint.Const0 | Absint.Const1 -> (
          match pick observed with
          | Some net ->
              Diag.Bag.warning bag ~code:Diag.Code.absint_constant
                Diag.Lint_error net.Netlist.loc
                "'%s' is provably constant %s under all inputs — zeusc opt \
                 folds it"
                net.Netlist.name
                (match ai.Absint.cls.(c) with
                | Absint.Const1 -> "1"
                | _ -> "0")
          | None -> ())
      | Absint.StuckX -> (
          (* the value-set pass (Z202) already reports read classes
             that can never carry a defined value; Z502 adds the stuck
             classes it misses whose UNDEF the resolution itself makes
             — some producer can drive a defined value, e.g. an unread
             output pin with a guaranteed drive conflict.  A stuck-Z
             class has no such producer (a defined drive would overrule
             its NOINFL), so it never qualifies *)
          let defined_producer = ref false in
          Graph.iter_producers g c (fun i ->
              if
                Absint.node_mask sets g.Graph.nodes.(i)
                land (Absint.m_zero lor Absint.m_one)
                <> 0
              then defined_producer := true);
          if !defined_producer && not never_defined.(c) then
            match pick observed with
            | Some net ->
                Diag.Bag.warning bag ~code:Diag.Code.absint_stuck
                  Diag.Lint_error net.Netlist.loc
                  "'%s' is stuck at UNDEF: its drivers provably conflict \
                   (or yield UNDEF) every cycle under all inputs"
                  net.Netlist.name
            | None -> ())
      | Absint.StuckZ | Absint.Varying -> ());
      if not ai.Absint.observable.(c) then begin
        let candidates =
          List.filter
            (fun (n : Netlist.net) ->
              (not n.Netlist.starred) && not (under_dead n.Netlist.name))
            visible
        in
        match pick candidates with
        | Some net ->
            Diag.Bag.warning bag ~code:Diag.Code.absint_unobservable
              Diag.Lint_error net.Netlist.loc
              "'%s' is driven but reaches no register or output port — the \
               logic feeding it is dead (zeusc opt removes it)"
              net.Netlist.name
        | None -> ()
      end
    end
  done

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let default_budget = 4096

let analyze ~budget (g : Graph.t) =
  let bag = Diag.Bag.create () in
  let st = make_expander g in
  let splits = ref 0 in
  let sets, _ =
    Absint.value_sets g
      ~seed:(Absint.flow_seed g ~inputs:(Absint.m_zero lor Absint.m_one))
      ~exclusive:(fun _ -> false) ~kind_default:false
  in
  let can_undef c = Absint.booleanize_mask sets.(c) land Absint.m_undef <> 0 in
  let verdicts = prove_conflicts st bag ~budget ~splits ~can_undef in
  let never_defined = undef_pass bag g sets in
  let ai = Absint.analyze g in
  let dead_paths = dead_pass bag ai in
  absint_pass bag ai sets ~never_defined ~dead_paths;
  { verdicts; findings = Diag.Bag.all bag; splits = !splits }

let run ?(budget = default_budget) design = analyze ~budget (Graph.build design)

let count cls report =
  List.length (List.filter (fun v -> v.v_class = cls) report.verdicts)

let summary report =
  Printf.sprintf
    "%d multi-driven net%s: %d safe, %d conflict, %d needs-runtime-check; \
     %d finding%s (%d case splits)"
    (List.length report.verdicts)
    (if List.length report.verdicts = 1 then "" else "s")
    (count Safe report) (count Conflict report)
    (count Needs_runtime_check report)
    (List.length report.findings)
    (if List.length report.findings = 1 then "" else "s")
    report.splits

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

let json_loc (loc : Loc.t) =
  if Loc.is_dummy loc then "null"
  else
    Printf.sprintf
      "{\"line\":%d,\"col\":%d,\"end_line\":%d,\"end_col\":%d}"
      loc.Loc.start.Loc.line loc.Loc.start.Loc.col loc.Loc.stop.Loc.line
      loc.Loc.stop.Loc.col

(* Bump whenever the shape of the JSON report changes, so downstream
   tooling can detect incompatible output.  1: first versioned schema
   (unversioned output predates it); 2: summary gained
   [safe_sequential] (the sequential-prover upgrade count); 3: summary
   lost [safe_sequential] again — lint no longer carries the prover's
   upgrades, so it always read 0 ([zeusc prove] reports them). *)
let json_schema_version = 3

let json_of_report report =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\n  \"version\": %d,\n  \"nets\": [" json_schema_version);
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"net\":\"%s\",\"kind\":\"%s\",\"producers\":%d,\"class\":\"%s\",\"detail\":\"%s\"}"
           (Diag.json_escape v.v_name)
           (Etype.kind_to_string v.v_kind)
           v.v_producers
           (classification_to_string v.v_class)
           (Diag.json_escape v.v_detail)))
    report.verdicts;
  Buffer.add_string b "\n  ],\n  \"findings\": [";
  List.iteri
    (fun i (d : Diag.t) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"code\":%s,\"severity\":\"%s\",\"kind\":\"%s\",\"loc\":%s,\"message\":\"%s\"}"
           (match d.Diag.code with
           | Some c -> Printf.sprintf "\"%s\"" (Diag.json_escape c)
           | None -> "null")
           (Diag.severity_to_string d.Diag.severity)
           (Diag.kind_to_string d.Diag.kind)
           (json_loc d.Diag.loc)
           (Diag.json_escape d.Diag.message)))
    report.findings;
  Buffer.add_string b
    (Printf.sprintf
       "\n  ],\n  \"summary\": {\"nets\":%d,\"safe\":%d,\"conflict\":%d,\"needs_runtime_check\":%d,\"findings\":%d,\"splits\":%d}\n}"
       (List.length report.verdicts)
       (count Safe report)
       (count Conflict report)
       (count Needs_runtime_check report)
       (List.length report.findings)
       report.splits);
  Buffer.contents b
