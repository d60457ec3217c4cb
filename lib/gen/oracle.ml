(* The differential oracle matrix for whole-pipeline fuzzing.

   Given one Zeus source program and one poke sequence, [check] decides
   whether the implementation agrees with itself everywhere the paper
   says it must:

   O1 "pp-fixpoint"    pretty-print → reparse → pretty-print reaches a
                       fixpoint after one round trip;
   O2 "reelaborate"    the pretty-printed source compiles, and its
                       Firing-engine run is bit-identical to the
                       original's (print/parse/elaborate preserve
                       semantics, not just syntax);
   O3 "engine:<name>"  the Incremental and Compiled engines and the two
                       sweep orders of the independent reference
                       evaluator {!Sweep} ("engine:fixpoint",
                       "engine:relaxation") produce the same snapshots
                       *per cycle* as Firing and the same runtime-error
                       sets (cycle, net, code) over the poke sequence;
   O4 "lint-vs-runtime" a net the lint prover classified [Safe] never
                       raises the runtime multiple-drive check (the two
                       halves of the NP-complete section 4.7 check must
                       not contradict each other).  Lint's safety
                       contract assumes a defined environment — inputs
                       evaluate to 0 or 1 — so this row only applies to
                       stimuli that poke every input to a defined value
                       in the first cycle and never poke UNDEF later.
                       (Sequential state needs no such carve-out: a
                       guard over a register that can power up UNDEF is
                       never classified safe in the first place.)
   O6 "opt-identity:<name>" / "opt-proof"
                       the proof-carrying reduction preserves behaviour:
                       the reduced design, run on each of the three
                       engines, matches the unoptimized Firing reference
                       cycle-by-cycle on every net the abstract
                       interpretation marked observable.  Values are
                       compared per net through each design's class map
                       (copy merging changes class indices).  Runtime
                       errors are not compared: errors on eliminated
                       (unobservable) logic disappear by design, and a
                       merged class reports conflicts under its merged
                       representative's name.  "opt-proof" additionally
                       checks the shipped table against the reference
                       run: a class proved const-0/1, stuck-X or stuck-Z
                       with a producer must read exactly that value every
                       cycle;
   O7 "batch:<name>"   the batch engine ({!Sim.run_batch}) is
                       bit-identical to serial: a mix of full-length and
                       truncated runs with distinct per-run seeds,
                       sharded over the pool and (for a Compiled
                       template) grouped on the bit-sliced store,
                       produces the same per-cycle snapshots and
                       runtime-error sets as stepping each run on a
                       fresh serial incremental handle — checked with
                       every engine as the batch template, so both the
                       bit-sliced path and the serial fallback are
                       exercised; and a block of 64
                       equal-length runs on one domain, which fills one
                       63-run group of the compiled template and spills
                       into a second, matches that template's serial
                       fallback;
   O8 "prove-vs-runtime" the bounded sequential prover against the same
                       runtime, three ways: a net upgraded to
                       [Safe_sequential] never raises the runtime
                       multiple-drive check (under O4's defined-
                       environment carve-out); a Z603 witness trace,
                       replayed poke-for-poke, reproduces the promised
                       drive conflict at the stated cycle; and running
                       the compiled engine with the proved checks
                       discharged changes no value — only Z101 reports
                       on statically-proved nets may disappear;
   O9 "verilog"        the structural Verilog export is faithful: every
                       compiled program exports (cyclic designs cannot
                       compile, so [Cyclic]/[Unsupported] here is a
                       finding), the emitted module parses back through
                       the minimal structural reader with the same
                       module name, port list and net count, and the
                       self-checking testbench generates for the same
                       stimulus.  When iverilog is installed (nightly
                       CI), the module + bench are additionally
                       compiled and run: the bench replays the stimulus
                       against the incremental engine's snapshots and
                       must print ZEUS_TB_OK — a MISMATCH line is an
                       externally-confirmed semantics divergence.
                       Without iverilog the external leg is skipped
                       (structural checks still run);
   O5 "modular-vs-elaborated" the modular summary analysis never
                       contradicts the elaborated pipeline in its sound
                       direction: no class the elaborated lint proved
                       in [Conflict] may lie wholly under instance
                       chains of types the summaries proved
                       conflict-safe ([modular_hidden_conflicts]; such
                       a type was proved conflict-safe wrongly); if
                       every type is proved cycle-free with no
                       fallback and no Z403, the elaborated Check must
                       not find a combinational cycle; and
                       [Summary.analyze] must not raise.
                       Modular warnings (Z402/Z403/Z406) are allowed to
                       over-approximate — only "proven" is binding.

   A generated program failing to parse or compile is also a finding
   ("parse" / "compile"): the generator only emits legal programs, so
   a rejection is a front-end bug (or a generator bug — either way a
   human should look). *)

open Zeus_base
open Zeus_lang
open Zeus_sem
module Sim = Zeus_sim.Sim
module Sweep = Zeus_sim.Sweep

type divergence = {
  oracle : string; (* which row of the matrix failed *)
  detail : string;
}

let pp_divergence ppf d = Fmt.pf ppf "[%s] %s" d.oracle d.detail

(* parse + elaborate + static checks, as Zeus.compile does (the umbrella
   library depends on this one, so spell it out here) *)
let compile src =
  let bag = Diag.Bag.create () in
  match Parser.program ~bag src with
  | None, _ -> Error (Diag.Bag.errors bag)
  | Some prog, _ ->
      let design = Elaborate.program ~bag prog in
      if Diag.Bag.has_errors bag then Error (Diag.Bag.errors bag)
      else if Check.run design then Ok design
      else Error (Diag.Bag.errors bag)

let diags_to_string diags =
  String.concat "; " (List.map Diag.to_string diags)

(* O9's external leg needs Icarus Verilog; probe for it once.  Without
   it the oracle still runs the structural self-checks. *)
let iverilog_available =
  let probe =
    lazy (Sys.command "command -v iverilog >/dev/null 2>&1" = 0)
  in
  fun () -> Lazy.force probe

let read_whole_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error _ -> ""

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Compile module+bench with iverilog, run it under vvp, and judge by
   the bench's own markers (robust to vvp's exit-code conventions):
   ZEUS_TB_OK is agreement, anything else is a divergence whose detail
   carries the MISMATCH lines. *)
let run_external_verilog text =
  let src_f = Filename.temp_file "zeus_o9" ".v" in
  let out_f = Filename.temp_file "zeus_o9" ".vvp" in
  let log_f = Filename.temp_file "zeus_o9" ".log" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ src_f; out_f; log_f ])
    (fun () ->
      let oc = open_out_bin src_f in
      output_string oc text;
      close_out oc;
      let q = Filename.quote in
      let rc =
        Sys.command
          (Printf.sprintf "iverilog -g2012 -o %s %s >%s 2>&1 && vvp %s >>%s 2>&1"
             (q out_f) (q src_f) (q log_f) (q out_f) (q log_f))
      in
      let log = read_whole_file log_f in
      if contains_substring log "ZEUS_TB_OK" then Ok ()
      else
        let lines = String.split_on_char '\n' log in
        let interesting =
          List.filter
            (fun l ->
              contains_substring l "MISMATCH" || contains_substring l "error")
            lines
        in
        let shown = match interesting with [] -> lines | l -> l in
        let shown =
          List.filteri (fun i _ -> i < 5) (List.filter (( <> ) "") shown)
        in
        Error
          (Printf.sprintf "iverilog/vvp rc=%d: %s" rc
             (String.concat " | " shown)))

(* One engine's observable behaviour: the snapshot after every cycle,
   and the full runtime-error set as comparable triples. *)
type run = {
  snaps : Logic.t option array list;
  errors : (int * string * string) list; (* cycle, net, code; sorted *)
}

let run_engine design engine (stim : Gen_prog.stimulus) =
  let sim = Sim.create ~engine design in
  let snaps =
    List.map
      (fun pokes ->
        List.iter (fun (path, v) -> Sim.poke sim path [ v ]) pokes;
        Sim.step sim;
        Sim.snapshot sim)
      stim
  in
  let errors =
    List.sort compare
      (List.map
         (fun (e : Sim.runtime_error) ->
           (e.Sim.err_cycle, e.Sim.err_net, e.Sim.err_code))
         (Sim.runtime_errors sim))
  in
  { snaps; errors }

(* The same observation from the sweeping reference evaluator *)
let run_sweep design order (stim : Gen_prog.stimulus) =
  let pokes =
    List.map
      (List.map (fun (path, v) ->
           match Elaborate.resolve_path design path with
           | Ok [ id ] -> (id, v)
           | Ok _ -> invalid_arg "Sweep: width mismatch"
           | Error msg -> invalid_arg ("Sweep: " ^ msg)))
      stim
  in
  let r = Sweep.run ~order design pokes in
  { snaps = r.Sweep.snaps; errors = List.sort compare r.Sweep.errors }

let first_snap_mismatch a b =
  let rec go cycle sa sb =
    match (sa, sb) with
    | [], [] -> None
    | s1 :: ra, s2 :: rb ->
        if s1 = s2 then go (cycle + 1) ra rb
        else
          let diffs = ref 0 in
          if Array.length s1 = Array.length s2 then
            Array.iteri (fun i v -> if v <> s2.(i) then incr diffs) s1
          else diffs := max (Array.length s1) (Array.length s2);
          Some (cycle, !diffs)
    | _ -> Some (min (List.length a) (List.length b) + 1, 0)
  in
  go 1 a b

let errors_to_string errs =
  String.concat ", "
    (List.map (fun (c, n, code) -> Printf.sprintf "%s@%d[%s]" n c code) errs)

(* O5's rule for the conflict-safe summaries.  A class is covered when
   every member net lies under a non-empty chain of instances whose
   types are all proven conflict-safe: a net inside an instance is
   driven only by that instance's type, and a port net also by the
   parent that instantiates it, and the chain holds both.  Chains stop
   at instance paths, so nets outside every instance (CLK, RSET) are
   never covered.  A covered class that the elaborated lint proved in
   Conflict means a summary called a conflicting type safe. *)
let modular_hidden_conflicts (m : Summary.result) (design : Elaborate.design)
    (lint : Lint.report) =
  let conflicts =
    List.filter
      (fun (v : Lint.net_verdict) -> v.Lint.v_class = Lint.Conflict)
      lint.Lint.verdicts
  in
  if conflicts = [] || m.Summary.proven_conflict_safe = [] then []
  else begin
    let nl = design.Elaborate.netlist in
    let type_of_path = Hashtbl.create 16 in
    List.iter
      (fun (i : Netlist.instance) ->
        Hashtbl.replace type_of_path i.Netlist.ipath i.Netlist.itype)
      (Netlist.instances nl);
    let rec covered ~under name =
      match String.rindex_opt name '.' with
      | None -> under
      | Some i -> (
          let prefix = String.sub name 0 i in
          match Hashtbl.find_opt type_of_path prefix with
          | Some t ->
              List.mem t m.Summary.proven_conflict_safe
              && covered ~under:true prefix
          | None -> covered ~under prefix)
    in
    let g = Graph.build design in
    List.filter_map
      (fun (v : Lint.net_verdict) ->
        if
          List.for_all
            (fun n -> covered ~under:false (Netlist.net nl n).Netlist.name)
            (Graph.members g g.Graph.canon.(v.Lint.v_net))
        then Some v.Lint.v_name
        else None)
      conflicts
  end

(* The full matrix.  Returns every divergence found (empty = agreement
   everywhere).  [jobs] shapes the batch row's sharding; batch workers
   already inside a pool region
   must pass [~jobs:1] (Pool regions do not nest, but [Pool.run ~jobs:1]
   short-circuits to a plain call). *)
let check ?(jobs = 4) ~src (stim : Gen_prog.stimulus) : divergence list =
  match Parser.program src with
  | None, bag ->
      [ { oracle = "parse";
          detail = diags_to_string (Diag.Bag.errors bag) } ]
  | Some p1, _ -> (
      let divs = ref [] in
      let add oracle detail = divs := { oracle; detail } :: !divs in
      (* O1: pretty-printing is a fixpoint after one round trip *)
      let printed = Pretty.program_to_string p1 in
      (match Parser.program printed with
      | None, bag ->
          add "pp-fixpoint"
            ("pretty-printed source does not reparse: "
            ^ diags_to_string (Diag.Bag.errors bag))
      | Some p2, _ ->
          let printed2 = Pretty.program_to_string p2 in
          if printed2 <> printed then
            add "pp-fixpoint" "second pretty-print differs from the first");
      (* O5, part 1: the modular summary analysis must terminate cleanly
         on anything the parser accepts *)
      let modular =
        try Some (Summary.analyze ~symbolic:false p1)
        with exn ->
          add "modular-vs-elaborated"
            ("Summary.analyze raised: " ^ Printexc.to_string exn);
          None
      in
      let modular_all_cycle_free =
        match modular with
        | None -> false
        | Some m ->
            m.Summary.fallbacks = []
            && List.for_all
                 (fun (d : Diag.t) -> d.Diag.code <> Some Diag.Code.modular_cycle)
                 m.Summary.findings
            && List.for_all
                 (fun (n, _) -> List.mem n m.Summary.proven_cycle_free)
                 m.Summary.contracts
      in
      match compile src with
      | Error diags ->
          (* O5, part 2: "every type cycle-free, no fallback" is a proof
             quantified over the whole design — elaboration must not then
             find a combinational cycle *)
          if
            modular_all_cycle_free
            && List.exists (fun (d : Diag.t) -> d.Diag.kind = Diag.Cycle_error)
                 diags
          then
            add "modular-vs-elaborated"
              "all types proved cycle-free modularly, but elaborated Check \
               found a combinational cycle";
          add "compile" (diags_to_string diags);
          List.rev !divs
      | Ok design ->
          (* O3: the other engines and the independent sweeping
             reference evaluator, against Firing cycle-by-cycle *)
          let reference = run_engine design Sim.Firing stim in
          let compare_run name r =
            (match first_snap_mismatch reference.snaps r.snaps with
            | None -> ()
            | Some (cycle, diffs) ->
                add ("engine:" ^ name)
                  (Printf.sprintf
                     "snapshot differs from firing at cycle %d (%d nets)"
                     cycle diffs));
            if r.errors <> reference.errors then
              add ("engine:" ^ name)
                (Printf.sprintf
                   "runtime errors differ from firing: {%s} vs {%s}"
                   (errors_to_string r.errors)
                   (errors_to_string reference.errors))
          in
          List.iter
            (fun engine ->
              if engine <> Sim.Firing then
                compare_run (Sim.engine_name engine)
                  (run_engine design engine stim))
            Sim.all_engines;
          List.iter
            (fun order ->
              compare_run (Sweep.order_name order)
                (run_sweep design order stim))
            [ Sweep.Fixpoint; Sweep.Relaxation ];
          (* O7: the batch engine, against fresh serial runs — a mix of
             full and truncated runs with distinct per-run seeds, so the
             lane grouping, the sharding and the per-run RANDOM streams
             are all load-bearing *)
          if stim <> [] then begin
            let stim_arr =
              Array.of_list
                (List.map (List.map (fun (p, v) -> (p, [ v ]))) stim)
            in
            let ncycles = Array.length stim_arr in
            let mk ~cycles ~seed =
              {
                Sim.br_stim = Array.sub stim_arr 0 cycles;
                br_cycles = cycles;
                br_seed = Some seed;
                br_watch = [];
              }
            in
            let half = max 1 (ncycles / 2) in
            let mix =
              [
                mk ~cycles:ncycles ~seed:11;
                mk ~cycles:half ~seed:12;
                mk ~cycles:ncycles ~seed:13;
                mk ~cycles:ncycles ~seed:11;
                mk ~cycles:half ~seed:14;
              ]
            in
            (* and 64 equal-length runs of up to 3 cycles, each with its
               own seed and the stimulus lines from its index on: on one
               domain, the compiled template fills all 63 bits of one
               group and spills into a second *)
            let block =
              let cycles = min ncycles 3 in
              List.init 64 (fun k ->
                  {
                    (mk ~cycles ~seed:(100 + k)) with
                    Sim.br_stim =
                      Array.init cycles (fun c ->
                          stim_arr.((c + k) mod ncycles));
                  })
            in
            let error_set errs =
              List.sort compare
                (List.map
                   (fun (e : Sim.runtime_error) ->
                     (e.Sim.err_cycle, e.Sim.err_net, e.Sim.err_code))
                   errs)
            in
            let serial (r : Sim.batch_run) =
              let sim =
                Sim.create ~engine:Sim.Incremental ?seed:r.Sim.br_seed design
              in
              let snaps = ref [] in
              for c = 0 to r.Sim.br_cycles - 1 do
                if c < Array.length r.Sim.br_stim then
                  List.iter
                    (fun (p, bits) -> Sim.poke sim p bits)
                    r.Sim.br_stim.(c);
                Sim.step sim;
                snaps := Sim.snapshot sim :: !snaps
              done;
              (List.rev !snaps, error_set (Sim.runtime_errors sim))
            in
            (* [batch tmpl ~lanes ~jobs runs] checked run by run against
               [refs] *)
            let check_batch (engine, tmpl) ?lanes ~jobs runs refs =
              let name = "batch:" ^ Sim.engine_name engine in
              match Sim.run_batch ?lanes ~jobs ~snapshots:true tmpl runs with
              | Error msg -> add name ("run_batch rejected the runs: " ^ msg)
              | Ok (results, _) ->
                  List.iteri
                    (fun i (res : Sim.batch_result) ->
                      let ref_snaps, ref_errs = refs.(i) in
                      (match
                         first_snap_mismatch ref_snaps res.Sim.bres_snaps
                       with
                      | None -> ()
                      | Some (cycle, diffs) ->
                          add name
                            (Printf.sprintf
                               "run %d snapshot differs from serial at cycle \
                                %d (%d nets)"
                               i cycle diffs));
                      let errs = error_set res.Sim.bres_errors in
                      if errs <> ref_errs then
                        add name
                          (Printf.sprintf
                             "run %d runtime errors differ from serial: {%s} \
                              vs {%s}"
                             i (errors_to_string errs)
                             (errors_to_string ref_errs)))
                    results
            in
            let tmpls =
              List.map
                (fun engine -> (engine, Sim.create ~engine ~jobs:1 design))
                Sim.all_engines
            in
            let refs = Array.of_list (List.map serial mix) in
            List.iter (fun t -> check_batch t ~jobs mix refs) tmpls;
            (* the block checks the bit-sliced groups against the same
               template's serial fallback ([lanes = 1]), which the mix
               has just checked against fresh handles *)
            let compiled = List.nth tmpls 2 in
            match
              Sim.run_batch ~lanes:1 ~jobs:1 ~snapshots:true (snd compiled)
                block
            with
            | Error msg ->
                add "batch:compiled" ("run_batch rejected the runs: " ^ msg)
            | Ok (serial_block, _) ->
                check_batch compiled ~jobs:1 block
                  (Array.of_list
                     (List.map
                        (fun (r : Sim.batch_result) ->
                          (r.Sim.bres_snaps, error_set r.Sim.bres_errors))
                        serial_block))
          end;
          (* O6: the proof-carrying reduction, on all three engines *)
          (match
             try Some (Reduce.run design)
             with exn ->
               add "opt-identity"
                 ("Reduce.run raised: " ^ Printexc.to_string exn);
               None
           with
          | None -> ()
          | Some r ->
              let ai = r.Reduce.ai in
              let g1 = ai.Absint.graph in
              let g2 = Graph.build r.Reduce.design in
              (* Snapshots are indexed by original net id, holding each
                 class's value at its union-find root slot.  Per
                 original class: observability (via the analysis), the
                 root slot in the unoptimized snapshot, and the merged
                 class's root slot in the reduced one — looked up
                 through net ids, so the two compactions never need to
                 agree on class numbering. *)
              let obs = ai.Absint.observable in
              let opt_slot =
                Array.map
                  (fun root -> g2.Graph.rep.(g2.Graph.canon.(root)))
                  g1.Graph.rep
              in
              List.iter
                (fun engine ->
                  let ro = run_engine r.Reduce.design engine stim in
                  let rec go cycle ss os =
                    match (ss, os) with
                    | [], [] -> ()
                    | s1 :: rest1, s2 :: rest2 ->
                        let diffs = ref 0 and first = ref (-1) in
                        Array.iteri
                          (fun c root ->
                            if obs.(c) && s1.(root) <> s2.(opt_slot.(c))
                            then begin
                              incr diffs;
                              if !first < 0 then first := c
                            end)
                          g1.Graph.rep;
                        if !diffs > 0 then
                          add
                            ("opt-identity:" ^ Sim.engine_name engine)
                            (Printf.sprintf
                               "optimized run differs on %d observable \
                                net(s) at cycle %d (first: '%s')"
                               !diffs cycle g1.Graph.names.(!first))
                        else go (cycle + 1) rest1 rest2
                    | _ ->
                        add
                          ("opt-identity:" ^ Sim.engine_name engine)
                          "optimized run has a different cycle count"
                  in
                  go 1 reference.snaps ro.snaps)
                Sim.all_engines;
              (* the table itself must be honest on the reference run *)
              Array.iteri
                (fun c root ->
                  let cls = ai.Absint.cls.(c) in
                  match Absint.const_of cls with
                  | Some w
                    when obs.(c) && g1.Graph.producer_count.(c) > 0 ->
                      List.iteri
                        (fun i snap ->
                          if snap.(root) <> Some w then
                            add "opt-proof"
                              (Printf.sprintf
                                 "net '%s' is proved %s but read %s at \
                                  cycle %d"
                                 g1.Graph.names.(c)
                                 (Absint.classification_to_string cls)
                                 (match snap.(root) with
                                 | None -> "nothing"
                                 | Some v -> Logic.to_string v)
                                 (i + 1)))
                        reference.snaps
                  | _ -> ())
                g1.Graph.rep);
          (* O2: semantics survive print -> reparse -> re-elaborate *)
          (match compile printed with
          | Error diags ->
              add "reelaborate"
                ("pretty-printed source does not compile: "
                ^ diags_to_string diags)
          | Ok design2 -> (
              let r2 = run_engine design2 Sim.Firing stim in
              match first_snap_mismatch reference.snaps r2.snaps with
              | None -> ()
              | Some (cycle, diffs) ->
                  add "reelaborate"
                    (Printf.sprintf
                       "re-elaborated run differs at cycle %d (%d nets)" cycle
                       diffs)));
          (* O4: a statically-proved-safe net must never conflict at
             runtime — under lint's environment assumption that inputs
             are defined *)
          let nl = design.Elaborate.netlist in
          let input_names =
            List.map
              (fun id -> (Netlist.net nl (Netlist.canonical nl id)).Netlist.name)
              (Graph.top_input_nets design)
          in
          let defined v = v = Logic.Zero || v = Logic.One in
          let env_defined =
            match stim with
            | [] -> input_names = []
            | first :: _ ->
                List.for_all
                  (fun i ->
                    List.exists (fun (p, v) -> p = i && defined v) first)
                  input_names
                && List.for_all
                     (List.for_all (fun (_, v) -> v <> Logic.Undef))
                     stim
          in
          let lint = Lint.run design in
          if env_defined then begin
          let safe =
            List.filter_map
              (fun (v : Lint.net_verdict) ->
                if v.Lint.v_class = Lint.Safe then Some v.Lint.v_name else None)
              lint.Lint.verdicts
          in
          List.iter
            (fun (cycle, net, code) ->
              if code = Diag.Code.drive_conflict && List.mem net safe then
                add "lint-vs-runtime"
                  (Printf.sprintf
                     "net '%s' proved safe by lint but conflicted at runtime \
                      (cycle %d)"
                     net cycle))
            reference.errors
          end;
          (* O8: the bounded sequential prover against the same runtime *)
          (match
             try Some (Seqprove.run ~lint design)
             with exn ->
               add "prove-vs-runtime"
                 ("Seqprove.run raised: " ^ Printexc.to_string exn);
               None
           with
          | None -> ()
          | Some sp ->
              (* (a) Safe_sequential upgrades share lint's environment
                 assumption, so they get O4's carve-out *)
              if env_defined then
                List.iter
                  (fun (cycle, net, code) ->
                    if
                      code = Diag.Code.drive_conflict
                      && List.exists
                           (fun (_, n) -> n = net)
                           sp.Seqprove.sp_upgraded
                    then
                      add "prove-vs-runtime"
                        (Printf.sprintf
                           "net '%s' proved safe-sequential but conflicted \
                            at runtime (cycle %d)"
                           net cycle))
                  reference.errors;
              (* (b) every Z603 witness must replay: the promised
                 conflict fires on the stated net at the stated cycle *)
              List.iter
                (fun (w : Seqprove.witness) ->
                  let sim = Sim.create ~engine:Sim.Incremental design in
                  Array.iter
                    (fun pokes ->
                      List.iter
                        (fun (_, name, v) -> Sim.poke sim name [ v ])
                        pokes;
                      Sim.step sim)
                    w.Seqprove.w_trace;
                  let hit =
                    List.exists
                      (fun (e : Sim.runtime_error) ->
                        e.Sim.err_net = w.Seqprove.w_name
                        && e.Sim.err_code = Diag.Code.drive_conflict
                        && e.Sim.err_cycle = w.Seqprove.w_cycle)
                      (Sim.runtime_errors sim)
                  in
                  if not hit then
                    add "prove-vs-runtime"
                      (Printf.sprintf
                         "Z603 witness for '%s' does not replay: no drive \
                          conflict at cycle %d"
                         w.Seqprove.w_name w.Seqprove.w_cycle))
                sp.Seqprove.sp_witnesses;
              (* (c) discharging the proved checks must not change a
                 single value, on any stimulus — only Z101 reports on
                 statically-proved nets may disappear *)
              let disch = Seqprove.discharged design sp in
              if Array.exists Fun.id disch then begin
                let pred id =
                  id >= 0 && id < Array.length disch && disch.(id)
                in
                let sim =
                  Sim.create ~engine:Sim.Compiled ~discharged:pred design
                in
                let snaps =
                  List.map
                    (fun pokes ->
                      List.iter
                        (fun (path, v) -> Sim.poke sim path [ v ])
                        pokes;
                      Sim.step sim;
                      Sim.snapshot sim)
                    stim
                in
                (match first_snap_mismatch reference.snaps snaps with
                | None -> ()
                | Some (cycle, diffs) ->
                    add "prove-vs-runtime"
                      (Printf.sprintf
                         "discharged compiled run changes values at cycle \
                          %d (%d nets)"
                         cycle diffs));
                let errs =
                  List.sort compare
                    (List.map
                       (fun (e : Sim.runtime_error) ->
                         (e.Sim.err_cycle, e.Sim.err_net, e.Sim.err_code))
                       (Sim.runtime_errors sim))
                in
                let statically_proved net =
                  List.exists
                    (fun (v : Lint.net_verdict) ->
                      v.Lint.v_name = net
                      && (v.Lint.v_class = Lint.Safe
                         || v.Lint.v_class = Lint.Safe_sequential))
                    sp.Seqprove.sp_lint.Lint.verdicts
                in
                List.iter
                  (fun (cycle, net, code) ->
                    if not (List.mem (cycle, net, code) reference.errors)
                    then
                      add "prove-vs-runtime"
                        (Printf.sprintf
                           "discharged compiled run invents error %s@%d[%s]"
                           net cycle code))
                  errs;
                List.iter
                  (fun (cycle, net, code) ->
                    if
                      (not (List.mem (cycle, net, code) errs))
                      && not
                           (code = Diag.Code.drive_conflict
                           && statically_proved net)
                    then
                      add "prove-vs-runtime"
                        (Printf.sprintf
                           "discharged compiled run drops error %s@%d[%s] \
                            on an unproven net"
                           net cycle code))
                  reference.errors
              end);
          (* O5, part 3: a type the summaries proved conflict-safe must
             not own a net the elaborated prover showed in conflict *)
          Option.iter
            (fun m ->
              List.iter
                (fun name ->
                  add "modular-vs-elaborated"
                    (Printf.sprintf
                       "net '%s' is a proved conflict, but every member \
                        lies under types the summaries proved \
                        conflict-safe (a type summary is wrongly \
                        conflict-safe)"
                       name))
                (modular_hidden_conflicts m design lint))
            modular;
          (* O9: the structural Verilog export.  A compiled program has
             an acyclic class schedule (Check rejects combinational
             cycles), so any export error is a finding.  The emitted
             module must parse back with the same structure, the bench
             must generate for this stimulus, and — when iverilog is
             installed — the external simulator must replay the whole
             deck to ZEUS_TB_OK. *)
          (match Zeus_export.Verilog.export design with
          | Error e ->
              add "verilog"
                ("export failed on a compiled program: "
                ^ Zeus_export.Verilog.error_to_string e)
          | Ok v -> (
              (match Zeus_export.Verilog.parse_module v.Zeus_export.Verilog.text with
              | Error msg ->
                  add "verilog"
                    ("emitted module does not parse back: " ^ msg)
              | Ok vm ->
                  let open Zeus_export.Verilog in
                  if vm.vm_name <> v.module_name then
                    add "verilog"
                      (Printf.sprintf
                         "module name did not round-trip: %S vs %S"
                         vm.vm_name v.module_name);
                  let want =
                    List.map (fun p -> (p.pdir, p.pname)) v.ports
                  in
                  if vm.vm_ports <> want then
                    add "verilog" "port list did not round-trip";
                  if vm.vm_nets <> v.net_count then
                    add "verilog"
                      (Printf.sprintf
                         "declared net count %d, reader found %d"
                         v.net_count vm.vm_nets));
              match Zeus_export.Verilog.testbench v stim with
              | Error msg ->
                  add "verilog" ("testbench generation failed: " ^ msg)
              | Ok tb ->
                  if iverilog_available () then (
                    match
                      run_external_verilog
                        (v.Zeus_export.Verilog.text ^ "\n" ^ tb)
                    with
                    | Ok () -> ()
                    | Error detail -> add "verilog" detail)));
          List.rev !divs)
