(* The bounded sequential prover: safe-sequential upgrades, the
   reset-coverage lints (Z601/Z602), concrete conflict witnesses (Z603)
   replayed through the real simulator, conflict-check discharge in the
   compiled engine, and the Z-code registry. *)

open Zeus

let compile src =
  match elaborate_with_diags src with
  | Some design, _ -> design
  | None, diags ->
      Alcotest.failf "did not elaborate: %a" Fmt.(list Diag.pp) diags

let prove ?depth ?budget src = Seqprove.run ?depth ?budget (compile src)

let codes (sp : Seqprove.report) =
  List.filter_map (fun (d : Diag.t) -> d.Diag.code) sp.Seqprove.sp_findings

let has_code sp c = List.mem c (codes sp)

(* a toggle register multiplexing its own input by its own state: the
   flow-insensitive lint injects UNDEF into the multi-driven input and
   demotes it, but from REG(0) the state never leaves {0,1} and the
   guards are complementary — safe-sequential *)
let toggle_src =
  "TYPE t = COMPONENT (IN a,b: boolean; OUT z: boolean) IS SIGNAL r: \
   REG(0); BEGIN IF r.out THEN r.in := a END; IF NOT r.out THEN r.in := b \
   END; z := r.out END; SIGNAL s: t;"

(* an uninitialized, conditionally-loaded register: UNDEF can persist
   forever (Z601), escapes into the observable output (Z602), and the
   state-reading guards genuinely double-drive at power-up (Z603) *)
let sticky_src =
  "TYPE t = COMPONENT (IN a,b: boolean; OUT z,y: boolean) IS SIGNAL r: \
   REG; m: multiplex; BEGIN IF a THEN r.in := b END; IF r.out THEN m := a \
   END; IF NOT r.out THEN m := b END; z := m; y := r.out END; SIGNAL s: t;"

(* the same chain shape the fuzzer generates: head reset under RSET,
   tail shifts — fully covered by a one-cycle pulse *)
let rchain_src =
  "TYPE t = COMPONENT (IN a: boolean; OUT z: boolean) IS SIGNAL r1,r2: \
   REG; BEGIN IF RSET THEN r1.in := 0 END; IF NOT RSET THEN r1.in := a \
   END; r2.in := r1.out; z := r2.out END; SIGNAL s: t;"

(* ------------------------------------------------------------------ *)
(* Upgrades                                                             *)
(* ------------------------------------------------------------------ *)

let test_toggle_upgrade () =
  let design = compile toggle_src in
  let lint = Lint.run design in
  let nrc =
    List.filter
      (fun (v : Lint.net_verdict) ->
        v.Lint.v_class = Lint.Needs_runtime_check)
      lint.Lint.verdicts
  in
  Alcotest.(check bool) "lint demotes the toggle input" true (nrc <> []);
  let sp = Seqprove.run ~lint design in
  List.iter
    (fun (v : Lint.net_verdict) ->
      Alcotest.(check bool)
        (v.Lint.v_name ^ " upgraded")
        true
        (List.exists (fun (_, n) -> n = v.Lint.v_name) sp.Seqprove.sp_upgraded))
    nrc;
  (* the refreshed report carries the upgraded classification *)
  List.iter
    (fun (v : Lint.net_verdict) ->
      let v' =
        List.find
          (fun (w : Lint.net_verdict) -> w.Lint.v_name = v.Lint.v_name)
          sp.Seqprove.sp_lint.Lint.verdicts
      in
      Alcotest.(check string) "safe-sequential"
        (Lint.classification_to_string Lint.Safe_sequential)
        (Lint.classification_to_string v'.Lint.v_class))
    nrc

let test_sticky_not_upgraded () =
  let sp = prove sticky_src in
  Alcotest.(check (list (pair int string))) "no upgrade" []
    sp.Seqprove.sp_upgraded

(* corpus sanity: the priority queue's insert guards are exclusive in
   every reachable state — the prover discharges a whole class batch *)
let test_pqueue_upgrades () =
  let sp = prove (Corpus.priority_queue ~slots:8 ~width:4) in
  Alcotest.(check bool) "upgrades found" true
    (List.length sp.Seqprove.sp_upgraded > 0)

(* ------------------------------------------------------------------ *)
(* Reset coverage: Z601 / Z602                                          *)
(* ------------------------------------------------------------------ *)

let test_sticky_reset_gaps () =
  let sp = prove sticky_src in
  Alcotest.(check bool) "Z601" true
    (has_code sp Diag.Code.seq_uninitialized);
  Alcotest.(check bool) "Z602" true (has_code sp Diag.Code.seq_undef_escape)

let test_rchain_covered () =
  let sp = prove rchain_src in
  Alcotest.(check bool) "no Z601" false
    (has_code sp Diag.Code.seq_uninitialized);
  Alcotest.(check bool) "no Z602" false
    (has_code sp Diag.Code.seq_undef_escape);
  (* the trajectory reaches a defined state for every register *)
  List.iter
    (fun (rt : Seqprove.reg_trace) ->
      Alcotest.(check bool)
        (rt.Seqprove.rt_name ^ " defined after reset")
        false
        (rt.Seqprove.rt_reset.(sp.Seqprove.sp_depth) land Absint.m_undef <> 0))
    sp.Seqprove.sp_regs

(* ------------------------------------------------------------------ *)
(* Z603 witnesses replay through the real simulator                     *)
(* ------------------------------------------------------------------ *)

let test_witness_replays () =
  let design = compile sticky_src in
  let sp = Seqprove.run design in
  Alcotest.(check bool) "Z603" true (has_code sp Diag.Code.seq_conflict_reachable);
  Alcotest.(check bool) "witness attached" true
    (sp.Seqprove.sp_witnesses <> []);
  List.iter
    (fun (w : Seqprove.witness) ->
      (* the trace's names, each resolved once *)
      let trace =
        Array.map
          (List.map (fun (_, name, v) -> (Testbench.port design name, v)))
          w.Seqprove.w_trace
      in
      List.iter
        (fun engine ->
          let sim = Sim.create ~engine design in
          Array.iter
            (fun pokes ->
              List.iter (fun (p, v) -> Sim.set sim p [ v ]) pokes;
              Sim.step sim)
            trace;
          let hit =
            List.exists
              (fun (e : Sim.runtime_error) ->
                e.Sim.err_net = w.Seqprove.w_name
                && e.Sim.err_code = Diag.Code.drive_conflict
                && e.Sim.err_cycle = w.Seqprove.w_cycle)
              (Sim.runtime_errors sim)
          in
          if not hit then
            Alcotest.failf "witness for %s does not replay on %s"
              w.Seqprove.w_name (Sim.engine_name engine))
        Sim.all_engines)
    sp.Seqprove.sp_witnesses

(* ------------------------------------------------------------------ *)
(* Conflict-check discharge in the compiled engine                      *)
(* ------------------------------------------------------------------ *)

let test_discharge () =
  let design = compile toggle_src in
  let sp = Seqprove.run design in
  let disch = Seqprove.discharged design sp in
  Alcotest.(check bool) "something discharged" true
    (Array.exists Fun.id disch);
  let pred id = id >= 0 && id < Array.length disch && disch.(id) in
  let plain = Sim.create ~engine:Sim.Compiled design in
  let cut = Sim.create ~engine:Sim.Compiled ~discharged:pred design in
  (match (Sim.compiled_program plain, Sim.compiled_program cut) with
  | Some p, Some c ->
      Alcotest.(check bool) "plain run still checks" true
        (p.Bytecode.check_ops > 0);
      Alcotest.(check bool) "checks dropped" true
        (c.Bytecode.check_ops < p.Bytecode.check_ops);
      Alcotest.(check int) "total conserved"
        (p.Bytecode.check_ops + p.Bytecode.discharged_ops)
        (c.Bytecode.check_ops + c.Bytecode.discharged_ops)
  | _ -> Alcotest.fail "compiled engine not available");
  (* value identity under a defined stimulus *)
  let a = Testbench.port design "s.a" and b = Testbench.port design "s.b" in
  for cycle = 0 to 7 do
    List.iter
      (fun sim ->
        Sim.set_int sim a (Bool.to_int (cycle mod 2 = 0));
        Sim.set_int sim b (Bool.to_int (cycle mod 3 = 0));
        Sim.step sim)
      [ plain; cut ]
  done;
  Alcotest.(check bool) "snapshots identical" true
    (Sim.snapshot plain = Sim.snapshot cut)

(* ------------------------------------------------------------------ *)
(* Report plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let test_json () =
  let sp = prove sticky_src in
  let j = Seqprove.json_of_report sp in
  let contains affix =
    let la = String.length affix and ls = String.length j in
    let rec go i = i + la <= ls && (String.sub j i la = affix || go (i + 1)) in
    go 0
  in
  List.iter
    (fun affix ->
      Alcotest.(check bool) ("carries " ^ affix) true (contains affix))
    [
      Printf.sprintf "\"version\": %d" Seqprove.json_schema_version;
      "\"depth\"";
      "\"registers\"";
      "\"upgraded\"";
      "\"witnesses\"";
      Printf.sprintf "\"%s\"" Diag.Code.seq_conflict_reachable;
    ]

let test_summary_line () =
  let sp = prove toggle_src in
  Alcotest.(check bool) "mentions upgrade count" true
    (String.length (Seqprove.summary sp) > 0
    && sp.Seqprove.sp_upgraded <> [])

(* ------------------------------------------------------------------ *)
(* The Z-code registry                                                  *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  (* every code this module can emit is registered with a description *)
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " registered") true
        (List.mem_assoc c Diag.Code.all);
      match Diag.Code.description c with
      | Some _ -> ()
      | None -> Alcotest.failf "code %s lacks a description" c)
    [
      Diag.Code.seq_uninitialized;
      Diag.Code.seq_undef_escape;
      Diag.Code.seq_conflict_reachable;
    ];
  (* the registry is duplicate-free *)
  let names = List.map fst Diag.Code.all in
  Alcotest.(check int) "no duplicate codes"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  (* unknown-code detection, the single gate behind every --suppress *)
  Alcotest.(check (list string)) "known codes pass" []
    (Diag.Code.unknown [ Diag.Code.seq_conflict_reachable; Diag.Code.drive_conflict ]);
  Alcotest.(check (list string)) "unknown codes caught" [ "Z999" ]
    (Diag.Code.unknown [ Diag.Code.seq_conflict_reachable; "Z999" ])

(* every finding the prover emits carries a registered code *)
let test_findings_coded () =
  List.iter
    (fun src ->
      let sp = prove src in
      List.iter
        (fun (d : Diag.t) ->
          match d.Diag.code with
          | None -> Alcotest.failf "finding without a code: %s" d.Diag.message
          | Some c ->
              Alcotest.(check bool) (c ^ " registered") true
                (List.mem_assoc c Diag.Code.all))
        sp.Seqprove.sp_findings)
    [ toggle_src; sticky_src; rchain_src; Corpus.blackjack ]

let () =
  Alcotest.run "seqprove"
    [
      ( "upgrade",
        [
          Alcotest.test_case "toggle upgraded" `Quick test_toggle_upgrade;
          Alcotest.test_case "sticky not upgraded" `Quick
            test_sticky_not_upgraded;
          Alcotest.test_case "pqueue upgrades" `Quick test_pqueue_upgrades;
        ] );
      ( "reset",
        [
          Alcotest.test_case "sticky gaps" `Quick test_sticky_reset_gaps;
          Alcotest.test_case "rchain covered" `Quick test_rchain_covered;
        ] );
      ( "witness",
        [ Alcotest.test_case "replays everywhere" `Quick test_witness_replays ] );
      ( "discharge",
        [ Alcotest.test_case "compiled engine" `Quick test_discharge ] );
      ( "report",
        [
          Alcotest.test_case "json" `Quick test_json;
          Alcotest.test_case "summary" `Quick test_summary_line;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "findings coded" `Quick test_findings_coded;
        ] );
    ]
