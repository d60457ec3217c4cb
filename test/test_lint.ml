(* The lint engine: the drive-conflict prover (Z101/Z102),
   UNDEF-reachability (Z201/Z202) and dead-hardware (Z301/Z302) passes,
   on the paper's own examples (the section 8 tri-state conflict, the
   Blackjack machine) and targeted fragments. *)

open Zeus

let lint ?budget src =
  match elaborate_with_diags src with
  | Some design, _ -> Lint.run ?budget design
  | None, diags ->
      Alcotest.failf "did not elaborate: %a" Fmt.(list Diag.pp) diags

let verdict report name =
  match
    List.find_opt
      (fun (v : Lint.net_verdict) -> v.Lint.v_name = name)
      report.Lint.verdicts
  with
  | Some v -> v.Lint.v_class
  | None -> Alcotest.failf "net %s not in the multi-driven report" name

let codes report =
  List.filter_map (fun (d : Diag.t) -> d.Diag.code) report.Lint.findings

let has_code report c = List.mem c (codes report)

let class_str = Lint.classification_to_string

let check_class report name expect =
  Alcotest.(check string)
    name (class_str expect)
    (class_str (verdict report name))

(* ------------------------------------------------------------------ *)
(* The drive-conflict prover                                            *)
(* ------------------------------------------------------------------ *)

(* a one-hot decoder's guards are mutually exclusive: provable *)
let test_exclusive_decoder () =
  let report = lint (Corpus.mux4) in
  List.iter
    (fun (v : Lint.net_verdict) ->
      Alcotest.(check string) v.Lint.v_name (class_str Lint.Safe)
        (class_str v.Lint.v_class))
    report.Lint.verdicts;
  Alcotest.(check bool) "has multi-driven nets" true (report.Lint.verdicts <> []);
  Alcotest.(check (list string)) "no findings" [] (codes report)

(* the section 8 example: IF x and IF y with independent inputs x, y —
   the environment can enable both drivers of 'out' in one cycle *)
let test_section8_conflict () =
  let report = lint Corpus.section8_example in
  check_class report "top.out" Lint.Conflict;
  Alcotest.(check bool) "Z101 reported" true
    (has_code report Diag.Code.drive_conflict);
  (* the witness names the two free inputs *)
  let v =
    List.find
      (fun (v : Lint.net_verdict) -> v.Lint.v_name = "top.out")
      report.Lint.verdicts
  in
  Alcotest.(check bool) "witness attached" true
    (String.length v.Lint.v_detail > String.length "witness: ")

(* with the budget strangled, the same net degrades soundly to
   needs-runtime-check instead of guessing *)
let test_budget_exhaustion () =
  let report = lint ~budget:0 Corpus.blackjack in
  Alcotest.(check bool) "has multi-driven nets" true (report.Lint.verdicts <> []);
  List.iter
    (fun (v : Lint.net_verdict) ->
      Alcotest.(check string) v.Lint.v_name
        (class_str Lint.Needs_runtime_check)
        (class_str v.Lint.v_class))
    report.Lint.verdicts;
  Alcotest.(check bool) "Z102 reported" true
    (has_code report Diag.Code.drive_unproven);
  Alcotest.(check bool) "no Z101" false
    (has_code report Diag.Code.drive_conflict)

(* the Blackjack controller multi-drives its state registers from
   ELSIF-chained, EQUAL-guarded arms.  The arms are exclusive over
   booleans, but every guard reads the state registers — UNDEF at
   power-up, when all arms drive at once (observable: simulating the
   corpus without asserting RSET reports Z101 on every state net in
   cycle 0).  So the verdict is needs-runtime-check, never safe and
   never a static conflict. *)
let test_blackjack_needs_runtime_check () =
  let report = lint Corpus.blackjack in
  Alcotest.(check bool) "has multi-driven nets" true (report.Lint.verdicts <> []);
  List.iter
    (fun (v : Lint.net_verdict) ->
      Alcotest.(check string) v.Lint.v_name
        (class_str Lint.Needs_runtime_check)
        (class_str v.Lint.v_class))
    report.Lint.verdicts;
  Alcotest.(check bool) "no static Z101" false
    (has_code report Diag.Code.drive_conflict)

(* overlapping guards built by hand: g and AND(g,h) can both be 1 *)
let test_overlap_conflict () =
  let report =
    lint
      "TYPE t = COMPONENT (IN g,h,a: boolean; OUT z: boolean) IS SIGNAL m: \
       multiplex; BEGIN IF g THEN m := a END; IF AND(g,h) THEN m := NOT a \
       END; z := m END; SIGNAL s: t;"
  in
  check_class report "s.m" Lint.Conflict;
  Alcotest.(check bool) "Z101" true (has_code report Diag.Code.drive_conflict)

(* ------------------------------------------------------------------ *)
(* The class-wide at-most-one proof                                     *)
(* ------------------------------------------------------------------ *)

(* random guard arrays over six variables, ids 0-2 free and 3-5 opaque
   (an id keeps one kind, as in the expander) *)
let gen_guards =
  let open QCheck.Gen in
  let leaf =
    map (fun v -> if v < 3 then Lint.Bvar v else Lint.Bopq v) (int_bound 5)
  in
  let rec formula d =
    if d = 0 then leaf
    else
      let sub = formula (d - 1) in
      frequency
        [
          (3, leaf);
          (2, map Lint.bnot sub);
          (2, map Lint.band (list_size (int_range 2 3) sub));
          (2, map Lint.bor (list_size (int_range 2 3) sub));
          (1, map2 Lint.bxor sub sub);
        ]
  in
  let guard =
    frequency [ (1, return Lint.Btrue); (1, return Lint.Bfalse); (8, formula 3) ]
  in
  pair (map Array.of_list (list_size (int_range 2 12) guard)) (int_bound 64)

let rec bexp_to_string = function
  | Lint.Btrue -> "1"
  | Lint.Bfalse -> "0"
  | Lint.Bvar v -> Printf.sprintf "v%d" v
  | Lint.Bopq v -> Printf.sprintf "o%d" v
  | Lint.Bnot e -> "~" ^ bexp_to_string e
  | Lint.Band l -> "(" ^ String.concat " & " (List.map bexp_to_string l) ^ ")"
  | Lint.Bor l -> "(" ^ String.concat " | " (List.map bexp_to_string l) ^ ")"
  | Lint.Bxor (a, b) -> "(" ^ bexp_to_string a ^ " ^ " ^ bexp_to_string b ^ ")"

(* the co-drivable pairs are exactly the pairs the pair solver finds
   satisfiable; a small budget may give up (None) but never answers
   wrongly — in particular never "exclusive" for a co-drivable class *)
let prop_co_drive_agrees =
  QCheck.Test.make ~count:300 ~name:"co_drive agrees with pairwise solve"
    (QCheck.make
       ~print:(fun (gs, b) ->
         Printf.sprintf "budget %d: [%s]" b
           (String.concat "; " (Array.to_list (Array.map bexp_to_string gs))))
       gen_guards)
    (fun (gs, budget) ->
      let n = Array.length gs in
      let truth =
        List.concat_map
          (fun i ->
            List.filter_map
              (fun j ->
                match
                  Lint.solve ~budget:max_int ~splits:(ref 0)
                    (Lint.band [ gs.(i); gs.(j) ])
                with
                | Lint.Sat _ -> Some (i, j)
                | Lint.Unsat -> None
                | Lint.Budget_out ->
                    QCheck.Test.fail_report "unbounded solve gave up")
              (List.init (n - i - 1) (fun k -> i + 1 + k)))
          (List.init n Fun.id)
      in
      let co ?first budget = Lint.co_drive ?first ~budget ~splits:(ref 0) gs in
      co max_int = Some truth
      && (match co budget with None -> true | Some ps -> ps = truth)
      &&
      match co ~first:true budget with
      | None -> true
      | Some [] -> truth = []
      | Some [ p ] -> List.mem p truth
      | Some _ -> false)

(* ram128x16's read port: 16 classes of 128 decoder-guarded producers.
   The class proof spends about one split per producer; proving the
   8128 pairs of each class one by one costs 252 928 splits *)
let test_wide_decoder_linear () =
  let report = lint (Corpus.ram ~abits:7 ~wbits:16) in
  Alcotest.(check int) "16 classes" 16 (List.length report.Lint.verdicts);
  Alcotest.(check int) "all safe" 16 (Lint.count Lint.Safe report);
  if report.Lint.splits > 16 * 128 then
    Alcotest.failf "%d case splits, more than 16 x 128" report.Lint.splits

(* ------------------------------------------------------------------ *)
(* UNDEF reachability                                                   *)
(* ------------------------------------------------------------------ *)

let test_undef_reachability () =
  let report =
    lint
      "TYPE t = COMPONENT (IN a: boolean; OUT z: boolean) IS SIGNAL u, v: \
       boolean; BEGIN v := NOT u; z := AND(a,v) END; SIGNAL s: t;"
  in
  Alcotest.(check bool) "Z201 for u" true
    (has_code report Diag.Code.undriven_read);
  Alcotest.(check bool) "Z202 for v" true (has_code report Diag.Code.undef_only)

let test_no_undef_noise_on_corpus () =
  List.iter
    (fun (name, src) ->
      let report = lint src in
      if has_code report Diag.Code.undriven_read then
        Alcotest.failf "%s: spurious Z201" name;
      if has_code report Diag.Code.undef_only then
        Alcotest.failf "%s: spurious Z202" name)
    (Corpus.all_named @ Corpus_fsm.all_named)

(* ------------------------------------------------------------------ *)
(* Dead hardware                                                        *)
(* ------------------------------------------------------------------ *)

let test_dead_branch () =
  let report =
    lint
      "TYPE t = COMPONENT (IN a,b: boolean; OUT z: boolean) IS SIGNAL r: \
       REG; BEGIN IF AND(a,0) THEN r.in := b END; z := r.out END; SIGNAL s: \
       t;"
  in
  Alcotest.(check bool) "Z301" true (has_code report Diag.Code.dead_branch);
  (* the guard reads a register that powers up 0 and only ever latches
     0: the abstract interpretation proves it constant-0 through the
     register, so the THEN arm is dead *)
  let report =
    lint
      "TYPE t = COMPONENT (IN a: boolean; OUT z: boolean) IS SIGNAL g: \
       REG(0); BEGIN g.in := 0; IF g.out THEN z := a ELSE z := NOT a END \
       END; SIGNAL s: t;"
  in
  Alcotest.(check bool) "Z301 through a register" true
    (has_code report Diag.Code.dead_branch)

let test_dead_instance () =
  let report =
    lint
      "TYPE inv = COMPONENT (IN a: boolean; OUT z: boolean) IS BEGIN z := \
       NOT a END; t = COMPONENT (IN a: boolean; OUT z: boolean) IS SIGNAL \
       i: inv; w: boolean; BEGIN i(a,w); z := NOT a END; SIGNAL s: t;"
  in
  Alcotest.(check bool) "Z302" true (has_code report Diag.Code.dead_instance)

let test_live_instances_not_flagged () =
  List.iter
    (fun (name, src) ->
      let report = lint src in
      if has_code report Diag.Code.dead_instance then
        Alcotest.failf "%s: spurious Z302" name)
    (Corpus.all_named @ Corpus_fsm.all_named)

(* ------------------------------------------------------------------ *)
(* Corpus sweep: every multi-driven net classified, no static conflicts
   except the two known true positives.  Nets whose guards read
   sequential state (UNDEF-capable at power-up) are allowed to land in
   needs-runtime-check — proving them safe would contradict the
   runtime's undefined-guard-drives semantics.                          *)
(* ------------------------------------------------------------------ *)

let test_corpus_classified () =
  List.iter
    (fun (name, src) ->
      let report = lint src in
      List.iter
        (fun (v : Lint.net_verdict) ->
          if name <> "section8" && name <> "dictionary8x6" then
            Alcotest.(check bool)
              (name ^ ": " ^ v.Lint.v_name ^ " not a static conflict")
              false
              (v.Lint.v_class = Lint.Conflict))
        report.Lint.verdicts)
    (Corpus.all_named @ Corpus_fsm.all_named)

(* dictionary8x6: simultaneous INS and DEL on the same slot double-drive
   valid[i].in — a genuine environmental-assumption conflict *)
let test_dictionary_conflict () =
  let report = lint (Corpus.dictionary ~slots:8 ~keybits:6) in
  Alcotest.(check bool) "Z101" true (has_code report Diag.Code.drive_conflict)

(* ------------------------------------------------------------------ *)
(* The static Z101 is the same code the simulator reports at runtime     *)
(* ------------------------------------------------------------------ *)

let test_runtime_code_correlates () =
  let design = compile_exn Corpus.section8_example in
  let static = lint Corpus.section8_example in
  Alcotest.(check bool) "static Z101" true
    (has_code static Diag.Code.drive_conflict);
  let sim = Sim.create design in
  Sim.poke sim "top.x" [ Logic.One ];
  Sim.poke sim "top.y" [ Logic.One ];
  Sim.poke sim "top.a" [ Logic.One ];
  Sim.poke sim "top.b" [ Logic.One ];
  Sim.poke sim "top.cc" [ Logic.Zero ];
  Sim.step sim;
  match Sim.runtime_errors sim with
  | [] -> Alcotest.fail "expected a runtime multiple-drive violation"
  | e :: _ ->
      Alcotest.(check string) "same code" Diag.Code.drive_conflict
        e.Sim.err_code

(* ------------------------------------------------------------------ *)
(* JSON output: syntactically valid, carries the stable codes            *)
(* ------------------------------------------------------------------ *)

(* a tiny structural JSON validator — the repo deliberately has no JSON
   dependency, so check well-formedness by hand *)
let json_valid s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail_at msg = Alcotest.failf "invalid JSON at %d: %s" !pos msg in
  let skip_ws () =
    while
      !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t')
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos
    else fail_at (Printf.sprintf "expected %c" c)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> str ()
    | Some ('-' | '0' .. '9') -> num ()
    | Some 'n' -> lit "null"
    | Some 't' -> lit "true"
    | Some 'f' -> lit "false"
    | _ -> fail_at "value"
  and lit l =
    if !pos + String.length l <= n && String.sub s !pos (String.length l) = l
    then pos := !pos + String.length l
    else fail_at l
  and num () =
    while
      !pos < n
      && (match s.[!pos] with '-' | '0' .. '9' | '.' | 'e' | 'E' | '+' -> true | _ -> false)
    do
      incr pos
    done
  and str () =
    expect '"';
    let fin = ref false in
    while not !fin do
      match peek () with
      | None -> fail_at "unterminated string"
      | Some '\\' -> pos := !pos + 2
      | Some '"' ->
          incr pos;
          fin := true
      | Some _ -> incr pos
    done
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then incr pos
    else
      let fin = ref false in
      while not !fin do
        skip_ws ();
        str ();
        skip_ws ();
        expect ':';
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some '}' ->
            incr pos;
            fin := true
        | _ -> fail_at "expected , or }"
      done
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then incr pos
    else
      let fin = ref false in
      while not !fin do
        value ();
        skip_ws ();
        match peek () with
        | Some ',' -> incr pos
        | Some ']' ->
            incr pos;
            fin := true
        | _ -> fail_at "expected , or ]"
      done
  in
  value ();
  skip_ws ();
  if !pos <> n then fail_at "trailing garbage"

let test_json () =
  List.iter
    (fun src ->
      let report = lint src in
      json_valid (Lint.json_of_report report))
    [ Corpus.section8_example; Corpus.blackjack; Corpus.mux4 ];
  let j = Lint.json_of_report (lint Corpus.section8_example) in
  let contains affix =
    let la = String.length affix and ls = String.length j in
    let rec go i = i + la <= ls && (String.sub j i la = affix || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "carries Z101" true
    (contains (Printf.sprintf "\"%s\"" Diag.Code.drive_conflict));
  Alcotest.(check bool) "class string" true (contains "\"conflict\"")

(* every published code is described, and descriptions resolve *)
let test_code_table () =
  List.iter
    (fun (c, _) ->
      match Diag.Code.description c with
      | Some _ -> ()
      | None -> Alcotest.failf "code %s lacks a description" c)
    Diag.Code.all;
  Alcotest.(check (option string)) "unknown code" None
    (Diag.Code.description "Z999")

let () =
  Alcotest.run "lint"
    [
      ( "conflict",
        [
          Alcotest.test_case "exclusive decoder safe" `Quick
            test_exclusive_decoder;
          Alcotest.test_case "section8 conflict" `Quick test_section8_conflict;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
          Alcotest.test_case "blackjack needs runtime check" `Quick
            test_blackjack_needs_runtime_check;
          Alcotest.test_case "overlap conflict" `Quick test_overlap_conflict;
          Alcotest.test_case "dictionary conflict" `Quick
            test_dictionary_conflict;
          QCheck_alcotest.to_alcotest prop_co_drive_agrees;
          Alcotest.test_case "wide decoder linear" `Quick
            test_wide_decoder_linear;
        ] );
      ( "undef",
        [
          Alcotest.test_case "reachability" `Quick test_undef_reachability;
          Alcotest.test_case "corpus clean" `Quick
            test_no_undef_noise_on_corpus;
        ] );
      ( "dead",
        [
          Alcotest.test_case "dead branch" `Quick test_dead_branch;
          Alcotest.test_case "dead instance" `Quick test_dead_instance;
          Alcotest.test_case "corpus live" `Quick
            test_live_instances_not_flagged;
        ] );
      ( "report",
        [
          Alcotest.test_case "corpus classified" `Quick test_corpus_classified;
          Alcotest.test_case "runtime code correlates" `Quick
            test_runtime_code_correlates;
          Alcotest.test_case "json" `Quick test_json;
          Alcotest.test_case "code table" `Quick test_code_table;
        ] );
    ]
