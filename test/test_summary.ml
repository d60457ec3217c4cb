(* The modular component-summary analysis (Z401-Z406): per-type port
   contracts, symbolic parameter checking, type-level cycle detection,
   and the soundness contract against the elaborated lint. *)

open Zeus

let parse src =
  match Parser.program src with
  | Some p, _ -> p
  | None, bag ->
      Alcotest.failf "did not parse: %a"
        Fmt.(list Diag.pp)
        (Diag.Bag.errors bag)

let analyze ?symbolic src = Summary.analyze ?symbolic (parse src)

let codes (r : Summary.result) =
  List.filter_map (fun (d : Diag.t) -> d.Diag.code) r.Summary.findings

let has_code r c = List.mem c (codes r)

let errors (r : Summary.result) =
  List.filter
    (fun (d : Diag.t) -> d.Diag.severity = Diag.Error)
    r.Summary.findings

(* ------------------------------------------------------------------ *)
(* Symbolic proofs on the recursive families                            *)
(* ------------------------------------------------------------------ *)

(* the H-tree: proved conflict-safe and cycle-free for ALL parameter
   values, including at the fully symbolic signature htree(any) *)
let test_htree_proven () =
  let r = analyze (Corpus.htree 16) in
  List.iter
    (fun ty ->
      Alcotest.(check bool)
        (ty ^ " conflict-safe") true
        (List.mem ty r.Summary.proven_conflict_safe);
      Alcotest.(check bool)
        (ty ^ " cycle-free") true
        (List.mem ty r.Summary.proven_cycle_free))
    [ "htree"; "leaftype" ];
  Alcotest.(check (list string)) "no error findings" []
    (List.map Diag.to_string (errors r));
  Alcotest.(check bool) "no fallbacks" true (r.Summary.fallbacks = []);
  (* the published contract agrees with the proven lists *)
  let c = List.assoc "htree" r.Summary.contracts in
  Alcotest.(check bool) "contract conflict_safe" true c.Contract.c_conflict_safe;
  Alcotest.(check bool) "contract cycle_free" true c.Contract.c_cycle_free

(* the routing network: output[i] vs output[i + n DIV 2] index
   disjointness and WHEN-arm exclusivity, proved symbolically *)
let test_routing_proven () =
  let r = analyze (Corpus.routing_network 4) in
  List.iter
    (fun ty ->
      Alcotest.(check bool)
        (ty ^ " conflict-safe") true
        (List.mem ty r.Summary.proven_conflict_safe);
      Alcotest.(check bool)
        (ty ^ " cycle-free") true
        (List.mem ty r.Summary.proven_cycle_free))
    [ "router"; "routingnetwork" ];
  Alcotest.(check bool) "no findings at all" true (r.Summary.findings = [])

(* ------------------------------------------------------------------ *)
(* The modular findings, code by code                                   *)
(* ------------------------------------------------------------------ *)

(* section 8's two-writer conflict is found without elaboration: Z401
   as an Error, and the type is excluded from the proven set *)
let test_section8_z401 () =
  let r = analyze Corpus.section8_example in
  Alcotest.(check bool) "Z401 reported" true
    (has_code r Diag.Code.modular_conflict);
  Alcotest.(check bool) "Z401 is an error" true (errors r <> []);
  Alcotest.(check (list string)) "nothing proved conflict-safe" []
    r.Summary.proven_conflict_safe;
  (* the witness names the two independent inputs, as lint's does *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let msg =
    match errors r with d :: _ -> d.Diag.message | [] -> assert false
  in
  Alcotest.(check bool) "witness assigns x and y" true
    (contains msg "x = 1" && contains msg "y = 1")

let combinational_cycle_src =
  "TYPE top = COMPONENT (IN a: boolean; OUT z: boolean) IS\n\
   SIGNAL u, v: boolean;\n\
   BEGIN\n\
  \  u := AND(a, v);\n\
  \  v := NOT u;\n\
  \  z := v;\n\
   END;\n\n\
   SIGNAL t: top;\n"

let reg_broken_cycle_src =
  "TYPE top = COMPONENT (IN a: boolean; OUT z: boolean) IS\n\
   SIGNAL u: boolean;\n\
  \       r: REG;\n\
   BEGIN\n\
  \  u := AND(a, r.out);\n\
  \  r.in := NOT u;\n\
  \  z := u;\n\
   END;\n\n\
   SIGNAL t: top;\n"

(* a combinational loop with no register on it is a Z403; inserting a
   REG (the only cycle breaker) removes the finding *)
let test_cycle_z403 () =
  let r = analyze combinational_cycle_src in
  Alcotest.(check bool) "Z403 on the loop" true
    (has_code r Diag.Code.modular_cycle);
  Alcotest.(check (list string)) "loop type not cycle-free" []
    r.Summary.proven_cycle_free;
  let r2 = analyze reg_broken_cycle_src in
  Alcotest.(check bool) "no Z403 through REG" false
    (has_code r2 Diag.Code.modular_cycle);
  Alcotest.(check bool) "REG-broken type proved cycle-free" true
    (List.mem "top" r2.Summary.proven_cycle_free)

(* an ARRAY index out of bounds for the instantiated parameter (Z404),
   caught by interval abstract interpretation of n; also one level
   down, inside a parent, where the finding belongs to every run that
   summarizes the child, so two runs give the same result *)
let oob_type_src =
  "TYPE t(n) = COMPONENT (IN a: boolean; OUT z: boolean) IS\n\
   SIGNAL s: ARRAY[1..n] OF boolean;\n\
   BEGIN\n\
  \  s[n + 1] := a;\n\
  \  z := s[1];\n\
   END;\n\n"

let test_range_z404 () =
  List.iter
    (fun (name, top) ->
      let src = oob_type_src ^ top in
      let r1 = analyze src in
      let r2 = analyze src in
      Alcotest.(check bool) (name ^ ": Z404 reported") true
        (has_code r1 Diag.Code.modular_range);
      Alcotest.(check bool) (name ^ ": second run equals the first") true
        (r1 = r2))
    [
      ("flat", "SIGNAL x: t(4);\n");
      ( "nested",
        "TYPE p = COMPONENT (IN a: boolean; OUT z: boolean) IS\n\
         SIGNAL c: t(4);\n\
         BEGIN\n\
        \  c(a, z);\n\
         END;\n\n\
         SIGNAL top: p;\n" );
    ]

(* recursion whose parameter grows is not well-founded: the depth cap
   fires a Z405, records a fallback and withdraws every proof *)
let test_recursion_z405 () =
  let src =
    "TYPE t(n) = COMPONENT (IN a: boolean; OUT z: boolean) IS\n\
     SIGNAL c: t(n + 1);\n\
     BEGIN\n\
    \  c(a, z);\n\
     END;\n\n\
     SIGNAL x: t(1);\n"
  in
  let r = analyze src in
  Alcotest.(check bool) "Z405 reported" true
    (has_code r Diag.Code.modular_recursion);
  Alcotest.(check bool) "fallback recorded" true (r.Summary.fallbacks <> []);
  Alcotest.(check (list string)) "no conflict proof survives" []
    r.Summary.proven_conflict_safe;
  Alcotest.(check (list string)) "no cycle proof survives" []
    r.Summary.proven_cycle_free

(* ------------------------------------------------------------------ *)
(* Soundness against the elaborated pipeline, over the whole corpus     *)
(* ------------------------------------------------------------------ *)

(* "proven" must never contradict elaboration: no net the elaborated
   prover shows in Conflict may lie wholly under types the summaries
   proved conflict-safe, on any corpus design (the O5 oracle row,
   statically) *)
let test_corpus_sound () =
  List.iter
    (fun (name, src) ->
      let r =
        try analyze ~symbolic:false src
        with exn ->
          Alcotest.failf "%s: Summary.analyze raised %s" name
            (Printexc.to_string exn)
      in
      match elaborate_with_diags src with
      | Some design, _ ->
          List.iter
            (Alcotest.failf
               "%s: conflict net '%s' lies under conflict-safe types" name)
            (Oracle.modular_hidden_conflicts r design (Lint.run design))
      | None, _ -> ())
    (Corpus.all_named @ Corpus_fsm.all_named)

let () =
  Alcotest.run "summary"
    [
      ( "proofs",
        [
          Alcotest.test_case "htree symbolic" `Quick test_htree_proven;
          Alcotest.test_case "routing symbolic" `Quick test_routing_proven;
        ] );
      ( "findings",
        [
          Alcotest.test_case "Z401 conflict" `Quick test_section8_z401;
          Alcotest.test_case "Z403 cycle" `Quick test_cycle_z403;
          Alcotest.test_case "Z404 range" `Quick test_range_z404;
          Alcotest.test_case "Z405 recursion" `Quick test_recursion_z405;
        ] );
      ( "soundness",
        [ Alcotest.test_case "corpus vs lint" `Quick test_corpus_sound ] );
    ]
