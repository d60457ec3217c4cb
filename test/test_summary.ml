(* The modular component-summary analysis (Z401-Z406): per-type port
   contracts, symbolic parameter checking, type-level cycle detection,
   the persistent summary cache, and the soundness contract against the
   elaborated lint. *)

open Zeus

let parse src =
  match Parser.program src with
  | Some p, _ -> p
  | None, bag ->
      Alcotest.failf "did not parse: %a"
        Fmt.(list Diag.pp)
        (Diag.Bag.errors bag)

let analyze ?symbolic ?cache_dir src =
  Summary.analyze ?symbolic ?cache_dir ~src (parse src)

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
   caught by interval abstract interpretation of n *)
let test_range_z404 () =
  let src =
    "TYPE t(n) = COMPONENT (IN a: boolean; OUT z: boolean) IS\n\
     SIGNAL s: ARRAY[1..n] OF boolean;\n\
     BEGIN\n\
    \  s[n + 1] := a;\n\
    \  z := s[1];\n\
     END;\n\n\
     SIGNAL x: t(4);\n"
  in
  let r = analyze src in
  Alcotest.(check bool) "Z404 reported" true
    (has_code r Diag.Code.modular_range)

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
(* The persistent summary cache                                         *)
(* ------------------------------------------------------------------ *)

(* a fresh cache directory per run, without depending on unix:
   temp_file reserves a unique name, and the cache creates the
   directory.  Both go afterwards, also when a check fails (the cache
   writes only flat files into the directory). *)
let with_cache_dir f =
  let stamp = Filename.temp_file "zeus-summary-test" "" in
  let dir = stamp ^ ".d" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun e -> Sys.remove (Filename.concat dir e))
          (Sys.readdir dir);
        Sys.rmdir dir
      end;
      Sys.remove stamp)
    (fun () -> f dir)

let test_cache_roundtrip () =
  with_cache_dir @@ fun dir ->
  let src = Corpus.htree 16 in
  let r1 = analyze ~cache_dir:dir src in
  Alcotest.(check int) "cold run hits nothing" 0 r1.Summary.cache_hits;
  Alcotest.(check bool) "cold run computes" true
    (r1.Summary.summaries_computed > 0);
  let r2 = analyze ~cache_dir:dir src in
  Alcotest.(check int) "warm run computes nothing" 0
    r2.Summary.summaries_computed;
  Alcotest.(check bool) "warm run served from cache" true
    (r2.Summary.cache_hits > 0);
  Alcotest.(check bool) "warm run keeps the proof" true
    (List.mem "htree" r2.Summary.proven_conflict_safe
    && List.mem "htree" r2.Summary.proven_cycle_free);
  (* a different source digest misses: the cache keys on content *)
  let r3 = analyze ~cache_dir:dir (Corpus.htree 4) in
  Alcotest.(check bool) "edited source recomputes" true
    (r3.Summary.summaries_computed > 0)

(* A truncated entry (a write cut short) is a miss, not an error: the
   run that misses writes the entry again, and the run after it hits. *)
let test_cache_truncated () =
  with_cache_dir @@ fun dir ->
  let src = Corpus.htree 16 in
  let r1 = analyze ~cache_dir:dir src in
  let entries () =
    List.filter
      (fun f -> Filename.check_suffix f ".bin")
      (Array.to_list (Sys.readdir dir))
  in
  Alcotest.(check bool) "cold run stores entries" true (entries () <> []);
  List.iter
    (fun f ->
      let file = Filename.concat dir f in
      let data = In_channel.with_open_bin file In_channel.input_all in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (String.sub data 0 (String.length data / 2))))
    (entries ());
  let r2 = analyze ~cache_dir:dir src in
  Alcotest.(check int) "truncated entries miss" 0 r2.Summary.cache_hits;
  Alcotest.(check int) "and are recomputed" r1.Summary.summaries_computed
    r2.Summary.summaries_computed;
  let r3 = analyze ~cache_dir:dir src in
  Alcotest.(check int) "rewritten entries compute nothing" 0
    r3.Summary.summaries_computed;
  Alcotest.(check bool) "rewritten entries hit" true
    (r3.Summary.cache_hits > 0);
  Alcotest.(check bool) "no temp file is left" false
    (Array.exists
       (fun f -> Filename.check_suffix f ".tmp")
       (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Soundness against the elaborated pipeline, over the whole corpus     *)
(* ------------------------------------------------------------------ *)

(* "proven" must never contradict elaboration: a net the elaborated
   prover shows in Conflict may not be reclassified Safe by the modular
   pre-pass, on any corpus design (the O5 oracle row, statically) *)
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
          let plain = Lint.run design in
          let conflicts =
            List.filter_map
              (fun (v : Lint.net_verdict) ->
                if v.Lint.v_class = Lint.Conflict then Some v.Lint.v_name
                else None)
              plain.Lint.verdicts
          in
          if conflicts <> [] && r.Summary.proven_conflict_safe <> [] then begin
            let pre =
              Lint.run
                ~proven_safe:(fun t ->
                  List.mem t r.Summary.proven_conflict_safe)
                design
            in
            List.iter
              (fun (v : Lint.net_verdict) ->
                if
                  List.mem v.Lint.v_name conflicts
                  && v.Lint.v_class = Lint.Safe
                then
                  Alcotest.failf
                    "%s: conflict net '%s' hidden by the modular pre-pass"
                    name v.Lint.v_name)
              pre.Lint.verdicts
          end
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
      ( "cache",
        [
          Alcotest.test_case "roundtrip" `Quick test_cache_roundtrip;
          Alcotest.test_case "truncated entry" `Quick test_cache_truncated;
        ] );
      ( "soundness",
        [ Alcotest.test_case "corpus vs lint" `Quick test_corpus_sound ] );
    ]
