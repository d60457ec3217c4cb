(* Generator behind test/golden/lint_corpus.txt: locks the `zeusc lint`
   text report for every corpus design — each multi-driven net's
   verdict, every finding with its Z-code and location, and the summary
   line.  Refresh with `dune promote` after an intentional change to
   an analysis. *)

let () =
  List.iter
    (fun (name, src) ->
      Printf.printf "== %s\n" name;
      let design = Zeus.compile_exn src in
      let r = Zeus.Lint.run design in
      List.iter
        (fun (v : Zeus.Lint.net_verdict) ->
          Fmt.pr "net '%s' (%s, %d producers): %s — %s@." v.Zeus.Lint.v_name
            (Zeus.Etype.kind_to_string v.Zeus.Lint.v_kind)
            v.Zeus.Lint.v_producers
            (Zeus.Lint.classification_to_string v.Zeus.Lint.v_class)
            v.Zeus.Lint.v_detail)
        r.Zeus.Lint.verdicts;
      List.iter (Fmt.pr "%a@." Zeus.Diag.pp) r.Zeus.Lint.findings;
      Fmt.pr "%s@." (Zeus.Lint.summary r))
    (Zeus.Corpus.all_named @ Zeus.Corpus_fsm.all_named)
