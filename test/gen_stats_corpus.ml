(* Generator behind test/golden/stats_corpus.txt: locks the `zeusc
   stats` block — net, gate, driver, register and instance counts,
   combinational depth, maximum fanout, alias classes, dead nets and
   the gate histogram — for every corpus design.  Refresh with `dune
   promote` after an intentional change. *)

let () =
  List.iter
    (fun (name, src) ->
      Printf.printf "== %s\n" name;
      let design = Zeus.compile_exn src in
      Fmt.pr "%a" Zeus.Stats.pp (Zeus.Stats.of_design design))
    (Zeus.Corpus.all_named @ Zeus.Corpus_fsm.all_named)
