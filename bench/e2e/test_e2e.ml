(* Unit tests of the benchmark's workload generator: decks are a pure
   function of the seed, every run opens with an RSET pulse, no poke is
   one zeusc would misread, and the reference-deck cut keeps the inputs
   of the cycles it keeps. *)

let inputs (w : Workload.t) seed =
  let spec = w.gen ~seed in
  (Workload.files spec, Workload.argvs spec)

let sims =
  List.filter_map
    (fun (w : Workload.t) ->
      match w.gen ~seed:1 with Workload.Sim s -> Some (w.name, s) | _ -> None)
    Workload.all

let deterministic () =
  List.iter
    (fun (w : Workload.t) ->
      let a = inputs w 1 in
      Alcotest.(check bool) (w.name ^ ": same seed, same bytes") true (a = inputs w 1);
      Alcotest.(check bool) (w.name ^ ": other seed, other inputs") false (a = inputs w 2))
    Workload.all

let reset_pulse () =
  List.iter
    (fun (name, (s : Workload.sim)) ->
      List.iteri
        (fun i (run : Workload.run) ->
          let opens v line = List.mem ("RSET", v) run.(line) in
          if not (Array.length run >= 2 && opens 1 0 && opens 0 1) then
            Alcotest.failf "%s: run %d does not open with RSET=1, RSET=0" name i)
        s.deck)
    sims

(* zeusc reads path=0 and path=1 as one bit, so a multi-bit input poked
   with either would exit 125 ("Sim.poke: width mismatch") *)
let no_short_multibit_pokes () =
  List.iter
    (fun (name, (s : Workload.sim)) ->
      let design = Zeus.compile_exn s.source in
      let width = Hashtbl.create 64 in
      let width p =
        match Hashtbl.find_opt width p with
        | Some w -> w
        | None ->
            let w =
              match Zeus.Elaborate.resolve_path design p with
              | Ok nets -> List.length nets
              | Error e -> Alcotest.failf "%s: bad path %s: %s" name p e
            in
            Hashtbl.add width p w;
            w
      in
      List.iter
        (Array.iter
           (List.iter (fun (p, v) ->
                if v <= 1 && width p > 1 then
                  Alcotest.failf "%s: %d-bit %s poked as %d" name (width p) p v)))
        s.deck)
    sims

let tail_cut () =
  let run =
    [| [ ("RSET", 1); ("a", 5); ("a[2]", 1) ]; [ ("RSET", 0) ]; [ ("a[2]", 0) ];
       [ ("b", 1) ] |]
  in
  Alcotest.(check (array (list (pair string int))))
    "last two cycles, earlier pokes folded in order of last occurrence"
    [| [ ("a", 5); ("RSET", 0); ("a[2]", 0) ]; [ ("b", 1) ] |]
    (Workload.tail_run 2 run);
  Alcotest.(check (array (list (pair string int))))
    "a run no longer than the cut is kept" run (Workload.tail_run 4 run)

let () =
  Alcotest.run "e2e"
    [
      ( "workload",
        [
          Alcotest.test_case "deterministic decks" `Quick deterministic;
          Alcotest.test_case "RSET pulse first" `Quick reset_pulse;
          Alcotest.test_case "no 0/1 multi-bit pokes" `Quick no_short_multibit_pokes;
          Alcotest.test_case "reference deck cut" `Quick tail_cut;
        ] );
    ]
