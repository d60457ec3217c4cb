(* The automatic placer and the wirelength estimator, plus the Wave
   viewer and the dead-net analysis. *)

open Zeus

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

(* ---- autoplace ---- *)

let test_autoplace_adder () =
  let d = compile (Corpus.adder_n 8) in
  match Autoplace.place d "adder" with
  | None -> Alcotest.fail "no placement"
  | Some plan ->
      (* every full adder is placed exactly once *)
      let fas =
        List.filter
          (fun (p : Floorplan.placement) -> p.Floorplan.type_name = "fulladder")
          plan.Floorplan.cells
      in
      Alcotest.(check int) "all fulladders placed" 8 (List.length fas);
      Alcotest.(check int) "no overlaps" 0
        (List.length (Floorplan.overlaps plan));
      (* the carry chain levelizes into increasing columns *)
      Alcotest.(check bool) "multiple levels" true (plan.Floorplan.width > 1)

let test_autoplace_levelizes_chain () =
  (* a chain of inverters through instances must occupy distinct
     columns in chain order *)
  let d =
    compile
      "TYPE inv = COMPONENT (IN a: boolean; OUT b: boolean) IS BEGIN b := \
       NOT a END;\n\
       t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL c: \
       ARRAY[1..4] OF inv; BEGIN c[1].a := x; c[2].a := c[1].b; c[3].a := \
       c[2].b; c[4].a := c[3].b; y := c[4].b END;\n\
       SIGNAL s: t;"
  in
  match Autoplace.place d "s" with
  | None -> Alcotest.fail "no placement"
  | Some plan ->
      let col i =
        let p =
          List.find
            (fun (p : Floorplan.placement) ->
              p.Floorplan.path = Printf.sprintf "s.c[%d]" i)
            plan.Floorplan.cells
        in
        p.Floorplan.rect.Geom.x
      in
      Alcotest.(check bool) "chain order" true
        (col 1 < col 2 && col 2 < col 3 && col 3 < col 4)

let test_wirelength_comparable () =
  (* the wirelength estimator applies to both explicit and automatic
     plans, and neighbours-in-a-row beat a degenerate single column *)
  let d = compile (Corpus.adder_n 16) in
  let explicit =
    match Floorplan.of_design d "adder" with
    | Some p -> p
    | None -> Alcotest.fail "no explicit plan"
  in
  let auto =
    match Autoplace.place d "adder" with
    | Some p -> p
    | None -> Alcotest.fail "no auto plan"
  in
  let we = Autoplace.wirelength d explicit in
  let wa = Autoplace.wirelength d auto in
  Alcotest.(check bool) "explicit wirelength positive" true (we > 0);
  Alcotest.(check bool) "auto wirelength positive" true (wa > 0)

(* ---- wave viewer ---- *)

let test_wave_render () =
  let d = compile (Corpus_fsm.counter 4) in
  let sim = Sim.create d in
  let wave = Wave.create sim [ "c.en"; "c.value" ] in
  Sim.poke_bool sim "c.en" true;
  Sim.reset sim;
  for _ = 1 to 6 do
    Sim.step sim;
    Wave.sample wave
  done;
  let out = Wave.render wave in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | en :: value :: _ ->
      (* en is high throughout: six '#' columns *)
      Alcotest.(check bool) "en line has levels" true
        (String.length en >= 6
        && String.sub en (String.length en - 6) 6 = "######");
      (* counter values 0..5 as hex digits *)
      Alcotest.(check bool) "value line counts" true
        (String.length value >= 6
        && String.sub value (String.length value - 6) 6 = "012345")
  | _ -> Alcotest.fail "two lines expected");
  let vals = Wave.render_values wave in
  Alcotest.(check bool) "decoded values" true
    (String.length vals > 0)

let test_wave_undef_marks () =
  let d = compile (Corpus.adder_n 2) in
  let sim = Sim.create d in
  let wave = Wave.create sim [ "adder.cout" ] in
  Sim.step sim;
  (* nothing poked *)
  Wave.sample wave;
  let out = Wave.render wave in
  Alcotest.(check bool) "undef marked x" true (String.contains out 'x')

(* ---- dead nets ---- *)

let test_dead_nets_on_corpus () =
  let count src =
    let d = compile src in
    (Stats.of_design d).Stats.dead_nets
  in
  (* the adder uses everything it builds *)
  Alcotest.(check int) "adder4 has no dead logic" 0 (count Corpus.adder4);
  (* blackjack genuinely contains dead logic: the carry-out bit of the
     5-bit plus/minus function components is never consumed, and the
     accumulated not-taken guards of ELSIF chains without an ELSE go
     nowhere *)
  Alcotest.(check bool) "blackjack has the unused carries" true
    (count Corpus.blackjack > 0)

let test_dead_nets_detected () =
  (* u drives a NOT whose output goes nowhere *)
  let d =
    compile
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL u: \
       boolean; BEGIN u := NOT x; * := u; y := x END;\nSIGNAL s: t;"
  in
  let s = Stats.of_design d in
  Alcotest.(check bool) "dead logic found" true (s.Stats.dead_nets > 0)

let () =
  Alcotest.run "autoplace"
    [
      ( "placement",
        [
          Alcotest.test_case "adder" `Quick test_autoplace_adder;
          Alcotest.test_case "levelizes" `Quick test_autoplace_levelizes_chain;
          Alcotest.test_case "wirelength" `Quick test_wirelength_comparable;
        ] );
      ( "wave",
        [
          Alcotest.test_case "render" `Quick test_wave_render;
          Alcotest.test_case "undef marks" `Quick test_wave_undef_marks;
        ] );
      ( "dead_nets",
        [
          Alcotest.test_case "corpus" `Quick test_dead_nets_on_corpus;
          Alcotest.test_case "detected" `Quick test_dead_nets_detected;
        ] );
    ]
