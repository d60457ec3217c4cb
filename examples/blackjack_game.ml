(* The Blackjack dealer machine of report section 10, playing scripted
   hands.  Reproduces the finite-state-machine behaviour: the machine
   draws cards until the score reaches 17, stands below 22, goes broke at
   22 or above, and counts a first ace as 11 (demoting it to 1 if that
   busts the hand).

   Run with:  dune exec examples/blackjack_game.exe *)

open Zeus

let state_name = function
  | Some 0 -> "start"
  | Some 1 -> "read"
  | Some 2 -> "sum"
  | Some 3 -> "firstace"
  | Some 4 -> "test"
  | Some 5 -> "end"
  | Some n -> Printf.sprintf "state-%d" n
  | None -> "???"

let play hand =
  let design = compile_exn Corpus.blackjack in
  let sim = Sim.create design in
  let port = Testbench.port design in
  let ycard = port "bj.ycard" and value = port "bj.value" in
  let state = port "bj.state.out" and score = port "bj.score.out" in
  let hit = port "bj.hit" and stand = port "bj.stand"
  and broke = port "bj.broke" in
  Sim.set_int sim ycard 0;
  Sim.set_int sim value 0;
  Sim.reset sim;
  Fmt.pr "@.hand: %a@." Fmt.(list ~sep:sp int) hand;
  let cards = ref hand in
  let outcome = ref None in
  let cycles = ref 0 in
  let just_dealt = ref false in
  while !outcome = None && !cycles < 100 do
    incr cycles;
    let state = Sim.get_int sim state in
    if state <> Some 1 then just_dealt := false;
    (* deal whenever the machine asks for a card in the read state (the
       visible state lags one cycle, so deal at most once per visit) *)
    (match (state, !cards) with
    | Some 1, c :: rest
      when Sim.get_int sim hit = Some 1
           && not !just_dealt ->
        Fmt.pr "  cycle %2d: %-8s score=%-2s -> dealing %d@." !cycles
          (state_name state)
          (match Sim.get_int sim score with
          | Some s -> string_of_int s
          | None -> "?")
          c;
        Sim.set_int sim value c;
        Sim.set_int sim ycard 1;
        cards := rest;
        just_dealt := true
    | _ ->
        Sim.set_int sim ycard 0);
    Sim.step sim;
    if Sim.get_int sim stand = Some 1 then outcome := Some "STAND"
    else if Sim.get_int sim broke = Some 1 then
      outcome := Some "BROKE"
  done;
  Fmt.pr "  => %s with score %a after %d cycles@."
    (Option.value ~default:"no outcome" !outcome)
    Fmt.(option ~none:(any "?") int)
    (Sim.get_int sim score)
    !cycles;
  (match Sim.runtime_errors sim with
  | [] -> ()
  | errs -> Fmt.pr "  %d runtime errors!@." (List.length errs))

let () =
  Fmt.pr "Blackjack dealer FSM (Zeus report, section 10)@.";
  play [ 10; 9 ];          (* 19: stand *)
  play [ 10; 5; 9 ];       (* 24: broke *)
  play [ 1; 10 ];          (* ace as 11 -> 21: stand *)
  play [ 1; 5; 9; 4 ];     (* 11+5+9=25 -> demote ace -> 15 -> +4 -> 19 *)
  play [ 2; 3; 4; 5; 6 ]   (* slow build to 20: stand *)
