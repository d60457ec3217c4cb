(* A scripted run that walks the incremental engine through every
   activity regime: 200 cycles in repeating phases of 9 dense cycles
   (every top-level input re-poked), 9 sparse ones (one input bit) and 9
   quiet ones (no pokes), with the trace on for cycles 120-129 and a
   [restart] before cycle 150.  RSET is pulsed on the first cycle of
   each of the two runs so register designs leave UNDEF.

   It feeds the golden lock test/golden/incremental_switch.txt (through
   gen_incremental_switch) and test_sim's checks that busy phases engage
   the compiled program, unseen by every observer. *)

open Zeus

(* RANDOM feeding registers: every cycle each bit of [st] may flip *)
let random_regs =
  {zeus|
TYPE rng = COMPONENT (IN en: boolean; OUT q: ARRAY[1..8] OF boolean) IS
SIGNAL st: ARRAY[1..8] OF REG;
       coin: ARRAY[1..8] OF boolean;
BEGIN
  FOR i := 1 TO 8 DO coin[i] := RANDOM() END;
  IF RSET THEN st.in := BIN(0,8)
  ELSIF en THEN
    FOR i := 1 TO 8 DO st[i].in := XOR(st[i].out,coin[i]) END;
  END;
  q := st.out
END;

SIGNAL r: rng;
|zeus}

let designs =
  Corpus.all_named @ Corpus_fsm.all_named
  @ [ ("routing16", Corpus.routing_network 16); ("random_regs", random_regs) ]

let cycles = 200
let trace_on = 120
let trace_off = 130
let restart_at = 150

(* The run on an [engine] handle (default: the incremental engine):
   [on_cycle c sim] after every cycle [c], [on_restart sim] just before
   the restart, and cycle [c] traced when [traced c] (default: the
   cycles from [trace_on] to [trace_off]).  Returns the handle after the
   last cycle. *)
let run ?(engine = Sim.Incremental) ?(on_cycle = fun _ _ -> ())
    ?(on_restart = fun _ -> ())
    ?(traced = fun c -> trace_on <= c && c < trace_off) design =
  let sim = Sim.create ~engine design in
  let inputs = Array.of_list (Graph.top_input_nets design) in
  let rset = Testbench.port design "RSET" in
  let state = ref 0x2545F491 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state lsr 8
  in
  let value () =
    match next () land 15 with
    | 0 -> Logic.Undef
    | r -> Logic.of_bool (r land 1 = 1)
  in
  for c = 0 to cycles - 1 do
    if c = restart_at then begin
      on_restart sim;
      Sim.restart sim
    end;
    Sim.set_trace sim (traced c);
    if c = 0 || c = restart_at then Sim.set_int sim rset 1
    else if c = 1 || c = restart_at + 1 then Sim.set_int sim rset 0;
    (match (c / 9) mod 3 with
    | 0 -> Array.iter (fun id -> Sim.poke_nets sim [ id ] [ value () ]) inputs
    | 1 when Array.length inputs > 0 ->
        let id = inputs.(next () mod Array.length inputs) in
        Sim.poke_nets sim [ id ] [ value () ]
    | _ -> ());
    Sim.step sim;
    on_cycle c sim
  done;
  sim
