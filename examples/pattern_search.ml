(* The systolic pattern matcher of report section 10 (after Foster/Kung),
   searching a bit string for a pattern with optional wildcards.

   Pattern bits flow left-to-right, string bits right-to-left, one cell
   per clock; items enter every second cycle with 0s in the idle slots.
   The end-of-pattern marker resets the accumulated comparison and emits
   the match bit, which travels back to the left edge.

   Run with:  dune exec examples/pattern_search.exe *)

open Zeus

let search ~cells ~pattern ~wild ~text =
  let design = compile_exn (Corpus.patternmatch cells) in
  let sim = Sim.create design in
  let port = Testbench.port design in
  let pattern_in = port "match.pattern" and string_in = port "match.string"
  and eop = port "match.endofpattern" and wild_in = port "match.wild"
  and result = port "match.result" in
  List.iter
    (fun p -> Sim.set_int sim p 0)
    [ pattern_in; string_in; eop; wild_in; port "match.resultin" ];
  Sim.reset sim;
  let plen = List.length pattern in
  let results = ref [] in
  let cycles = 2 * (List.length text + (3 * plen)) in
  for cyc = 0 to cycles - 1 do
    let idle = cyc mod 2 = 1 in
    if idle then begin
      Sim.set_int sim pattern_in 0;
      Sim.set_int sim eop 0;
      Sim.set_int sim wild_in 0;
      Sim.set_int sim string_in 0
    end
    else begin
      let i = cyc / 2 in
      (* the pattern recirculates: items then the end marker, repeated *)
      let pi = i mod (plen + 1) in
      let bit b = Bool.to_int b in
      Sim.set_int sim pattern_in (bit (pi < plen && List.nth pattern pi = 1));
      Sim.set_int sim eop (bit (pi = plen));
      Sim.set_int sim wild_in (bit (pi < plen && List.nth wild pi = 1));
      Sim.set_int sim string_in
        (match List.nth_opt text i with Some 1 -> 1 | _ -> 0)
    end;
    Sim.step sim;
    if Sim.get_int sim result = Some 1 then
      results := cyc :: !results
  done;
  (List.rev !results, Sim.runtime_errors sim)

let show name ~pattern ~wild ~text =
  let results, errors = search ~cells:3 ~pattern ~wild ~text in
  Fmt.pr "@.%s@.  pattern: %a   wildcards: %a@.  text:    %a@." name
    Fmt.(list ~sep:nop int)
    pattern
    Fmt.(list ~sep:nop int)
    wild
    Fmt.(list ~sep:nop int)
    text;
  Fmt.pr "  match bits emitted at cycles: %a@."
    Fmt.(list ~sep:sp int)
    results;
  if errors <> [] then
    Fmt.pr "  %d runtime errors!@." (List.length errors)

let () =
  Fmt.pr "Systolic pattern matching (Zeus report, section 10)@.";
  show "alternating text, pattern 10" ~pattern:[ 1; 0 ] ~wild:[ 0; 0 ]
    ~text:[ 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0 ];
  show "no match in zeros" ~pattern:[ 1; 1 ] ~wild:[ 0; 0 ]
    ~text:[ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ];
  show "wildcards match anything" ~pattern:[ 0; 0 ] ~wild:[ 1; 1 ]
    ~text:[ 1; 1; 0; 1; 0; 0; 1; 1; 0; 1; 1; 0 ];
  (* the processor array in silico: comparators above accumulators *)
  let design = compile_exn (Corpus.patternmatch 5) in
  match Floorplan.of_design design "match" with
  | Some plan -> Fmt.pr "@.%s" (Render.to_string plan)
  | None -> ()
