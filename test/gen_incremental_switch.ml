(* Generator behind test/golden/incremental_switch.txt: locks what the
   incremental engine reports, cycle by cycle, over the scripted
   dense/sparse/quiet run of [Switch_scenario] on every corpus design —
   node visits, a digest of the snapshot, the running toggle total and
   the trace — then the cycles run through the compiled program, the
   runtime errors in order and the activity ranking, before the restart
   and at the end.  Long lists are recorded as a count and a digest, so
   the file stays small while any change of value or order still shows.
   Whichever evaluator runs a cycle, the snapshots, toggles, trace,
   errors and activity must stay the same; the visits and the program
   cycles record which evaluator ran, so a change to the busy/sparse
   switch rule shows here. *)

open Zeus

let code = function
  | Logic.Zero -> '0'
  | Logic.One -> '1'
  | Logic.Undef -> 'U'
  | Logic.Noinfl -> 'Z'

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let snapshot_digest sim =
  digest
    (String.of_seq
       (Seq.map
          (function None -> '-' | Some v -> code v)
          (Array.to_seq (Sim.snapshot sim))))

let trace_text sim =
  String.concat ","
    (List.map
       (fun (n, v) -> n ^ "=" ^ String.make 1 (code v))
       (Sim.trace_last_cycle sim))

(* the cycles run through the program; the errors in order: their
   count, a digest of the whole ordered list and the first few verbatim;
   then the activity ranking *)
let report sim =
  Printf.printf "program_cycles=%d\n" (Sim.program_cycles sim);
  let lines =
    List.map
      (fun (e : Sim.runtime_error) ->
        Printf.sprintf "error cycle=%d %s %s: %s" e.Sim.err_cycle
          e.Sim.err_code e.Sim.err_net e.Sim.err_message)
      (Sim.runtime_errors sim)
  in
  Printf.printf "errors=%d:%s\n" (List.length lines)
    (digest (String.concat "\n" lines));
  List.iteri (fun i l -> if i < 3 then print_endline l) lines;
  List.iter
    (fun (net, n) -> Printf.printf "activity %d %s\n" n net)
    (Sim.activity ~top:8 sim)

let () =
  List.iter
    (fun (name, src) ->
      Printf.printf "== %s\n" name;
      let on_cycle c sim =
        let tr = Sim.trace_last_cycle sim in
        Printf.printf "%d visits=%d snap=%s toggles=%d" c (Sim.node_visits sim)
          (snapshot_digest sim) (Sim.total_toggles sim);
        if tr <> [] then
          Printf.printf " trace=%d:%s" (List.length tr) (digest (trace_text sim));
        print_newline ()
      in
      let on_restart sim =
        print_endline "-- before restart";
        report sim
      in
      let sim = Switch_scenario.run ~on_cycle ~on_restart (compile_exn src) in
      print_endline "-- end";
      report sim)
    Switch_scenario.designs
