(* zeusc: command-line driver for the Zeus implementation.

     zeusc check FILE.zeus        parse + elaborate + static checks
     zeusc pp FILE.zeus           parse and pretty-print back to Zeus
     zeusc stats FILE.zeus        netlist statistics after elaboration
     zeusc sim FILE.zeus -n 10    simulate N cycles (optionally with pokes)
     zeusc layout FILE.zeus -t T  ASCII floorplan of top-level signal T
     zeusc dot FILE.zeus          semantics graph in Graphviz format
     zeusc corpus NAME            print a built-in example program

   Every subcommand runs inside one error boundary ([guard]): a failure
   raises [Fail], and the boundary prints it and maps it to the exit
   status of the one table [exits]. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* The error boundary *)

type failure =
  | Usage of string
      (* an unreadable input, a bad flag value, a -p/-w/--explain path
         that names nothing or a poke that does not fit, an unwritable
         output file *)
  | Rejected of string  (* the design cannot do what was asked *)
  | Diagnostics of Zeus.Diag.t list  (* the design does not compile *)

exception Fail of failure

let usage fmt = Fmt.kstr (fun m -> raise (Fail (Usage m))) fmt
let rejected fmt = Fmt.kstr (fun m -> raise (Fail (Rejected m))) fmt

(* the exit status table, listed by every subcommand's --help *)
let exit_failed = 1
let exit_usage = 2

let exits =
  [
    Cmd.Exit.info Cmd.Exit.ok ~doc:"on success.";
    Cmd.Exit.info exit_failed
      ~doc:
        "on compile diagnostics, on findings the command does not \
         tolerate (a fuzz divergence included), or on a design that \
         cannot do what was asked.";
    Cmd.Exit.info exit_usage
      ~doc:
        "on a usage or input error: an unreadable input file or \
         $(b,--batch) deck, a bad flag value, an option without the \
         option it needs, a poke, watch or \
         $(b,--explain) path that names nothing, a poke that does not \
         fit its path, an unwritable output file.";
    Cmd.Exit.info Cmd.Exit.cli_error ~doc:"on command line parsing errors.";
    Cmd.Exit.info Cmd.Exit.internal_error
      ~doc:"on unexpected internal errors (bugs).";
  ]

let report_diags diags =
  List.iter (fun d -> Fmt.epr "%a@." Zeus.Diag.pp d) diags

(* [guard ~cmd run] is the one place a failure becomes an exit status:
   [Fail], a [Sys_error] and the deck reader's [Failure] (whose message
   names the deck) *)
let guard ~cmd run =
  try run () with
  | Fail (Diagnostics diags) ->
      report_diags diags;
      exit_failed
  | Fail (Rejected m) ->
      Fmt.epr "%s: %s@." cmd m;
      exit_failed
  | Fail (Usage m) | Sys_error m ->
      Fmt.epr "%s: %s@." cmd m;
      exit_usage
  | Failure m ->
      Fmt.epr "%s@." m;
      exit_usage

(* a subcommand: [term] yields its run, which [guard] runs *)
let command cmd ~doc term =
  Cmd.v (Cmd.info cmd ~doc ~exits) Term.(const (guard ~cmd) $ term)

(* the reason of a Sys_error about [path], without its "path: " prefix *)
let sys_error_reason path msg =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix msg then
    String.sub msg (String.length prefix)
      (String.length msg - String.length prefix)
  else msg

(* every input file goes through here ('-' is stdin) *)
let load = function
  | "-" -> In_channel.input_all stdin
  | p -> (
      try In_channel.with_open_bin p In_channel.input_all
      with Sys_error msg -> usage "cannot read '%s': %s" p (sys_error_reason p msg))

(* and every output file through here: [write] hands its text to the
   sink piece by piece, so a large output is never held whole; the
   explicit flush reports a failed write, which closing the channel
   would swallow *)
let stream_file path write =
  try
    Out_channel.with_open_bin path (fun oc ->
        write (Out_channel.output_string oc);
        Out_channel.flush oc)
  with Sys_error msg ->
    usage "cannot write '%s': %s" path (sys_error_reason path msg)

let write_file path text = stream_file path (fun out -> out text)

let parse src =
  match Zeus.Parser.program src with
  | Some prog, _ -> prog
  | None, bag -> raise (Fail (Diagnostics (Zeus.Diag.Bag.all bag)))

let compile src =
  match Zeus.compile src with
  | Ok design -> design
  | Error diags -> raise (Fail (Diagnostics diags))

let design file = compile (load file)

(* every subcommand with --suppress validates against the one Z-code
   registry *)
let validate_suppress suppress =
  match Zeus.Diag.Code.unknown suppress with
  | [] -> ()
  | unknown ->
      usage "unknown diagnostic code%s %s for --suppress; valid codes: %s"
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown)
        (Zeus.Diag.Code.valid_codes_message ())

(* a count below its minimum is a usage error, not an empty or
   exhausted run *)
let validate_count ?(min = 0) ~flag n =
  if n < min then
    usage "--%s must be a %s integer, got %d" flag
      (if min = 0 then "non-negative" else "positive")
      n

let validate_jobs = validate_count ~min:1 ~flag:"jobs"

(* a flag that means nothing without another is a usage error, not a
   silent no-op *)
let requires flag needed = usage "--%s requires --%s" flag needed

let drop_suppressed suppress diags =
  List.filter
    (fun (d : Zeus.Diag.t) ->
      match d.Zeus.Diag.code with
      | Some c -> not (List.mem c suppress)
      | None -> true)
    diags

(* the exit status of a report's findings: [max_severity] is the most
   severe one tolerated *)
let findings_status ?(max_severity = `Warning) findings =
  let worst =
    List.fold_left
      (fun acc (d : Zeus.Diag.t) ->
        match (acc, d.Zeus.Diag.severity) with
        | `Error, _ | _, Zeus.Diag.Error -> `Error
        | _, Zeus.Diag.Warning -> `Warning)
      `None findings
  in
  let fail =
    match (max_severity, worst) with
    | `Error, _ -> false
    | `Warning, w -> w = `Error
    | `None, w -> w <> `None
  in
  if fail then exit_failed else 0

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Zeus source file ('-' for stdin).")

let format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,text) (default) or $(b,json).")

let suppress_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "suppress" ] ~docv:"CODE"
        ~doc:"Drop findings with this diagnostic code (repeatable).")

(* ------------------------------------------------------------------ *)

let check_cmd =
  let modular =
    Arg.(
      value & flag
      & info [ "modular" ]
          ~doc:
            "Run the modular component-summary analysis instead of full \
             elaboration: per-type port contracts, symbolic drive-conflict \
             and combinational-cycle proofs for all parameter values \
             (Z4xx codes).")
  in
  let contracts =
    Arg.(
      value & flag
      & info [ "contracts" ]
          ~doc:"With $(b,--modular): print every computed port contract.")
  in
  let run file modular contracts () =
    if contracts && not modular then requires "contracts" "modular";
    let src = load file in
    if modular then begin
      let r = Zeus.Summary.analyze (parse src) in
      if contracts then
        List.iter
          (fun (_, c) -> Fmt.pr "%a@." Zeus.Contract.pp c)
          r.Zeus.Summary.contracts;
      List.iter
        (fun (name, c) ->
          Fmt.pr "type %-20s (%s): conflict-%s, %s@." name
            (if c.Zeus.Contract.c_params = "" then "-"
             else c.Zeus.Contract.c_params)
            (if c.Zeus.Contract.c_conflict_safe then "safe" else "unproven")
            (if c.Zeus.Contract.c_cycle_free then "cycle-free"
             else "cycles-unproven"))
        r.Zeus.Summary.contracts;
      List.iter
        (fun (t, reason) -> Fmt.pr "fallback %s: %s@." t reason)
        r.Zeus.Summary.fallbacks;
      report_diags r.Zeus.Summary.findings;
      Fmt.pr "%s@." (Zeus.Summary.summary_line r);
      findings_status r.Zeus.Summary.findings
    end
    else
      let design = compile src in
      Fmt.pr "OK: %s@." (Zeus.Netlist.stats design.Zeus.Elaborate.netlist);
      report_diags
        (List.filter
           (fun (d : Zeus.Diag.t) -> d.Zeus.Diag.severity = Zeus.Diag.Warning)
           (Zeus.Diag.Bag.all design.Zeus.Elaborate.diags));
      0
  in
  command "check" ~doc:"Parse, elaborate and statically check a program."
    Term.(const run $ file_arg $ modular $ contracts)

let pp_cmd =
  let run file () =
    print_endline (Zeus.Pretty.program_to_string (parse (load file)));
    0
  in
  command "pp" ~doc:"Parse and pretty-print back to Zeus concrete syntax."
    Term.(const run $ file_arg)

let stats_cmd =
  let run file () =
    let design = design file in
    Fmt.pr "%a" Zeus.Stats.pp (Zeus.Stats.of_design design);
    List.iter
      (fun (i : Zeus.Netlist.instance) ->
        if not i.Zeus.Netlist.is_function_call then
          Fmt.pr "  instance %-30s : %s@." i.Zeus.Netlist.ipath
            i.Zeus.Netlist.itype)
      (Zeus.Netlist.instances design.Zeus.Elaborate.netlist);
    0
  in
  command "stats" ~doc:"Netlist statistics after elaboration."
    Term.(const run $ file_arg)

let poke_conv : (string * int) Arg.conv =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
        let path = String.sub s 0 i in
        let v = String.sub s (i + 1) (String.length s - i - 1) in
        (try Ok (path, int_of_string v)
         with _ -> Error (`Msg "poke value must be an integer"))
    | None -> Error (`Msg "poke must look like path=value")
  in
  Arg.conv (parse, fun ppf (p, v) -> Fmt.pf ppf "%s=%d" p v)

let sim_cmd =
  let cycles =
    Arg.(value & opt int 4 & info [ "n"; "cycles" ] ~doc:"Cycles to simulate.")
  in
  let pokes =
    Arg.(
      value
      & opt_all poke_conv []
      & info [ "p"; "poke" ]
          ~doc:
            "Input poke, e.g. -p adder.a=5 (MSB-first); the value must fit \
             the path, 0..2^width-1, and the path must name nets no gate \
             or driver writes (inputs, registers, undriven nets).")
  in
  let peeks =
    Arg.(
      value
      & opt_all string []
      & info [ "w"; "watch" ] ~doc:"Signal path to print each cycle.")
  in
  let do_reset =
    Arg.(value & flag & info [ "reset" ] ~doc:"Pulse RSET for one cycle first.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Print the last cycle's trace: the firing engine lists the nets \
             in the order they fired, the incremental and compiled engines \
             the nets that changed, in class order.  Two exceptions list \
             firing order: the incremental engine's first cycle, and every \
             cycle of a design with a combinational cycle.")
  in
  let wave =
    Arg.(
      value & flag
      & info [ "wave" ]
          ~doc:"Render the watched signals as an ASCII waveform (needs -w).")
  in
  let explain =
    Arg.(
      value
      & opt_all string []
      & info [ "explain" ]
          ~doc:"After the run, explain how this signal got its value.")
  in
  let activity =
    Arg.(
      value & flag
      & info [ "activity" ]
          ~doc:"Report the nets with the most switching activity.")
  in
  let vcd_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE"
          ~doc:"Dump the watched signals as a VCD waveform to FILE (needs -w).")
  in
  let engine =
    let engines =
      List.map (fun e -> (Zeus.Sim.engine_name e, e)) Zeus.Sim.all_engines
    in
    Arg.(
      value
      & opt (enum engines) Zeus.Sim.Incremental
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Scheduling engine: $(b,firing) (the section 8 reference), \
             $(b,incremental) (default) or $(b,compiled).  All \
             engines compute identical values.  With $(b,--batch) this \
             picks the per-run template; $(b,compiled) additionally \
             evaluates up to 63 equal-length runs in one bit-sliced \
             pass.")
  in
  let jobs =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Domains for $(b,--batch) run sharding (default: the \
             recommended domain count).  Results are bit-identical at any \
             value; only the work distribution changes.")
  in
  let batch_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "batch" ] ~docv:"FILE"
          ~doc:
            "Batch throughput mode: read a stimulus file describing many \
             independent runs — a $(b,run [seed=N] [cycles=N]) header per \
             run, then one line of space-separated $(i,path=value) pokes \
             per cycle ($(b,-) for a cycle with no new pokes, $(b,#) for \
             comments) — and shard whole runs across $(b,--jobs) domains \
             with no cross-run barriers.  Prints each run's watched \
             signals after its final cycle and its runtime errors.")
  in
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "After the run, print the work breakdown: total node visits, \
             for the compiled engine the program size, vector coverage \
             and one-time compile time, and for $(b,--batch) the \
             run/job/lane counters (all but the compile time \
             deterministic).")
  in
  let optimize =
    Arg.(
      value & flag
      & info [ "optimize" ]
          ~doc:
            "Run the proof-carrying reduction ($(b,zeusc opt)) before \
             simulating: constant and unobservable logic is dropped; \
             observable values are unchanged on any engine.")
  in
  let discharge =
    Arg.(
      value & flag
      & info [ "discharge" ]
          ~doc:
            "Run the static conflict provers ($(b,zeusc lint) + \
             $(b,zeusc prove)) first and compile the runtime \
             drive-conflict checks of proved-safe nets away \
             ($(b,--engine compiled) only; other engines are \
             unaffected).  Values never change — the proofs assume \
             inputs are poked to defined values, so only the Z101 \
             reporting is elided.")
  in
  (* the deck reader (Zeus.Stimulus) raises [Failure] naming the deck
     and line, before any run starts *)
  let run_batch_mode design ~engine ~jobs ~optimize ~discharged ~stats ~watch bf
      =
    let stim = Zeus.Stimulus.read_deck design ~name:bf ~watch (load bf) in
    let tmpl = Zeus.Sim.create ~engine ?jobs ~optimize ?discharged design in
    let results, st = Zeus.Sim.run_stimulus tmpl stim in
    List.iteri
      (fun i (res : Zeus.Sim.batch_result) ->
        Fmt.pr "run %d:" i;
        List.iter
          (fun (p, bits) ->
            Fmt.pr " %s=%a" p Fmt.(list ~sep:nop Zeus.Logic.pp) bits)
          res.Zeus.Sim.bres_watched;
        Fmt.pr "@.";
        List.iter
          (fun (e : Zeus.Sim.runtime_error) ->
            Fmt.pr "runtime error (run %d, cycle %d) [%s] %s: %s@." i
              e.Zeus.Sim.err_cycle e.Zeus.Sim.err_code
              e.Zeus.Sim.err_net e.Zeus.Sim.err_message)
          res.Zeus.Sim.bres_errors)
      results;
    if stats then
      Fmt.pr
        "batch: runs=%d jobs=%d lanes=%d lane-groups=%d lane-runs=%d \
         serial-runs=%d cycles=%d@."
        st.Zeus.Sim.bs_runs st.Zeus.Sim.bs_jobs st.Zeus.Sim.bs_lanes
        st.Zeus.Sim.bs_lane_groups st.Zeus.Sim.bs_lane_runs
        st.Zeus.Sim.bs_serial_runs st.Zeus.Sim.bs_cycles;
    0
  in
  let run file cycles pokes peeks do_reset trace wave explain activity vcd_out
      engine jobs stats optimize discharge batch_file () =
    validate_count ~flag:"cycles" cycles;
    Option.iter validate_jobs jobs;
    (* the deck carries every run's pokes, and --batch prints only each
       run's final watched values and errors: a per-cycle option would be
       dropped without a word *)
    if batch_file <> None then
      List.iter
        (fun (given, flag) ->
          if given then usage "%s does not apply to --batch" flag)
        [
          (pokes <> [], "-p");
          (do_reset, "--reset");
          (trace, "--trace");
          (wave, "--wave");
          (vcd_out <> None, "--vcd");
          (explain <> [], "--explain");
          (activity, "--activity");
        ]
    else if peeks = [] then begin
      (* the per-cycle outputs show the watched signals *)
      if vcd_out <> None then requires "vcd" "watch";
      if wave then requires "wave" "watch"
    end;
    let design = design file in
    (* a -p/-w path that names nothing, a -p of a driven net or a poke
       that does not fit its path is a usage error, caught before the
       first cycle rather than half-way through a line *)
    let resolver = Zeus.Stimulus.resolver design in
    let pokes =
      List.map
        (fun (path, v) ->
          match Zeus.Stimulus.poke resolver path v with
          | Ok port -> (port, v)
          | Error m -> usage "%s" m)
        pokes
    in
    let port path =
      match Zeus.Sim.port design path with
      | Ok port -> port
      | Error m -> usage "%s" m
    in
    let watched = List.map port peeks in
    let discharged =
      if not discharge then None
      else begin
        let arr = Zeus.Seqprove.discharged design (Zeus.Seqprove.run design) in
        Some (fun id -> id >= 0 && id < Array.length arr && arr.(id))
      end
    in
    match batch_file with
    | Some bf ->
        run_batch_mode design ~engine ~jobs ~optimize ~discharged ~stats
          ~watch:watched bf
    | None ->
        (* so are an --explain path and an unwritable VCD file, which
           would otherwise fail only after the run *)
        let explain = List.map port explain in
        Option.iter (fun path -> write_file path "") vcd_out;
        let sim = Zeus.Sim.create ~engine ~optimize ?discharged design in
        List.iter (fun (port, v) -> Zeus.Sim.set_int sim port v) pokes;
        if do_reset then Zeus.Sim.reset sim;
        Zeus.Sim.set_trace sim trace;
        let waves =
          if wave then Some (Zeus.Wave.create sim watched)
          else None
        in
        let vcd = Option.map (fun _ -> Zeus.Vcd.create sim watched) vcd_out in
        for c = 1 to cycles do
          Zeus.Sim.step sim;
          Option.iter Zeus.Wave.sample waves;
          Option.iter Zeus.Vcd.sample vcd;
          if watched <> [] && waves = None then begin
            Fmt.pr "cycle %d:" c;
            List.iter
              (fun (p : Zeus.Sim.port) ->
                Fmt.pr " %s=%a" p.path
                  Fmt.(list ~sep:nop Zeus.Logic.pp)
                  (Zeus.Sim.get sim p))
              watched;
            Fmt.pr "@."
          end
        done;
        Option.iter (fun w -> print_string (Zeus.Wave.render w)) waves;
        (match (vcd, vcd_out) with
        | Some v, Some path ->
            write_file path (Zeus.Vcd.contents v);
            Fmt.pr "VCD written to %s@." path
        | _ -> ());
        if activity then
          List.iter
            (fun (net, n) -> Fmt.pr "activity %6d %s@." n net)
            (Zeus.Sim.activity ~top:15 sim);
        List.iter
          (fun port ->
            Fmt.pr "%a@." Zeus.Explain.pp (Zeus.Explain.explain sim port ~depth:2))
          explain;
        if trace then
          List.iter
            (fun (n, v) -> Fmt.pr "  fire %s = %a@." n Zeus.Logic.pp v)
            (Zeus.Sim.trace_last_cycle sim);
        if stats then begin
          Fmt.pr "node visits: %d@." (Zeus.Sim.node_visits sim);
          Option.iter
            (fun (p : Zeus.Bytecode.prog) ->
              Fmt.pr
                "compiled: ops=%d scalar=%d vector=%d vector-lanes=%d \
                 visits-per-cycle=%d check-ops=%d discharged-ops=%d@."
                (Array.length p.Zeus.Bytecode.ops) p.Zeus.Bytecode.scalar_ops
                p.Zeus.Bytecode.vector_ops p.Zeus.Bytecode.vector_lanes
                p.Zeus.Bytecode.visits_per_cycle p.Zeus.Bytecode.check_ops
                p.Zeus.Bytecode.discharged_ops;
              Fmt.pr "compile time: %.3fs@." p.Zeus.Bytecode.compile_secs)
            (Zeus.Sim.compiled_program sim)
        end;
        List.iter
          (fun (e : Zeus.Sim.runtime_error) ->
            Fmt.pr "runtime error (cycle %d) [%s] %s: %s@." e.Zeus.Sim.err_cycle
              e.Zeus.Sim.err_code e.Zeus.Sim.err_net e.Zeus.Sim.err_message)
          (Zeus.Sim.runtime_errors sim);
        0
  in
  command "sim" ~doc:"Simulate a design for N cycles."
    Term.(
      const run $ file_arg $ cycles $ pokes $ peeks $ do_reset $ trace $ wave
      $ explain $ activity $ vcd_out $ engine $ jobs $ stats
      $ optimize $ discharge $ batch_file)

let lint_cmd =
  let budget =
    Arg.(
      value
      & opt int Zeus.Lint.default_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Case-split budget of the drive-conflict prover (per \
             multi-driven class).  Exhausting it demotes the net to \
             needs-runtime-check.")
  in
  let max_severity =
    Arg.(
      value
      & opt
          (enum [ ("error", `Error); ("warning", `Warning); ("none", `None) ])
          `Warning
      & info [ "max-severity" ] ~docv:"LEVEL"
          ~doc:
            "Most severe finding tolerated for exit status 0: 'error' never \
             fails, 'warning' (default) fails on errors, 'none' fails on \
             any finding.")
  in
  let run file format budget suppress max_severity () =
    validate_suppress suppress;
    validate_count ~flag:"budget" budget;
    let report = Zeus.Lint.run ~budget (design file) in
    let findings = drop_suppressed suppress report.Zeus.Lint.findings in
    let report = { report with Zeus.Lint.findings } in
    (match format with
    | `Json -> print_endline (Zeus.Lint.json_of_report report)
    | `Text ->
        List.iter
          (fun (v : Zeus.Lint.net_verdict) ->
            Fmt.pr "net '%s' (%s, %d producers): %s — %s@." v.Zeus.Lint.v_name
              (Zeus.Etype.kind_to_string v.Zeus.Lint.v_kind)
              v.Zeus.Lint.v_producers
              (Zeus.Lint.classification_to_string v.Zeus.Lint.v_class)
              v.Zeus.Lint.v_detail)
          report.Zeus.Lint.verdicts;
        report_diags findings;
        Fmt.pr "%s@." (Zeus.Lint.summary report));
    findings_status ~max_severity findings
  in
  command "lint"
    ~doc:
      "Static analysis: drive-conflict proofs, UNDEF reachability and dead \
       hardware, with stable Zxxx diagnostic codes."
    Term.(
      const run $ file_arg $ format_arg $ budget $ suppress_arg $ max_severity)

let prove_cmd =
  let depth =
    Arg.(
      value
      & opt int Zeus.Seqprove.default_depth
      & info [ "depth" ] ~docv:"K"
          ~doc:
            "Cycles of the bounded reset trajectory and the concrete \
             witness search.")
  in
  let budget =
    Arg.(
      value
      & opt int Zeus.Lint.default_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Case-split budget of the per-state exclusivity prover (per \
             multi-driven class per fixpoint iteration).")
  in
  let regs =
    Arg.(
      value & flag
      & info [ "regs" ]
          ~doc:
            "Also print the per-register reachability table (power-up \
             mask, fixpoint mask and the reset trajectory).")
  in
  let run file depth budget format regs suppress () =
    validate_suppress suppress;
    validate_count ~flag:"depth" depth;
    validate_count ~flag:"budget" budget;
    let rep = Zeus.Seqprove.run ~depth ~budget (design file) in
    let findings = drop_suppressed suppress rep.Zeus.Seqprove.sp_findings in
    let rep = { rep with Zeus.Seqprove.sp_findings = findings } in
    (match format with
    | `Json -> print_endline (Zeus.Seqprove.json_of_report rep)
    | `Text ->
        if regs then
          List.iter
            (fun (r : Zeus.Seqprove.reg_trace) ->
              Fmt.pr "register %-28s init=%s reachable=%s reset: %s@."
                r.Zeus.Seqprove.rt_name
                (Zeus.Absint.mask_to_string r.Zeus.Seqprove.rt_init)
                (Zeus.Absint.mask_to_string r.Zeus.Seqprove.rt_fix)
                (String.concat " -> "
                   (Array.to_list
                      (Array.map Zeus.Absint.mask_to_string
                         r.Zeus.Seqprove.rt_reset))))
            rep.Zeus.Seqprove.sp_regs;
        List.iter
          (fun (_, name) -> Fmt.pr "upgraded '%s': safe-sequential@." name)
          rep.Zeus.Seqprove.sp_upgraded;
        report_diags findings;
        List.iter
          (fun (w : Zeus.Seqprove.witness) ->
            Fmt.pr "witness '%s' conflicts at cycle %d:@."
              w.Zeus.Seqprove.w_name w.Zeus.Seqprove.w_cycle;
            Array.iteri
              (fun c pokes ->
                Fmt.pr "  cycle %d:%s@." c
                  (String.concat ""
                     (List.map
                        (fun (_, p, v) ->
                          Fmt.str " %s=%s" p (Zeus.Logic.to_string v))
                        pokes)))
              w.Zeus.Seqprove.w_trace)
          rep.Zeus.Seqprove.sp_witnesses;
        Fmt.pr "%s@." (Zeus.Seqprove.summary rep));
    findings_status findings
  in
  command "prove"
    ~doc:
      "Bounded sequential prover: k-cycle symbolic reachability over \
       register state — upgrades needs-runtime-check nets to \
       safe-sequential, lints reset coverage (Z601/Z602) and searches for \
       concrete conflict witnesses (Z603)."
    Term.(
      const run $ file_arg $ depth $ budget $ format_arg $ regs $ suppress_arg)

(* [layout] and [place] work on one top-level instance: [-t]'s, else the
   first top-level signal's *)
let top_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "t"; "top" ] ~doc:"Top-level signal (default: first).")

let top_instance design top =
  let name =
    match (top, design.Zeus.Elaborate.tops) with
    | Some t, _ | None, (t, _) :: _ -> t
    | None, [] -> rejected "no top-level signal"
  in
  match
    List.find_opt
      (fun (i : Zeus.Netlist.instance) -> i.Zeus.Netlist.ipath = name)
      (Zeus.Netlist.instances design.Zeus.Elaborate.netlist)
  with
  | Some i -> i
  | None -> usage "no such top-level signal: %s" name

let layout_cmd =
  let run file top () =
    let design = design file in
    print_string
      (Zeus.Render.to_string
         (Zeus.Floorplan.of_instance design (top_instance design top)));
    0
  in
  command "layout" ~doc:"ASCII floorplan of a top-level signal."
    Term.(const run $ file_arg $ top_arg)

let tree_cmd =
  let run file () =
    let depth_of path =
      String.fold_left (fun n c -> if c = '.' then n + 1 else n) 0 path
    in
    List.iter
      (fun (i : Zeus.Netlist.instance) ->
        if not i.Zeus.Netlist.is_function_call then begin
          let indent = String.make (2 * depth_of i.Zeus.Netlist.ipath) ' ' in
          let ports =
            String.concat " "
              (List.map
                 (fun (n, m, nets) ->
                   Fmt.str "%s%s:%d"
                     (match m with
                     | Zeus.Etype.In -> ">"
                     | Zeus.Etype.Out -> "<"
                     | Zeus.Etype.Inout -> "=")
                     n (List.length nets))
                 i.Zeus.Netlist.iports)
          in
          Fmt.pr "%s%s : %s  %s@." indent i.Zeus.Netlist.ipath
            i.Zeus.Netlist.itype ports
        end)
      (Zeus.Netlist.instances (design file).Zeus.Elaborate.netlist);
    0
  in
  command "tree"
    ~doc:"Instance hierarchy with port widths (> IN, < OUT, = INOUT)."
    Term.(const run $ file_arg)

let opt_cmd =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Also print the proof table: every net class the abstract \
             interpretation classified non-varying (const-0/1, stuck-X, \
             stuck-Z) or unobservable.")
  in
  let run file stats format () =
    let r = Zeus.Reduce.run (design file) in
    (match format with
    | `Json -> print_string (Zeus.Reduce.json_of_result r ^ "\n")
    | `Text ->
        Fmt.pr "%a@." Zeus.Reduce.pp_stats r.Zeus.Reduce.stats;
        if stats then
          List.iter
            (fun (_, name, cls, observable, producers) ->
              Fmt.pr "  %-8s %s (%d producer%s%s)@."
                (Zeus.Absint.classification_to_string cls)
                name producers
                (if producers = 1 then "" else "s")
                (if observable then "" else ", unobservable"))
            (Zeus.Reduce.proof_table r));
    0
  in
  command "opt"
    ~doc:
      "Four-valued abstract interpretation + proof-carrying netlist \
       reduction."
    Term.(const run $ file_arg $ stats $ format_arg)

let place_cmd =
  let run file top () =
    let design = design file in
    let inst = top_instance design top in
    let name = inst.Zeus.Netlist.ipath in
    match Zeus.Autoplace.place design name with
    | None -> rejected "nothing to place under %s" name
    | Some plan ->
        print_string (Zeus.Render.to_string plan);
        Fmt.pr "estimated wirelength: %d@." (Zeus.Autoplace.wirelength design plan);
        Fmt.pr "designer layout wirelength: %d@."
          (Zeus.Autoplace.wirelength design
             (Zeus.Floorplan.of_instance design inst));
        0
  in
  command "place"
    ~doc:"Automatic dataflow placement (vs the designer's layout)."
    Term.(const run $ file_arg $ top_arg)

let dot_cmd =
  let run file () =
    let g = Zeus.Graph.build (design file) in
    Fmt.pr "digraph zeus {@.";
    Array.iteri
      (fun i node ->
        let label, out =
          match node with
          | Zeus.Graph.Ngate { op; output; _ } ->
              (Zeus.Netlist.gate_op_to_string op, output)
          | Zeus.Graph.Ndriver { guard; target; _ } ->
              ((match guard with Some _ -> "IF" | None -> ":="), target)
        in
        Fmt.pr "  n%d [label=\"%s\"];@." i label;
        Fmt.pr "  n%d -> s%d;@." i out;
        List.iter
          (function
            | Zeus.Netlist.Snet s -> Fmt.pr "  s%d -> n%d;@." s i
            | Zeus.Netlist.Sconst _ -> ())
          (Zeus.Graph.node_inputs node))
      g.Zeus.Graph.nodes;
    (* names are per dense class id — exactly the ids the edges use *)
    Array.iteri
      (fun c name -> Fmt.pr "  s%d [shape=box,label=%S];@." c name)
      g.Zeus.Graph.names;
    Fmt.pr "}@.";
    0
  in
  command "dot" ~doc:"Semantics graph in Graphviz format."
    Term.(const run $ file_arg)

let export_cmd =
  let verilog =
    Arg.(
      value & flag
      & info [ "verilog" ]
          ~doc:"Emit structural Verilog (the only format, so far).")
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write to $(docv) instead of stdout.")
  in
  let testbench =
    Arg.(
      value & flag
      & info [ "testbench" ]
          ~doc:
            "Also emit a self-checking testbench that replays a random \
             Zeus stimulus deck and \\$fatals on any snapshot mismatch.")
  in
  let cycles =
    Arg.(
      value
      & opt int 20
      & info [ "n"; "cycles" ] ~docv:"N"
          ~doc:"Cycles of the $(b,--testbench) stimulus deck.")
  in
  let seed =
    Arg.(
      value
      & opt int 0x5eed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the $(b,--testbench) deck and of the RANDOM streams \
             (default: the simulator's default).")
  in
  let module_name =
    Arg.(
      value
      & opt (some string) None
      & info [ "module-name" ] ~docv:"NAME"
          ~doc:"Verilog module name (default: the first top-level signal).")
  in
  let run file verilog output testbench cycles seed module_name () =
    if not verilog then usage "no format selected; pass --verilog";
    validate_count ~flag:"cycles" cycles;
    let plan =
      match Zeus.Verilog.lower ?module_name (design file) with
      | Ok plan -> plan
      | Error e -> rejected "%s" (Zeus.Verilog.error_to_string e)
    in
    (* the bench is built before the first byte, so a rejected design
       or bench writes nothing and creates no file *)
    let bench =
      if not testbench then None
      else
        let deck = Zeus.Verilog.random_deck ~seed ~cycles plan in
        match Zeus.Verilog.testbench ~seed plan deck with
        | Ok tb -> Some tb
        | Error msg -> rejected "testbench: %s" msg
    in
    let write out =
      Zeus.Verilog.write plan out;
      Option.iter
        (fun tb ->
          out "\n";
          out tb)
        bench
    in
    (match output with
    | None -> write print_string
    | Some path -> stream_file path write);
    0
  in
  command "export"
    ~doc:
      "Lower a design to synthesizable structural Verilog: four-valued nets \
       as 0/1/x/z, guarded drivers as conditional continuous assigns with \
       explicit 1'bz release, registers as clocked always-blocks.  Designs \
       with combinational cycles cannot be exported."
    Term.(
      const run $ file_arg $ verilog $ output $ testbench $ cycles $ seed
      $ module_name)

let fuzz_cmd =
  let count =
    Arg.(
      value
      & opt int 100
      & info [ "n"; "count" ] ~docv:"N" ~doc:"Number of random programs to test.")
  in
  let seed =
    Arg.(
      value
      & opt int 0
      & info [ "seed" ] ~docv:"SEED"
          ~doc:
            "Base seed.  Case $(i,i) of a run is derived from (SEED, $(i,i)) \
             alone, so a reported failure replays with the same seed and a \
             count that covers its index.")
  in
  let corpus_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus-dir" ] ~docv:"DIR"
          ~doc:
            "Write shrunk reproducers (repro_<seed>_<index>.zeus plus a .pokes \
             script) into $(docv).")
  in
  let shrink_budget =
    Arg.(
      value
      & opt int 600
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Maximum oracle evaluations spent shrinking one failure.")
  in
  let comb_only =
    Arg.(
      value & flag
      & info [ "comb" ]
          ~doc:
            "Restrict to the combinational subset (no registers, chains, \
             multiplex drivers or RSET).")
  in
  let quiet =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress progress output.")
  in
  let batch =
    Arg.(
      value & flag
      & info [ "batch" ]
          ~doc:
            "Shard the detection phase (generate + oracle matrix) across \
             $(b,--jobs) domains; shrinking and repro writing stay serial, \
             so the output is byte-identical to a serial run.")
  in
  let jobs =
    Arg.(
      value
      & opt int 4
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Domains for $(b,--batch) detection (default 4).")
  in
  let run count seed corpus_dir shrink_budget comb_only quiet batch jobs () =
    validate_count ~flag:"count" count;
    validate_jobs jobs;
    validate_count ~flag:"shrink-budget" shrink_budget;
    let profile = if comb_only then Zeus.Gen.comb else Zeus.Gen.full in
    let log = if quiet then ignore else fun s -> Fmt.epr "%s@." s in
    if (not quiet) && not (Zeus.Oracle.iverilog_available ()) then
      Fmt.epr
        "note: iverilog not found — oracle O9 (verilog) runs structural \
         checks only@.";
    let summary =
      Zeus.Fuzz.run ~profile ~shrink_budget ~log ~batch ~jobs ~count ~seed
        ~corpus_dir ()
    in
    match summary.Zeus.Fuzz.failures with
    | [] ->
        if not quiet then
          Fmt.pr "fuzz: %d cases, 0 divergences (seed %d)@."
            summary.Zeus.Fuzz.tested seed;
        0
    | failures ->
        List.iter
          (fun (f : Zeus.Fuzz.failure) ->
            Fmt.pr "case %d (seed %d): %a@." f.Zeus.Fuzz.index f.Zeus.Fuzz.seed
              Zeus.Oracle.pp_divergence f.Zeus.Fuzz.divergence;
            (match f.Zeus.Fuzz.zeus_file with
            | Some path -> Fmt.pr "  repro: %s@." path
            | None ->
                Fmt.pr "%s"
                  (Zeus.Gen.print_case (f.Zeus.Fuzz.prog, f.Zeus.Fuzz.stim))))
          failures;
        Fmt.pr "fuzz: %d cases, %d divergences (seed %d)@."
          summary.Zeus.Fuzz.tested (List.length failures) seed;
        exit_failed
  in
  command "fuzz"
    ~doc:
      "Differential fuzzing: random full-language programs checked against \
       the oracle matrix (pretty-print round trip, re-elaboration, all \
       simulator engines, lint vs runtime conflicts), with shrinking."
    Term.(
      const run $ count $ seed $ corpus_dir $ shrink_budget $ comb_only $ quiet
      $ batch $ jobs)

let corpus_cmd =
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"NAME" ~doc:"Example name (omit to list).")
  in
  let all = Zeus.Corpus.all_named @ Zeus.Corpus_fsm.all_named in
  let run name () =
    match name with
    | None ->
        List.iter (fun (n, _) -> print_endline n) all;
        0
    | Some n -> (
        match List.assoc_opt n all with
        | Some src ->
            print_string src;
            0
        | None -> usage "unknown example %S; try 'zeusc corpus'" n)
  in
  command "corpus" ~doc:"Print a built-in example program."
    Term.(const run $ name_arg)

let () =
  let info =
    Cmd.info "zeusc" ~version:"1.0.0" ~exits
      ~doc:"Compiler, simulator and floorplanner for the Zeus HDL (DAC 1983)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd; pp_cmd; stats_cmd; tree_cmd; lint_cmd; prove_cmd;
            sim_cmd; layout_cmd; place_cmd; opt_cmd; dot_cmd;
            export_cmd; fuzz_cmd; corpus_cmd;
          ]))
