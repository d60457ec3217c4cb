(* zeusc: command-line driver for the Zeus implementation.

     zeusc check FILE.zeus        parse + elaborate + static checks
     zeusc pp FILE.zeus           parse and pretty-print back to Zeus
     zeusc stats FILE.zeus        netlist statistics after elaboration
     zeusc sim FILE.zeus -n 10    simulate N cycles (optionally with pokes)
     zeusc layout FILE.zeus -t T  ASCII floorplan of top-level signal T
     zeusc dot FILE.zeus          semantics graph in Graphviz format
     zeusc corpus NAME            print a built-in example program
*)

open Cmdliner

(* the reason of a Sys_error about [path], without its "path: " prefix *)
let sys_error_reason path msg =
  let prefix = path ^ ": " in
  if String.starts_with ~prefix msg then
    String.sub msg (String.length prefix)
      (String.length msg - String.length prefix)
  else msg

(* every input file goes through here: a missing or unreadable file is
   a usage error (exit 2) named after the subcommand, not an uncaught
   Sys_error *)
let load ~cmd path =
  match path with
  | "-" -> In_channel.input_all stdin
  | p -> (
      try In_channel.with_open_bin p In_channel.input_all
      with Sys_error msg ->
        Fmt.epr "%s: cannot read '%s': %s@." cmd p (sys_error_reason p msg);
        exit 2)

let report_diags diags =
  List.iter (fun d -> Fmt.epr "%a@." Zeus.Diag.pp d) diags

(* every subcommand with --suppress validates against the one Z-code
   registry the same way: unknown codes are a usage error (exit 2) *)
let validate_suppress ~cmd suppress =
  match Zeus.Diag.Code.unknown suppress with
  | [] -> ()
  | unknown ->
      Fmt.epr "%s: unknown diagnostic code%s %s for --suppress; valid codes: %s@."
        cmd
        (if List.length unknown > 1 then "s" else "")
        (String.concat ", " unknown)
        (Zeus.Diag.Code.valid_codes_message ());
      exit 2

(* a negative --depth or --budget is a usage error (exit 2), reported
   the same way as an unknown --suppress code *)
let validate_non_negative ~cmd ~flag n =
  if n < 0 then begin
    Fmt.epr "%s: --%s must be a non-negative integer, got %d@." cmd flag n;
    exit 2
  end

let drop_suppressed suppress diags =
  List.filter
    (fun (d : Zeus.Diag.t) ->
      match d.Zeus.Diag.code with
      | Some c -> not (List.mem c suppress)
      | None -> true)
    diags

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Zeus source file ('-' for stdin).")

(* ------------------------------------------------------------------ *)

let default_cache_dir () =
  Filename.concat (Filename.get_temp_dir_name ()) "zeus-summary-cache"

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
  let cache_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Directory of the persistent summary cache (default: \
             zeus-summary-cache under the system temp directory).")
  in
  let no_cache =
    Arg.(
      value & flag
      & info [ "no-cache" ] ~doc:"Disable the persistent summary cache.")
  in
  let run file modular contracts cache_dir no_cache =
    let src = load ~cmd:"check" file in
    if modular then begin
      match Zeus.Parser.program src with
      | None, bag ->
          report_diags (Zeus.Diag.Bag.all bag);
          1
      | Some prog, _ ->
          let cache_dir =
            if no_cache then None
            else Some (Option.value cache_dir ~default:(default_cache_dir ()))
          in
          let r = Zeus.Summary.analyze ?cache_dir ~src prog in
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
          if
            List.exists
              (fun (d : Zeus.Diag.t) ->
                d.Zeus.Diag.severity = Zeus.Diag.Error)
              r.Zeus.Summary.findings
          then 1
          else 0
    end
    else
      match Zeus.compile src with
      | Ok design ->
          Fmt.pr "OK: %s@." (Zeus.Netlist.stats design.Zeus.Elaborate.netlist);
          let warnings =
            List.filter
              (fun (d : Zeus.Diag.t) ->
                d.Zeus.Diag.severity = Zeus.Diag.Warning)
              (Zeus.Diag.Bag.all design.Zeus.Elaborate.diags)
          in
          report_diags warnings;
          0
      | Error diags ->
          report_diags diags;
          1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse, elaborate and statically check a program.")
    Term.(const run $ file_arg $ modular $ contracts $ cache_dir $ no_cache)

let pp_cmd =
  let run file =
    match Zeus.Parser.program (load ~cmd:"pp" file) with
    | Some prog, _ ->
        print_endline (Zeus.Pretty.program_to_string prog);
        0
    | None, bag ->
        report_diags (Zeus.Diag.Bag.all bag);
        1
  in
  Cmd.v
    (Cmd.info "pp" ~doc:"Parse and pretty-print back to Zeus concrete syntax.")
    Term.(const run $ file_arg)

let stats_cmd =
  let run file =
    match Zeus.compile (load ~cmd:"stats" file) with
    | Ok design ->
        let nl = design.Zeus.Elaborate.netlist in
        Fmt.pr "%a" Zeus.Stats.pp (Zeus.Stats.of_design design);
        List.iter
          (fun (i : Zeus.Netlist.instance) ->
            if not i.Zeus.Netlist.is_function_call then
              Fmt.pr "  instance %-30s : %s@." i.Zeus.Netlist.ipath
                i.Zeus.Netlist.itype)
          (Zeus.Netlist.instances nl);
        0
    | Error diags ->
        report_diags diags;
        1
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Netlist statistics after elaboration.")
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

(* a poke of 0 or 1 sets one bit, so it needs a single-bit path *)
let bit_poke_error path v width =
  Printf.sprintf "%s=%d: 0/1 pokes a single bit, but %s is %d bits wide" path v
    path width

(* The --batch stimulus file: a [run [seed=N] [cycles=N]] header starts
   each independent run, every following line is one cycle of
   space-separated path=value pokes ('-' for a cycle with no new pokes;
   '#' comments and blank lines are skipped; a line's leading and
   trailing blanks, a CR included, are ignored).  A run's cycle count is
   the explicit [cycles=N] if given, else its number of stimulus lines.
   Values follow the -p convention: 0/1 poke a single bit, anything
   larger pokes BIN(value, width) MSB-first.  Raises [Failure] with a
   line-numbered message on a malformed file, an unknown path or a 0/1
   poke on a multi-bit path.

   Decks run to megabytes, so the reader makes one pass over [src] by
   index: no line, token or trimmed copies.  Each distinct path is
   resolved once and kept as one shared string, and every 0/1 poke of
   it is one of two shared (path, bit list) pairs. *)
let parse_batch_file design ~watch src =
  let len = String.length src in
  let runs = ref [] and cur = ref None and lineno = ref 0 in
  let fail fmt = Printf.ksprintf (fun m ->
      failwith (Printf.sprintf "line %d: %s" !lineno m)) fmt in
  let sub i j = String.sub src i (j - i) in
  (* [String.trim]'s blanks; tokens are separated by spaces only *)
  let blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012' || c = '\n' in
  let is i j lit = j - i = String.length lit && sub i j = lit in
  (* the end of the token starting at [i], within a line ending at [e] *)
  let token_end i e =
    let j = ref i in
    while !j < e && src.[!j] <> ' ' do incr j done;
    !j
  in
  (* fold [f] over the tokens of [i, e) in order *)
  let rec fold_tokens f acc i e =
    if i >= e then acc
    else if src.[i] = ' ' then fold_tokens f acc (i + 1) e
    else
      let j = token_end i e in
      fold_tokens f (f acc i j) j e
  in
  (* the position of the '=' of the key=value token [i, j) *)
  let split_kv i j =
    match String.index_from_opt src i '=' with
    | Some k when k < j -> k
    | _ -> fail "expected key=value, got %S" (sub i j)
  in
  let zero = [ Zeus.Logic.Zero ] and one = [ Zeus.Logic.One ] in
  (* path -> its width and its shared 0 and 1 pokes *)
  let paths = Hashtbl.create 64 in
  let lookup path =
    match Hashtbl.find_opt paths path with
    | Some e -> e
    | None -> (
        match Zeus.Elaborate.resolve_path design path with
        | Error e -> fail "%s" e
        | Ok nets ->
            let e = (List.length nets, (path, zero), (path, one)) in
            Hashtbl.add paths path e;
            e)
  in
  let poke acc i j =
    let k = split_kv i j in
    let v = sub (k + 1) j in
    match int_of_string_opt v with
    | None -> fail "poke value must be an integer, got %S" v
    | Some v ->
        let w, ((path, _) as p0), p1 = lookup (sub i k) in
        if v > 1 then
          (path, Zeus.Cval.sctree_leaves (Zeus.Cval.bin v w)) :: acc
        else if w = 1 then (if v = 1 then p1 else p0) :: acc
        else fail "%s" (bit_poke_error path v w)
  in
  let flush () =
    match !cur with
    | None -> ()
    | Some (seed, cycles, rev_stim) ->
        let stim = Array.of_list (List.rev rev_stim) in
        let cyc = Option.value cycles ~default:(Array.length stim) in
        runs :=
          { Zeus.Sim.br_stim = stim; br_cycles = cyc; br_seed = seed;
            br_watch = watch }
          :: !runs;
        cur := None
  in
  let header i e =
    flush ();
    let seed = ref None and cycles = ref None in
    fold_tokens
      (fun () i j ->
        let k = split_kv i j in
        let v = sub (k + 1) j in
        if is i k "seed" then (
          match int_of_string_opt v with
          | Some n -> seed := Some n
          | None -> fail "seed must be an integer, got %S" v)
        else if is i k "cycles" then (
          match int_of_string_opt v with
          | Some n when n >= 0 -> cycles := Some n
          | _ -> fail "cycles must be a non-negative integer")
        else fail "unknown run option %S" (sub i k))
      () i e;
    cur := Some (!seed, !cycles, [])
  in
  let line b e =
    let b = ref b and e = ref e in
    while !b < !e && blank src.[!b] do incr b done;
    while !e > !b && blank src.[!e - 1] do decr e done;
    let b = !b and e = !e in
    if b = e || src.[b] = '#' then ()
    else
      let t = token_end b e in
      if is b t "run" then header t e
      else
        match !cur with
        | None -> fail "stimulus line before any 'run' header"
        | Some (seed, cycles, stim) ->
            let pokes =
              if is b e "-" then [] else List.rev (fold_tokens poke [] b e)
            in
            cur := Some (seed, cycles, pokes :: stim)
  in
  (* lines end at '\n'; like [String.split_on_char], a final '\n' is
     followed by one (empty) line *)
  let start = ref 0 in
  while !start <= len do
    let stop =
      match String.index_from_opt src !start '\n' with
      | Some i -> i
      | None -> len
    in
    incr lineno;
    line !start stop;
    start := stop + 1
  done;
  flush ();
  List.rev !runs

let sim_cmd =
  let cycles =
    Arg.(value & opt int 4 & info [ "n"; "cycles" ] ~doc:"Cycles to simulate.")
  in
  let pokes =
    Arg.(
      value
      & opt_all poke_conv []
      & info [ "p"; "poke" ] ~doc:"Input poke, e.g. -p adder.a=5 (MSB-first).")
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
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the firing order of the last cycle.")
  in
  let wave =
    Arg.(
      value & flag
      & info [ "wave" ] ~doc:"Render the watched signals as an ASCII waveform.")
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
          ~doc:"Dump the watched signals as a VCD waveform to FILE.")
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
             packs runs $(b,--lanes) at a time.")
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
             signals after its final cycle and its runtime errors; the \
             per-cycle options (watch printing, waves, VCD, trace, \
             explain, activity) do not apply.")
  in
  let lanes =
    Arg.(
      value
      & opt int 8
      & info [ "lanes" ] ~docv:"K"
          ~doc:
            "With $(b,--batch --engine compiled): how many equal-length \
             runs one bytecode pass evaluates at once (default 8).  \
             Results are bit-identical at any value.")
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
  let run_batch_mode design ~engine ~jobs ~lanes ~optimize ~discharged ~stats
      ~watch bf =
    match
      try Ok (parse_batch_file design ~watch (load ~cmd:"sim" bf))
      with Failure m -> Error m
    with
    | Error m ->
        Fmt.epr "batch file %s: %s@." bf m;
        1
    | Ok [] ->
        Fmt.epr "batch file %s: no runs@." bf;
        1
    | Ok runs ->
        let tmpl = Zeus.Sim.create ~engine ?jobs ~optimize ?discharged design in
        let results, st = Zeus.Sim.run_batch ~lanes tmpl runs in
        List.iteri
          (fun i (res : Zeus.Sim.batch_result) ->
            Fmt.pr "run %d:" i;
            List.iter
              (fun (p, bits) ->
                Fmt.pr " %s=%a" p
                  Fmt.(list ~sep:nop Zeus.Logic.pp)
                  bits)
              res.Zeus.Sim.bres_watched;
            Fmt.pr "@.";
            List.iter
              (fun (e : Zeus.Sim.runtime_error) ->
                Fmt.pr "runtime error (run %d, cycle %d) [%s] %s: %s@." i
                  e.Zeus.Sim.err_cycle e.Zeus.Sim.err_code e.Zeus.Sim.err_net
                  e.Zeus.Sim.err_message)
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
      engine jobs stats optimize discharge batch_file lanes =
    match Zeus.compile (load ~cmd:"sim" file) with
    | Error diags ->
        report_diags diags;
        1
    | Ok design -> (
        (* a -p/-w path that names nothing, or a 0/1 poke on a
           multi-bit path, is a usage error, caught before the first
           cycle rather than half-way through a line *)
        let usage msg =
          Fmt.epr "sim: %s@." msg;
          exit 2
        in
        let width path =
          match Zeus.Elaborate.resolve_path design path with
          | Ok nets -> List.length nets
          | Error msg -> usage msg
        in
        List.iter
          (fun (path, v) ->
            let w = width path in
            if v <= 1 && w <> 1 then usage (bit_poke_error path v w))
          pokes;
        List.iter (fun path -> ignore (width path)) peeks;
        let discharged =
          if not discharge then None
          else begin
            let arr =
              Zeus.Seqprove.discharged design (Zeus.Seqprove.run design)
            in
            Some (fun id -> id >= 0 && id < Array.length arr && arr.(id))
          end
        in
        match batch_file with
        | Some bf ->
            run_batch_mode design ~engine ~jobs ~lanes ~optimize ~discharged
              ~stats ~watch:peeks bf
        | None ->
        (* so are an --explain path and an unwritable VCD file, which
           would otherwise fail only after the run *)
        List.iter (fun path -> ignore (width path)) explain;
        (match vcd_out with
        | Some path when peeks <> [] -> (
            try close_out (open_out path)
            with Sys_error msg ->
              usage
                (Fmt.str "cannot write '%s': %s" path
                   (sys_error_reason path msg)))
        | _ -> ());
        let sim =
          Zeus.Sim.create ~engine ~optimize ?discharged design
        in
        List.iter (fun (p, v) ->
            if v <= 1 then Zeus.Sim.poke sim p [ (if v = 1 then Zeus.Logic.One else Zeus.Logic.Zero) ]
            else Zeus.Sim.poke_int sim p v)
          pokes;
        if do_reset then Zeus.Sim.reset sim;
        Zeus.Sim.set_trace sim trace;
        let waves =
          if wave && peeks <> [] then Some (Zeus.Wave.create sim peeks)
          else None
        in
        let vcd =
          match vcd_out with
          | Some _ when peeks <> [] -> Some (Zeus.Vcd.create sim peeks)
          | _ -> None
        in
        for c = 1 to cycles do
          Zeus.Sim.step sim;
          Option.iter Zeus.Wave.sample waves;
          Option.iter Zeus.Vcd.sample vcd;
          if peeks <> [] && waves = None then begin
            Fmt.pr "cycle %d:" c;
            List.iter
              (fun p ->
                Fmt.pr " %s=%a" p
                  Fmt.(list ~sep:nop Zeus.Logic.pp)
                  (Zeus.Sim.peek sim p))
              peeks;
            Fmt.pr "@."
          end
        done;
        Option.iter (fun w -> print_string (Zeus.Wave.render w)) waves;
        (match (vcd, vcd_out) with
        | Some v, Some path ->
            Zeus.Vcd.to_file v path;
            Fmt.pr "VCD written to %s@." path
        | _ -> ());
        if activity then
          List.iter
            (fun (net, n) -> Fmt.pr "activity %6d %s@." n net)
            (Zeus.Sim.activity ~top:15 sim);
        List.iter
          (fun path ->
            match Zeus.Explain.explain sim path ~depth:2 with
            | Ok entries -> Fmt.pr "%a@." Zeus.Explain.pp entries
            | Error msg -> usage msg)
          explain;
        if trace then
          List.iter
            (fun (n, v) -> Fmt.pr "  fire %s = %a@." n Zeus.Logic.pp v)
            (Zeus.Sim.trace_last_cycle sim);
        if stats then begin
          Fmt.pr "node visits: %d@." (Zeus.Sim.node_visits sim);
          (match Zeus.Sim.compiled_stats sim with
          | None -> ()
          | Some s ->
              Fmt.pr
                "compiled: ops=%d scalar=%d vector=%d vector-lanes=%d \
                 visits-per-cycle=%d check-ops=%d discharged-ops=%d@."
                s.Zeus.Sim.c_ops s.Zeus.Sim.c_scalar_ops
                s.Zeus.Sim.c_vector_ops s.Zeus.Sim.c_vector_lanes
                s.Zeus.Sim.c_visits_per_cycle s.Zeus.Sim.c_check_ops
                s.Zeus.Sim.c_discharged_ops;
              Fmt.pr "compile time: %.3fs@." s.Zeus.Sim.c_compile_secs)
        end;
        List.iter
          (fun (e : Zeus.Sim.runtime_error) ->
            Fmt.pr "runtime error (cycle %d) [%s] %s: %s@." e.Zeus.Sim.err_cycle
              e.Zeus.Sim.err_code e.Zeus.Sim.err_net e.Zeus.Sim.err_message)
          (Zeus.Sim.runtime_errors sim);
        0)
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Simulate a design for N cycles.")
    Term.(
      const run $ file_arg $ cycles $ pokes $ peeks $ do_reset $ trace $ wave
      $ explain $ activity $ vcd_out $ engine $ jobs $ stats
      $ optimize $ discharge $ batch_file $ lanes)

let lint_cmd =
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let budget =
    Arg.(
      value
      & opt int Zeus.Lint.default_budget
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Case-split budget of the drive-conflict prover (per driver \
             pair).  Exhausting it demotes the net to needs-runtime-check.")
  in
  let suppress =
    Arg.(
      value
      & opt_all string []
      & info [ "suppress" ] ~docv:"CODE"
          ~doc:"Drop findings with this diagnostic code (repeatable).")
  in
  let modular =
    Arg.(
      value & flag
      & info [ "modular" ]
          ~doc:
            "Run the modular summary analysis first and skip the \
             drive-conflict prover on nets owned by types it proved \
             conflict-safe at their instantiated parameters.")
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
  let sequential =
    Arg.(
      value & flag
      & info [ "sequential" ]
          ~doc:
            "Run the bounded sequential prover ($(b,zeusc prove)) as a \
             pre-pass: needs-runtime-check nets whose drivers are \
             exclusive in every register state reachable from power-up \
             are upgraded to safe-sequential, and the Z6xx \
             reset-coverage findings are appended.")
  in
  let run file format budget suppress max_severity modular sequential =
    validate_suppress ~cmd:"lint" suppress;
    validate_non_negative ~cmd:"lint" ~flag:"budget" budget;
    let src = load ~cmd:"lint" file in
    match Zeus.compile src with
    | Error diags ->
        report_diags diags;
        1
    | Ok design ->
        let proven_safe, modular_findings =
          if not modular then (None, [])
          else
            match Zeus.Parser.program src with
            | Some prog, _ ->
                let r = Zeus.Summary.analyze ~symbolic:false prog in
                let proven = r.Zeus.Summary.proven_conflict_safe in
                Fmt.pr "modular pre-pass: %s@." (Zeus.Summary.summary_line r);
                (Some (fun t -> List.mem t proven), r.Zeus.Summary.findings)
            | None, _ -> (None, [])
        in
        let report = Zeus.Lint.run ~budget ?proven_safe design in
        let report =
          { report with
            Zeus.Lint.findings = modular_findings @ report.Zeus.Lint.findings }
        in
        let report, seq_summary =
          if not sequential then (report, None)
          else
            let sp = Zeus.Seqprove.run ~budget ~lint:report design in
            let merged = sp.Zeus.Seqprove.sp_lint in
            ( {
                merged with
                Zeus.Lint.findings =
                  merged.Zeus.Lint.findings @ sp.Zeus.Seqprove.sp_findings;
              },
              Some (Zeus.Seqprove.summary sp) )
        in
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
            Option.iter (Fmt.pr "sequential: %s@.") seq_summary;
            Fmt.pr "%s@." (Zeus.Lint.summary report));
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
        if fail then 1 else 0
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis: drive-conflict proofs, UNDEF reachability and \
          dead hardware, with stable Zxxx diagnostic codes.")
    Term.(
      const run $ file_arg $ format $ budget $ suppress $ max_severity
      $ modular $ sequential)

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
             driver pair per fixpoint iteration).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,text) (default) or $(b,json).")
  in
  let regs =
    Arg.(
      value & flag
      & info [ "regs" ]
          ~doc:
            "Also print the per-register reachability table (power-up \
             mask, fixpoint mask and the reset trajectory).")
  in
  let suppress =
    Arg.(
      value
      & opt_all string []
      & info [ "suppress" ] ~docv:"CODE"
          ~doc:"Drop findings with this diagnostic code (repeatable).")
  in
  let run file depth budget format regs suppress =
    validate_suppress ~cmd:"prove" suppress;
    validate_non_negative ~cmd:"prove" ~flag:"depth" depth;
    validate_non_negative ~cmd:"prove" ~flag:"budget" budget;
    match Zeus.compile (load ~cmd:"prove" file) with
    | Error diags ->
        report_diags diags;
        1
    | Ok design ->
        let rep = Zeus.Seqprove.run ~depth ~budget design in
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
        if
          List.exists
            (fun (d : Zeus.Diag.t) -> d.Zeus.Diag.severity = Zeus.Diag.Error)
            findings
        then 1
        else 0
  in
  Cmd.v
    (Cmd.info "prove"
       ~doc:
         "Bounded sequential prover: k-cycle symbolic reachability over \
          register state — upgrades needs-runtime-check nets to \
          safe-sequential, lints reset coverage (Z601/Z602) and searches \
          for concrete conflict witnesses (Z603).")
    Term.(const run $ file_arg $ depth $ budget $ format $ regs $ suppress)

let layout_cmd =
  let top =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "top" ] ~doc:"Top-level signal (default: first).")
  in
  let run file top =
    match Zeus.compile (load ~cmd:"layout" file) with
    | Error diags ->
        report_diags diags;
        1
    | Ok design -> (
        let name =
          match top with
          | Some t -> Some t
          | None -> (
              match design.Zeus.Elaborate.tops with
              | (n, _) :: _ -> Some n
              | [] -> None)
        in
        match name with
        | None ->
            Fmt.epr "no top-level signal@.";
            1
        | Some name -> (
            match Zeus.Floorplan.of_design design name with
            | Some plan ->
                print_string (Zeus.Render.to_string plan);
                0
            | None ->
                Fmt.epr "no such top-level signal: %s@." name;
                1))
  in
  Cmd.v
    (Cmd.info "layout" ~doc:"ASCII floorplan of a top-level signal.")
    Term.(const run $ file_arg $ top)

let tree_cmd =
  let run file =
    match Zeus.compile (load ~cmd:"tree" file) with
    | Error diags ->
        report_diags diags;
        1
    | Ok design ->
        let nl = design.Zeus.Elaborate.netlist in
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
          (Zeus.Netlist.instances nl);
        0
  in
  Cmd.v
    (Cmd.info "tree"
       ~doc:"Instance hierarchy with port widths (> IN, < OUT, = INOUT).")
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
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,text) (default) or $(b,json).")
  in
  let run file stats format =
    match Zeus.compile (load ~cmd:"opt" file) with
    | Error diags ->
        report_diags diags;
        1
    | Ok design ->
        let r = Zeus.Reduce.run design in
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
  Cmd.v
    (Cmd.info "opt"
       ~doc:
         "Four-valued abstract interpretation + proof-carrying netlist \
          reduction.")
    Term.(const run $ file_arg $ stats $ format)

let place_cmd =
  let top =
    Arg.(
      value
      & opt (some string) None
      & info [ "t"; "top" ] ~doc:"Top-level signal (default: first).")
  in
  let run file top =
    match Zeus.compile (load ~cmd:"place" file) with
    | Error diags ->
        report_diags diags;
        1
    | Ok design -> (
        let name =
          match top with
          | Some t -> Some t
          | None -> (
              match design.Zeus.Elaborate.tops with
              | (n, _) :: _ -> Some n
              | [] -> None)
        in
        match name with
        | None ->
            Fmt.epr "no top-level signal@.";
            1
        | Some name -> (
            match Zeus.Autoplace.place design name with
            | Some plan ->
                print_string (Zeus.Render.to_string plan);
                Fmt.pr "estimated wirelength: %d@."
                  (Zeus.Autoplace.wirelength design plan);
                (match Zeus.Floorplan.of_design design name with
                | Some explicit ->
                    Fmt.pr "designer layout wirelength: %d@."
                      (Zeus.Autoplace.wirelength design explicit)
                | None -> ());
                0
            | None ->
                Fmt.epr "nothing to place under %s@." name;
                1))
  in
  Cmd.v
    (Cmd.info "place"
       ~doc:"Automatic dataflow placement (vs the designer's layout).")
    Term.(const run $ file_arg $ top)

let dot_cmd =
  let run file =
    match Zeus.compile (load ~cmd:"dot" file) with
    | Error diags ->
        report_diags diags;
        1
    | Ok design ->
        let g = Zeus.Graph.build design in
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
  Cmd.v
    (Cmd.info "dot" ~doc:"Semantics graph in Graphviz format.")
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
  let run file verilog output testbench cycles seed module_name =
    if not verilog then begin
      Fmt.epr "export: no format selected; pass --verilog@.";
      2
    end
    else
      match Zeus.compile (load ~cmd:"export" file) with
      | Error diags ->
          report_diags diags;
          1
      | Ok design -> (
          match Zeus.Verilog.export ?module_name design with
          | Error e ->
              Fmt.epr "export: %s@." (Zeus.Verilog.error_to_string e);
              1
          | Ok v -> (
              let tb =
                if not testbench then Ok ""
                else
                  let deck = Zeus.Verilog.random_deck ~seed ~cycles v in
                  Zeus.Verilog.testbench ~seed v deck
              in
              match tb with
              | Error msg ->
                  Fmt.epr "export: testbench: %s@." msg;
                  1
              | Ok tb ->
                  let text =
                    if testbench then v.Zeus.Verilog.text ^ "\n" ^ tb
                    else v.Zeus.Verilog.text
                  in
                  (match output with
                  | None -> print_string text
                  | Some path ->
                      Out_channel.with_open_bin path (fun oc ->
                          Out_channel.output_string oc text));
                  0))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Lower a design to synthesizable structural Verilog: four-valued \
          nets as 0/1/x/z, guarded drivers as conditional continuous \
          assigns with explicit 1'bz release, registers as clocked \
          always-blocks.  Designs with combinational cycles cannot be \
          exported.")
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
  let run count seed corpus_dir shrink_budget comb_only quiet batch jobs =
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
        1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: random full-language programs checked against \
          the oracle matrix (pretty-print round trip, re-elaboration, all \
          simulator engines, lint vs runtime conflicts), with shrinking.")
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
  let run name =
    match name with
    | None ->
        List.iter (fun (n, _) -> print_endline n) all;
        0
    | Some n -> (
        match List.assoc_opt n all with
        | Some src ->
            print_string src;
            0
        | None ->
            Fmt.epr "unknown example %S; try 'zeusc corpus'@." n;
            1)
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"Print a built-in example program.")
    Term.(const run $ name_arg)

let () =
  let info =
    Cmd.info "zeusc" ~version:"1.0.0"
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
