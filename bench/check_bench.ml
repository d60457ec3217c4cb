(* Bench-regression guard: compare a freshly generated smoke-bench JSON
   (BENCH_sim.json, BENCH_modular.json, BENCH_opt.json,
   BENCH_compiled.json, BENCH_batch.json, BENCH_prove.json) against its
   committed baseline under bench/baselines/.

   Only *deterministic* counters are compared — numeric fields whose
   names mention visits, summaries, nets, cycles, gates, drivers,
   folded, merged, ops, lanes, runs, jobs, groups, splits or words — with a
   relative tolerance
   (default 25%).  Wall-clock fields ("seconds", "speedup", and the
   derived "*_runs_per_sec" rates) and boolean agreement flags are
   ignored for tolerance purposes, except that any
   "snapshots_agree": false in the current file is always an error.

   A counter present in the baseline but absent from the current file
   is a hard failure.

   Usage: check_bench [--tolerance 0.25] BASELINE CURRENT
          check_bench --update-baselines [--baselines-dir DIR] [FILE...]

   The second form rewrites the committed baselines from a fresh run
   instead of the hand-edit workflow: each FILE (default: every
   BENCH_*.json in the current directory) is copied over
   DIR/<basename> (default bench/baselines/).  Run the smoke bench
   first so the counters reflect the smoke-mode workload sizes the CI
   guard compares against.

   The parser is deliberately tiny: it scans for "key": value pairs and
   keeps a running path of the enclosing "design"/"family" labels so a
   mismatch is reported with context.  No JSON library is needed (or
   available in this tree). *)

let tolerance = ref 0.25

let has_sub k sub =
  let n = String.length sub and l = String.length k in
  let rec go i = i + n <= l && (String.sub k i n = sub || go (i + 1)) in
  go 0

(* checked counters: deterministic work metrics, never wall-clock.
   "runs"/"jobs"/"groups" cover the batch engine's sharding counters,
   "splits" the case splits of the drive-conflict provers, "words" the
   deck reader's minor-heap words per poke; the per_sec
   guard keeps the derived rate fields (cold_runs_per_sec
   etc.) out, since those are wall-clock in disguise. *)
let checked_key k =
  let mem = has_sub k in
  (not (mem "per_sec"))
  && (mem "visits" || mem "summaries" || mem "nets" || mem "cycles"
     || mem "gates" || mem "drivers" || mem "folded" || mem "merged"
     || mem "ops" || mem "lanes" || mem "runs" || mem "jobs"
     || mem "groups" || mem "splits" || mem "words")

type entry = {
  path : string; (* "design-label/key" *)
  value : float;
}

(* scan "key": value pairs; strings update the context label, numbers
   become entries, booleans are returned separately *)
(* a missing or unreadable file (e.g. a baseline that was never
   committed, or a bench step that silently produced nothing) is a
   named failure, not an uncaught Sys_error traceback *)
let parse_file file =
  let ic =
    try open_in file
    with Sys_error msg ->
      Printf.eprintf "REGRESSION %s: cannot read file (%s)\n" file msg;
      exit 1
  in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let entries = ref [] and false_agrees = ref [] in
  let label = ref "" in
  let n = String.length s in
  let i = ref 0 in
  let read_string () =
    (* cursor on the opening quote *)
    incr i;
    let start = !i in
    while !i < n && s.[!i] <> '"' do incr i done;
    let str = String.sub s start (!i - start) in
    incr i;
    str
  in
  while !i < n do
    if s.[!i] = '"' then begin
      let key = read_string () in
      (* skip whitespace; a ':' means this was a key *)
      while !i < n && (s.[!i] = ' ' || s.[!i] = '\n') do incr i done;
      if !i < n && s.[!i] = ':' then begin
        incr i;
        while !i < n && (s.[!i] = ' ' || s.[!i] = '\n') do incr i done;
        if !i < n then
          if s.[!i] = '"' then begin
            let v = read_string () in
            if key = "design" || key = "family" then label := v
          end
          else if s.[!i] = 't' || s.[!i] = 'f' then begin
            if s.[!i] = 'f' && key = "snapshots_agree" then
              false_agrees := !label :: !false_agrees;
            while !i < n && (s.[!i] <> ',' && s.[!i] <> '}') do incr i done
          end
          else begin
            let start = !i in
            while
              !i < n
              && (match s.[!i] with
                  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
                  | _ -> false)
            do
              incr i
            done;
            match float_of_string_opt (String.sub s start (!i - start)) with
            | Some v when checked_key key ->
                (* numbered duplicates: suffix with occurrence index *)
                let base = !label ^ "/" ^ key in
                let occurrences =
                  List.length
                    (List.filter
                       (fun e ->
                         String.length e.path >= String.length base
                         && String.sub e.path 0 (String.length base) = base)
                       !entries)
                in
                entries :=
                  { path = Printf.sprintf "%s#%d" base occurrences; value = v }
                  :: !entries
            | _ -> ()
          end
      end
    end
    else incr i
  done;
  (List.rev !entries, !false_agrees)

(* --update-baselines: copy fresh BENCH_*.json files over the committed
   baselines (byte-for-byte, wall-clock fields included — they are
   ignored by the comparison anyway and keep the file honest about the
   machine it came from) *)
let copy_file src dst =
  let ic =
    try open_in_bin src
    with Sys_error msg ->
      Printf.eprintf "REGRESSION %s: cannot read file (%s)\n" src msg;
      exit 1
  in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc s;
  close_out oc

let update_baselines dir files =
  let files =
    match files with
    | [] ->
        Sys.readdir "."
        |> Array.to_list
        |> List.filter (fun f ->
               String.length f > 6
               && String.sub f 0 6 = "BENCH_"
               && Filename.check_suffix f ".json")
        |> List.sort compare
    | fs -> fs
  in
  if files = [] then begin
    prerr_endline
      "check_bench --update-baselines: no BENCH_*.json files found \
       (run the smoke bench first: dune exec bench/main.exe -- --smoke)";
    exit 1
  end;
  if not (Sys.file_exists dir && Sys.is_directory dir) then begin
    Printf.eprintf "check_bench --update-baselines: no such directory %s\n"
      dir;
    exit 1
  end;
  List.iter
    (fun src ->
      let dst = Filename.concat dir (Filename.basename src) in
      copy_file src dst;
      Printf.printf "updated %s from %s\n" dst src)
    files;
  exit 0

let () =
  let args = ref [] in
  let update = ref false in
  let baselines_dir = ref "bench/baselines" in
  let rec parse = function
    | "--tolerance" :: t :: rest ->
        tolerance := float_of_string t;
        parse rest
    | "--update-baselines" :: rest ->
        update := true;
        parse rest
    | "--baselines-dir" :: d :: rest ->
        baselines_dir := d;
        parse rest
    | x :: rest ->
        args := x :: !args;
        parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !update then update_baselines !baselines_dir (List.rev !args);
  match List.rev !args with
  | [ baseline; current ] ->
      let base_entries, _ = parse_file baseline in
      let cur_entries, cur_disagree = parse_file current in
      let failures = ref [] in
      List.iter
        (fun b ->
          match List.find_opt (fun c -> c.path = b.path) cur_entries with
          | None ->
              failures :=
                Printf.sprintf "%s: present in baseline, missing now" b.path
                :: !failures
          | Some c ->
              let lo = b.value *. (1.0 -. !tolerance)
              and hi = b.value *. (1.0 +. !tolerance) in
              (* regression = more work than baseline allows; doing
                 *less* work is fine, so only the upper bound is hard —
                 unless the baseline is 0, which must stay 0 (e.g.
                 quiescent visits) *)
              if b.value = 0.0 then begin
                if c.value <> 0.0 then
                  failures :=
                    Printf.sprintf "%s: baseline 0, now %g" b.path c.value
                    :: !failures
              end
              else if c.value > hi then
                failures :=
                  Printf.sprintf "%s: %g exceeds baseline %g by more than %g%%"
                    c.path c.value b.value (!tolerance *. 100.0)
                  :: !failures
              else if c.value < lo then
                (* improvements beyond tolerance are worth noticing but
                   not failing: print and continue *)
                Printf.printf "note: %s improved: %g -> %g\n" c.path b.value
                  c.value)
        base_entries;
      List.iter
        (fun label ->
          failures :=
            Printf.sprintf "%s: snapshots_agree is false" label :: !failures)
        cur_disagree;
      if !failures = [] then begin
        Printf.printf "check_bench: %s vs %s: %d counters within %.0f%%\n"
          current baseline (List.length base_entries) (!tolerance *. 100.0);
        exit 0
      end
      else begin
        List.iter (fun f -> Printf.eprintf "REGRESSION %s\n" f)
          (List.rev !failures);
        exit 1
      end
  | _ ->
      prerr_endline "usage: check_bench [--tolerance T] BASELINE CURRENT";
      exit 2
