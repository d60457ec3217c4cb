(* The `zeusc fuzz` driver: deterministic differential fuzzing with
   shrinking.

   Case [i] of a run with base seed [s] is generated from
   [Random.State.make [| 0x5eed; s; i |]] — replaying a failure needs
   only the pair (seed, index), both printed with every divergence and
   embedded in the repro file header.

   On a divergence the failing (program, stimulus) pair is shrunk by a
   greedy loop over {!Gen_prog.shrink_steps}: any one-step reduction
   that still produces a divergence of the same oracle row is kept, and
   the loop restarts from the reduced case until no step helps (or the
   evaluation budget runs out).  The shrunk case is written to the
   corpus directory as [repro_<seed>_<index>.zeus] (with the divergence
   and replay instructions in a comment header) plus a
   [repro_<seed>_<index>.pokes] poke script. *)

module G = QCheck.Gen

type failure = {
  seed : int;
  index : int;
  divergence : Oracle.divergence;
  prog : Gen_prog.prog; (* already shrunk *)
  stim : Gen_prog.stimulus;
  zeus_file : string option; (* where the repro was written *)
}

type summary = {
  tested : int;
  failures : failure list;
}

let gen_case ~profile ~seed ~index =
  let rand = Random.State.make [| 0x5eed; seed; index |] in
  let prog = G.generate1 ~rand (Gen_prog.gen ~profile ()) in
  let stim = G.generate1 ~rand (Gen_prog.gen_stimulus ~profile prog) in
  (prog, stim)

let first_divergence ?jobs (prog, stim) =
  match Oracle.check ?jobs ~src:(Gen_prog.to_zeus prog) stim with
  | [] -> None
  | d :: _ -> Some d

(* greedy shrink: keep any one-step reduction that still fails the same
   oracle row; bound the total number of oracle evaluations *)
let shrink ~budget ~oracle case =
  let evals = ref 0 in
  let still_fails c =
    incr evals;
    match first_divergence c with
    | Some d when d.Oracle.oracle = oracle -> Some d
    | _ -> None
  in
  let rec go (case, div) =
    if !evals >= budget then (case, div)
    else
      let rec try_steps = function
        | [] -> None
        | step :: rest -> (
            if !evals >= budget then None
            else
              match still_fails step with
              | Some d -> Some (step, d)
              | None -> try_steps rest)
      in
      match try_steps (Gen_prog.shrink_steps case) with
      | Some reduced -> go reduced
      | None -> (case, div)
  in
  go case

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_repro ~corpus_dir ~seed ~index ~divergence (prog, stim) =
  (try if not (Sys.is_directory corpus_dir) then raise Exit
   with _ -> (try Sys.mkdir corpus_dir 0o755 with _ -> ()));
  let base = Filename.concat corpus_dir (Printf.sprintf "repro_%d_%d" seed index) in
  let header =
    Printf.sprintf
      "<* fuzz divergence %s\n\
      \   replay: zeusc fuzz --seed %d --count %d   (case %d)\n\
      \   pokes:  %s.pokes *>\n"
      (Fmt.str "%a" Oracle.pp_divergence divergence)
      seed (index + 1) index (Filename.basename base)
  in
  write_file (base ^ ".zeus") (header ^ Gen_prog.to_zeus prog);
  write_file (base ^ ".pokes")
    (Printf.sprintf "# pokes for %s.zeus (apply each line, then step)\n%s"
       (Filename.basename base)
       (Gen_prog.stimulus_to_string stim));
  base ^ ".zeus"

(* Run [count] cases.  Failing cases are shrunk and written to
   [corpus_dir]; progress goes to [log] (stderr in the CLI).

   [batch] shards the detection phase — generate case, run the oracle
   matrix — across [jobs] domains of the process-wide pool: each domain
   owns a contiguous index slice, checking with single-domain oracles
   (pool fork-join regions do not nest).  Shrinking, repro writing and
   logging stay on the caller, in index order, after the join, so the
   summary and the corpus are byte-identical to a serial run: cases are
   deterministic in (seed, index) and the oracle verdict is independent
   of [jobs]. *)
let run ?(profile = Gen_prog.full) ?(shrink_budget = 600)
    ?(log = ignore) ?(batch = false) ?(jobs = 4) ~count ~seed ~corpus_dir () =
  let failures = ref [] in
  let handle index case (d : Oracle.divergence) =
    log
      (Printf.sprintf "case %d diverged %s; shrinking..." index
         (Fmt.str "%a" Oracle.pp_divergence d));
    let (prog, stim), d = shrink ~budget:shrink_budget ~oracle:d.Oracle.oracle (case, d) in
    let zeus_file =
      match corpus_dir with
      | None -> None
      | Some dir ->
          Some (write_repro ~corpus_dir:dir ~seed ~index ~divergence:d (prog, stim))
    in
    log
      (Printf.sprintf "case %d shrunk to %d-line repro%s" index
         (List.length
            (String.split_on_char '\n' (Gen_prog.to_zeus prog)))
         (match zeus_file with
         | Some f -> Printf.sprintf " (%s)" f
         | None -> ""));
    failures := { seed; index; divergence = d; prog; stim; zeus_file } :: !failures
  in
  if batch && count > 1 then begin
    let jobs = max 1 (min (min jobs Zeus_sim.Pool.max_jobs) count) in
    log (Printf.sprintf "batch detection: %d cases over %d domain(s)" count jobs);
    let diverged = Array.make count None in
    (* a lazy forced by two domains at once raises
       [CamlinternalLazy.Undefined]: probe before the fan-out *)
    ignore (Oracle.iverilog_available ());
    Zeus_sim.Pool.run ~jobs (fun d ->
        let lo = count * d / jobs and hi = count * (d + 1) / jobs in
        for index = lo to hi - 1 do
          let case = gen_case ~profile ~seed ~index in
          match first_divergence ~jobs:1 case with
          | None -> ()
          | Some dv -> diverged.(index) <- Some (case, dv)
        done);
    Array.iteri
      (fun index -> function
        | None -> ()
        | Some (case, dv) -> handle index case dv)
      diverged
  end
  else
    for index = 0 to count - 1 do
      let case = gen_case ~profile ~seed ~index in
      match first_divergence case with
      | None -> ()
      | Some d -> handle index case d
    done;
  { tested = count; failures = List.rev !failures }
