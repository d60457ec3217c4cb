(* The OCaml half of the end-to-end benchmark (run.py drives it).

     e2e.exe gen WORKLOAD SEED DIR     write the workload's inputs and
                                       DIR/manifest.json
     e2e.exe calib                     a fixed job run.py times to
                                       track the host's speed
     e2e.exe trace WORKLOAD SEED DIR SPANS
                                       the calls zeusc makes on those
                                       inputs, in-process, with and without
                                       spans; prints the per-layer metrics
                                       as JSON and writes the spans to
                                       SPANS *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_list f l = "[" ^ String.concat ", " (List.map f l) ^ "]"

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

let usage () =
  prerr_endline
    "usage: e2e.exe gen WORKLOAD SEED DIR | calib | trace WORKLOAD SEED DIR SPANS";
  exit 2

let workload name =
  match Workload.find name with
  | Some w -> w
  | None ->
      Printf.eprintf "unknown workload %S\n" name;
      exit 2

let gen (w : Workload.t) ~seed dir =
  let spec = w.gen ~seed in
  List.iter
    (fun (f, contents) -> write_file (Filename.concat dir f) contents)
    (Workload.files spec);
  let a = Workload.argvs spec in
  let argvs l = json_list (json_list json_string) l in
  let items = Workload.items spec in
  write_file
    (Filename.concat dir "manifest.json")
    (Printf.sprintf
       "{\"workload\": %s, \"seed\": %d, \"items\": %d,\n\
       \ \"run\": %s,\n\
       \ \"setup\": %s,\n\
       \ \"zero\": %s,\n\
       \ \"reference\": %s,\n\
       \ \"full_reference\": %s}\n"
       (json_string w.name) seed items (argvs a.run)
       (argvs a.setup) (argvs a.zero) (argvs a.reference)
       (argvs a.full_reference))

(* ------------------------------------------------------------------ *)
(* Spans                                                                *)
(* ------------------------------------------------------------------ *)

(* A span per call into a layer, kept in memory and written at the end.
   Per-cycle calls go to one aggregated span that counts its calls.
   With tracing off, [span] and [call] only run their function. *)
type span = {
  sname : string;
  parent : int;  (* index of the enclosing span, -1 at the top *)
  mutable start_ns : int64;
  mutable end_ns : int64;
  mutable dur_ns : int64;  (* end - start, or the sum over calls *)
  mutable calls : int;
}

let tracing = ref false
let spans = ref [||]
let nspans = ref 0
let stack = ref []
let now = Monotonic_clock.now

let new_span name =
  if !nspans = Array.length !spans then
    spans :=
      Array.append !spans
        (Array.make (max 64 !nspans)
           { sname = ""; parent = -1; start_ns = 0L; end_ns = 0L; dur_ns = 0L; calls = 0 });
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  let s =
    { sname = name; parent; start_ns = now (); end_ns = 0L; dur_ns = 0L; calls = 0 }
  in
  !spans.(!nspans) <- s;
  incr nspans;
  (!nspans - 1, s)

let span name f =
  if not !tracing then f ()
  else begin
    let id, s = new_span name in
    stack := id :: !stack;
    let finish () =
      s.end_ns <- now ();
      s.dur_ns <- Int64.sub s.end_ns s.start_ns;
      s.calls <- 1;
      stack := List.tl !stack
    in
    Fun.protect ~finally:finish f
  end

(* an aggregated span under the current one; [None] when not tracing *)
let agg name = if !tracing then Some (snd (new_span name)) else None

let call a f =
  match a with
  | None -> f ()
  | Some s ->
      let t0 = now () in
      let r = f () in
      let t1 = now () in
      s.dur_ns <- Int64.add s.dur_ns (Int64.sub t1 t0);
      s.end_ns <- t1;
      s.calls <- s.calls + 1;
      r

(* ------------------------------------------------------------------ *)
(* The in-process pipeline: the calls zeusc makes, layer by layer      *)
(* ------------------------------------------------------------------ *)

let counters : (string, float) Hashtbl.t = Hashtbl.create 16
let count name v =
  if !tracing then
    Hashtbl.replace counters name
      (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.)

let fail fmt = Printf.ksprintf failwith fmt

(* [Zeus.compile], one span per layer *)
let compile src =
  let bag = Zeus.Diag.Bag.create () in
  match span "parser" (fun () -> Zeus.Parser.program ~bag src) with
  | None, _ -> fail "parse error"
  | Some prog, _ ->
      let design = span "elaborate" (fun () -> Zeus.Elaborate.program ~bag prog) in
      if Zeus.Diag.Bag.has_errors bag then fail "elaboration error";
      if not (span "check" (fun () -> Zeus.Check.run design)) then fail "check error";
      let nl = design.Zeus.Elaborate.netlist in
      count "elaborate.nets" (float (Zeus.Netlist.net_count nl));
      count "elaborate.instances" (float (Zeus.Netlist.instance_count nl));
      design

let read dir f = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all

(* the engine zeusc picks for an --engine value ("" = its default) *)
let engine = function
  | "" -> Zeus.Sim.Incremental
  | name -> List.find (fun e -> Zeus.Sim.engine_name e = name) Zeus.Sim.all_engines

(* zeusc's deck reader: one resolve_path per multi-bit poke *)
let read_deck design (s : Workload.sim) =
  let resolve = agg "resolve" in
  let poke (p, v) =
    if v <= 1 then (p, [ (if v = 1 then Zeus.Logic.One else Zeus.Logic.Zero) ])
    else
      match call resolve (fun () -> Zeus.Elaborate.resolve_path design p) with
      | Ok nets -> (p, Zeus.Cval.sctree_leaves (Zeus.Cval.bin v (List.length nets)))
      | Error e -> fail "%s" e
  in
  let runs = List.map (Array.map (List.map poke)) s.deck in
  Option.iter (fun a -> count "resolve.calls" (float a.calls)) resolve;
  runs

(* a single-run deck: the run stepped on the handle, poke by poke *)
let replay sim design run watch =
  let nets = Hashtbl.create 64 in
  let resolve p =
    match Hashtbl.find_opt nets p with
    | Some n -> n
    | None ->
        let n = Result.get_ok (Zeus.Elaborate.resolve_path design p) in
        Hashtbl.add nets p n;
        n
  in
  let poke = agg "sim.poke" and step = agg "sim.step" in
  Array.iter
    (fun line ->
      List.iter
        (fun (p, bits) ->
          let n = resolve p in
          call poke (fun () -> Zeus.Sim.poke_nets sim n bits))
        line;
      call step (fun () -> Zeus.Sim.step sim))
    run;
  let cycles = float (Array.length run) in
  count "sim.cycles" cycles;
  count "sim.visits_per_cycle" (float (Zeus.Sim.node_visits sim) /. cycles);
  List.map (fun p -> Zeus.Sim.peek_nets sim (resolve p)) watch

let batch_runs runs watch ~cycles =
  List.map
    (fun stim ->
      { Zeus.Sim.br_stim = stim; br_cycles = cycles stim; br_seed = None;
        br_watch = watch })
    runs

let sim_pipeline dir (s : Workload.sim) =
  let engine = engine s.engine in
  let design, src, runs, tmpl =
    span "zeusc" (fun () ->
        let src = read dir Workload.design_file in
        let design = compile src in
        let runs = read_deck design s in
        let tmpl = span "sim.create" (fun () -> Zeus.Sim.create ~engine ~jobs:1 design) in
        (match runs with
        | [ run ] -> ignore (replay tmpl design run s.watch)
        | runs ->
            let runs = batch_runs runs s.watch ~cycles:Array.length in
            ignore (span "batch" (fun () -> Zeus.Sim.run_batch ?jobs:s.jobs ~lanes:8 tmpl runs)));
        (design, src, runs, tmpl))
  in
  (* probes: each layer again on its own, beside the pipeline *)
  if !tracing then begin
    let toks = span "probe.lexer" (fun () -> Zeus.Lexer.tokenize src) in
    count "lexer.tokens" (float (Array.length toks));
    let g = span "probe.graph" (fun () -> Zeus.Graph.build design) in
    count "graph.classes" (float g.Zeus.Graph.n_classes);
    count "graph.nodes" (float (Array.length g.Zeus.Graph.nodes));
    let sc = span "probe.sched" (fun () -> Zeus.Sched.build g) in
    count "sched.levels" (float (sc.Zeus.Sched.max_level + 1));
    if engine = Zeus.Sim.Compiled then begin
      match span "probe.compile" (fun () -> Zeus.Compile.build g sc) with
      | Some p ->
          count "compile.ops" (float (Array.length p.Zeus.Bytecode.ops));
          count "compile.vector_lanes" (float p.Zeus.Bytecode.vector_lanes);
          count "compile.check_ops" (float p.Zeus.Bytecode.check_ops)
      | None -> ()
    end;
    if List.length runs > 1 then begin
      let zero = batch_runs runs s.watch ~cycles:(fun _ -> 0) in
      ignore
        (span "probe.batch.zero" (fun () ->
             Zeus.Sim.run_batch ?jobs:s.jobs ~lanes:8 tmpl zero))
    end
  end

let verify_pipeline dir order =
  List.iter
    (fun (cmd, d) ->
      let src =
        span "zeusc" (fun () ->
            let src = read dir (Workload.zeus_file d) in
            let design = compile src in
            (match cmd with
            | "lint" ->
                let r = span "lint" (fun () -> Zeus.Lint.run design) in
                count "lint.splits" (float r.Zeus.Lint.splits)
            | "prove" ->
                let r = span "seqprove" (fun () -> Zeus.Seqprove.run design) in
                count "seqprove.splits" (float r.Zeus.Seqprove.sp_splits);
                count "seqprove.upgraded"
                  (float (List.length r.Zeus.Seqprove.sp_upgraded))
            | _ -> (
                match span "verilog" (fun () -> Zeus.Verilog.export design) with
                | Ok v -> count "verilog.bytes" (float (String.length v.Zeus.Verilog.text))
                | Error _ -> ()));
            src)
      in
      if !tracing then
        let toks = span "probe.lexer" (fun () -> Zeus.Lexer.tokenize src) in
        count "lexer.tokens" (float (Array.length toks)))
    order

let pipeline dir = function
  | Workload.Sim s -> sim_pipeline dir s
  | Workload.Verify v -> verify_pipeline dir v.order

(* ------------------------------------------------------------------ *)
(* Per-layer metrics                                                    *)
(* ------------------------------------------------------------------ *)

let secs ns = Int64.to_float ns /. 1e9

(* self time per span name: duration minus what its children cover *)
let self_times () =
  let all = Array.sub !spans 0 !nspans in
  let child = Array.make (Array.length all) 0L in
  Array.iter
    (fun s -> if s.parent >= 0 then child.(s.parent) <- Int64.add child.(s.parent) s.dur_ns)
    all;
  let self = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let v = secs (Int64.sub s.dur_ns child.(i)) in
      Hashtbl.replace self s.sname
        (v +. Option.value (Hashtbl.find_opt self s.sname) ~default:0.))
    all;
  fun name -> Option.value (Hashtbl.find_opt self name) ~default:0.

let total_of_roots () =
  let t = ref 0L in
  for i = 0 to !nspans - 1 do
    let s = !spans.(i) in
    if s.parent < 0 && s.sname = "zeusc" then t := Int64.add !t s.dur_ns
  done;
  secs !t

let write_spans path workload =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[\n";
  for i = 0 to !nspans - 1 do
    let s = !spans.(i) in
    Printf.bprintf b
      "%s{\"name\": %s, \"workload\": %s, \"parent\": %d, \"start_ns\": %Ld, \
       \"end_ns\": %Ld, \"dur_ns\": %Ld, \"calls\": %d}\n"
      (if i = 0 then " " else ",")
      (json_string s.sname) (json_string workload) s.parent s.start_ns s.end_ns
      s.dur_ns s.calls
  done;
  Buffer.add_string b "]\n";
  write_file path (Buffer.contents b)

let trace (w : Workload.t) ~seed dir spans_path =
  let spec = w.gen ~seed in
  let mib words = words *. 8. /. 1048576. in
  let timed () =
    let t0 = now () in
    pipeline dir spec;
    secs (Int64.sub (now ()) t0)
  in
  (* first untraced and cold, as zeusc runs: the pipeline's own time and
     allocation; then traced; then untraced again, equally warm, so the
     traced total minus this one is what the spans cost *)
  let g0 = Gc.quick_stat () in
  let untraced = timed () in
  let g1 = Gc.quick_stat () in
  tracing := true;
  pipeline dir spec;
  tracing := false;
  let warm = timed () in
  write_spans spans_path w.name;
  let self = self_times () and c name = Option.value (Hashtbl.find_opt counters name) ~default:0. in
  let cycles = c "sim.cycles" in
  let per_cycle v = if cycles > 0. then v /. cycles else 0. in
  let metrics =
    [
      ("lexer.s", self "probe.lexer");
      ("lexer.tokens", c "lexer.tokens");
      ("parser.s", Float.max 0. (self "parser" -. self "probe.lexer"));
      ("elaborate.s", self "elaborate");
      ("elaborate.nets", c "elaborate.nets");
      ("elaborate.instances", c "elaborate.instances");
      ("check.s", self "check");
      ("resolve.s", self "resolve");
      ("resolve.calls", c "resolve.calls");
      ("sim.create_s", self "sim.create");
      ("graph.s", self "probe.graph");
      ("graph.classes", c "graph.classes");
      ("graph.nodes", c "graph.nodes");
      ("sched.s", self "probe.sched");
      ("sched.levels", c "sched.levels");
      ("compile.s", self "probe.compile");
      ("compile.ops", c "compile.ops");
      ("compile.vector_lanes", c "compile.vector_lanes");
      ("compile.check_ops", c "compile.check_ops");
      ("sim.poke_s", self "sim.poke");
      ("sim.step_s", self "sim.step");
      ("sim.step_us", per_cycle (self "sim.step") *. 1e6);
      ("sim.visits_per_cycle", c "sim.visits_per_cycle");
      ("batch.s", self "batch");
      ("batch.zero_s", self "probe.batch.zero");
      ("batch.eval_s", self "batch" -. self "probe.batch.zero");
      ("lint.s", self "lint");
      ("lint.splits", c "lint.splits");
      ("seqprove.s", self "seqprove");
      ("seqprove.splits", c "seqprove.splits");
      ("seqprove.upgraded", c "seqprove.upgraded");
      ("verilog.s", self "verilog");
      ("verilog.bytes", c "verilog.bytes");
      ( "gc.alloc_mb",
        mib
          (g1.minor_words +. g1.major_words -. g1.promoted_words
          -. (g0.minor_words +. g0.major_words -. g0.promoted_words)) );
      ( "gc.major_collections",
        float (g1.major_collections - g0.major_collections) );
      ("gc.top_heap_mb", mib (float g1.top_heap_words));
      ("inprocess.total_s", untraced);
      ("trace.overhead_s", total_of_roots () -. warm);
    ]
  in
  print_endline
    ("{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%s: %.17g" (json_string k) v) metrics)
    ^ "}")

(* ------------------------------------------------------------------ *)
(* Calibration                                                          *)
(* ------------------------------------------------------------------ *)

(* A fixed job owned by the benchmark, shaped like zeusc's own: a
   random graph walked breadth-first with allocation churn.  run.py
   times it beside every repetition, so a slow stretch of the shared
   host shows in it as it does in zeusc, and compare.py can tell a host
   that moved from code that did. *)
let calib () =
  let n = 40_000 in
  let rng = Random.State.make [| 42 |] in
  let adj = Array.init n (fun _ -> Array.init 4 (fun _ -> Random.State.int rng n)) in
  let label = Array.init n (fun i -> Some (i, float i)) in
  let sum = ref 0 in
  for round = 1 to 3 do
    let seen = Array.make n false in
    let q = Queue.create () in
    Queue.add round q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      if not seen.(v) then begin
        seen.(v) <- true;
        Option.iter (fun (i, _) -> sum := !sum + i) label.(v);
        label.(v) <- Some (v, float round);
        Array.iter (fun w -> if not seen.(w) then Queue.add w q) adj.(v)
      end
    done
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 50_000 do
    Hashtbl.replace h (i * 7919 land 0xFFFFF) (string_of_int i)
  done;
  ignore (Sys.opaque_identity (!sum, Hashtbl.length h))

let () =
  let seed s = match int_of_string_opt s with Some n -> n | None -> usage () in
  match Array.to_list Sys.argv with
  | [ _; "calib" ] -> calib ()
  | [ _; "gen"; name; s; dir ] -> gen (workload name) ~seed:(seed s) dir
  | [ _; "trace"; name; s; dir; spans ] ->
      trace (workload name) ~seed:(seed s) dir spans
  | _ -> usage ()
