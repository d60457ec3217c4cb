(* The five end-to-end workloads: which design each one feeds to zeusc,
   the stimulus deck generated from the seed, and the exact command
   lines the benchmark runs.  Everything here is a pure function of
   (workload, seed), so the same seed always gives byte-identical
   files. *)

type poke = string * int

(* One independent run: [lines.(c)] holds the pokes applied before
   cycle [c] (an empty line is written as "-"). *)
type run = poke list array

type sim = {
  source : string;
  deck : run list;
  watch : string list;
  engine : string;  (* the --engine value zeusc is given, "" = default *)
  jobs : int option;
  memory : int option;
      (* how many trailing cycles the watched outputs depend on, when the
         design bounds it; the firing reference then replays only those
         (see [reference_deck]).  [None]: the reference replays it all. *)
}

type spec =
  | Sim of sim
  | Verify of {
      designs : (string * string) list;  (* name, source *)
      order : (string * string) list;  (* subcommand, design name *)
    }

type t = { name : string; gen : seed:int -> spec }

let design_file = "design.zeus"
let deck_file = "deck.txt"
let setup_file = "setup.txt"
let zero_file = "zero.txt"
let reference_file = "reference.txt"

(* ------------------------------------------------------------------ *)
(* Deck text                                                            *)
(* ------------------------------------------------------------------ *)

let render_run ?cycles buf (lines : run) =
  Buffer.add_string buf "run";
  Option.iter (Printf.bprintf buf " cycles=%d") cycles;
  Buffer.add_char buf '\n';
  Array.iter
    (fun pokes ->
      if pokes = [] then Buffer.add_string buf "-"
      else
        List.iteri
          (fun i (p, v) ->
            if i > 0 then Buffer.add_char buf ' ';
            Printf.bprintf buf "%s=%d" p v)
          pokes;
      Buffer.add_char buf '\n')
    lines

let render ?cycles runs =
  let buf = Buffer.create 4096 in
  List.iter (render_run ?cycles buf) runs;
  Buffer.contents buf

(* The deck the workload's set-up time is measured on: the first run cut
   to its first line, i.e. source text to the first snapshot. *)
let setup_deck runs =
  match runs with
  | [] -> []
  | first :: _ -> [ Array.sub first 0 (min 1 (Array.length first)) ]

(* A run cut to its last [l] lines, with every earlier poke folded into
   the first kept line.  Pokes persist until changed, so the kept cycles
   see exactly the inputs they saw in the full run; the fold keeps each
   path at its last occurrence, in the order those occurred, so a
   whole-vector poke and a later single-bit poke into it still apply in
   sequence. *)
let tail_run l (r : run) =
  let n = Array.length r in
  if n <= l then r
  else begin
    let last = Hashtbl.create 64 in
    for c = 0 to n - l do
      List.iteri (fun i (p, v) -> Hashtbl.replace last p ((c, i), v)) r.(c)
    done;
    let folded =
      Hashtbl.fold (fun p (at, v) acc -> (at, (p, v)) :: acc) last []
      |> List.sort compare |> List.map snd
    in
    Array.append [| folded |] (Array.sub r (n - l + 1) (l - 1))
  end

let reference_deck s =
  match s.memory with
  | None -> s.deck
  | Some l -> List.map (tail_run l) s.deck

(* ------------------------------------------------------------------ *)
(* Stimulus                                                             *)
(* ------------------------------------------------------------------ *)

(* zeusc reads a poke value of 0 or 1 as one bit, so a multi-bit input
   is never given either: draws start at 2. *)
let multibit rng width = 2 + Random.State.int rng ((1 lsl width) - 2)
let bit rng = if Random.State.bool rng then 1 else 0

(* Every run opens with an RSET pulse, so no register starts UNDEF. *)
let with_reset first rest =
  Array.append [| ("RSET", 1) :: first; [ ("RSET", 0) ] |] rest

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let take n l = List.filteri (fun i _ -> i < n) l

(* routing_network(n): n 10-bit headers net.input[0..n-1] *)
let routing_ports = 128
let header i = Printf.sprintf "net.input[%d]" i

let routing_watch rng =
  List.sort compare (take 8 (shuffle rng (List.init routing_ports Fun.id)))
  |> List.map (Printf.sprintf "net.output[%d]")

let all_headers rng = List.init routing_ports (fun i -> (header i, multibit rng 10))

(* ------------------------------------------------------------------ *)
(* The workloads                                                        *)
(* ------------------------------------------------------------------ *)

let dense_cycles = 150
let sparse_cycles = 100_000
let narrow_runs = 2000
let narrow_cycles = 50
let wide_runs = 128
let wide_cycles = 40

(* High activity: all 128 headers of routing(128) change every cycle, so
   per-cycle evaluation and zeusc's per-poke path resolution dominate,
   and the choice of engine shows. *)
let sim_dense ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let watch = routing_watch rng in
  let first = all_headers rng in
  let rest = Array.init (dense_cycles - 2) (fun _ -> all_headers rng) in
  Sim
    {
      source = Zeus.Corpus.routing_network routing_ports;
      deck = [ with_reset first rest ];
      watch;
      engine = "";
      jobs = None;
      memory = Some 1 (* no registers: outputs follow the last inputs *);
    }

(* Low activity: one data bit of ram(256x16) toggles at a fixed address,
   so the dirty cone is nearly empty and the run measures per-cycle fixed
   cost; re-evaluating the whole design every cycle (compiled) loses. *)
let sim_sparse ~seed =
  let rng = Random.State.make [| seed; 2 |] in
  let addr = multibit rng 8 and data = multibit rng 16 in
  let toggled = Printf.sprintf "m.data[%d]" (1 + Random.State.int rng 16) in
  let first = [ ("m.addr", addr); ("m.data", data); ("m.we", 1) ] in
  let rest = Array.init (sparse_cycles - 2) (fun c -> [ (toggled, c land 1) ]) in
  Sim
    {
      source = Zeus.Corpus.ram ~abits:8 ~wbits:16;
      deck = [ with_reset first rest ];
      watch = [ "m.q" ];
      engine = "";
      jobs = None;
      (* we=1 at one address rewrites that word every cycle, and q reads
         it back one cycle later *)
      memory = Some 2;
    }

let pm_inputs = [ "pattern"; "string"; "endofpattern"; "wild"; "resultin" ]

(* Many cheap runs on a small design (patternmatch(9), 309 classes):
   per-run overhead (deck text, handles, lanes, output) dominates. *)
let batch_narrow ~seed =
  let rng = Random.State.make [| seed; 3 |] in
  let line () = List.map (fun p -> ("match." ^ p, bit rng)) pm_inputs in
  let deck =
    List.init narrow_runs (fun _ ->
        let first = line () in
        with_reset first (Array.init (narrow_cycles - 2) (fun _ -> line ())))
  in
  Sim
    {
      source = Zeus.Corpus.patternmatch 9;
      deck;
      watch =
        List.map (( ^ ) "match.")
          [ "result"; "endout"; "stringout"; "wildout"; "patternout" ];
      engine = "compiled";
      jobs = Some 2;
      memory = None;
    }

(* Fewer runs on a large design (routing(128), 36k classes): lane-packed
   evaluation and per-run state dominate -- the counterweight to
   batch-narrow for any serial-versus-lanes rule. *)
let batch_wide ~seed =
  let rng = Random.State.make [| seed; 4 |] in
  let watch = routing_watch rng in
  let changes () =
    List.init 4 (fun _ ->
        let i = Random.State.int rng routing_ports in
        (header i, multibit rng 10))
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
  in
  let deck =
    List.init wide_runs (fun _ ->
        let first = all_headers rng in
        with_reset first (Array.init (wide_cycles - 2) (fun _ -> changes ())))
  in
  Sim
    {
      source = Zeus.Corpus.routing_network routing_ports;
      deck;
      watch;
      engine = "compiled";
      jobs = Some 2;
      memory = Some 1;
    }

(* The static-analysis path: every corpus design plus two large ones,
   each through lint, prove and export; the seed only shuffles the
   order.  The small designs set the per-verdict latency. *)
let verify_designs =
  Zeus.Corpus.all_named @ Zeus.Corpus_fsm.all_named
  @ [
      ("routing128", Zeus.Corpus.routing_network routing_ports);
      ("ram128x16", Zeus.Corpus.ram ~abits:7 ~wbits:16);
    ]

let verify_cmds = [ "lint"; "prove"; "export" ]

let verify ~seed =
  let rng = Random.State.make [| seed; 5 |] in
  let order =
    List.concat_map
      (fun (d, _) -> List.map (fun c -> (c, d)) verify_cmds)
      verify_designs
  in
  Verify { designs = verify_designs; order = shuffle rng order }

let all =
  [
    { name = "sim-dense"; gen = sim_dense };
    { name = "sim-sparse"; gen = sim_sparse };
    { name = "batch-narrow"; gen = batch_narrow };
    { name = "batch-wide"; gen = batch_wide };
    { name = "verify"; gen = verify };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Files and command lines                                              *)
(* ------------------------------------------------------------------ *)

let zeus_file d = d ^ ".zeus"

(* (relative file name, contents) of every input the workload needs *)
let files = function
  | Sim s ->
      [
        (design_file, s.source);
        (deck_file, render s.deck);
        (setup_file, render (setup_deck s.deck));
        (zero_file, render ~cycles:0 s.deck);
        (reference_file, render (reference_deck s));
      ]
  | Verify v -> List.map (fun (d, src) -> (zeus_file d, src)) v.designs

let sim_argv s ~engine deck =
  [ "sim"; design_file; "--batch"; deck ]
  @ (if engine = "" then [] else [ "--engine"; engine ])
  @ (match s.jobs with Some j -> [ "--jobs"; string_of_int j ] | None -> [])
  @ List.concat_map (fun w -> [ "-w"; w ]) s.watch

let verify_argv (cmd, d) =
  match cmd with
  | "export" -> [ "export"; "--verilog"; zeus_file d ]
  | c -> [ c; zeus_file d ]

(* The command lines of one repetition ([run]), of the set-up
   measurement and of the deck-only pass (every run at 0 cycles).  The
   firing-engine reference pairs one-to-one with [run]: [reference]
   replays the cut deck of [reference_deck], [full_reference] the whole
   deck. *)
type argvs = {
  run : string list list;
  setup : string list list;
  zero : string list list;
  reference : string list list;
  full_reference : string list list;
}

let argvs = function
  | Sim s ->
      {
        run = [ sim_argv s ~engine:s.engine deck_file ];
        setup = [ sim_argv s ~engine:s.engine setup_file ];
        zero = [ sim_argv s ~engine:s.engine zero_file ];
        reference = [ sim_argv s ~engine:"firing" reference_file ];
        full_reference = [ sim_argv s ~engine:"firing" deck_file ];
      }
  | Verify v ->
      {
        run = List.map verify_argv v.order;
        setup = List.map (fun (d, _) -> [ "check"; zeus_file d ]) v.designs;
        zero = [];
        reference = [];
        full_reference = [];
      }

(* Work items one repetition completes: cycles for a single-run
   simulation, runs for a batch, invocations for verify. *)
let items = function
  | Sim { deck = [ r ]; _ } -> Array.length r
  | Sim s -> List.length s.deck
  | Verify v -> List.length v.order
