(* ASCII waveform rendering: one row per watched signal, one column per
   sampled cycle.  Single-bit signals render as levels, multi-bit
   signals as their value (hex when fully defined). *)

open Zeus_base

type signal = {
  port : Sim.port;
  mutable samples : Logic.t list list; (* newest first *)
}

type t = {
  sim : Sim.t;
  signals : signal list;
}

let create sim ports =
  { sim; signals = List.map (fun port -> { port; samples = [] }) ports }

(* record the current values; call once per simulated cycle *)
let sample t =
  List.iter
    (fun s -> s.samples <- Sim.get t.sim s.port :: s.samples)
    t.signals

let bit_char = function
  | Logic.Zero -> '_'
  | Logic.One -> '#'
  | Logic.Undef -> 'x'
  | Logic.Noinfl -> 'z'

(* a multi-bit sample: one character per cycle — hex digit when the
   value fits and is defined, else x/z *)
let word_char bits =
  match Zeus_sem.Cval.num bits with
  | Some v when v < 16 -> "0123456789abcdef".[v]
  | Some _ -> '+'
  | None ->
      if List.for_all (Logic.equal Logic.Noinfl) bits then 'z' else 'x'

let render t =
  let buf = Buffer.create 1024 in
  let width =
    List.fold_left
      (fun acc s -> max acc (String.length s.port.path))
      0 t.signals
  in
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "%-*s " width s.port.path);
      let samples = List.rev s.samples in
      List.iter
        (fun bits ->
          match bits with
          | [ b ] -> Buffer.add_char buf (bit_char b)
          | bits -> Buffer.add_char buf (word_char bits))
        samples;
      Buffer.add_char buf '\n')
    t.signals;
  Buffer.contents buf

(* render with decoded integer values per cycle, one line per signal *)
let render_values t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string buf s.port.path;
      Buffer.add_string buf ":";
      List.iter
        (fun bits ->
          Buffer.add_char buf ' ';
          match Zeus_sem.Cval.num bits with
          | Some v -> Buffer.add_string buf (string_of_int v)
          | None ->
              Buffer.add_string buf
                (String.concat "" (List.map Logic.to_string bits)))
        (List.rev s.samples);
      Buffer.add_char buf '\n')
    t.signals;
  Buffer.contents buf
