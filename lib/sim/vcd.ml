(* Value-change-dump (VCD) writer, so waveforms from the simulator can be
   inspected with standard viewers.

   Zeus's four values map onto VCD's: 0, 1, x (UNDEF), z (NOINFL). *)

open Zeus_base
open Zeus_sem

type signal = {
  path : string;
  nets : int list;
  code : string;
  mutable last : Logic.t list option;
}

type t = {
  sim : Sim.t;
  buf : Buffer.t;
  signals : signal list;
  mutable header_done : bool;
}

let vcd_char = function
  | Logic.Zero -> '0'
  | Logic.One -> '1'
  | Logic.Undef -> 'x'
  | Logic.Noinfl -> 'z'

let logic_of_vcd_char = function
  | '0' -> Some Logic.Zero
  | '1' -> Some Logic.One
  | 'x' | 'X' -> Some Logic.Undef
  | 'z' | 'Z' -> Some Logic.Noinfl
  | _ -> None

let id_code i =
  (* printable short codes ! .. ~ *)
  let base = 94 in
  let rec go i acc =
    let c = Char.chr (33 + (i mod base)) in
    let acc = String.make 1 c ^ acc in
    if i < base then acc else go ((i / base) - 1) acc
  in
  go i ""

let create sim paths =
  let signals =
    List.mapi
      (fun i path ->
        let nets =
          match Elaborate.resolve_path (Sim.design sim) path with
          | Ok nets -> nets
          | Error msg -> invalid_arg ("Vcd.create: " ^ msg)
        in
        { path; nets; code = id_code i; last = None })
      paths
  in
  { sim; buf = Buffer.create 4096; signals; header_done = false }

let sanitize path =
  String.map (fun c -> if c = '.' || c = '[' || c = ']' then '_' else c) path

let write_header t =
  Buffer.add_string t.buf "$date reproduced Zeus run $end\n";
  Buffer.add_string t.buf "$version zeus-ocaml $end\n";
  Buffer.add_string t.buf "$timescale 1 ns $end\n";
  Buffer.add_string t.buf "$scope module zeus $end\n";
  List.iter
    (fun s ->
      Buffer.add_string t.buf
        (Printf.sprintf "$var wire %d %s %s $end\n" (List.length s.nets)
           s.code (sanitize s.path)))
    t.signals;
  Buffer.add_string t.buf "$upscope $end\n";
  Buffer.add_string t.buf "$enddefinitions $end\n";
  t.header_done <- true

(* record the current values; call once per simulated cycle.  The
   [#cycle] timestamp is held back until the first change record of the
   cycle: a quiescent cycle emits nothing at all, which is what viewers
   expect and what keeps long idle stretches compact. *)
let sample t =
  if not t.header_done then write_header t;
  let stamped = ref false in
  let stamp () =
    if not !stamped then begin
      stamped := true;
      Buffer.add_string t.buf
        (Printf.sprintf "#%d\n" (Sim.cycle_count t.sim))
    end
  in
  List.iter
    (fun s ->
      let values = Sim.peek_nets t.sim s.nets in
      if s.last <> Some values then begin
        s.last <- Some values;
        stamp ();
        match values with
        | [ v ] ->
            Buffer.add_char t.buf (vcd_char v);
            Buffer.add_string t.buf s.code;
            Buffer.add_char t.buf '\n'
        | vs ->
            Buffer.add_char t.buf 'b';
            List.iter (fun v -> Buffer.add_char t.buf (vcd_char v)) vs;
            Buffer.add_char t.buf ' ';
            Buffer.add_string t.buf s.code;
            Buffer.add_char t.buf '\n'
      end)
    t.signals

let contents t =
  if not t.header_done then write_header t;
  Buffer.contents t.buf

(* {!Wave} renders to a string only, and zeusc writes its VCD through
   its own file writer; this is the library's file sink.  The flush
   happens in [close_out] inside the body, so a write that fails there
   (a full disk) raises [Sys_error] to the caller; [finally] still
   closes the channel on every path. *)
let to_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (contents t);
      close_out oc)
