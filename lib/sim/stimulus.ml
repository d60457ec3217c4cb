(* Packed batch stimulus: one representation from deck text to
   evaluation.  A poke is a (key, value) pair of LEB128 varints in its
   run's stream, and a 0 key ends a stimulus line:

     key = (entry + 1) * 2      value: an integer, BIN(value, width)
     key = (entry + 1) * 2 + 1  value: the index of a literal bit array

   A deck's few paths and 0/1 values cost two bytes a poke.  The deck
   reader resolves each distinct path once and the executors index the
   entry's classes, so no path string is hashed past the reader. *)

open Zeus_base
open Zeus_sem

type entry = { path : string; nets : int array }

type run = {
  off : int;
  lines : int;
  cycles : int;
  seed : int option;
  watch : int array;
}

type t = {
  entries : entry array;
  lits : Logic.t array array;
  pokes : string;
  runs : run array;
  watches : entry array;
}

(* the one place a path becomes nets *)
let port design path =
  Result.map
    (fun nets -> { path; nets = Array.of_list nets })
    (Elaborate.resolve_path design path)

(* ------------------------------------------------------------------ *)
(* The stream *)

let rec add_varint b v =
  if v < 0x80 then Buffer.add_char b (Char.unsafe_chr v)
  else begin
    Buffer.add_char b (Char.unsafe_chr (v land 0x7f lor 0x80));
    add_varint b (v lsr 7)
  end

let int_key id = (id + 1) lsl 1
let lit_key id = int_key id lor 1
let end_line b = Buffer.add_char b '\000'

(* the varint of stream [s] at cursor [cur.(r)], which moves past it *)
let next s (cur : int array) r =
  let p = cur.(r) in
  let b = Char.code (String.unsafe_get s p) in
  if b < 0x80 then begin
    cur.(r) <- p + 1;
    b
  end
  else begin
    let p = ref (p + 1) and shift = ref 7 and v = ref (b land 0x7f) in
    let more = ref true in
    while !more do
      let b = Char.code (String.unsafe_get s !p) in
      v := !v lor ((b land 0x7f) lsl !shift);
      shift := !shift + 7;
      incr p;
      more := b >= 0x80
    done;
    cur.(r) <- !p;
    !v
  end

let apply_line st classes cur r poke =
  let s = st.pokes in
  let key = ref (next s cur r) in
  while !key <> 0 do
    let v = next s cur r in
    let cls = classes.((!key lsr 1) - 1) in
    let w = Array.length cls in
    if !key land 1 = 0 then
      for j = 0 to w - 1 do
        poke r (Array.unsafe_get cls j)
          (if Cval.bit v (w - 1 - j) then Logic.One else Logic.Zero)
      done
    else begin
      let lit = st.lits.(v) in
      for j = 0 to w - 1 do
        poke r (Array.unsafe_get cls j) lit.(j)
      done
    end;
    key := next s cur r
  done

let bits ~width v =
  List.init width (fun i -> Logic.of_bool (Cval.bit v (width - 1 - i)))

(* ------------------------------------------------------------------ *)
(* The resolver: each distinct path resolved once, and found again by
   the hash of its slice of a -p argument or a deck, without a copy *)

type resolver = {
  design : Elaborate.design;
  driven : (int -> bool) Lazy.t;
  mutable ents : entry array; (* by id, the first [n] used *)
  mutable hashes : int array; (* by id *)
  mutable n : int;
  mutable slots : int array; (* open addressing, a power of two: id or -1 *)
}

exception Bad of string

let resolver design =
  {
    design;
    driven = lazy (Graph.driven design);
    ents = [||];
    hashes = [||];
    n = 0;
    slots = Array.make 64 (-1);
  }

(* the hash step the deck scan takes per path character *)
let hash_step h c = (h * 31) + Char.code c

let hash_slice s i j =
  let h = ref 0 in
  for k = i to j - 1 do
    h := hash_step !h (String.unsafe_get s k)
  done;
  !h land max_int

(* [s.[i..i+n)] = [p.[k..n)], eight bytes a step *)
let eq64 (a : int64) b = a = b

let rec same s i p k n =
  if k + 8 <= n then
    eq64 (String.get_int64_ne s (i + k)) (String.get_int64_ne p k)
    && same s i p (k + 8) n
  else
    k = n
    || String.unsafe_get s (i + k) = String.unsafe_get p k
       && same s i p (k + 1) n

(* the id of the path [s.[i..i+n)] of hash [h], or -1 *)
let rec probe r s i n h k =
  let id = Array.unsafe_get r.slots k in
  if id < 0 then -1
  else
    let p = r.ents.(id).path in
    if r.hashes.(id) = h && String.length p = n && same s i p 0 n then id
    else probe r s i n h ((k + 1) land (Array.length r.slots - 1))

let place slots h id =
  let mask = Array.length slots - 1 in
  let k = ref (h land mask) in
  while slots.(!k) >= 0 do
    k := (!k + 1) land mask
  done;
  slots.(!k) <- id

let add r e h =
  let id = r.n in
  if id = Array.length r.ents then begin
    let cap = max 16 (2 * id) in
    r.ents <- Array.init cap (fun k -> if k < id then r.ents.(k) else e);
    r.hashes <- Array.init cap (fun k -> if k < id then r.hashes.(k) else 0)
  end;
  r.ents.(id) <- e;
  r.hashes.(id) <- h;
  r.n <- id + 1;
  if 2 * r.n > Array.length r.slots then begin
    r.slots <- Array.make (2 * Array.length r.slots) (-1);
    for k = 0 to r.n - 1 do
      place r.slots r.hashes.(k) k
    done
  end
  else place r.slots h id;
  id

(* the entry id of the path [s.[i..j)] of hash [h]; raises [Bad] on a
   path that names nothing or a net the design drives *)
let resolve r s i j h =
  match probe r s i (j - i) h (h land (Array.length r.slots - 1)) with
  | -1 ->
      let e =
        match port r.design (String.sub s i (j - i)) with
        | Ok e -> e
        | Error m -> raise (Bad m)
      in
      if Array.exists (Lazy.force r.driven) e.nets then
        raise
          (Bad
             (Printf.sprintf
                "%s is driven by the design, so a poke of it would be \
                 ignored (only inputs, registers and undriven nets take \
                 pokes)"
                e.path));
      add r e h
  | id -> id

(* a poke of 0 or 1 sets one bit, so it needs a single-bit path; any
   poke must fit the path, 0..2^width-1, rather than be truncated *)
let poke_error { path; nets } v =
  let width = Array.length nets in
  if v < 0 || (width < Sys.int_size - 1 && v lsr width <> 0) then
    Some
      (Printf.sprintf "%s=%d: out of range for the %d-bit path %s (0..%s)" path
         v width path
         (if width < Sys.int_size - 1 then string_of_int ((1 lsl width) - 1)
          else Printf.sprintf "2^%d-1" width))
  else if v <= 1 && width <> 1 then
    Some
      (Printf.sprintf "%s=%d: 0/1 pokes a single bit, but %s is %d bits wide"
         path v path width)
  else None

let poke r path v =
  let n = String.length path in
  match resolve r path 0 n (hash_slice path 0 n) with
  | exception Bad m -> Error m
  | id -> (
      let e = r.ents.(id) in
      match poke_error e v with Some m -> Error m | None -> Ok e)

(* ------------------------------------------------------------------ *)
(* The deck reader *)

(* [s.[i..j)] as [int_of_string_opt] reads it, raising [Not_found] on
   anything else; plain decimals of up to 18 digits are read in place
   (closure-free, so a value read allocates nothing) *)
let int_of_copy s i j =
  match int_of_string_opt (String.sub s i (j - i)) with
  | Some n -> n
  | None -> raise Not_found

let rec decimal s i j k n =
  if k = j then n
  else
    match String.unsafe_get s k with
    | '0' .. '9' as c -> decimal s i j (k + 1) ((n * 10) + Char.code c - 48)
    | _ -> int_of_copy s i j

let int_at s i j =
  if j > i && j - i <= 18 then decimal s i j i 0 else int_of_copy s i j

(* [s.[i..j)] = [lit] *)
let is s i j lit = j - i = String.length lit && same s i lit 0 (j - i)

(* [String.trim]'s blanks; tokens are separated by spaces only *)
let blank c = c = ' ' || c = '\t' || c = '\r' || c = '\012' || c = '\n'

(* the end of the token starting at [i], within a line ending at [e] *)
let rec token_end s i e =
  if i < e && String.unsafe_get s i <> ' ' then token_end s (i + 1) e else i

(* the line [s.[i..e)] starts with the word [lit] *)
let starts_with_word s i e lit =
  let j = i + String.length lit in
  j <= e && is s i j lit && (j = e || String.unsafe_get s j = ' ')

let read_deck design ~name ~watch src =
  let len = String.length src in
  let lineno = ref 0 in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        failwith (Printf.sprintf "batch file %s: line %d: %s" name !lineno m))
      fmt
  in
  let sub i j = String.sub src i (j - i) in
  let r = resolver design in
  let b = Buffer.create (1 + (len / 8)) in
  let watches = Array.of_list watch in
  let watch = Array.init (Array.length watches) Fun.id in
  let runs = ref [] in
  (* the run being read: its header's options and its stimulus lines *)
  let open_run = ref false and seed = ref None and cycles = ref None in
  let off = ref 0 and lines = ref 0 in
  let flush () =
    if !open_run then
      runs :=
        {
          off = !off;
          lines = !lines;
          cycles = Option.value !cycles ~default:!lines;
          seed = !seed;
          watch;
        }
        :: !runs
  in
  (* the '=' and the end of the key=value token starting at [i] *)
  let split_kv i e =
    let j = token_end src i e in
    match String.index_from_opt src i '=' with
    | Some k when k < j -> (k, j)
    | _ -> fail "expected key=value, got %S" (sub i j)
  in
  let header i e =
    flush ();
    open_run := true;
    seed := None;
    cycles := None;
    off := Buffer.length b;
    lines := 0;
    let i = ref i in
    while !i < e do
      if src.[!i] = ' ' then incr i
      else begin
        let k, j = split_kv !i e in
        (* the repeat checks are written out: a closure here would
           capture the cursor [i] and box it, once per run *)
        if is src !i k "seed" then (
          if Option.is_some !seed then
            fail "repeated run option %S" (sub !i k);
          match int_at src (k + 1) j with
          | n -> seed := Some n
          | exception Not_found ->
              fail "seed must be an integer, got %S" (sub (k + 1) j))
        else if is src !i k "cycles" then (
          if Option.is_some !cycles then
            fail "repeated run option %S" (sub !i k);
          match int_at src (k + 1) j with
          | n when n >= 0 -> cycles := Some n
          | _ | (exception Not_found) ->
              fail "cycles must be a non-negative integer")
        else fail "unknown run option %S" (sub !i k);
        i := j
      end
    done
  in
  (* one line of pokes [i, e): each path hashed on the way to its '=',
     each value read in place, both appended to the run's stream *)
  let pokes i e =
    let i = ref i in
    while !i < e do
      if String.unsafe_get src !i = ' ' then incr i
      else begin
        let t = !i and k = ref !i and h = ref 0 in
        while
          !k < e
          &&
          let c = String.unsafe_get src !k in
          c <> '=' && c <> ' '
        do
          h := hash_step !h (String.unsafe_get src !k);
          incr k
        done;
        let k = !k in
        if k = e || String.unsafe_get src k = ' ' then
          fail "expected key=value, got %S" (sub t k);
        (* a plain decimal is read on the way to the token's end *)
        let j = ref (k + 1) and v = ref 0 in
        while
          !j < e
          &&
          let c = String.unsafe_get src !j in
          c >= '0' && c <= '9'
        do
          v := (!v * 10) + Char.code (String.unsafe_get src !j) - 48;
          incr j
        done;
        let digits = !j in
        let j = token_end src digits e in
        let v =
          if digits = j && j > k + 1 && j - k - 1 <= 18 then !v
          else
            match int_of_copy src (k + 1) j with
            | v -> v
            | exception Not_found ->
                fail "poke value must be an integer, got %S" (sub (k + 1) j)
        in
        let id =
          try resolve r src t k (!h land max_int) with Bad m -> fail "%s" m
        in
        (match poke_error r.ents.(id) v with
        | Some m -> fail "%s" m
        | None -> ());
        add_varint b (int_key id);
        add_varint b v;
        i := j
      end
    done;
    end_line b;
    incr lines
  in
  let line lo hi =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi && blank (String.unsafe_get src !lo) do incr lo done;
    while !hi > !lo && blank (String.unsafe_get src (!hi - 1)) do decr hi done;
    let lo = !lo and hi = !hi in
    if lo = hi || src.[lo] = '#' then ()
    else if starts_with_word src lo hi "run" then header (lo + 3) hi
    else if not !open_run then fail "stimulus line before any 'run' header"
    else if is src lo hi "-" then pokes hi hi
    else pokes lo hi
  in
  (* lines end at '\n'; like [String.split_on_char], a final '\n' is
     followed by one (empty) line *)
  let start = ref 0 in
  while !start <= len do
    let stop = ref !start in
    while !stop < len && String.unsafe_get src !stop <> '\n' do incr stop done;
    incr lineno;
    line !start !stop;
    start := !stop + 1
  done;
  flush ();
  if !runs = [] then failwith (Printf.sprintf "batch file %s: no runs" name);
  {
    entries = Array.sub r.ents 0 r.n;
    lits = [||];
    pokes = Buffer.contents b;
    runs = Array.of_list (List.rev !runs);
    watches;
  }

(* ------------------------------------------------------------------ *)
(* The string-path front end *)

type batch_run = {
  br_stim : (string * Logic.t list) list array;
  br_cycles : int;
  br_seed : int option;
  br_watch : string list;
}

(* the 0/1 list [bits] as an integer, MSB first, or -1 *)
let rec int_of_bits acc = function
  | [] -> acc
  | Logic.Zero :: bits -> int_of_bits (2 * acc) bits
  | Logic.One :: bits -> int_of_bits ((2 * acc) + 1) bits
  | (Logic.Undef | Logic.Noinfl) :: _ -> -1

let of_batch_runs design (runs : batch_run array) =
  let exception Bad_batch of string in
  let bad fmt = Fmt.kstr (fun m -> raise (Bad_batch m)) fmt in
  let b = Buffer.create 256 in
  (* the interned literals and watches *)
  let intern tbl rev key make =
    match Hashtbl.find_opt tbl key with
    | Some id -> id
    | None ->
        let id = Hashtbl.length tbl in
        rev := make () :: !rev;
        Hashtbl.add tbl key id;
        id
  in
  let paths = Hashtbl.create 64 and entries = ref [] in
  let lit_ids = Hashtbl.create 16 and lits = ref [] in
  let watch_ids = Hashtbl.create 16 and watches = ref [] in
  (* a path's entry id and width *)
  let entry i c p =
    match Hashtbl.find_opt paths p with
    | Some e -> e
    | None -> (
        match port design p with
        | Error msg -> bad "run %d, cycle %d: %s" i c msg
        | Ok e ->
            let id = (Hashtbl.length paths, Array.length e.nets) in
            entries := e :: !entries;
            Hashtbl.add paths p id;
            id)
  in
  let poke i c (p, bits) =
    let id, width = entry i c p in
    if List.compare_length_with bits width <> 0 then
      bad "run %d, cycle %d: %s: a %d-bit poke of the %d-bit path" i c p
        (List.length bits) width;
    match if width < Sys.int_size then int_of_bits 0 bits else -1 with
    | -1 ->
        add_varint b (lit_key id);
        add_varint b (intern lit_ids lits bits (fun () -> Array.of_list bits))
    | v ->
        add_varint b (int_key id);
        add_varint b v
  in
  let watched i p =
    intern watch_ids watches p (fun () ->
        match port design p with Ok e -> e | Error msg -> bad "run %d: %s" i msg)
  in
  let pack i r =
    let off = Buffer.length b in
    Array.iteri
      (fun c line ->
        List.iter (poke i c) line;
        end_line b)
      r.br_stim;
    {
      off;
      lines = Array.length r.br_stim;
      cycles = r.br_cycles;
      seed = r.br_seed;
      watch = Array.of_list (List.map (watched i) r.br_watch);
    }
  in
  match Array.mapi pack runs with
  | runs ->
      let arr l = Array.of_list (List.rev l) in
      Ok
        {
          entries = arr !entries;
          lits = arr !lits;
          pokes = Buffer.contents b;
          runs;
          watches = arr !watches;
        }
  | exception Bad_batch msg -> Error msg
