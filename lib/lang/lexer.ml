(* Hand-written lexer for the Zeus vocabulary (report section 2).

   - identifiers: letter { letter | digit }
   - numbers: digit { digit } [ "B" | "b" ]  (the suffix marks octal)
   - comments: <* ... *>, nesting allowed
   - keywords are the upper-case reserved words of section 2. *)

open Zeus_base

type state = {
  src : string;
  mutable pos : Loc.pos;
  bag : Diag.Bag.t;
}

let create ?(bag = Diag.Bag.create ()) src = { src; pos = Loc.start_pos; bag }

let at_end st = st.pos.Loc.offset >= String.length st.src

let peek_char st =
  if at_end st then None else Some st.src.[st.pos.Loc.offset]

let peek_char2 st =
  if st.pos.Loc.offset + 1 >= String.length st.src then None
  else Some st.src.[st.pos.Loc.offset + 1]

let advance st =
  match peek_char st with
  | None -> ()
  | Some c -> st.pos <- Loc.advance st.pos c

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let is_digit c = c >= '0' && c <= '9'

let is_ident_char c = is_letter c || is_digit c

(* Skip whitespace and (possibly nested) <* ... *> comments. *)
let rec skip_trivia st =
  match peek_char st with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance st;
      skip_trivia st
  | Some '<' when peek_char2 st = Some '*' ->
      let start = st.pos in
      advance st;
      advance st;
      skip_comment st start 1;
      skip_trivia st
  | _ -> ()

and skip_comment st start depth =
  if depth = 0 then ()
  else
    match peek_char st with
    | None ->
        Diag.Bag.error st.bag Diag.Lex_error
          (Loc.make start st.pos)
          "unterminated comment"
    | Some '*' when peek_char2 st = Some '>' ->
        advance st;
        advance st;
        skip_comment st start (depth - 1)
    | Some '<' when peek_char2 st = Some '*' ->
        advance st;
        advance st;
        skip_comment st start (depth + 1)
    | Some _ ->
        advance st;
        skip_comment st start depth

let lex_ident st =
  let start = st.pos in
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek_char st with
    | Some c when is_ident_char c ->
        Buffer.add_char buf c;
        advance st;
        loop ()
    | _ -> ()
  in
  loop ();
  let s = Buffer.contents buf in
  let tok =
    match Token.keyword_of_string s with
    | Some k -> Token.Keyword k
    | None -> Token.Ident s
  in
  { Token.tok; loc = Loc.make start st.pos }

(* Numbers: decimal by default; a trailing B/b re-reads the digits as
   octal (Modula-2 style).  A digit string containing 8/9 with an octal
   suffix is an error. *)
let lex_number st =
  let start = st.pos in
  let buf = Buffer.create 8 in
  let rec loop () =
    match peek_char st with
    | Some c when is_digit c ->
        Buffer.add_char buf c;
        advance st;
        loop ()
    | _ -> ()
  in
  loop ();
  let digits = Buffer.contents buf in
  let octal =
    match peek_char st with
    | Some ('B' | 'b')
      when not (Option.fold ~none:false ~some:is_ident_char (peek_char2 st))
      ->
        advance st;
        true
    | _ -> false
  in
  let loc = Loc.make start st.pos in
  let too_large () =
    Diag.Bag.error st.bag Diag.Lex_error loc
      "integer literal %s%s exceeds the largest integer %d" digits
      (if octal then "B" else "") max_int;
    0
  in
  let value =
    if octal then (
      if String.exists (fun c -> c = '8' || c = '9') digits then (
        Diag.Bag.error st.bag Diag.Lex_error loc
          "digit 8 or 9 in octal number %sB" digits;
        0)
      else
        (* an octal literal of 63 bits parses, but wraps negative *)
        match int_of_string_opt ("0o" ^ digits) with
        | Some v when v >= 0 -> v
        | _ -> too_large ())
    else
      match int_of_string_opt digits with Some v -> v | None -> too_large ()
  in
  { Token.tok = Token.Number value; loc }

let symbol st tok n =
  let start = st.pos in
  for _ = 1 to n do
    advance st
  done;
  { Token.tok; loc = Loc.make start st.pos }

let rec next st =
  skip_trivia st;
  let start = st.pos in
  match peek_char st with
  | None -> { Token.tok = Token.Eof; loc = Loc.make start start }
  | Some c when is_letter c -> lex_ident st
  | Some c when is_digit c -> lex_number st
  | Some '+' -> symbol st Token.Plus 1
  | Some '-' -> symbol st Token.Minus 1
  | Some '(' -> symbol st Token.Lparen 1
  | Some ')' -> symbol st Token.Rparen 1
  | Some '[' -> symbol st Token.Lbracket 1
  | Some ']' -> symbol st Token.Rbracket 1
  | Some '{' -> symbol st Token.Lbrace 1
  | Some '}' -> symbol st Token.Rbrace 1
  | Some ',' -> symbol st Token.Comma 1
  | Some ';' -> symbol st Token.Semi 1
  | Some '*' -> symbol st Token.Star 1
  | Some '.' ->
      if peek_char2 st = Some '.' then symbol st Token.Dotdot 2
      else symbol st Token.Dot 1
  | Some ':' ->
      if peek_char2 st = Some '=' then symbol st Token.Assign 2
      else symbol st Token.Colon 1
  | Some '=' ->
      if peek_char2 st = Some '=' then symbol st Token.Alias 2
      else symbol st Token.Eq 1
  | Some '<' -> (
      match peek_char2 st with
      | Some '=' -> symbol st Token.Le 2
      | Some '>' -> symbol st Token.Neq 2
      | _ -> symbol st Token.Lt 1)
  | Some '>' ->
      if peek_char2 st = Some '=' then symbol st Token.Ge 2
      else symbol st Token.Gt 1
  | Some c ->
      advance st;
      Diag.Bag.error st.bag Diag.Lex_error
        (Loc.make start st.pos)
        "illegal character %C" c;
      next st

(* Lex the whole input into an array (the parser backtracks by index). *)
let tokenize ?bag src =
  let st = create ?bag src in
  let rec loop acc =
    let t = next st in
    if t.Token.tok = Token.Eof then List.rev (t :: acc) else loop (t :: acc)
  in
  Array.of_list (loop [])
