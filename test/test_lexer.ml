(* Lexer: the vocabulary of report section 2. *)

open Zeus

let toks src =
  let arr = Lexer.tokenize src in
  Array.to_list arr |> List.map (fun t -> t.Token.tok)
  |> List.filter (fun t -> t <> Token.Eof)

let tok_strings src = List.map Token.to_string (toks src)

let check_toks name src expected =
  Alcotest.(check (list string)) name expected (tok_strings src)

let test_symbols () =
  check_toks "all symbols" "+ - ( ) [ ] . , ; : < <= > >= := == .. * <> = { }"
    [ "+"; "-"; "("; ")"; "["; "]"; "."; ","; ";"; ":"; "<"; "<="; ">";
      ">="; ":="; "=="; ".."; "*"; "<>"; "="; "{"; "}" ]

let test_tight_symbols () =
  (* the lexer must split maximal munches correctly *)
  check_toks "a[1..2]" "a[1..2]" [ "a"; "["; "1"; ".."; "2"; "]" ];
  check_toks "x:=y" "x:=y" [ "x"; ":="; "y" ];
  check_toks "x==y" "x==y" [ "x"; "=="; "y" ];
  check_toks "x=y" "x=y" [ "x"; "="; "y" ];
  check_toks "a<>b" "a<>b" [ "a"; "<>"; "b" ];
  check_toks "a<=b" "a<=b" [ "a"; "<="; "b" ];
  check_toks "a.b" "a.b" [ "a"; "."; "b" ]

let test_keywords () =
  List.iter
    (fun (s, _) ->
      match toks s with
      | [ Token.Keyword k ] ->
          Alcotest.(check string) s s (Token.keyword_to_string k)
      | _ -> Alcotest.failf "keyword %s did not lex as keyword" s)
    Token.keyword_table

let test_keywords_case_sensitive () =
  (* lower-case spellings are plain identifiers *)
  match toks "begin end array" with
  | [ Token.Ident "begin"; Token.Ident "end"; Token.Ident "array" ] -> ()
  | _ -> Alcotest.fail "lower-case words must be identifiers"

let test_idents () =
  match toks "halfAdder x1 a2b" with
  | [ Token.Ident "halfAdder"; Token.Ident "x1"; Token.Ident "a2b" ] -> ()
  | _ -> Alcotest.fail "identifier lexing"

let test_numbers () =
  (match toks "0 1 42 007" with
  | [ Token.Number 0; Token.Number 1; Token.Number 42; Token.Number 7 ] -> ()
  | _ -> Alcotest.fail "decimal numbers");
  (* octal with B/b suffix (Modula-2 style) *)
  (match toks "17B 17b 10B" with
  | [ Token.Number 15; Token.Number 15; Token.Number 8 ] -> ()
  | _ -> Alcotest.fail "octal numbers");
  (* digit 8 in an octal literal is an error *)
  let bag = Diag.Bag.create () in
  ignore (Lexer.tokenize ~bag "18B");
  Alcotest.(check bool) "octal error" true (Diag.Bag.has_errors bag);
  (* the largest integer lexes, anything above it is an error, decimal
     or octal (a 63-bit octal would otherwise wrap negative) *)
  (match toks "4611686018427387903 377777777777777777777B" with
  | [ Token.Number a; Token.Number b ] when a = max_int && b = max_int -> ()
  | _ -> Alcotest.fail "largest integer literals");
  List.iter
    (fun src ->
      let bag = Diag.Bag.create () in
      ignore (Lexer.tokenize ~bag src);
      Alcotest.(check bool) ("too large: " ^ src) true
        (Diag.Bag.has_errors bag))
    [ "4611686018427387904"; "99999999999999999999"; "777777777777777777777B" ]

let test_comments () =
  check_toks "simple comment" "a <* hello *> b" [ "a"; "b" ];
  check_toks "nested comment" "a <* x <* y *> z *> b" [ "a"; "b" ];
  check_toks "comment with symbols" "a <* := == .. <> *> b" [ "a"; "b" ];
  let bag = Diag.Bag.create () in
  ignore (Lexer.tokenize ~bag "a <* unterminated");
  Alcotest.(check bool) "unterminated comment" true (Diag.Bag.has_errors bag)

let test_illegal_char () =
  let bag = Diag.Bag.create () in
  let ts = Lexer.tokenize ~bag "a ? b" in
  Alcotest.(check bool) "illegal char error" true (Diag.Bag.has_errors bag);
  (* lexing continues past the bad character *)
  Alcotest.(check int) "tokens survive" 3 (Array.length ts)

let test_positions () =
  let arr = Lexer.tokenize "ab\n  cd" in
  let second = arr.(1) in
  Alcotest.(check int) "line" 2 second.Token.loc.Loc.start.Loc.line;
  Alcotest.(check int) "col" 3 second.Token.loc.Loc.start.Loc.col

let test_eof () =
  let arr = Lexer.tokenize "" in
  Alcotest.(check int) "only eof" 1 (Array.length arr);
  Alcotest.(check bool) "eof token" true (arr.(0).Token.tok = Token.Eof)

(* property: lexing the printed form of a token stream gives the same
   stream back (token-level round trip) *)
let prop_roundtrip =
  let gen_token =
    QCheck.Gen.(
      oneof
        [
          map (fun k -> Token.Keyword k)
            (oneofl (List.map snd Token.keyword_table));
          map (fun n -> Token.Number (abs n mod 100000)) int;
          map
            (fun (c, s) ->
              Token.Ident
                (String.make 1 (Char.chr (Char.code 'a' + (abs c mod 26)))
                ^ String.concat ""
                    (List.map
                       (fun i ->
                         String.make 1
                           (Char.chr (Char.code 'a' + (abs i mod 26))))
                       s)))
            (pair int (list_size (int_range 0 6) int));
          oneofl
            [
              Token.Plus; Token.Minus; Token.Lparen; Token.Rparen;
              Token.Lbracket; Token.Rbracket; Token.Lbrace; Token.Rbrace;
              Token.Comma; Token.Semi; Token.Colon; Token.Lt; Token.Le;
              Token.Gt; Token.Ge; Token.Eq; Token.Neq; Token.Assign;
              Token.Alias; Token.Star; Token.Dotdot;
            ];
        ])
  in
  QCheck.Test.make ~count:300 ~name:"token_roundtrip"
    (QCheck.make
       ~print:(fun ts -> String.concat " " (List.map Token.to_string ts))
       (QCheck.Gen.list_size (QCheck.Gen.int_range 0 30) gen_token))
    (fun ts ->
      (* identifiers that happen to spell a keyword lex back as keywords;
         skip those cases *)
      let safe =
        List.for_all
          (function
            | Token.Ident s -> Token.keyword_of_string s = None
            | _ -> true)
          ts
      in
      QCheck.assume safe;
      let printed = String.concat " " (List.map Token.to_string ts) in
      toks printed = ts)

let () =
  Alcotest.run "lexer"
    [
      ( "lexer",
        [
          Alcotest.test_case "symbols" `Quick test_symbols;
          Alcotest.test_case "tight symbols" `Quick test_tight_symbols;
          Alcotest.test_case "keywords" `Quick test_keywords;
          Alcotest.test_case "case sensitivity" `Quick test_keywords_case_sensitive;
          Alcotest.test_case "identifiers" `Quick test_idents;
          Alcotest.test_case "numbers" `Quick test_numbers;
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "illegal chars" `Quick test_illegal_char;
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "eof" `Quick test_eof;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_roundtrip ]);
    ]
