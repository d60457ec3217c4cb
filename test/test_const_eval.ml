(* Constant expressions (section 3.1): Modula-2 arithmetic, relations,
   the predefined functions min/max/odd, BIN/NUM, signal constants. *)

open Zeus

let eval ?(env = []) src =
  let lookup (id : Ast.ident) = List.assoc_opt id.Ast.id env in
  match Parser.constant_expression src with
  | Some e, _ -> Const_eval.eval_int lookup e
  | None, bag -> Alcotest.failf "parse failed: %a" Diag.Bag.pp bag

let check_int ?env name src expected =
  Alcotest.(check int) name expected (eval ?env src)

let eval_err ?(env = []) src =
  let lookup (id : Ast.ident) = List.assoc_opt id.Ast.id env in
  match Parser.constant_expression src with
  | Some e, _ -> (
      match Const_eval.eval_int lookup e with
      | v -> Alcotest.failf "expected error for %S, got %d" src v
      | exception Const_eval.Error _ -> ())
  | None, _ -> () (* parse error also counts *)

let test_arithmetic () =
  check_int "add" "1+2" 3;
  check_int "precedence" "1+2*3" 7;
  check_int "parens" "(1+2)*3" 9;
  check_int "sub chain" "10-3-2" 5;
  check_int "div" "7 DIV 2" 3;
  check_int "mod" "7 MOD 2" 1;
  check_int "unary minus" "-4+1" (-3);
  check_int "unary plus" "+4" 4

let test_relations () =
  check_int "lt" "1 < 2" 1;
  check_int "ge" "1 >= 2" 0;
  check_int "eq" "3 = 3" 1;
  check_int "neq" "3 <> 3" 0;
  check_int "le" "2 <= 2" 1;
  check_int "gt" "3 > 1" 1

let test_boolean_ops () =
  check_int "and" "1 AND 1" 1;
  check_int "and false" "1 AND 0" 0;
  check_int "or" "0 OR 1" 1;
  check_int "not" "NOT 0" 1;
  check_int "not nonzero" "NOT 5" 0;
  (* i MOD 2 <> 0, the condition from the binary-tree example *)
  check_int "paper condition" "5 MOD 2 <> 0" 1

let test_predefined () =
  check_int "min" "min(3,5)" 3;
  check_int "max" "max(3,5)" 5;
  check_int "min3" "min(7,2,9)" 2;
  check_int "odd true" "odd(3)" 1;
  check_int "odd false" "odd(4)" 0;
  (* the chessboard condition *)
  check_int "odd(i+j)" ~env:[ ("i", Cval.Vint 2); ("j", Cval.Vint 3) ]
    "odd(i+j)" 1

let test_env () =
  check_int "lookup" ~env:[ ("n", Cval.Vint 8) ] "n DIV 2" 4;
  check_int "nested" ~env:[ ("n", Cval.Vint 8) ] "2*n-1" 15

let test_errors () =
  eval_err "1 DIV 0";
  eval_err "1 MOD 0";
  eval_err "undefined_name";
  eval_err "odd(1,2)";
  eval_err ~env:[ ("s", Cval.Vsig (Cval.Leaf Logic.One)) ] "s + 1";
  (* arithmetic that would wrap is an overflow error; the extremes
     themselves still evaluate *)
  let env = [ ("big", Cval.Vint max_int); ("small", Cval.Vint min_int) ] in
  eval_err ~env "big + 1";
  eval_err ~env "small - 1";
  eval_err ~env "big * 2";
  eval_err ~env "small * (0 - 1)";
  eval_err ~env "small DIV (0 - 1)";
  eval_err ~env "-small";
  check_int ~env "max_int" "big - 1 + 1" max_int;
  check_int ~env "min_int" "-big - 1" min_int;
  check_int ~env "negative product" "(big DIV 2) * (0 - 2)" (-(max_int - 1))

(* ---- BIN and NUM ---- *)

let test_bin () =
  let bits v w = Cval.sctree_leaves (Cval.bin v w) in
  Alcotest.(check (list char))
    "BIN(10,5)" [ '0'; '1'; '0'; '1'; '0' ]
    (List.map Logic.to_char (bits 10 5));
  Alcotest.(check (list char))
    "BIN(1,5)" [ '0'; '0'; '0'; '0'; '1' ]
    (List.map Logic.to_char (bits 1 5));
  Alcotest.(check (list char)) "BIN(0,1)" [ '0' ] (List.map Logic.to_char (bits 0 1))

let test_num () =
  Alcotest.(check (option int))
    "NUM of defined" (Some 10)
    (Cval.num [ Logic.Zero; Logic.One; Logic.Zero; Logic.One; Logic.Zero ]);
  Alcotest.(check (option int))
    "NUM with UNDEF" None
    (Cval.num [ Logic.One; Logic.Undef ]);
  Alcotest.(check (option int)) "NUM empty" (Some 0) (Cval.num [])

let prop_bin_num_inverse =
  QCheck.Test.make ~count:500 ~name:"num_bin_inverse"
    QCheck.(pair (int_bound 4095) (int_range 12 16))
    (fun (v, w) ->
      Cval.num (Cval.sctree_leaves (Cval.bin v w)) = Some v)

let prop_bin_width =
  QCheck.Test.make ~count:200 ~name:"bin_width"
    QCheck.(pair (int_bound 100000) (int_range 1 24))
    (fun (v, w) -> Cval.sctree_width (Cval.bin v w) = w)

(* ---- signal constants ---- *)

let eval_sig src =
  let prog =
    match Parser.program ("CONST c = " ^ src ^ ";") with
    | Some [ Ast.Dconst [ (_, k) ] ], _ -> k
    | _ -> Alcotest.failf "parse failed for %s" src
  in
  Const_eval.eval_constant (fun _ -> None) prog

let test_sig_consts () =
  (match eval_sig "(0,1,UNDEF,NOINFL)" with
  | Cval.Vsig (Cval.Tuple [ Cval.Leaf Logic.Zero; Cval.Leaf Logic.One;
                            Cval.Leaf Logic.Undef; Cval.Leaf Logic.Noinfl ])
    ->
      ()
  | _ -> Alcotest.fail "basic signal constants");
  match eval_sig "((0,1),(1,0))" with
  | Cval.Vsig t -> Alcotest.(check int) "width" 4 (Cval.sctree_width t)
  | _ -> Alcotest.fail "nested tuple"

let test_octal_in_const () =
  check_int "octal" "17B + 1" 16

let () =
  Alcotest.run "const_eval"
    [
      ( "numeric",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "relations" `Quick test_relations;
          Alcotest.test_case "boolean ops" `Quick test_boolean_ops;
          Alcotest.test_case "predefined" `Quick test_predefined;
          Alcotest.test_case "environment" `Quick test_env;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "octal" `Quick test_octal_in_const;
        ] );
      ( "bin_num",
        [
          Alcotest.test_case "bin" `Quick test_bin;
          Alcotest.test_case "num" `Quick test_num;
          QCheck_alcotest.to_alcotest prop_bin_num_inverse;
          QCheck_alcotest.to_alcotest prop_bin_width;
        ] );
      ( "signal_constants",
        [ Alcotest.test_case "tuples" `Quick test_sig_consts ] );
    ]
