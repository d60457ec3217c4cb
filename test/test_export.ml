(* The Verilog backend: name mangling, the structural round-trip
   property on generated programs, corpus-wide export, testbench
   generation, and the error paths.

   Nothing here needs an external Verilog tool: the round-trip checks
   go through [Verilog.parse_module], the minimal structural reader.
   The external differential (iverilog compiles the module, vvp runs
   the self-checking bench to ZEUS_TB_OK) is oracle row O9, exercised
   by [zeusc fuzz] in the nightly CI job where iverilog is
   installed. *)

open Zeus

(* ------------------------------------------------------------------ *)
(* Mangling                                                             *)
(* ------------------------------------------------------------------ *)

let test_mangle_basics () =
  Alcotest.(check string) "plain" "abc_1" (Verilog.mangle "abc_1");
  Alcotest.(check string) "dots" "top$da$b3$e" (Verilog.mangle "top.a[3]");
  Alcotest.(check string) "hash" "s$dand$h2$b0$e" (Verilog.mangle "s.and#2[0]");
  Alcotest.(check string) "reserved" "v$wire" (Verilog.mangle "wire");
  Alcotest.(check string) "leading digit" "v$2x" (Verilog.mangle "2x");
  Alcotest.(check string) "empty" "v$" (Verilog.mangle "");
  Alcotest.(check bool) "reserved detect" true (Verilog.is_reserved "module");
  Alcotest.(check bool) "not reserved" false (Verilog.is_reserved "modul")

let test_mangle_injective_corners () =
  (* the wrapper prefix must not let distinct paths collide: ".foo"
     escapes to "$dfoo" and wraps to "v$dfoo"; the literal path
     "v$dfoo" escapes its '$' and wraps, staying distinct *)
  let cases = [ ".foo"; "v$dfoo"; "v$"; "$"; "wire"; "v$wire"; "" ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if a <> b then
            Alcotest.(check bool)
              (Printf.sprintf "mangle %S <> mangle %S" a b)
              false
              (Verilog.mangle a = Verilog.mangle b))
        cases)
    cases

let valid_identifier s =
  s <> ""
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '_' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '$' -> true
         | _ -> false)
       s
  && not (Verilog.is_reserved s)

let prop_mangle_roundtrip =
  QCheck.Test.make ~count:500 ~name:"mangle_roundtrip"
    QCheck.(string_gen_of_size (Gen.int_range 0 30) Gen.printable)
    (fun s ->
      let m = Verilog.mangle s in
      if not (valid_identifier m) then
        QCheck.Test.fail_reportf "mangle %S = %S is not a valid identifier" s m
      else if Verilog.demangle m <> s then
        QCheck.Test.fail_reportf "demangle (mangle %S) = %S" s
          (Verilog.demangle m)
      else true)

(* ------------------------------------------------------------------ *)
(* Structural round-trip on generated programs                          *)
(* ------------------------------------------------------------------ *)

let export_exn design =
  match Verilog.export design with
  | Ok v -> v
  | Error e -> Alcotest.failf "export failed: %s" (Verilog.error_to_string e)

(* what [lower] then [write] hand a sink, as the pieces arrived, and
   how many pieces that was; a rejected design yields its error *)
let streamed design =
  Result.map
    (fun plan ->
      let pieces = ref [] in
      Verilog.write plan (fun s -> pieces := s :: !pieces);
      (String.concat "" (List.rev !pieces), List.length !pieces))
    (Verilog.lower design)

let prop_verilog_roundtrip =
  QCheck.Test.make ~count:150 ~name:"verilog_roundtrip"
    (QCheck.make ~print:Gen.to_zeus (Gen.gen ()))
    (fun p ->
      let src = Gen.to_zeus p in
      match Oracle.compile src with
      | Error diags ->
          QCheck.Test.fail_reportf "did not compile:@.%s@.%a" src
            Fmt.(list Diag.pp)
            diags
      | Ok design -> (
          let v = export_exn design in
          match Verilog.parse_module v.Verilog.text with
          | Error msg ->
              QCheck.Test.fail_reportf
                "emitted module does not parse back (%s):@.%s" msg
                v.Verilog.text
          | Ok vm ->
              if vm.Verilog.vm_name <> v.Verilog.module_name then
                QCheck.Test.fail_reportf "module name %S read back as %S"
                  v.Verilog.module_name vm.Verilog.vm_name
              else if
                vm.Verilog.vm_ports
                <> List.map
                     (fun p -> (p.Verilog.pdir, p.Verilog.pname))
                     v.Verilog.ports
              then
                QCheck.Test.fail_reportf "port list did not round-trip:@.%s"
                  v.Verilog.text
              else if vm.Verilog.vm_nets <> v.Verilog.net_count then
                QCheck.Test.fail_reportf
                  "net count %d read back as %d:@.%s" v.Verilog.net_count
                  vm.Verilog.vm_nets v.Verilog.text
              else if
                Result.map fst (streamed design) <> Ok v.Verilog.text
              then
                QCheck.Test.fail_reportf
                  "streamed bytes differ from the export text:@.%s"
                  v.Verilog.text
              else true))

(* ------------------------------------------------------------------ *)
(* Corpus: every paper example exports, parses back, and benches        *)
(* ------------------------------------------------------------------ *)

let all_corpus = Corpus.all_named @ Corpus_fsm.all_named

let test_corpus_exports () =
  List.iter
    (fun (name, src) ->
      let design =
        match Zeus.compile src with
        | Ok d -> d
        | Error _ -> Alcotest.failf "%s does not compile" name
      in
      let v = export_exn design in
      (match Verilog.parse_module v.Verilog.text with
      | Error msg -> Alcotest.failf "%s does not parse back: %s" name msg
      | Ok vm ->
          Alcotest.(check string)
            (name ^ " module name") v.Verilog.module_name vm.Verilog.vm_name;
          Alcotest.(check int)
            (name ^ " net count") v.Verilog.net_count vm.Verilog.vm_nets);
      (* a 5-cycle random deck must produce a bench for every example *)
      let deck = Verilog.random_deck ~cycles:5 v.Verilog.plan in
      match Verilog.testbench v.Verilog.plan deck with
      | Ok tb ->
          Alcotest.(check bool)
            (name ^ " bench has OK marker") true
            (let re = "ZEUS_TB_OK" in
             let n = String.length tb and m = String.length re in
             let rec go i =
               i + m <= n && (String.sub tb i m = re || go (i + 1))
             in
             go 0)
      | Error msg -> Alcotest.failf "%s testbench failed: %s" name msg)
    all_corpus

(* the register-latch rule in the emitted text: a latch keys off the
   raw (pre-booleanize) value so an all-released input keeps state *)
let test_register_block_shape () =
  let design = Zeus.compile_exn (List.assoc "section8" all_corpus) in
  let v = export_exn design in
  let has needle =
    let n = String.length v.Verilog.text and m = String.length needle in
    let rec go i =
      i + m <= n && (String.sub v.Verilog.text i m = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "posedge latch" true (has "always @(posedge clk)");
  Alcotest.(check bool) "latch guarded on raw z" true (has "!== 1'bz");
  Alcotest.(check int) "one register" 1 v.Verilog.reg_count

(* ------------------------------------------------------------------ *)
(* Error paths                                                          *)
(* ------------------------------------------------------------------ *)

(* a combinational cycle never passes [Zeus.compile] (Check rejects
   it), but [export] guards on the schedule itself for designs obtained
   without the checks — the [Cyclic] error must be reported, not a
   crash or a wrong module *)
(* ram128x16's read port resolves 128 producers per bit: the largest
   resolver expressions in the corpus.  The export text is pinned by
   digest (the end-to-end harness pins the same md5) *)
let test_wide_resolver_digest () =
  let v = export_exn (Zeus.compile_exn (Corpus.ram ~abits:7 ~wbits:16)) in
  Alcotest.(check string) "ram128x16 export md5" "d14f51887570cef4c528ad0841c0ce7f"
    (Digest.to_hex (Digest.string v.Verilog.text))

(* the writer streams: a sink receives exactly [export]'s text, in
   many pieces, on every corpus design and on two large generated ones *)
let test_stream_equals_text () =
  List.iter
    (fun (name, src) ->
      let design = Zeus.compile_exn src in
      let v = export_exn design in
      match streamed design with
      | Error e ->
          Alcotest.failf "%s: lower failed: %s" name (Verilog.error_to_string e)
      | Ok (text, pieces) ->
          Alcotest.(check bool)
            (name ^ " streamed bytes = export text") true
            (String.equal text v.Verilog.text);
          Alcotest.(check bool) (name ^ " written in pieces") true (pieces > 1))
    (all_corpus
    @ [
        ("routing16", Corpus.routing_network 16);
        ("ram64x16", Corpus.ram ~abits:6 ~wbits:16);
      ])

(* every rejection happens in [lower]: a design with a driven CLK
   reaches no writer, so a sink receives nothing *)
let test_rejected_streams_nothing () =
  let design =
    Zeus.compile_exn
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS BEGIN CLK := \
       a; y := a END; SIGNAL s: t;"
  in
  match streamed design with
  | Error (Verilog.Unsupported msg) ->
      Alcotest.(check string)
        "reason" "the predefined CLK net is driven" msg
  | Error e -> Alcotest.failf "wrong error: %s" (Verilog.error_to_string e)
  | Ok (text, _) ->
      Alcotest.failf "a driven CLK streamed %d bytes" (String.length text)

let test_cyclic_rejected () =
  let src =
    "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL u,v: \
     boolean; BEGIN u := AND(a,v); v := NOT u; y := v END; SIGNAL s: t;"
  in
  match Zeus.elaborate_with_diags src with
  | None, diags ->
      Alcotest.failf "cyclic fixture did not elaborate: %a"
        Fmt.(list Diag.pp)
        diags
  | Some design, _ -> (
      match Verilog.export design with
      | Error Verilog.Cyclic -> ()
      | Error e ->
          Alcotest.failf "expected Cyclic, got: %s" (Verilog.error_to_string e)
      | Ok _ -> Alcotest.fail "cyclic design exported")

let test_testbench_bad_poke () =
  let design = Zeus.compile_exn (List.assoc "section8" all_corpus) in
  let v = export_exn design in
  (match Verilog.testbench v.Verilog.plan [ [ ("top.nosuch", Logic.One) ] ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown poke path accepted");
  (* a poke to a driven net is ignored (as the simulator ignores it),
     so the bench still generates *)
  match Verilog.testbench v.Verilog.plan [ [ ("top.out", Logic.One) ] ] with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "driven-net poke rejected: %s" msg

let test_parse_module_errors () =
  (match Verilog.parse_module "wire w;" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "headerless text parsed");
  match Verilog.parse_module "module m (a); wire b; endmodule" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "undeclared port direction parsed"

let () =
  Alcotest.run "export"
    [
      ( "mangle",
        [
          Alcotest.test_case "basics" `Quick test_mangle_basics;
          Alcotest.test_case "injective corners" `Quick
            test_mangle_injective_corners;
          QCheck_alcotest.to_alcotest prop_mangle_roundtrip;
        ] );
      ( "roundtrip",
        [ QCheck_alcotest.to_alcotest prop_verilog_roundtrip ] );
      ( "corpus",
        [
          Alcotest.test_case "all examples export" `Quick test_corpus_exports;
          Alcotest.test_case "register block shape" `Quick
            test_register_block_shape;
          Alcotest.test_case "wide resolver digest" `Quick
            test_wide_resolver_digest;
          Alcotest.test_case "stream equals text" `Quick
            test_stream_equals_text;
        ] );
      ( "errors",
        [
          Alcotest.test_case "cyclic rejected" `Quick test_cyclic_rejected;
          Alcotest.test_case "rejected design streams nothing" `Quick
            test_rejected_streams_nothing;
          Alcotest.test_case "testbench bad poke" `Quick
            test_testbench_bad_poke;
          Alcotest.test_case "parse_module errors" `Quick
            test_parse_module_errors;
        ] );
    ]
