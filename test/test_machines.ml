(* Differential tests for the larger machines the report's abstract lists
   ("AM2901, dictionary machines, systolic stacks"): the Zeus designs are
   simulated against pure-OCaml golden models on random workloads. *)

open Zeus

let logic = Alcotest.testable Logic.pp Logic.equal

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

(* ---- AM2901 ---- *)

type alu_io = {
  i : int;
  a : int;
  b : int;
  d : int;
  cin : bool;
}

(* the ALU's handle and its ports, each port resolved once *)
type alu = {
  sim : Sim.t;
  pi : Sim.port;
  pa : Sim.port;
  pb : Sim.port;
  pd : Sim.port;
  pcin : Sim.port;
  py : Sim.port;
  pcout : Sim.port;
  pfzero : Sim.port;
  pf3 : Sim.port;
}

let alu_create () =
  let d = compile Corpus.am2901 in
  let port = Testbench.port d in
  {
    sim = Sim.create d;
    pi = port "alu.i";
    pa = port "alu.a";
    pb = port "alu.b";
    pd = port "alu.d";
    pcin = port "alu.cin";
    py = port "alu.y";
    pcout = port "alu.cout";
    pfzero = port "alu.fzero";
    pf3 = port "alu.f3";
  }

(* a single-bit port's value *)
let bit sim p = List.hd (Sim.get sim p)

let run_alu_zeus alu { i; a; b; d; cin } =
  let sim = alu.sim in
  Sim.set_int sim alu.pi i;
  Sim.set_int sim alu.pa a;
  Sim.set_int sim alu.pb b;
  Sim.set_int sim alu.pd d;
  Sim.set_int sim alu.pcin (Bool.to_int cin);
  Sim.step sim;
  ( Sim.get_int sim alu.py,
    bit sim alu.pcout,
    bit sim alu.pfzero,
    bit sim alu.pf3 )

(* the register file and Q start undefined: initialise them through the
   datapath (D -> B via ADD with DZ source, RAMF dest; Q via QREG) *)
let init_alu alu model =
  for reg = 0 to 15 do
    let io = { i = 0o703; a = 0; b = reg; d = 0; cin = false } in
    ignore (run_alu_zeus alu io);
    ignore (Refmodel.Am2901.step model ~i:io.i ~a:io.a ~b:io.b ~d:io.d ~cin:io.cin)
  done;
  let io = { i = 0o700; a = 0; b = 0; d = 0; cin = false } in
  ignore (run_alu_zeus alu io);
  ignore (Refmodel.Am2901.step model ~i:io.i ~a:io.a ~b:io.b ~d:io.d ~cin:io.cin)

let check_against_model alu model io =
  let zy, zc, zz, zs = run_alu_zeus alu io in
  let r =
    Refmodel.Am2901.step model ~i:io.i ~a:io.a ~b:io.b ~d:io.d ~cin:io.cin
  in
  let fn = (io.i lsr 3) land 7 in
  Alcotest.(check (option int))
    (Printf.sprintf "y (i=%03o a=%d b=%d d=%d)" io.i io.a io.b io.d)
    (Some r.Refmodel.Am2901.y) zy;
  (* carry-out is only specified for the arithmetic functions *)
  if fn <= 2 then
    Alcotest.check logic "cout" (Logic.of_bool r.Refmodel.Am2901.cout) zc;
  Alcotest.check logic "fzero" (Logic.of_bool r.Refmodel.Am2901.fzero) zz;
  Alcotest.check logic "f3" (Logic.of_bool r.Refmodel.Am2901.f3) zs

let test_am2901_directed () =
  let alu = alu_create () in
  let model = Refmodel.Am2901.create () in
  init_alu alu model;
  List.iter
    (check_against_model alu model)
    [
      (* load 5 into r1: D+0, dest RAMF, B=1, source DZ(7) *)
      { i = 0o703; a = 0; b = 1; d = 5; cin = false };
      (* load 9 into r2 *)
      { i = 0o703; a = 0; b = 2; d = 9; cin = false };
      (* add r1+r2 -> r3 : source AB(1) reads A=r1,B=... careful: AB is
         (A,B); use A=1 B=2, dest RAMF writes B *)
      { i = 0o103; a = 1; b = 2; d = 0; cin = false };
      (* subtract *)
      { i = 0o112; a = 1; b = 2; d = 0; cin = true };
      (* logic ops *)
      { i = 0o133; a = 1; b = 2; d = 0; cin = false };
      { i = 0o143; a = 1; b = 2; d = 0; cin = false };
      { i = 0o163; a = 1; b = 2; d = 0; cin = false };
      (* shifts *)
      { i = 0o104; a = 1; b = 2; d = 0; cin = false };
      { i = 0o106; a = 1; b = 2; d = 0; cin = false };
      (* Y = A with RAMA *)
      { i = 0o102; a = 1; b = 2; d = 0; cin = false };
      (* Q register *)
      { i = 0o700; a = 0; b = 0; d = 12; cin = false };
      { i = 0o001; a = 1; b = 0; d = 0; cin = false };
    ]

let prop_am2901_random =
  QCheck.Test.make ~count:10 ~name:"am2901_random_programs"
    QCheck.(
      list_of_size (Gen.int_range 5 40)
        (quad (int_bound 511) (int_bound 15) (pair (int_bound 15) (int_bound 15)) bool))
    (fun prog ->
      let alu = alu_create () in
      let model = Refmodel.Am2901.create () in
      init_alu alu model;
      List.for_all
        (fun (i, a, (b, d), cin) ->
          let io = { i; a; b; d; cin } in
          let zy, _, _, _ = run_alu_zeus alu io in
          let r =
            Refmodel.Am2901.step model ~i ~a ~b ~d ~cin
          in
          zy = Some r.Refmodel.Am2901.y)
        prog)

let test_am2901_no_runtime_errors () =
  let alu = alu_create () in
  let model = Refmodel.Am2901.create () in
  init_alu alu model;
  for k = 0 to 200 do
    let io =
      { i = (k * 37) land 511; a = k land 15; b = (k / 3) land 15;
        d = (k * 7) land 15; cin = k land 1 = 1 }
    in
    ignore (run_alu_zeus alu io)
  done;
  Alcotest.(check int) "no conflicts" 0
    (List.length (Sim.runtime_errors alu.sim))

(* ---- systolic stack ---- *)

let stack_ops =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (oneof
         [ map (fun v -> `Push (v land 15)) (int_bound 15); return `Pop ]))

type stack = {
  ssim : Sim.t;
  push : Sim.port;
  pop : Sim.port;
  datain : Sim.port;
  top : Sim.port;
}

(* a stack of [depth] 4-bit words, inputs low, after the reset cycle *)
let stack_create depth =
  let d = compile (Corpus.stack ~depth ~width:4) in
  let port = Testbench.port d in
  let st =
    {
      ssim = Sim.create d;
      push = port "st.push";
      pop = port "st.pop";
      datain = port "st.datain";
      top = port "st.top";
    }
  in
  List.iter (fun p -> Sim.set_int st.ssim p 0) [ st.push; st.pop; st.datain ];
  Sim.reset st.ssim;
  st

let stack_top st = Sim.get_int st.ssim st.top

(* one operation followed by an idle cycle: register outputs show the
   previous cycle's stored value, so the idle cycle makes the new top
   observable (and exercises the hold path) *)
let run_stack_op st op =
  let sim = st.ssim in
  (match op with
  | `Push v ->
      Sim.set_int sim st.push 1;
      Sim.set_int sim st.pop 0;
      Sim.set_int sim st.datain v
  | `Pop ->
      Sim.set_int sim st.push 0;
      Sim.set_int sim st.pop 1);
  Sim.step sim;
  Sim.set_int sim st.push 0;
  Sim.set_int sim st.pop 0;
  Sim.step sim;
  stack_top st

let test_stack_directed () =
  let st = stack_create 8 in
  Sim.step st.ssim;
  (* registers hold 0 after the reset cycle *)
  Alcotest.(check (option int)) "empty top" (Some 0) (stack_top st);
  ignore (run_stack_op st (`Push 3));
  Alcotest.(check (option int)) "top 3" (Some 3) (stack_top st);
  ignore (run_stack_op st (`Push 7));
  Alcotest.(check (option int)) "top 7" (Some 7) (stack_top st);
  ignore (run_stack_op st `Pop);
  Alcotest.(check (option int)) "back to 3" (Some 3) (stack_top st);
  ignore (run_stack_op st `Pop);
  Alcotest.(check (option int)) "empty again" (Some 0) (stack_top st);
  Alcotest.(check int) "no conflicts" 0
    (List.length (Sim.runtime_errors st.ssim))

let prop_stack_vs_model =
  QCheck.Test.make ~count:30 ~name:"stack_random_vs_model"
    (QCheck.make
       ~print:(fun ops ->
         String.concat ";"
           (List.map
              (function `Push v -> Printf.sprintf "push %d" v | `Pop -> "pop")
              ops))
       stack_ops)
    (fun ops ->
      let depth = 8 in
      let st = stack_create depth in
      let model = Refmodel.Stack.create ~depth in
      List.for_all
        (fun op ->
          let top = run_stack_op st op in
          (match op with
          | `Push v -> Refmodel.Stack.push model v
          | `Pop -> Refmodel.Stack.pop model);
          top = Some (Refmodel.Stack.top model))
        ops)

let test_stack_idle_holds () =
  let st = stack_create 4 in
  ignore (run_stack_op st (`Push 9));
  Sim.set_int st.ssim st.push 0;
  Sim.step_n st.ssim 5;
  Alcotest.(check (option int)) "held across idle cycles" (Some 9)
    (stack_top st)

(* ---- dictionary machine ---- *)

let dict_design = Corpus.dictionary ~slots:8 ~keybits:6

type dict = {
  dsim : Sim.t;
  dins : Sim.port;
  ddel : Sim.port;
  dslot : Sim.port;
  ddata : Sim.port;
  dquery : Sim.port;
  member : Sim.port;
}

let dict_create () =
  let d = compile dict_design in
  let port = Testbench.port d in
  {
    dsim = Sim.create d;
    dins = port "dict.ins";
    ddel = port "dict.del";
    dslot = port "dict.slot";
    ddata = port "dict.data";
    dquery = port "dict.query";
    member = port "dict.member";
  }

let dict_io t ~ins ~del ~slot ~data ~query =
  Sim.set_int t.dsim t.dins (Bool.to_int ins);
  Sim.set_int t.dsim t.ddel (Bool.to_int del);
  Sim.set_int t.dsim t.dslot slot;
  Sim.set_int t.dsim t.ddata data;
  Sim.set_int t.dsim t.dquery query;
  Sim.step t.dsim

let member t = bit t.dsim t.member

let test_dictionary_directed () =
  let t = dict_create () in
  dict_io t ~ins:false ~del:false ~slot:0 ~data:0 ~query:0;
  Sim.reset t.dsim;
  (* insert 42 at slot 3, 17 at slot 5 *)
  dict_io t ~ins:true ~del:false ~slot:3 ~data:42 ~query:0;
  dict_io t ~ins:true ~del:false ~slot:5 ~data:17 ~query:0;
  (* membership *)
  dict_io t ~ins:false ~del:false ~slot:0 ~data:0 ~query:42;
  Alcotest.check logic "42 present" Logic.One (member t);
  dict_io t ~ins:false ~del:false ~slot:0 ~data:0 ~query:17;
  Alcotest.check logic "17 present" Logic.One (member t);
  dict_io t ~ins:false ~del:false ~slot:0 ~data:0 ~query:9;
  Alcotest.check logic "9 absent" Logic.Zero (member t);
  (* delete slot 3 *)
  dict_io t ~ins:false ~del:true ~slot:3 ~data:0 ~query:0;
  dict_io t ~ins:false ~del:false ~slot:0 ~data:0 ~query:42;
  Alcotest.check logic "42 deleted" Logic.Zero (member t);
  Alcotest.(check int) "no conflicts" 0
    (List.length (Sim.runtime_errors t.dsim))

let prop_dictionary_vs_model =
  QCheck.Test.make ~count:20 ~name:"dictionary_random_vs_model"
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (triple (int_bound 2) (int_bound 7) (int_bound 63)))
    (fun ops ->
      let t = dict_create () in
      dict_io t ~ins:false ~del:false ~slot:0 ~data:0 ~query:0;
      Sim.reset t.dsim;
      let model = Refmodel.Dictionary.create ~slots:8 in
      List.for_all
        (fun (kind, slot, key) ->
          match kind with
          | 0 ->
              dict_io t ~ins:true ~del:false ~slot ~data:key ~query:0;
              Refmodel.Dictionary.insert model ~slot ~key;
              true
          | 1 ->
              dict_io t ~ins:false ~del:true ~slot ~data:0 ~query:0;
              Refmodel.Dictionary.delete model ~slot;
              true
          | _ ->
              dict_io t ~ins:false ~del:false ~slot:0 ~data:0 ~query:key;
              Logic.equal (member t)
                (Logic.of_bool (Refmodel.Dictionary.member model key)))
        ops)

(* ---- systolic priority queue ---- *)

let pq_design = Corpus.priority_queue ~slots:8 ~width:4

type pq = {
  psim : Sim.t;
  pins : Sim.port;
  pext : Sim.port;
  pdin : Sim.port;
  pmin : Sim.port;
}

let pq_setup () =
  let d = compile pq_design in
  let port = Testbench.port d in
  let q =
    {
      psim = Sim.create d;
      pins = port "pq.ins";
      pext = port "pq.ext";
      pdin = port "pq.din";
      pmin = port "pq.minout";
    }
  in
  List.iter (fun p -> Sim.set_int q.psim p 0) [ q.pins; q.pext; q.pdin ];
  q

let pq_op q op =
  let sim = q.psim in
  (match op with
  | `Insert v ->
      Sim.set_int sim q.pins 1;
      Sim.set_int sim q.pext 0;
      Sim.set_int sim q.pdin v
  | `Extract ->
      Sim.set_int sim q.pins 0;
      Sim.set_int sim q.pext 1);
  Sim.step sim;
  Sim.set_int sim q.pins 0;
  Sim.set_int sim q.pext 0;
  Sim.step sim;
  (* idle cycle so the registers are observable *)
  Sim.get_int sim q.pmin

let test_pqueue_directed () =
  let q = pq_setup () in
  (* empty cells power up at the all-ones maximum via REG(1) — no reset *)
  Sim.step q.psim;
  Alcotest.(check (option int)) "empty min" (Some 15)
    (Sim.get_int q.psim q.pmin);
  Alcotest.(check (option int)) "insert 9" (Some 9) (pq_op q (`Insert 9));
  Alcotest.(check (option int)) "insert 3" (Some 3) (pq_op q (`Insert 3));
  Alcotest.(check (option int)) "insert 11 keeps 3" (Some 3)
    (pq_op q (`Insert 11));
  Alcotest.(check (option int)) "extract -> 9" (Some 9) (pq_op q `Extract);
  Alcotest.(check (option int)) "extract -> 11" (Some 11) (pq_op q `Extract);
  Alcotest.(check (option int)) "extract -> empty" (Some 15)
    (pq_op q `Extract);
  Alcotest.(check int) "no conflicts" 0
    (List.length (Sim.runtime_errors q.psim))

let prop_pqueue_vs_model =
  QCheck.Test.make ~count:25 ~name:"pqueue_random_vs_model"
    QCheck.(
      list_of_size (Gen.int_range 1 40)
        (oneof [ map (fun v -> `Insert (v land 14)) (int_bound 14);
                 always `Extract ]))
    (fun ops ->
      let q = pq_setup () in
      let model = Refmodel.Pqueue.create ~slots:8 ~width:4 in
      List.for_all
        (fun op ->
          let got = pq_op q op in
          (match op with
          | `Insert v -> Refmodel.Pqueue.insert model v
          | `Extract -> Refmodel.Pqueue.extract model);
          got = Some (Refmodel.Pqueue.min model))
        ops)

(* ---- odd-even transposition sorter ---- *)

let sort_with_hardware values w =
  let n = List.length values in
  let d = compile (Corpus.sorter ~n ~w) in
  let sim = Sim.create d in
  let load = Testbench.port d "srt.load" in
  let ports f = List.init n (fun i -> Testbench.port d (Printf.sprintf f (i + 1))) in
  let din = ports "srt.din[%d]" in
  Sim.set_int sim load 0;
  List.iter (fun p -> Sim.set_int sim p 0) din;
  Sim.reset sim;
  (* load the input vector *)
  List.iter2 (Sim.set_int sim) din values;
  Sim.set_int sim load 1;
  Sim.step sim;
  Sim.set_int sim load 0;
  (* n phases suffice for odd-even transposition sort *)
  Sim.step_n sim (n + 1);
  let out = List.map (Sim.get_int sim) (ports "srt.dout[%d]") in
  (out, Sim.runtime_errors sim)

let test_sorter_directed () =
  let out, errors = sort_with_hardware [ 7; 3; 15; 0; 9; 9; 1; 4 ] 4 in
  Alcotest.(check (list (option int)))
    "sorted"
    (List.map Option.some [ 0; 1; 3; 4; 7; 9; 9; 15 ])
    out;
  Alcotest.(check int) "no double drives (disjoint parity guards)" 0
    (List.length errors)

let prop_sorter_random =
  QCheck.Test.make ~count:25 ~name:"sorter_random_vs_list_sort"
    QCheck.(list_of_size (Gen.int_range 2 10) (int_bound 15))
    (fun values ->
      let out, errors = sort_with_hardware values 4 in
      errors = []
      && out = List.map Option.some (List.sort compare values))

let () =
  Alcotest.run "machines"
    [
      ( "am2901",
        [
          Alcotest.test_case "directed" `Quick test_am2901_directed;
          QCheck_alcotest.to_alcotest prop_am2901_random;
          Alcotest.test_case "no runtime errors" `Quick
            test_am2901_no_runtime_errors;
        ] );
      ( "systolic_stack",
        [
          Alcotest.test_case "directed" `Quick test_stack_directed;
          QCheck_alcotest.to_alcotest prop_stack_vs_model;
          Alcotest.test_case "idle holds" `Quick test_stack_idle_holds;
        ] );
      ( "dictionary",
        [
          Alcotest.test_case "directed" `Quick test_dictionary_directed;
          QCheck_alcotest.to_alcotest prop_dictionary_vs_model;
        ] );
      ( "priority_queue",
        [
          Alcotest.test_case "directed" `Quick test_pqueue_directed;
          QCheck_alcotest.to_alcotest prop_pqueue_vs_model;
        ] );
      ( "sorter",
        [
          Alcotest.test_case "directed" `Quick test_sorter_directed;
          QCheck_alcotest.to_alcotest prop_sorter_random;
        ] );
    ]
