(* Language-corner sweep: one end-to-end test per Zeus feature that the
   other suites touch only incidentally — WITH nesting, field ranges,
   DOWNTO, record (bus) types, octal, star widths, conditional
   generation chains, parameterized type plumbing, hierarchical INOUT
   aliasing, uses lists, named signal constants. *)

open Zeus

(* a single-bit port's value *)
let one_bit sim p =
  match Sim.get sim p with
  | [ v ] -> v
  | l -> Alcotest.failf "%s: %d bits" p.Sim.path (List.length l)

let logic = Alcotest.testable Logic.pp Logic.equal

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

let sim_of src = Sim.create (compile src)

(* ---- WITH statements ---- *)

let test_with_nested () =
  let sim =
    sim_of
      "TYPE inner = COMPONENT (IN a: boolean; OUT b: boolean) IS BEGIN b := \
       NOT a END;\n\
       outer = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL i: \
       inner; BEGIN WITH i DO a := x END; WITH i DO y := b END END;\n\
       SIGNAL s: outer;"
  in
  let p_x = Testbench.port (Sim.design sim) "s.x" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  Sim.set_int sim p_x 0;
  Sim.step sim;
  Alcotest.check logic "through two withs" Logic.One (one_bit sim p_y)

let test_with_shadowing () =
  (* the with-field wins over an outer signal of the same name
     (Modula-2 scoping, section 4.6) *)
  let sim =
    sim_of
      "TYPE inner = COMPONENT (IN a: boolean; OUT b: boolean) IS BEGIN b := \
       NOT a END;\n\
       outer = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL i: \
       inner; b: boolean; BEGIN b := x; WITH i DO a := 1; y := b END; * := \
       b END;\n\
       SIGNAL s: outer;"
  in
  let p_x = Testbench.port (Sim.design sim) "s.x" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  Sim.set_int sim p_x 1;
  Sim.step sim;
  (* y must be i.b = NOT 1 = 0, not the local b = 1 *)
  Alcotest.check logic "field shadows local" Logic.Zero
    (one_bit sim p_y)

(* ---- record (bus) types, section 3.2 ---- *)

let test_bus_record () =
  let sim =
    sim_of
      "TYPE bo3 = ARRAY[1..3] OF boolean;\n\
       bus = COMPONENT (r,s: bo3; u: boolean);\n\
       t = COMPONENT (IN x: bo3; OUT y: bo3; OUT z: boolean) IS SIGNAL b: \
       bus; BEGIN b.r := x; b.s := NOT b.r; b.u := AND(x[1],x[2]); y := \
       b.s; z := b.u END;\n\
       SIGNAL q: t;"
  in
  let p_x = Testbench.port (Sim.design sim) "q.x" in
  let p_y = Testbench.port (Sim.design sim) "q.y" in
  let p_z = Testbench.port (Sim.design sim) "q.z" in
  Sim.set_int sim p_x 0b101;
  Sim.step sim;
  Alcotest.(check (option int)) "bus wires" (Some 0b010)
    (Sim.get_int sim p_y);
  Alcotest.check logic "bus bit" Logic.Zero (one_bit sim p_z)

(* ---- field ranges .a..b (grammar line 39) ---- *)

let test_field_range () =
  let sim =
    sim_of
      "TYPE r4 = COMPONENT (a,b,c,d: boolean);\n\
       t = COMPONENT (IN x: ARRAY[1..2] OF boolean; OUT y: ARRAY[1..2] OF \
       boolean) IS SIGNAL q: r4; BEGIN q.a..b := x; y := q.a..b; * := \
       q.c..d END;\n\
       SIGNAL s: t;"
  in
  let p_x = Testbench.port (Sim.design sim) "s.x" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  Sim.set_int sim p_x 0b10;
  Sim.step sim;
  Alcotest.(check (option int)) "field range" (Some 0b10)
    (Sim.get_int sim p_y)

(* ---- the parenthesis-irrelevance example of section 4.7 ---- *)

let test_connection_parens_irrelevant () =
  (* "the parenthesis structure within the n signal expressions is
     unimportant": the report's own example
       s((p,q),(p[1],q[2],p[2],q[1],q[3]))  *)
  let base : (string -> string, unit, string) format =
    "TYPE five = COMPONENT (b1,c1,d1,e1,f1: multiplex);\n\
     h = COMPONENT (IN a: ARRAY[1..5] OF boolean; b: five) IS BEGIN b.b1 \
     := a[1]; b.c1 := a[2]; b.d1 := a[3]; b.e1 := a[4]; b.f1 := a[5] END;\n\
     t = COMPONENT (IN p: ARRAY[1..2] OF boolean; IN q: ARRAY[1..3] OF \
     boolean; OUT z: boolean) IS SIGNAL s: h; o: ARRAY[1..5] OF multiplex; \
     BEGIN %s; z := AND(o[1],o[2],o[3],o[4],o[5]) END;\n\
     SIGNAL x: t;"
  in
  let variants =
    [
      "s((p,q),(o[1],o[2],o[3],o[4],o[5]))";
      "s((p[1],q[2],p[2],q[1],q[3]),((o[1],o[2]),(o[3],o[4],o[5])))";
      "s((p,(q[1],q[2],q[3])),(o[1],(o[2],o[3]),(o[4],o[5])))";
    ]
  in
  List.iter
    (fun conn ->
      let sim = sim_of (Printf.sprintf base conn) in
      let p_p = Testbench.port (Sim.design sim) "x.p" in
      let p_q = Testbench.port (Sim.design sim) "x.q" in
      let p_z = Testbench.port (Sim.design sim) "x.z" in
      Sim.set_int sim p_p 0b11;
      Sim.set_int sim p_q 0b111;
      Sim.step sim;
      Alcotest.check logic
        (Printf.sprintf "all ones through %s" conn)
        Logic.One (one_bit sim p_z))
    variants

(* ---- unpoke ---- *)

let test_unpoke () =
  let sim =
    sim_of
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS BEGIN y := NOT \
       a END;\nSIGNAL s: t;"
  in
  let p_a = Testbench.port (Sim.design sim) "s.a" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  Sim.set_int sim p_a 0;
  Sim.step sim;
  Alcotest.check logic "poked" Logic.One (one_bit sim p_y);
  Sim.release sim p_a;
  Sim.step sim;
  Alcotest.check logic "floating again" Logic.Undef (one_bit sim p_y)

(* ---- DOWNTO and empty loops ---- *)

let test_downto_and_empty () =
  let sim =
    sim_of
      "TYPE t = COMPONENT (IN x: ARRAY[1..4] OF boolean; OUT y: ARRAY[1..4] \
       OF boolean) IS BEGIN FOR i := 4 DOWNTO 1 DO y[i] := x[5-i] END; FOR \
       j := 1 TO 0 DO y[99] := x[99] END END;\n\
       SIGNAL s: t;"
  in
  let p_x = Testbench.port (Sim.design sim) "s.x" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  Sim.set_int sim p_x 0b1100;
  Sim.step sim;
  Alcotest.(check (option int)) "reversed" (Some 0b0011)
    (Sim.get_int sim p_y)

(* ---- octal constants in types ---- *)

let test_octal_bounds () =
  let d =
    compile
      "TYPE t = COMPONENT (IN x: ARRAY[1..10B] OF boolean; OUT y: \
       ARRAY[1..10B] OF boolean) IS BEGIN y := x END;\nSIGNAL s: t;"
  in
  match Elaborate.resolve_path d "s.x" with
  | Ok nets -> Alcotest.(check int) "octal width" 8 (List.length nets)
  | Error e -> Alcotest.fail e

(* ---- star with width, "*:n" ---- *)

let test_star_width () =
  ignore
    (compile
       "TYPE r = COMPONENT (IN a: ARRAY[1..3] OF boolean; OUT b: boolean) \
        IS BEGIN b := AND(a[1],a[2],a[3]) END;\n\
        t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL i: r; BEGIN \
        i((x,*:2),y) END;\n\
        SIGNAL s: t;")

(* ---- WHEN / OTHERWISEWHEN chains ---- *)

let test_when_chain () =
  let variant n =
    Printf.sprintf
      "CONST n = %d;\n\
       TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS BEGIN WHEN n = \
       1 THEN y := x OTHERWISEWHEN n = 2 THEN y := NOT x OTHERWISE y := 0 \
       END END;\n\
       SIGNAL s: t;"
      n
  in
  let run n input =
    let sim = sim_of (variant n) in
    let p_x = Testbench.port (Sim.design sim) "s.x" in
    let p_y = Testbench.port (Sim.design sim) "s.y" in
    Sim.set_int sim p_x (Bool.to_int input);
    Sim.step sim;
    one_bit sim p_y
  in
  Alcotest.check logic "arm 1" Logic.One (run 1 true);
  Alcotest.check logic "arm 2" Logic.Zero (run 2 true);
  Alcotest.check logic "otherwise" Logic.Zero (run 3 true)

(* ---- parameterized types through multiple levels ---- *)

let test_parameterized_nesting () =
  let sim =
    sim_of
      "TYPE bo(n) = ARRAY[1..n] OF boolean;\n\
       pair(n) = COMPONENT (lo: bo(n); hi: bo(n));\n\
       widen(k) = COMPONENT (IN a: bo(k); OUT z: bo(2*k)) IS SIGNAL p: \
       pair(k); BEGIN p.lo := a; p.hi := NOT a; z := (p.hi,p.lo) END;\n\
       SIGNAL s: widen(3);"
  in
  let p_a = Testbench.port (Sim.design sim) "s.a" in
  let p_z = Testbench.port (Sim.design sim) "s.z" in
  Sim.set_int sim p_a 0b101;
  Sim.step sim;
  Alcotest.(check (option int)) "widened" (Some 0b010101)
    (Sim.get_int sim p_z)

let test_min_max_in_bounds () =
  let d =
    compile
      "CONST a = 3; b = 7;\n\
       TYPE t = COMPONENT (IN x: ARRAY[min(a,b)..max(a,b)] OF boolean; OUT \
       y: boolean) IS BEGIN y := x[3] END;\nSIGNAL s: t;"
  in
  match Elaborate.resolve_path d "s.x" with
  | Ok nets -> Alcotest.(check int) "min..max bounds" 5 (List.length nets)
  | Error e -> Alcotest.fail e

(* ---- INOUT aliasing through the hierarchy ---- *)

let test_inout_chain () =
  (* a multiplex wire aliased through two levels of components: a drive
     at the bottom is visible at the top *)
  let sim =
    sim_of
      "TYPE leaf = COMPONENT (w: multiplex; IN en,v: boolean) IS BEGIN IF \
       en THEN w := v END END;\n\
       mid = COMPONENT (w: multiplex; IN en,v: boolean) IS SIGNAL l: leaf; \
       BEGIN l.w == w; l.en := en; l.v := v END;\n\
       top = COMPONENT (IN en,v: boolean; OUT y: boolean) IS SIGNAL m: mid; \
       wire: multiplex; BEGIN m.w == wire; m.en := en; m.v := v; y := wire \
       END;\n\
       SIGNAL s: top;"
  in
  let p_en = Testbench.port (Sim.design sim) "s.en" in
  let p_v = Testbench.port (Sim.design sim) "s.v" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  Sim.set_int sim p_en 1;
  Sim.set_int sim p_v 1;
  Sim.step sim;
  Alcotest.check logic "aliased through two levels" Logic.One
    (one_bit sim p_y);
  Sim.set_int sim p_en 0;
  Sim.step sim;
  Alcotest.check logic "released reads UNDEF via amplifier" Logic.Undef
    (one_bit sim p_y)

(* ---- shared tri-state bus with two drivers ---- *)

let test_tristate_bus () =
  let sim =
    sim_of
      "TYPE drv = COMPONENT (w: multiplex; IN en,v: boolean) IS BEGIN IF en \
       THEN w := v END END;\n\
       top = COMPONENT (IN en1,v1,en2,v2: boolean; OUT y: boolean) IS \
       SIGNAL d1,d2: drv; bus: multiplex; BEGIN d1.w == bus; d2.w == bus; \
       d1.en := en1; d1.v := v1; d2.en := en2; d2.v := v2; y := bus END;\n\
       SIGNAL s: top;"
  in
  let p_en1 = Testbench.port (Sim.design sim) "s.en1" in
  let p_v1 = Testbench.port (Sim.design sim) "s.v1" in
  let p_en2 = Testbench.port (Sim.design sim) "s.en2" in
  let p_v2 = Testbench.port (Sim.design sim) "s.v2" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  let drive en1 v1 en2 v2 =
    Sim.set_int sim p_en1 (Bool.to_int en1);
    Sim.set_int sim p_v1 (Bool.to_int v1);
    Sim.set_int sim p_en2 (Bool.to_int en2);
    Sim.set_int sim p_v2 (Bool.to_int v2);
    Sim.step sim;
    one_bit sim p_y
  in
  Alcotest.check logic "driver 1" Logic.One (drive true true false false);
  Alcotest.check logic "driver 2" Logic.Zero (drive false true true false);
  Alcotest.check logic "no driver" Logic.Undef (drive false true false false);
  let before = List.length (Sim.runtime_errors sim) in
  ignore (drive true true true false);
  Alcotest.(check bool) "contention detected" true
    (List.length (Sim.runtime_errors sim) > before)

(* ---- named signal constants ---- *)

let test_named_sig_const () =
  let sim =
    sim_of
      "CONST zero3 = (0,0,0); pattern = (1,0,1);\n\
       TYPE t = COMPONENT (IN sel: boolean; OUT y: ARRAY[1..3] OF boolean) \
       IS BEGIN IF sel THEN y := pattern ELSE y := zero3 END END;\n\
       SIGNAL s: t;"
  in
  let p_sel = Testbench.port (Sim.design sim) "s.sel" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  Sim.set_int sim p_sel 1;
  Sim.step sim;
  Alcotest.(check (option int)) "pattern" (Some 0b101) (Sim.get_int sim p_y);
  Sim.set_int sim p_sel 0;
  Sim.step sim;
  Alcotest.(check (option int)) "zero" (Some 0) (Sim.get_int sim p_y)

let test_const_of_const () =
  let sim =
    sim_of
      "CONST base = (1,1); extended = (base,0);\n\
       TYPE t = COMPONENT (IN x: boolean; OUT y: ARRAY[1..3] OF boolean) IS \
       BEGIN * := x; y := extended END;\n\
       SIGNAL s: t;"
  in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  Sim.step sim;
  Alcotest.(check (option int)) "nested constant" (Some 0b110)
    (Sim.get_int sim p_y)

(* ---- indexed constants ---- *)

let test_indexed_constant () =
  let sim =
    sim_of
      "CONST table = ((0,0),(0,1),(1,0),(1,1));\n\
       TYPE t = COMPONENT (IN x: boolean; OUT y: ARRAY[1..2] OF boolean) IS \
       BEGIN * := x; y := table[3] END;\n\
       SIGNAL s: t;"
  in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  Sim.step sim;
  Alcotest.(check (option int)) "table[3]" (Some 0b10) (Sim.get_int sim p_y)

(* ---- array slices in assignments ---- *)

let test_array_slice () =
  let sim =
    sim_of
      "TYPE t = COMPONENT (IN x: ARRAY[1..8] OF boolean; OUT y: ARRAY[1..4] \
       OF boolean; OUT z: ARRAY[1..2] OF boolean) IS BEGIN y := x[3..6]; z \
       := x[1..2]; * := x[7..8] END;\n\
       SIGNAL s: t;"
  in
  let p_x = Testbench.port (Sim.design sim) "s.x" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  let p_z = Testbench.port (Sim.design sim) "s.z" in
  Sim.set_int sim p_x 0b10110100;
  Sim.step sim;
  Alcotest.(check (option int)) "middle slice" (Some 0b1101)
    (Sim.get_int sim p_y);
  Alcotest.(check (option int)) "head slice" (Some 0b10)
    (Sim.get_int sim p_z)

(* ---- nested SEQUENTIAL/PARALLEL ---- *)

let test_nested_seq_par () =
  ignore
    (compile
       "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL \
        u,v,w: boolean; BEGIN SEQUENTIAL PARALLEL u := NOT a; v := NOT a \
        END; SEQUENTIAL w := AND(u,v); y := NOT w END END END;\n\
        SIGNAL s: t;")

(* ---- REG(c) initialization (the reconstructed section 5.2) ---- *)

let test_reg_initial_value () =
  let sim =
    sim_of
      "TYPE t = COMPONENT (IN x: boolean; OUT y,z: boolean) IS SIGNAL a: \
       REG(1); b: REG(0); BEGIN a.in := AND(x,a.out); b.in := OR(x,b.out); \
       y := a.out; z := b.out END;\nSIGNAL s: t;"
  in
  let p_x = Testbench.port (Sim.design sim) "s.x" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  let p_z = Testbench.port (Sim.design sim) "s.z" in
  Sim.set_int sim p_x 1;
  Sim.step sim;
  (* first cycle reads the declared power-up values, no reset needed *)
  Alcotest.check logic "starts at 1" Logic.One (one_bit sim p_y);
  Alcotest.check logic "starts at 0" Logic.Zero (one_bit sim p_z)

let test_reg_init_array () =
  (* a whole register array with a common initial value *)
  let sim =
    sim_of
      "TYPE t = COMPONENT (IN x: boolean; OUT q: ARRAY[1..4] OF boolean) IS \
       SIGNAL r: ARRAY[1..4] OF REG(1); BEGIN IF x THEN r.in := BIN(0,4) \
       END; q := r.out END;\nSIGNAL s: t;"
  in
  let p_x = Testbench.port (Sim.design sim) "s.x" in
  let p_q = Testbench.port (Sim.design sim) "s.q" in
  Sim.set_int sim p_x 0;
  Sim.step sim;
  Alcotest.(check (option int)) "all ones at power-up" (Some 15)
    (Sim.get_int sim p_q)

let test_reg_init_bad_value () =
  match Zeus.compile "SIGNAL r: REG(7);" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "REG(7) must be rejected"

(* ---- CLK is readable ---- *)

let test_clk_reads_one () =
  let sim =
    sim_of
      "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS BEGIN y := \
       AND(x,CLK) END;\nSIGNAL s: t;"
  in
  let p_x = Testbench.port (Sim.design sim) "s.x" in
  let p_y = Testbench.port (Sim.design sim) "s.y" in
  Sim.set_int sim p_x 1;
  Sim.step sim;
  Alcotest.check logic "CLK ticks" Logic.One (one_bit sim p_y)

(* ---- empty statements and stray semicolons ---- *)

let test_empty_statements () =
  ignore
    (compile
       "TYPE t = COMPONENT (IN x: boolean; OUT y: boolean) IS BEGIN ; ; y \
        := NOT x ; ; END;\nSIGNAL s: t;")

let () =
  Alcotest.run "language"
    [
      ( "scoping",
        [
          Alcotest.test_case "with nested" `Quick test_with_nested;
          Alcotest.test_case "with shadowing" `Quick test_with_shadowing;
        ] );
      ( "structure",
        [
          Alcotest.test_case "connection parens" `Quick
            test_connection_parens_irrelevant;
          Alcotest.test_case "unpoke" `Quick test_unpoke;
          Alcotest.test_case "bus record" `Quick test_bus_record;
          Alcotest.test_case "field range" `Quick test_field_range;
          Alcotest.test_case "array slice" `Quick test_array_slice;
          Alcotest.test_case "parameterized nesting" `Quick
            test_parameterized_nesting;
          Alcotest.test_case "min/max bounds" `Quick test_min_max_in_bounds;
        ] );
      ( "control",
        [
          Alcotest.test_case "downto/empty" `Quick test_downto_and_empty;
          Alcotest.test_case "when chain" `Quick test_when_chain;
          Alcotest.test_case "nested seq/par" `Quick test_nested_seq_par;
          Alcotest.test_case "empty statements" `Quick test_empty_statements;
        ] );
      ( "tristate",
        [
          Alcotest.test_case "inout chain" `Quick test_inout_chain;
          Alcotest.test_case "shared bus" `Quick test_tristate_bus;
        ] );
      ( "constants",
        [
          Alcotest.test_case "octal bounds" `Quick test_octal_bounds;
          Alcotest.test_case "named sig const" `Quick test_named_sig_const;
          Alcotest.test_case "nested const" `Quick test_const_of_const;
          Alcotest.test_case "indexed const" `Quick test_indexed_constant;
          Alcotest.test_case "star width" `Quick test_star_width;
        ] );
      ( "predefined",
        [
          Alcotest.test_case "CLK" `Quick test_clk_reads_one;
          Alcotest.test_case "REG(c) init" `Quick test_reg_initial_value;
          Alcotest.test_case "REG(c) array" `Quick test_reg_init_array;
          Alcotest.test_case "REG(c) bad value" `Quick test_reg_init_bad_value;
        ] );
    ]
