(* Scale stress: large instances of the parameterized generators must
   elaborate, check and simulate within sane bounds — the "VLSI" in the
   title means thousands of nets, not dozens. *)

open Zeus

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

let test_large_ram () =
  (* 256 x 16 RAM: 4096 registers *)
  let d = compile (Corpus.ram ~abits:8 ~wbits:16) in
  let nl = d.Elaborate.netlist in
  Alcotest.(check int) "registers" 4096 (List.length (Netlist.regs nl));
  let sim = Sim.create d in
  let port = Testbench.port d in
  let addr = port "m.addr" and data = port "m.data" and we = port "m.we"
  and q = port "m.q" in
  (* a write/read burst across the address space *)
  for a = 0 to 255 do
    if a mod 17 = 0 then begin
      Sim.set_int sim addr a;
      Sim.set_int sim data ((a * 257) land 0xffff);
      Sim.set_int sim we 1;
      Sim.step sim
    end
  done;
  Sim.set_int sim we 0;
  for a = 0 to 255 do
    if a mod 17 = 0 then begin
      Sim.set_int sim addr a;
      Sim.step sim;
      Alcotest.(check (option int))
        (Printf.sprintf "readback %d" a)
        (Some ((a * 257) land 0xffff))
        (Sim.get_int sim q)
    end
  done;
  Alcotest.(check int) "no runtime errors" 0
    (List.length (Sim.runtime_errors sim))

let test_large_routing () =
  (* 128-input butterfly: 448 routers, ~30k nets *)
  let d = compile (Corpus.routing_network 128) in
  let nl = d.Elaborate.netlist in
  let routers =
    List.length
      (List.filter
         (fun (i : Netlist.instance) -> i.Netlist.itype = "router")
         (Netlist.instances nl))
  in
  Alcotest.(check int) "router count" (128 / 2 * 7) routers;
  let sim = Sim.create d in
  let ports f = List.init 128 (fun i -> Testbench.port d (Printf.sprintf f i)) in
  List.iteri (fun i p -> Sim.set_int sim p i) (ports "net.input[%d]");
  Sim.step sim;
  (* straight switches: the butterfly applies its wiring permutation;
     all outputs must be defined and a permutation of the inputs *)
  let outs = List.map (Sim.get_int sim) (ports "net.output[%d]") in
  Alcotest.(check bool) "all defined" true (List.for_all Option.is_some outs);
  let sorted = List.sort compare (List.map Option.get outs) in
  Alcotest.(check (list int)) "a permutation" (List.init 128 Fun.id) sorted

let test_deep_adder () =
  let d = compile (Corpus.adder_n 128) in
  let sim = Sim.create d in
  let port = Testbench.port d in
  let a = port "adder.a" in
  (* worst-case carry propagation: all ones + 1 *)
  Sim.set_int ~lsb:true sim a 0;
  Sim.set_int ~lsb:true sim (port "adder.b") 0;
  Sim.set_int sim (port "adder.cin") 1;
  (* drive a[i] = 1 everywhere, bit by bit *)
  Sim.set sim a (Array.to_list (Array.map (fun _ -> Logic.One) a.nets));
  Sim.step sim;
  Alcotest.(check (option int)) "carry out after 128 bits" (Some 1)
    (Sim.get_int sim (port "adder.cout"));
  (* the sum is all zeros *)
  let s = Sim.get sim (port "adder.s") in
  Alcotest.(check bool) "sum wrapped to zero" true
    (List.for_all (Logic.equal Logic.Zero) s)

let test_wide_dictionary () =
  let d = compile (Corpus.dictionary ~slots:64 ~keybits:12) in
  let sim = Sim.create d in
  let port = Testbench.port d in
  let ins = port "dict.ins" and slot_p = port "dict.slot"
  and data = port "dict.data" and query = port "dict.query" in
  Sim.set_int sim ins 0;
  Sim.set_int sim (port "dict.del") 0;
  Sim.set_int sim slot_p 0;
  Sim.set_int sim data 0;
  Sim.set_int sim query 0;
  Sim.reset sim;
  for slot = 0 to 63 do
    Sim.set_int sim ins 1;
    Sim.set_int sim slot_p slot;
    Sim.set_int sim data (slot * 63);
    Sim.step sim
  done;
  Sim.set_int sim ins 0;
  Sim.set_int sim query (17 * 63);
  Sim.step sim;
  Alcotest.(check (option int)) "member found among 64 slots" (Some 1)
    (Sim.get_int sim (port "dict.member"))

let test_htree_large () =
  (* htree(4096): 5461 instances; elaboration + floorplan stay linear *)
  let d = compile (Corpus.htree 4096) in
  match Floorplan.of_design d "a" with
  | Some plan -> Alcotest.(check int) "area" 4096 (Floorplan.area plan)
  | None -> Alcotest.fail "no plan"

let () =
  Alcotest.run "scale"
    [
      ( "scale",
        [
          Alcotest.test_case "ram 256x16" `Slow test_large_ram;
          Alcotest.test_case "routing 128" `Slow test_large_routing;
          Alcotest.test_case "adder 128 carry chain" `Quick test_deep_adder;
          Alcotest.test_case "dictionary 64x12" `Slow test_wide_dictionary;
          Alcotest.test_case "htree 4096" `Slow test_htree_large;
        ] );
    ]
