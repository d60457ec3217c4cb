(* End-to-end behaviour of the report's section 10 examples: the
   experiments E1 (adders), E2 (Blackjack), E3 (trees), E4 (pattern
   matching), E6 (routing network) as pinned regression tests. *)

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

let no_runtime_errors name sim =
  match Sim.runtime_errors sim with
  | [] -> ()
  | e :: _ ->
      Alcotest.failf "%s: runtime error on %s: %s" name e.Sim.err_net
        e.Sim.err_message

(* ---- E1: adders ---- *)

let test_fulladder_exhaustive () =
  let d = compile Corpus.adder4 in
  let p_a = Testbench.port d "adder.a" in
  let p_b = Testbench.port d "adder.b" in
  let p_cin = Testbench.port d "adder.cin" in
  let p_s = Testbench.port d "adder.s" in
  let p_cout = Testbench.port d "adder.cout" in
  (* exercise the inner fulladder through the 4-bit ripple carry *)
  let sim = Sim.create d in
  for a = 0 to 15 do
    for b = 0 to 15 do
      for c = 0 to 1 do
        Sim.set_int ~lsb:true sim p_a a;
        Sim.set_int ~lsb:true sim p_b b;
        Sim.set_int sim p_cin c;
        Sim.step sim;
        let want = a + b + c in
        Alcotest.(check (option int))
          (Printf.sprintf "%d+%d+%d" a b c)
          (Some (want land 15))
          (Sim.get_int ~lsb:true sim p_s);
        Alcotest.check logic "cout"
          (Logic.of_bool (want > 15))
          (one_bit sim p_cout)
      done
    done
  done;
  no_runtime_errors "adder" sim

let prop_ripple_widths =
  QCheck.Test.make ~count:30 ~name:"rippleCarry_n_correct"
    QCheck.(triple (int_range 2 24) (int_bound 10000) (int_bound 10000))
    (fun (n, a, b) ->
      let mask = (1 lsl n) - 1 in
      let a = a land mask and b = b land mask in
      let d = compile (Corpus.adder_n n) in
      let p_a = Testbench.port d "adder.a" in
      let p_b = Testbench.port d "adder.b" in
      let p_cin = Testbench.port d "adder.cin" in
      let p_s = Testbench.port d "adder.s" in
      let p_cout = Testbench.port d "adder.cout" in
      let sim = Sim.create d in
      Sim.set_int ~lsb:true sim p_a a;
      Sim.set_int ~lsb:true sim p_b b;
      Sim.set_int sim p_cin 0;
      Sim.step sim;
      Sim.get_int ~lsb:true sim p_s = Some ((a + b) land mask)
      && Logic.equal (one_bit sim p_cout)
           (Logic.of_bool (a + b > mask)))

(* the arithmetic function components used by Blackjack *)
let test_arith5_components () =
  let d =
    compile
      (Corpus.arith5
      ^ "top = COMPONENT (IN a,b: bo5; OUT su,di: bo5; OUT l,g: boolean) IS \
         BEGIN su := plus(a,b); di := minus(a,b); l := lt(a,b); g := \
         ge(a,b) END; SIGNAL t: top;")
  in
  let p_a = Testbench.port d "t.a" in
  let p_b = Testbench.port d "t.b" in
  let p_su = Testbench.port d "t.su" in
  let p_di = Testbench.port d "t.di" in
  let p_l = Testbench.port d "t.l" in
  let p_g = Testbench.port d "t.g" in
  let sim = Sim.create d in
  List.iter
    (fun (a, b) ->
      Sim.set_int sim p_a a;
      Sim.set_int sim p_b b;
      Sim.step sim;
      Alcotest.(check (option int))
        (Printf.sprintf "plus %d %d" a b)
        (Some ((a + b) land 31))
        (Sim.get_int sim p_su);
      Alcotest.(check (option int))
        (Printf.sprintf "minus %d %d" a b)
        (Some ((a - b) land 31))
        (Sim.get_int sim p_di);
      Alcotest.check logic
        (Printf.sprintf "lt %d %d" a b)
        (Logic.of_bool (a < b))
        (one_bit sim p_l);
      Alcotest.check logic
        (Printf.sprintf "ge %d %d" a b)
        (Logic.of_bool (a >= b))
        (one_bit sim p_g))
    [ (0, 0); (10, 9); (9, 10); (31, 1); (17, 17); (22, 10); (1, 31) ];
  no_runtime_errors "arith5" sim

(* ---- E2: Blackjack ---- *)

(* the machine's handle and its ports, each resolved once *)
type bj = {
  sim : Sim.t;
  ycard : Sim.port;
  value : Sim.port;
  state : Sim.port;
  score : Sim.port;
  hit : Sim.port;
  stand : Sim.port;
  broke : Sim.port;
}

(* [Sim.get] shows values of the cycle just evaluated, so after
   [bj_start] the visible state is "read" (the machine waits there until
   ycard is asserted: without a card, state.in is not driven and the
   registers keep their value). *)
let bj_start () =
  let d = compile Corpus.blackjack in
  let port = Testbench.port d in
  let t =
    {
      sim = Sim.create d;
      ycard = port "bj.ycard";
      value = port "bj.value";
      state = port "bj.state.out";
      score = port "bj.score.out";
      hit = port "bj.hit";
      stand = port "bj.stand";
      broke = port "bj.broke";
    }
  in
  Sim.set_int t.sim t.ycard 0;
  Sim.set_int t.sim t.value 0;
  Sim.reset t.sim;
  Sim.step t.sim;
  (* evaluates the start state *)
  Sim.step t.sim;
  (* evaluates the read state *)
  t

let bj_state t = Sim.get_int t.sim t.state
let bj_score t = Sim.get_int t.sim t.score

(* present a card in the read state and run through sum, firstace and
   test; afterwards the visible cycle is the post-test state (read again,
   end, or a second test round after ace demotion) *)
let bj_feed t v =
  Sim.set_int t.sim t.value v;
  Sim.set_int t.sim t.ycard 1;
  Sim.step t.sim;
  (* read, accepting the card *)
  Sim.set_int t.sim t.ycard 0;
  Sim.step t.sim;
  (* sum *)
  Sim.step t.sim;
  (* firstace *)
  Sim.step t.sim;
  (* test *)
  Sim.step t.sim
(* post-test state *)

let test_blackjack_states () =
  let t = bj_start () in
  Alcotest.(check (option int)) "in read" (Some 1) (bj_state t);
  Alcotest.check logic "hit asserted" Logic.One (one_bit t.sim t.hit);
  bj_feed t 10;
  Alcotest.(check (option int)) "score 10, back to read" (Some 1) (bj_state t);
  Alcotest.(check (option int)) "score" (Some 10)
    (bj_score t);
  bj_feed t 9;
  (* 19: >= 17 and < 22 -> end *)
  Alcotest.(check (option int)) "end state" (Some 5) (bj_state t);
  Sim.step t.sim;
  Alcotest.check logic "stand" Logic.One (one_bit t.sim t.stand);
  no_runtime_errors "blackjack" t.sim

let test_blackjack_bust () =
  let t = bj_start () in
  bj_feed t 10;
  bj_feed t 9;
  (* at 19 the machine stands; deal anyway to restart: end -> start *)
  Alcotest.(check (option int)) "end" (Some 5) (bj_state t);
  Sim.set_int t.sim t.ycard 1;
  Sim.step t.sim;
  (* end, accepting the restart *)
  Sim.set_int t.sim t.ycard 0;
  Sim.step t.sim;
  (* start *)
  Alcotest.(check (option int)) "restart" (Some 0) (bj_state t);
  no_runtime_errors "blackjack restart" t.sim

let test_blackjack_bust_over_21 () =
  let t = bj_start () in
  bj_feed t 10;
  bj_feed t 9;
  Alcotest.(check (option int)) "stand at 19" (Some 5) (bj_state t);
  (* fresh machine: 10 + 5 + 9 = 24 -> broke *)
  let t = bj_start () in
  bj_feed t 10;
  bj_feed t 5;
  bj_feed t 9;
  Alcotest.(check (option int)) "end after bust" (Some 5) (bj_state t);
  Sim.step t.sim;
  Alcotest.check logic "broke" Logic.One (one_bit t.sim t.broke);
  Alcotest.check logic "not stand" Logic.Undef (one_bit t.sim t.stand)

let test_blackjack_ace () =
  (* ace (1) counts as 11 via the firstace state: 1 + 10 = 21 -> stand *)
  let t = bj_start () in
  bj_feed t 1;
  Alcotest.(check (option int)) "ace as 11" (Some 11)
    (bj_score t);
  bj_feed t 10;
  Alcotest.(check (option int)) "21" (Some 21) (bj_score t);
  Alcotest.(check (option int)) "stand at 21" (Some 5) (bj_state t)

let test_blackjack_ace_demotion () =
  (* ace demoted from 11 to 1 when over 21: 1(=11) + 5 + 9 = 25 -> demote
     to 15 -> continue *)
  let t = bj_start () in
  bj_feed t 1;
  bj_feed t 5;
  Alcotest.(check (option int)) "16" (Some 16) (bj_score t);
  bj_feed t 9;
  (* 25 >= 22 with ace: test demotes by ten and stays in test *)
  Sim.step t.sim;
  (* extra test cycle after demotion *)
  Alcotest.(check (option int)) "demoted" (Some 15)
    (bj_score t);
  Alcotest.(check (option int)) "back to read" (Some 1) (bj_state t)

(* ---- E3: trees ---- *)

let test_tree_broadcast () =
  List.iter
    (fun (variant, make) ->
      List.iter
        (fun n ->
          let d = compile (make n) in
          let p_in = Testbench.port d "a.in" in
          let p_leaf = Testbench.port d "a.leaf" in
          let sim = Sim.create d in
          Sim.set_int sim p_in 1;
          Sim.step sim;
          let leaves = Sim.get sim p_leaf in
          Alcotest.(check int)
            (Printf.sprintf "%s(%d) leaf count" variant n)
            n (List.length leaves);
          Alcotest.(check bool)
            (Printf.sprintf "%s(%d) all ones" variant n)
            true
            (List.for_all (Logic.equal Logic.One) leaves);
          no_runtime_errors variant sim)
        [ 4; 8; 16; 32 ])
    [ ("iterative", Corpus.tree_iterative); ("recursive", Corpus.tree_recursive) ]

let test_tree_zero () =
  let d = compile (Corpus.tree_recursive 8) in
  let p_in = Testbench.port d "a.in" in
  let p_leaf = Testbench.port d "a.leaf" in
  let sim = Sim.create d in
  Sim.set_int sim p_in 0;
  Sim.step sim;
  Alcotest.(check bool) "all zero" true
    (List.for_all (Logic.equal Logic.Zero) (Sim.get sim p_leaf))

(* ---- E4: pattern matching ---- *)

(* drive the systolic matcher: items enter every second cycle *)
let run_matcher ~pattern ~text ~wild ~cycles =
  let d = compile (Corpus.patternmatch 3) in
  let p_pattern = Testbench.port d "match.pattern" in
  let p_endofpattern = Testbench.port d "match.endofpattern" in
  let p_wild = Testbench.port d "match.wild" in
  let p_string = Testbench.port d "match.string" in
  let p_result = Testbench.port d "match.result" in
  let sim = Sim.create d in
  List.iter
    (fun p -> Sim.set_int sim p 0)
    [ p_pattern; p_string; p_endofpattern; p_wild;
      Testbench.port d "match.resultin" ];
  Sim.reset sim;
  let results = ref [] in
  for cyc = 0 to cycles - 1 do
    let idle = cyc mod 2 = 1 in
    let i = cyc / 2 in
    let feed list d = match List.nth_opt list i with Some v -> v | None -> d in
    if not idle then begin
      let plen = List.length pattern in
      let pi = if plen = 0 then 0 else i mod (plen + 1) in
      Sim.set_int sim p_pattern (Bool.to_int (pi < plen && List.nth pattern pi = 1));
      Sim.set_int sim p_endofpattern (Bool.to_int (pi = plen));
      Sim.set_int sim p_wild (Bool.to_int (pi < plen && List.nth wild pi = 1));
      Sim.set_int sim p_string (Bool.to_int (feed text 0 = 1))
    end
    else begin
      Sim.set_int sim p_pattern 0;
      Sim.set_int sim p_endofpattern 0;
      Sim.set_int sim p_wild 0;
      Sim.set_int sim p_string 0
    end;
    Sim.step sim;
    results := one_bit sim p_result :: !results
  done;
  (List.rev !results, Sim.runtime_errors sim)

let test_patternmatch_finds_matches () =
  let results, errors =
    run_matcher ~pattern:[ 1; 0 ] ~wild:[ 0; 0 ]
      ~text:[ 1; 0; 1; 0; 1; 0; 1; 0; 1; 0; 1; 0 ]
      ~cycles:40
  in
  Alcotest.(check int) "no runtime errors" 0 (List.length errors);
  let ones = List.length (List.filter (Logic.equal Logic.One) results) in
  Alcotest.(check bool)
    (Printf.sprintf "matches reported (%d)" ones)
    true (ones >= 2)

let test_patternmatch_no_match () =
  let results, errors =
    run_matcher ~pattern:[ 1; 1 ] ~wild:[ 0; 0 ]
      ~text:[ 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0; 0 ]
      ~cycles:40
  in
  Alcotest.(check int) "no runtime errors" 0 (List.length errors);
  Alcotest.(check bool) "no match on zeros" true
    (not (List.exists (Logic.equal Logic.One) results))

let test_patternmatch_wildcard () =
  (* a pattern of all wildcards matches anything *)
  let results, errors =
    run_matcher ~pattern:[ 0; 0 ] ~wild:[ 1; 1 ]
      ~text:[ 1; 0; 0; 1; 1; 0; 1; 1; 0; 0; 1; 0 ]
      ~cycles:40
  in
  Alcotest.(check int) "no runtime errors" 0 (List.length errors);
  Alcotest.(check bool) "wildcard matches" true
    (List.exists (Logic.equal Logic.One) results)

(* ---- E6: routing network ---- *)

let test_routing_straight () =
  let d = compile (Corpus.routing_network 4) in
  let sim = Sim.create d in
  let ports f = List.init 4 (fun i -> Testbench.port d (Printf.sprintf f i)) in
  (* headers with MSB=0: all routers pass straight through; the butterfly
     wiring still applies its perfect shuffle: column pairs feed the top
     and bottom sub-networks *)
  List.iteri (fun i p -> Sim.set_int sim p i) (ports "net.input[%d]");
  Sim.step sim;
  let got = List.map (Sim.get_int sim) (ports "net.output[%d]") in
  Alcotest.(check (list (option int)))
    "shuffled"
    [ Some 0; Some 2; Some 1; Some 3 ]
    got;
  no_runtime_errors "routing straight" sim

let test_routing_swap () =
  let d = compile (Corpus.routing_network 4) in
  let sim = Sim.create d in
  let ports f = List.init 4 (fun i -> Testbench.port d (Printf.sprintf f i)) in
  (* headers with MSB=1: every router swaps; the butterfly reverses *)
  List.iteri (fun i p -> Sim.set_int sim p (512 + i)) (ports "net.input[%d]");
  Sim.step sim;
  let got = List.map (Sim.get_int sim) (ports "net.output[%d]") in
  Alcotest.(check (list (option int)))
    "swapped"
    [ Some 515; Some 513; Some 514; Some 512 ]
    got

let test_routing_sizes () =
  List.iter
    (fun n ->
      let d = compile (Corpus.routing_network n) in
      let routers =
        List.filter
          (fun (i : Netlist.instance) -> i.Netlist.itype = "router")
          (Netlist.instances d.Elaborate.netlist)
      in
      (* butterfly: (n/2) * log2 n routers *)
      let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
      Alcotest.(check int)
        (Printf.sprintf "router count n=%d" n)
        (n / 2 * log2 n)
        (List.length routers))
    [ 2; 4; 8; 16; 32 ]

(* ---- RAM (section 5.1) ---- *)

let test_ram_write_read () =
  let d = compile (Corpus.ram ~abits:4 ~wbits:8) in
  let p_addr = Testbench.port d "m.addr" in
  let p_data = Testbench.port d "m.data" in
  let p_we = Testbench.port d "m.we" in
  let p_q = Testbench.port d "m.q" in
  let sim = Sim.create d in
  let write addr v =
    Sim.set_int sim p_addr addr;
    Sim.set_int sim p_data v;
    Sim.set_int sim p_we 1;
    Sim.step sim
  in
  let read addr =
    Sim.set_int sim p_we 0;
    Sim.set_int sim p_addr addr;
    Sim.step sim;
    Sim.get_int sim p_q
  in
  write 5 171;
  write 3 42;
  write 15 255;
  Alcotest.(check (option int)) "read 5" (Some 171) (read 5);
  Alcotest.(check (option int)) "read 3" (Some 42) (read 3);
  Alcotest.(check (option int)) "read 15" (Some 255) (read 15);
  Alcotest.(check (option int)) "unwritten is UNDEF" None (read 9);
  write 5 1;
  Alcotest.(check (option int)) "overwrite" (Some 1) (read 5);
  no_runtime_errors "ram" sim

let prop_ram_random =
  QCheck.Test.make ~count:20 ~name:"ram_random_writes"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20)
              (pair (int_bound 15) (int_bound 255)))
    (fun writes ->
      let d = compile (Corpus.ram ~abits:4 ~wbits:8) in
      let p_addr = Testbench.port d "m.addr" in
      let p_data = Testbench.port d "m.data" in
      let p_we = Testbench.port d "m.we" in
      let p_q = Testbench.port d "m.q" in
      let sim = Sim.create d in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (addr, v) ->
          Hashtbl.replace model addr v;
          Sim.set_int sim p_addr addr;
          Sim.set_int sim p_data v;
          Sim.set_int sim p_we 1;
          Sim.step sim)
        writes;
      Sim.set_int sim p_we 0;
      Hashtbl.fold
        (fun addr v acc ->
          acc
          &&
          (Sim.set_int sim p_addr addr;
           Sim.step sim;
           Sim.get_int sim p_q = Some v))
        model true)

(* ---- mux4 (section 3.2) ---- *)

let test_mux4 () =
  let d = compile Corpus.mux4 in
  let p_d = Testbench.port d "m.d" in
  let p_a = Testbench.port d "m.a" in
  let p_g = Testbench.port d "m.g" in
  let p_z = Testbench.port d "m.z" in
  let sim = Sim.create d in
  let pick d4 a g =
    Sim.set_int sim p_d d4;
    Sim.set_int sim p_a a;
    Sim.set_int sim p_g (Bool.to_int g);
    Sim.step sim;
    one_bit sim p_z
  in
  (* d = 1010 (d[1]=1, d[2]=0, d[3]=1, d[4]=0) *)
  Alcotest.check logic "select 1" Logic.One (pick 10 0 false);
  Alcotest.check logic "select 2" Logic.Zero (pick 10 1 false);
  Alcotest.check logic "select 3" Logic.One (pick 10 2 false);
  Alcotest.check logic "select 4" Logic.Zero (pick 10 3 false);
  Alcotest.check logic "gated" Logic.Zero (pick 10 0 true);
  no_runtime_errors "mux4" sim

let () =
  Alcotest.run "examples"
    [
      ( "adders",
        [
          Alcotest.test_case "exhaustive 4-bit" `Quick test_fulladder_exhaustive;
          QCheck_alcotest.to_alcotest prop_ripple_widths;
          Alcotest.test_case "arith5" `Quick test_arith5_components;
        ] );
      ( "blackjack",
        [
          Alcotest.test_case "state machine" `Quick test_blackjack_states;
          Alcotest.test_case "restart" `Quick test_blackjack_bust;
          Alcotest.test_case "bust over 21" `Quick test_blackjack_bust_over_21;
          Alcotest.test_case "ace as 11" `Quick test_blackjack_ace;
          Alcotest.test_case "ace demotion" `Quick test_blackjack_ace_demotion;
        ] );
      ( "trees",
        [
          Alcotest.test_case "broadcast" `Quick test_tree_broadcast;
          Alcotest.test_case "zero" `Quick test_tree_zero;
        ] );
      ( "patternmatch",
        [
          Alcotest.test_case "finds matches" `Quick
            test_patternmatch_finds_matches;
          Alcotest.test_case "no false matches" `Quick
            test_patternmatch_no_match;
          Alcotest.test_case "wildcards" `Quick test_patternmatch_wildcard;
        ] );
      ( "routing",
        [
          Alcotest.test_case "straight" `Quick test_routing_straight;
          Alcotest.test_case "swap" `Quick test_routing_swap;
          Alcotest.test_case "sizes" `Quick test_routing_sizes;
        ] );
      ( "ram",
        [
          Alcotest.test_case "write/read" `Quick test_ram_write_read;
          QCheck_alcotest.to_alcotest prop_ram_random;
        ] );
      ("mux4", [ Alcotest.test_case "selection" `Quick test_mux4 ]);
    ]
