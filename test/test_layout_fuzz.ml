(* Property-based fuzzing of the layout language: random nested ORDER
   trees over a pool of cells must produce overlap-free floorplans whose
   bounding box contains every placed cell, with each mentioned cell
   placed exactly once.  Also the serpentine ("snake", section 6)
   arrangement as a directed case. *)

open Zeus

let compile src =
  match Zeus.compile src with
  | Ok d -> d
  | Error diags -> Alcotest.failf "compile: %a" Fmt.(list Diag.pp) diags

(* a random layout tree over cells c[1..n] *)
type ltree =
  | Cell of int
  | Order of string * ltree list

let directions =
  [ "lefttoright"; "righttoleft"; "toptobottom"; "bottomtotop";
    "toplefttobottomright"; "bottomrighttotopleft";
    "toprighttobottomleft"; "bottomlefttotopright" ]

let gen_ltree n_cells =
  QCheck.Gen.(
    let split pool size =
      (* partition the pool into 1..size groups *)
      if size <= 1 || List.length pool <= 1 then return [ pool ]
      else
        int_range 1 (min size (List.length pool)) >>= fun k ->
        let rec chunks pool k =
          if k <= 1 then return [ pool ]
          else
            int_range 1 (List.length pool - k + 1) >>= fun take ->
            let rec grab n = function
              | xs when n = 0 -> ([], xs)
              | x :: xs ->
                  let a, b = grab (n - 1) xs in
                  (x :: a, b)
              | [] -> ([], [])
            in
            let first, rest = grab take pool in
            map (fun more -> first :: more) (chunks rest (k - 1))
        in
        chunks pool k
    in
    let rec tree pool depth =
      match pool with
      | [ c ] -> return (Cell c)
      | pool when depth <= 0 ->
          map
            (fun d -> Order (d, List.map (fun c -> Cell c) pool))
            (oneofl directions)
      | pool ->
          oneofl directions >>= fun d ->
          split pool 3 >>= fun groups ->
          let rec subs = function
            | [] -> return []
            | g :: rest ->
                tree g (depth - 1) >>= fun t ->
                map (fun ts -> t :: ts) (subs rest)
          in
          map (fun ts -> Order (d, ts)) (subs groups)
    in
    tree (List.init n_cells (fun i -> i + 1)) 3)

let rec ltree_to_layout = function
  | Cell i -> Printf.sprintf "c[%d]" i
  | Order (d, subs) ->
      Printf.sprintf "ORDER %s %s END" d
        (String.concat "; " (List.map ltree_to_layout subs))

let ltree_to_source n t =
  Printf.sprintf
    "TYPE cell = COMPONENT (IN a: boolean; OUT b: boolean) IS BEGIN b := \
     NOT a END;\n\
     t = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL c: \
     ARRAY[1..%d] OF cell;\n\
     { %s }\n\
     BEGIN c[1].a := x; %s y := c[%d].b END;\n\
     SIGNAL s: t;"
    n (ltree_to_layout t)
    (String.concat " "
       (List.init (n - 1) (fun i ->
            Printf.sprintf "c[%d].a := c[%d].b;" (i + 2) (i + 1))))
    n

let prop_random_layouts =
  QCheck.Test.make ~count:120 ~name:"random_order_trees"
    (QCheck.make
       ~print:(fun (n, t) -> ltree_to_source n t)
       QCheck.Gen.(int_range 2 9 >>= fun n -> map (fun t -> (n, t)) (gen_ltree n)))
    (fun (n, t) ->
      let d = compile (ltree_to_source n t) in
      match Floorplan.of_design d "s" with
      | None -> QCheck.Test.fail_report "no plan"
      | Some plan ->
          let cells = plan.Floorplan.cells in
          (* every cell placed exactly once *)
          if List.length cells <> n then
            QCheck.Test.fail_reportf "placed %d of %d cells"
              (List.length cells) n
          else if Floorplan.overlaps plan <> [] then
            QCheck.Test.fail_report "overlapping cells"
          else begin
            (* all cells inside the bounding box *)
            let inside (p : Floorplan.placement) =
              let r = p.Floorplan.rect in
              r.Geom.x >= 0 && r.Geom.y >= 0
              && Geom.right r <= plan.Floorplan.width
              && Geom.bottom r <= plan.Floorplan.height
            in
            List.for_all inside cells
          end)

(* ---- the serpentine arrangement of section 6 ("Fig. Snake") ---- *)

let snake_source rows cols =
  Printf.sprintf
    "TYPE cell = COMPONENT (IN a: boolean; OUT b: boolean) IS BEGIN b := \
     NOT a END;\n\
     snake = COMPONENT (IN x: boolean; OUT y: boolean) IS SIGNAL c: \
     ARRAY[1..%d,1..%d] OF cell;\n\
     { ORDER toptobottom FOR i = 1 TO %d DO WHEN odd(i) THEN ORDER \
     lefttoright FOR j = 1 TO %d DO c[i,j] END END OTHERWISE ORDER \
     righttoleft FOR j = 1 TO %d DO c[i,j] END END END END END }\n\
     BEGIN c[1,1].a := x; %s y := c[%d,%d].b END;\n\
     SIGNAL s: snake;"
    rows cols rows cols cols
    (String.concat " "
       (List.concat
          (List.init rows (fun i ->
               List.init cols (fun j ->
                   if i = 0 && j = 0 then ""
                   else
                     let pi, pj =
                       if j = 0 then (i - 1, cols - 1) else (i, j - 1)
                     in
                     Printf.sprintf "c[%d,%d].a := c[%d,%d].b;" (i + 1)
                       (j + 1) (pi + 1) (pj + 1))))))
    rows cols

let test_snake () =
  let d = compile (snake_source 4 5) in
  match Floorplan.of_design d "s" with
  | None -> Alcotest.fail "no snake plan"
  | Some plan ->
      Alcotest.(check int) "grid width" 5 plan.Floorplan.width;
      Alcotest.(check int) "grid height" 4 plan.Floorplan.height;
      Alcotest.(check int) "all cells" 20 (List.length plan.Floorplan.cells);
      Alcotest.(check int) "no overlaps" 0
        (List.length (Floorplan.overlaps plan));
      (* odd rows run left-to-right, even rows right-to-left *)
      let x_of i j =
        let p =
          List.find
            (fun (p : Floorplan.placement) ->
              p.Floorplan.path = Printf.sprintf "s.c[%d][%d]" i j)
            plan.Floorplan.cells
        in
        p.Floorplan.rect.Geom.x
      in
      Alcotest.(check int) "row1 starts left" 0 (x_of 1 1);
      Alcotest.(check int) "row2 starts right" 4 (x_of 2 1);
      Alcotest.(check int) "row3 starts left" 0 (x_of 3 1)

let test_snake_simulates () =
  (* 20 inverters in a chain: even count preserves the input *)
  let d = compile (snake_source 4 5) in
  let sim = Sim.create d in
  Sim.set_int sim (Testbench.port d "s.x") 1;
  Sim.step sim;
  Alcotest.(check (option int)) "even inverter chain" (Some 1)
    (Sim.get_int sim (Testbench.port d "s.y"))

let () =
  Alcotest.run "layout_fuzz"
    [
      ( "fuzz",
        [ QCheck_alcotest.to_alcotest prop_random_layouts ] );
      ( "snake",
        [
          Alcotest.test_case "serpentine grid" `Quick test_snake;
          Alcotest.test_case "simulates" `Quick test_snake_simulates;
        ] );
    ]
