(* Quickstart: write a Zeus program as a string, compile it, simulate it.

   Run with:  dune exec examples/quickstart.exe *)

let source =
  {zeus|
TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
BEGIN
  s := XOR(a,b);
  cout := AND(a,b)
END;

fulladder = COMPONENT (IN a,b,cin: boolean; OUT cout,s: boolean) IS
SIGNAL h1,h2: halfadder;
BEGIN
  h1(a,b,*,h2.a);       <* the * closes the unused cout pin *>
  h2(h1.s,cin,*,s);
  cout := OR(h1.cout,h2.cout)
END;

SIGNAL fa: fulladder;
|zeus}

(* a variant with a deliberate short: s is driven twice *)
let buggy =
  {zeus|
TYPE bad = COMPONENT (IN a,b: boolean; OUT s: boolean) IS
BEGIN
  s := XOR(a,b);
  s := AND(a,b)
END;
SIGNAL x: bad;
|zeus}

let () =
  (* 1. compile: parse + elaborate + static checks *)
  let design = Zeus.compile_exn source in
  Fmt.pr "compiled: %s@." (Zeus.Netlist.stats design.Zeus.Elaborate.netlist);

  (* 2. simulate the full adder truth table *)
  let sim = Zeus.Sim.create design in
  (* look each port up once, then drive and read it every cycle *)
  let port path =
    match Zeus.Sim.port design path with
    | Ok p -> p
    | Error msg -> failwith msg
  in
  let pa = port "fa.a" and pb = port "fa.b" and pcin = port "fa.cin" in
  let cout = port "fa.cout" and s = port "fa.s" in
  let bits = Fmt.(list ~sep:nop Zeus.Logic.pp) in
  Fmt.pr "@.a b cin | cout s@.";
  for a = 0 to 1 do
    for b = 0 to 1 do
      for cin = 0 to 1 do
        Zeus.Sim.set_int sim pa a;
        Zeus.Sim.set_int sim pb b;
        Zeus.Sim.set_int sim pcin cin;
        Zeus.Sim.step sim;
        Fmt.pr "%d %d  %d  |  %a   %a@." a b cin bits (Zeus.Sim.get sim cout)
          bits (Zeus.Sim.get sim s)
      done
    done
  done;

  (* 3. the static type rules of section 4.7 catch power-ground shorts *)
  Fmt.pr "@.compiling the buggy variant:@.";
  match Zeus.compile buggy with
  | Ok _ -> Fmt.pr "  unexpectedly accepted?!@."
  | Error diags ->
      List.iter (fun d -> Fmt.pr "  %a@." Zeus.Diag.pp d) diags
