(* Generator behind test/golden/check_corpus.txt: locks the full text
   of every static-check diagnostic (Check.run) — the cycle witness
   path and the five-report cap, the ORDER net name, double and mixed
   drives, aliased booleans with ':=', unused ports and undriven reads
   — over a set of faulty programs (two with enough classes to pin
   the report order), followed by the diagnostics of every corpus
   design.  Refresh with `dune promote` after an
   intentional change to a message. *)

let faulty =
  [
    ( "cycle",
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL u,v: \
       boolean; BEGIN u := AND(a,v); v := NOT u; y := v END; SIGNAL s: t;" );
    ( "cycle_long",
      "TYPE t = COMPONENT (IN a,b: boolean; OUT y: boolean) IS SIGNAL \
       u,v,w,x: boolean; BEGIN u := AND(a,x); v := OR(u,b); w := NOT v; x \
       := XOR(w,a); y := x END; SIGNAL s: t;" );
    ( "cycle_self",
      "TYPE t = COMPONENT (IN b: boolean; x: multiplex) IS BEGIN IF b THEN \
       x := NOT x END END; SIGNAL s: t;" );
    ( "cycles_capped",
      "TYPE t = COMPONENT (IN a: ARRAY[1..8] OF boolean; OUT y: ARRAY[1..8] \
       OF boolean) IS SIGNAL u,v: ARRAY[1..8] OF boolean; BEGIN FOR i := 1 \
       TO 8 DO u[i] := AND(a[i],v[i]); v[i] := NOT u[i]; y[i] := v[i] END \
       END; SIGNAL s: t;" );
    ( "cycles_shared",
      "TYPE t = COMPONENT (IN a: boolean; OUT y: ARRAY[1..6] OF boolean) IS \
       SIGNAL h: ARRAY[0..6] OF boolean; BEGIN h[0] := AND(a,h[6]); FOR i \
       := 1 TO 6 DO h[i] := NOT h[i-1]; y[i] := OR(h[i],h[0]) END END; \
       SIGNAL s: t;" );
    ( "order",
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL u: \
       boolean; BEGIN SEQUENTIAL y := NOT u; u := NOT a END END; SIGNAL s: \
       t;" );
    ( "order_transitive",
      "TYPE t = COMPONENT (IN a: boolean; OUT y,z: boolean) IS SIGNAL u,v,w: \
       boolean; BEGIN SEQUENTIAL PARALLEL y := AND(v,w); z := NOT w END; u \
       := NOT a; v := NOT u; w := OR(u,a) END END; SIGNAL s: t;" );
    ( "double_drive",
      "TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS SIGNAL x: \
       boolean; BEGIN x := 1; x := 0; y := x END; SIGNAL s: t;" );
    ( "triple_drive",
      "TYPE t = COMPONENT (IN a,b: boolean; OUT y: boolean) IS SIGNAL x: \
       boolean; BEGIN x := a; x := b; x := NOT a; y := x END; SIGNAL s: t;" );
    ( "mixed_drive",
      "TYPE t = COMPONENT (IN b: boolean; OUT y: boolean) IS SIGNAL x: \
       multiplex; BEGIN x := 1; IF b THEN x := 0 END; y := x END; SIGNAL s: \
       t;" );
    ( "aliased_bool_assigned",
      "TYPE r = COMPONENT (IN a: boolean; OUT z: boolean) IS BEGIN z := NOT \
       a END; t = COMPONENT (em: multiplex; IN b: boolean; OUT y: boolean) \
       IS SIGNAL i: r; BEGIN i.a == em; i.a := b; y := i.z END; SIGNAL s: \
       t;" );
    ( "unused_port",
      "TYPE r = COMPONENT (IN a: boolean; OUT b,c,d: boolean) IS BEGIN b := \
       NOT a; c := a; d := a END; t = COMPONENT (IN x: boolean; OUT y: \
       boolean) IS SIGNAL i,j: r; BEGIN i.a := x; j.a := x; y := AND(i.b, \
       j.c) END; SIGNAL s: t;" );
    ( "undriven",
      "TYPE t = COMPONENT (IN a: boolean; OUT y,z: boolean) IS SIGNAL u,v: \
       boolean; w: multiplex; BEGIN y := AND(a,u); z := OR(v,w) END; SIGNAL \
       s: t;" );
    ( "many_faults",
      "TYPE r = COMPONENT (IN a: boolean; OUT b,c: boolean) IS BEGIN b := NOT \
       a; c := a END; t = COMPONENT (IN a: ARRAY[1..12] OF boolean; IN e: \
       boolean; OUT y: ARRAY[1..12] OF boolean; OUT z: boolean) IS SIGNAL \
       x,u: ARRAY[1..12] OF boolean; m: ARRAY[1..12] OF multiplex; p,q: \
       ARRAY[1..12] OF boolean; i: r; BEGIN i.a := e; z := i.b; FOR k := 1 \
       TO 12 DO x[k] := a[k]; x[k] := NOT a[k]; m[k] := a[k]; IF e THEN \
       m[k] := 0 END; p[k] := AND(q[k],a[k]); q[k] := OR(p[k],e); y[k] := \
       AND(x[k],u[k],m[k],q[k]) END END; SIGNAL s: t;" );
    ( "many_faults_wide",
      "TYPE t = COMPONENT (IN a: ARRAY[1..150] OF boolean; IN e: boolean; \
       OUT y: ARRAY[1..150] OF boolean) IS SIGNAL x,u: ARRAY[1..150] OF \
       boolean; m: ARRAY[1..150] OF multiplex; BEGIN FOR k := 1 TO 150 DO \
       x[k] := a[k]; x[k] := NOT a[k]; m[k] := a[k]; IF e THEN m[k] := 0 \
       END; y[k] := AND(x[k],u[k],m[k]) END END; SIGNAL s: t;" );
  ]

let () =
  List.iter
    (fun (name, src) ->
      Printf.printf "== %s\n" name;
      match Zeus.elaborate_with_diags src with
      | None, diags -> List.iter (Fmt.pr "parse: %a@." Zeus.Diag.pp) diags
      | Some _, diags -> List.iter (Fmt.pr "%a@." Zeus.Diag.pp) diags)
    (faulty @ Zeus.Corpus.all_named @ Zeus.Corpus_fsm.all_named)
