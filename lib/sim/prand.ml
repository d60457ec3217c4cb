(* Stateless per-net PRNG for the RANDOM component.

   A shared [Random.State] drawn in evaluation order would make the
   stream depend on the engine's schedule, and on which domain a batch
   run lands.  Instead every draw is a pure function of (simulator
   seed, output class id, cycle number): the splitmix64 finalizer
   applied twice, so the value is independent of which domain computes
   it and in which order.  Every engine, every batch lane and the
   sweeping reference evaluator share this function, so their RANDOM
   streams are bit-identical by construction.

   Splitmix64 (Steele, Lea & Flood, OOPSLA 2014) is the standard cheap
   stateless mixer: invertible, full 64-bit avalanche, and good enough
   that a single output bit passes the coin-flip statistics the arbiter
   test asserts. *)

let golden = 0x9E3779B97F4A7C15L

(* the splitmix64 finalizer: one increment already folded in by callers *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 ~seed ~net ~cycle =
  (* decorrelate the three coordinates with golden-ratio strides before
     mixing; two rounds so nearby (net, cycle) pairs share no structure *)
  let z = Int64.add (Int64.mul (Int64.of_int seed) golden) (Int64.of_int net) in
  let z = mix64 (Int64.add z golden) in
  let z = mix64 (Int64.add (Int64.add z (Int64.of_int cycle)) golden) in
  z

let bool ~seed ~net ~cycle =
  Int64.logand (bits64 ~seed ~net ~cycle) 1L = 1L
