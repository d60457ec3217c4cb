(* A small vector-driven testbench harness over the simulator: drive
   ports, clock, and collect expectation failures with readable
   messages.  Used by the examples and available to library users. *)

module Sim = Zeus_sim.Sim
module Logic = Zeus_base.Logic

type failure = {
  cycle : int;
  signal : string;
  expected : string;
  actual : string;
}

type t = {
  sim : Sim.t;
  mutable failures : failure list;
}

let create ?engine ?seed design = { sim = Sim.create ?engine ?seed design; failures = [] }

let sim t = t.sim

(* ------------------------------------------------------------------ *)
(* Driving                                                              *)
(* ------------------------------------------------------------------ *)

let port design path =
  match Sim.port design path with Ok p -> p | Error msg -> failwith msg

let set ?lsb t p v = Sim.set_int ?lsb t.sim p v

let set_bits t p bits = Sim.set t.sim p bits

let reset t = Sim.reset t.sim

let clock ?(n = 1) t = Sim.step_n t.sim n

(* ------------------------------------------------------------------ *)
(* Expectations                                                         *)
(* ------------------------------------------------------------------ *)

let record t signal expected actual =
  if expected <> actual then
    t.failures <-
      { cycle = Sim.cycle_count t.sim; signal; expected; actual }
      :: t.failures

let bits_to_string bits = String.concat "" (List.map Logic.to_string bits)

let expect_int ?lsb t (p : Sim.port) v =
  record t p.path (string_of_int v)
    (match Sim.get_int ?lsb t.sim p with
    | Some got -> string_of_int got
    | None -> bits_to_string (Sim.get t.sim p))

let expect_bits t (p : Sim.port) bits =
  record t p.path (bits_to_string bits) (bits_to_string (Sim.get t.sim p))

(* ------------------------------------------------------------------ *)
(* Vector tables                                                        *)
(* ------------------------------------------------------------------ *)

(* [run_table t ~inputs ~outputs rows]: each row is (input values,
   expected output values); applies the inputs, clocks once, checks the
   outputs.  Integer values use the MSB-first BIN convention. *)
let run_table t ~inputs ~outputs rows =
  List.iter
    (fun (ins, outs) ->
      List.iter2 (fun p v -> set t p v) inputs ins;
      clock t;
      List.iter2 (fun p v -> expect_int t p v) outputs outs)
    rows

(* ------------------------------------------------------------------ *)
(* Results                                                              *)
(* ------------------------------------------------------------------ *)

let failures t = List.rev t.failures

let runtime_errors t = Sim.runtime_errors t.sim

let ok t = t.failures = [] && Sim.runtime_errors t.sim = []

let pp_failure ppf f =
  Fmt.pf ppf "cycle %d: %s = %s (expected %s)" f.cycle f.signal f.actual
    f.expected

let report ppf t =
  match (failures t, runtime_errors t) with
  | [], [] -> Fmt.pf ppf "all expectations met@."
  | fs, res ->
      List.iter (fun f -> Fmt.pf ppf "FAIL %a@." pp_failure f) fs;
      List.iter
        (fun (e : Sim.runtime_error) ->
          Fmt.pf ppf "RUNTIME (cycle %d) [%s] %s: %s@." e.Sim.err_cycle
            e.Sim.err_code e.Sim.err_net e.Sim.err_message)
        res
