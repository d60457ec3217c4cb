(* Zeus: the public umbrella API.

   {[
     let design = Zeus.compile_exn (Zeus.Corpus.adder_n 8) in
     let sim = Zeus.Sim.create design in
     Zeus.Sim.poke_int sim "adder.a" 17;
     Zeus.Sim.poke_int sim "adder.b" 25;
     Zeus.Sim.poke_bool sim "adder.cin" false;
     Zeus.Sim.step sim;
     assert (Zeus.Sim.peek_int sim "adder.s" = Some 42)
   ]} *)

module Logic = Zeus_base.Logic
module Loc = Zeus_base.Loc
module Diag = Zeus_base.Diag
module Token = Zeus_lang.Token
module Lexer = Zeus_lang.Lexer
module Ast = Zeus_lang.Ast
module Parser = Zeus_lang.Parser
module Pretty = Zeus_lang.Pretty
module Etype = Zeus_sem.Etype
module Cval = Zeus_sem.Cval
module Const_eval = Zeus_sem.Const_eval
module Netlist = Zeus_sem.Netlist
module Elaborate = Zeus_sem.Elaborate
module Graph = Zeus_sem.Graph
module Sched = Zeus_sem.Sched
module Check = Zeus_sem.Check
module Stats = Zeus_sem.Stats
module Absint = Zeus_sem.Absint
module Reduce = Zeus_sem.Reduce
module Lint = Zeus_sem.Lint
module Seqprove = Zeus_sem.Seqprove
module Contract = Zeus_sem.Contract
module Summary = Zeus_sem.Summary
module Layout_ir = Zeus_sem.Layout_ir
module Sim = Zeus_sim.Sim
module Stimulus = Zeus_sim.Stimulus
module Sweep = Zeus_sim.Sweep
module Prand = Zeus_sim.Prand
module Bytecode = Zeus_sim.Bytecode
module Compile = Zeus_sim.Compile
module Vcd = Zeus_sim.Vcd
module Wave = Zeus_sim.Wave
module Explain = Zeus_sim.Explain
module Geom = Zeus_layout.Geom
module Floorplan = Zeus_layout.Floorplan
module Render = Zeus_layout.Render
module Autoplace = Zeus_layout.Autoplace
module Verilog = Zeus_export.Verilog
module Gen = Zeus_gen.Gen_prog
module Oracle = Zeus_gen.Oracle
module Fuzz = Zeus_gen.Fuzz
module Corpus = Corpus
module Refmodel = Refmodel
module Corpus_fsm = Corpus_fsm
module Testbench = Testbench

type design = Elaborate.design

exception Compile_error of Diag.t list

(* Full pipeline: parse, elaborate, run the static checks.  The design is
   returned together with its diagnostics; [Ok] means no errors (there
   may be warnings). *)
let compile (src : string) : (design, Diag.t list) result =
  let bag = Diag.Bag.create () in
  match Parser.program ~bag src with
  | None, _ -> Error (Diag.Bag.errors bag)
  | Some prog, _ ->
      let design = Elaborate.program ~bag prog in
      if Diag.Bag.has_errors bag then Error (Diag.Bag.errors bag)
      else begin
        let ok = Check.run design in
        if ok then Ok design else Error (Diag.Bag.errors bag)
      end

let compile_exn src =
  match compile src with
  | Ok design -> design
  | Error diags -> raise (Compile_error diags)

(* Parse + elaborate without failing on check errors — used by tests
   that examine the diagnostics themselves. *)
let elaborate_with_diags src =
  let bag = Diag.Bag.create () in
  match Parser.program ~bag src with
  | None, _ -> (None, Diag.Bag.all bag)
  | Some prog, _ ->
      let design = Elaborate.program ~bag prog in
      ignore (Check.run design);
      (Some design, Diag.Bag.all bag)

let () =
  Printexc.register_printer (function
    | Compile_error diags ->
        Some
          (Fmt.str "Compile_error:@\n%a"
             Fmt.(list ~sep:(any "@\n") Diag.pp)
             diags)
    | _ -> None)
