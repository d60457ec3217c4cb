(* Diagnostics: located errors and warnings, collected during every phase
   (lexing, parsing, elaboration, static checking, linting, simulation). *)

type severity =
  | Error
  | Warning

type kind =
  | Lex_error
  | Parse_error
  | Name_error (* undeclared / duplicate identifiers, uses-list violations *)
  | Type_error (* static type rules of section 4.7 *)
  | Width_error (* basic-substructure count mismatches *)
  | Assign_error (* single-assignment / aliasing rules *)
  | Cycle_error (* combinational feedback not through REG *)
  | Port_error (* unused-port rule of section 4.1 *)
  | Layout_error
  | Runtime_error (* simulator checks: multiple drives, undefined reads *)
  | Order_error (* SEQUENTIAL/PARALLEL consistency, section 4.5 *)
  | Limit_error (* elaboration limits: runaway recursion etc. *)
  | Lint_error (* the lint engine: drive conflicts, UNDEF, dead hardware *)

(* Stable diagnostic codes.  The lint engine and the simulator's runtime
   checks share these, so a static finding and the dynamic violation it
   predicts carry the same code.  Z1xx: drive conflicts (section 4.7's
   "burning transistors"); Z2xx: UNDEF reachability; Z3xx: dead
   hardware; Z4xx: the modular (per-component-type) summary analysis;
   Z5xx: the whole-design abstract interpretation behind [zeusc opt];
   Z6xx: the bounded sequential prover behind [zeusc prove].
   Codes are append-only — never renumber. *)
module Code = struct
  let drive_conflict = "Z101"
  let drive_unproven = "Z102"
  let undriven_read = "Z201"
  let undef_only = "Z202"
  let dead_branch = "Z301"
  let dead_instance = "Z302"
  let modular_conflict = "Z401"
  let modular_unproven = "Z402"
  let modular_cycle = "Z403"
  let modular_range = "Z404"
  let modular_recursion = "Z405"
  let modular_coarse = "Z406"
  let absint_constant = "Z501"
  let absint_stuck = "Z502"
  let absint_unobservable = "Z503"
  let seq_uninitialized = "Z601"
  let seq_undef_escape = "Z602"
  let seq_conflict_reachable = "Z603"

  let all =
    [
      ( drive_conflict,
        "two drivers of one net can be enabled in the same cycle (a \
         power-ground short; reported statically with a witness, and at \
         runtime by the simulator's multiple-drive check)" );
      ( drive_unproven,
        "driver exclusivity could not be proved within the solver budget — \
         the net relies on the runtime multiple-drive check" );
      ( undriven_read,
        "net is read but never driven: it reads UNDEF forever" );
      ( undef_only,
        "net is driven, but every value it can ever carry is UNDEF (or \
         high-impedance)" );
      ( dead_branch,
        "conditional branch guard is statically false: the driver can \
         never fire (dead hardware surviving constant evaluation)" );
      ( dead_instance,
        "instance outputs reach no output port, register or probe: the \
         hardware is dead" );
      ( modular_conflict,
        "two drivers of one port or signal of a component type can be \
         enabled in the same cycle, proved from the type's summary alone \
         with a witness over input ports" );
      ( modular_unproven,
        "driver exclusivity of a component type could not be decided at \
         summary level — elaboration-time lint and the runtime check guard \
         it" );
      ( modular_cycle,
        "a combinational cycle not broken by a register may exist for some \
         parameter value of a component type (type-level reachability)" );
      ( modular_range,
        "a parameter value reaching this component type makes an ARRAY \
         range empty, an index out of bounds or a width non-positive" );
      ( modular_recursion,
        "recursion of a component type could not be proved well-founded: \
         no parameter provably decreases along the WHEN chain" );
      ( modular_coarse,
        "the interval abstraction of the generic parameters is too coarse \
         to decide this check — it falls back to full elaboration" );
      ( absint_constant,
        "the abstract interpretation proves the net carries the same \
         defined value every cycle under all inputs — zeusc opt folds it \
         to a constant" );
      ( absint_stuck,
        "the abstract interpretation proves the net is stuck: every cycle \
         it reads UNDEF, or it is never driven and floats (high \
         impedance)" );
      ( absint_unobservable,
        "the net is driven but cannot reach any register or root output \
         port — the logic producing it is unobservable and zeusc opt \
         removes it" );
      ( seq_uninitialized,
        "register is never initialized within the proof depth: k cycles \
         after a RSET pulse it can still hold UNDEF (reset coverage)" );
      ( seq_undef_escape,
        "power-up UNDEF escapes the reset cone: after reset settles, an \
         observable net (one feeding a register or root output) can still \
         read UNDEF that originates in an uninitialized register" );
      ( seq_conflict_reachable,
        "a runtime drive conflict is reachable within k cycles of power-up: \
         the sequential prover found a concrete stimulus trace that makes \
         two drivers of the net fire in the same cycle" );
    ]

  let description c = List.assoc_opt c all

  (* Uniform --suppress validation used by every subcommand: the unknown
     codes, in user order, de-duplicated.  Empty means all valid. *)
  let unknown codes =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun c ->
        let bad = not (List.mem_assoc c all) in
        let fresh = not (Hashtbl.mem seen c) in
        Hashtbl.replace seen c ();
        bad && fresh)
      codes

  let valid_codes_message () =
    String.concat ", " (List.map fst all)
end

type t = {
  severity : severity;
  kind : kind;
  code : string option; (* stable Zxxx code, for lint-style findings *)
  loc : Loc.t;
  message : string;
}

let kind_to_string = function
  | Lex_error -> "lex"
  | Parse_error -> "parse"
  | Name_error -> "name"
  | Type_error -> "type"
  | Width_error -> "width"
  | Assign_error -> "assign"
  | Cycle_error -> "cycle"
  | Port_error -> "port"
  | Layout_error -> "layout"
  | Runtime_error -> "runtime"
  | Order_error -> "order"
  | Limit_error -> "limit"
  | Lint_error -> "lint"

let severity_to_string = function
  | Error -> "error"
  | Warning -> "warning"

let pp ppf d =
  Fmt.pf ppf "%a: %s(%s)%a: %s" Loc.pp d.loc
    (severity_to_string d.severity)
    (kind_to_string d.kind)
    Fmt.(option (fun ppf c -> pf ppf "[%s]" c))
    d.code d.message

let to_string d = Fmt.str "%a" pp d

(* the string escaping of every hand-rolled JSON report *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* A mutable bag of diagnostics threaded through a compilation phase. *)
module Bag = struct
  type diag = t

  type t = {
    mutable diags : diag list; (* newest first *)
    mutable error_count : int;
  }

  let create () = { diags = []; error_count = 0 }

  let add bag d =
    bag.diags <- d :: bag.diags;
    if d.severity = Error then bag.error_count <- bag.error_count + 1

  let error ?code bag kind loc fmt =
    Fmt.kstr
      (fun message -> add bag { severity = Error; kind; code; loc; message })
      fmt

  let warning ?code bag kind loc fmt =
    Fmt.kstr
      (fun message -> add bag { severity = Warning; kind; code; loc; message })
      fmt

  let has_errors bag = bag.error_count > 0

  let all bag = List.rev bag.diags

  let errors bag = List.filter (fun d -> d.severity = Error) (all bag)

  let pp ppf bag = Fmt.(list ~sep:(any "@\n") pp) ppf (all bag)
end
