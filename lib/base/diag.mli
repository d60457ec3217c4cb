(** Diagnostics: located errors and warnings, collected by every phase of
    the pipeline (lexing, parsing, elaboration, static checking,
    linting). *)

type severity =
  | Error
  | Warning

(** What rule or phase produced the diagnostic. *)
type kind =
  | Lex_error
  | Parse_error
  | Name_error  (** undeclared/duplicate identifiers, USES violations *)
  | Type_error  (** static type rules of report section 4.7 *)
  | Width_error  (** basic-substructure count mismatches *)
  | Assign_error  (** single-assignment / aliasing rules *)
  | Cycle_error  (** combinational feedback not through REG *)
  | Port_error  (** the unused-port rule of section 4.1 *)
  | Layout_error
  | Runtime_error  (** simulator checks: multiple drives *)
  | Order_error  (** SEQUENTIAL/PARALLEL consistency, section 4.5 *)
  | Limit_error  (** elaboration limits: runaway recursion *)
  | Lint_error  (** the lint engine: conflicts, UNDEF, dead hardware *)

(** Stable diagnostic codes, shared between the static lint engine and
    the simulator's runtime checks so that static findings and dynamic
    violations correlate.  [Z1xx] drive conflicts, [Z2xx] UNDEF
    reachability, [Z3xx] dead hardware.  Append-only. *)
module Code : sig
  val drive_conflict : string  (** Z101 *)

  val drive_unproven : string  (** Z102 *)

  val undriven_read : string  (** Z201 *)

  val undef_only : string  (** Z202 *)

  val dead_branch : string  (** Z301 *)

  val dead_instance : string  (** Z302 *)

  val modular_conflict : string  (** Z401 *)

  val modular_unproven : string  (** Z402 *)

  val modular_cycle : string  (** Z403 *)

  val modular_range : string  (** Z404 *)

  val modular_recursion : string  (** Z405 *)

  val modular_coarse : string  (** Z406 *)

  val absint_constant : string  (** Z501 *)

  val absint_stuck : string  (** Z502 *)

  val absint_unobservable : string  (** Z503 *)

  val seq_uninitialized : string  (** Z601 *)

  val seq_undef_escape : string  (** Z602 *)

  val seq_conflict_reachable : string  (** Z603 *)

  (** Every code with its one-line meaning, in code order. *)
  val all : (string * string) list

  val description : string -> string option

  (** [unknown codes] is the sub-list of [codes] that are not registered,
      in user order, de-duplicated — the uniform [--suppress] validation
      every subcommand shares.  Empty means all codes are valid. *)
  val unknown : string list -> string list

  (** The comma-separated list of all registered codes, for error
      messages. *)
  val valid_codes_message : unit -> string
end

type t = {
  severity : severity;
  kind : kind;
  code : string option;  (** stable Zxxx code, for lint-style findings *)
  loc : Loc.t;
  message : string;
}

val kind_to_string : kind -> string
val severity_to_string : severity -> string
val pp : t Fmt.t
val to_string : t -> string

(** [s] escaped for a JSON string literal: quote, backslash, [\n],
    [\t] and [\r] as two-character escapes, other control characters
    as [\u00XX].  Shared by the [--format json] reports. *)
val json_escape : string -> string

(** A mutable bag of diagnostics threaded through a compilation. *)
module Bag : sig
  type diag := t
  type t

  val create : unit -> t
  val add : t -> diag -> unit

  (** [error bag kind loc fmt ...] formats and records an error. *)
  val error :
    ?code:string ->
    t ->
    kind ->
    Loc.t ->
    ('a, Format.formatter, unit, unit) format4 ->
    'a

  val warning :
    ?code:string ->
    t ->
    kind ->
    Loc.t ->
    ('a, Format.formatter, unit, unit) format4 ->
    'a

  val has_errors : t -> bool

  (** All diagnostics in the order they were recorded. *)
  val all : t -> diag list

  (** Only the errors, in order. *)
  val errors : t -> diag list

  val pp : t Fmt.t
end
