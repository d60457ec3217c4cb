(** Modular component-summary analysis.

    Computes, once per (component type, canonical parameter signature),
    a {!Contract.t} by abstract interpretation of the type's body over
    intervals ({!Contract.ival}) and symbolic linear index expressions
    ({!Contract.Lin}), composing the contracts of instantiated child
    types bottom-up — without elaborating the design.  Children are
    summarized lazily, mirroring the paper's section 4.2 rule that
    hardware is only generated if it is used.

    Three whole-program checks run on the summaries alone:

    - {b modular drive-conflict detection} (Z401/Z402): pairwise
      exclusivity of a slot's drivers, decided first by symbolic index
      disjointness ([output[i]] vs [output[i + n DIV 2]] differ by a
      negative constant for every [n]) and then by the bounded DPLL
      prover of {!Lint} on the composed guards;
    - {b type-level combinational-cycle detection} (Z403): registers
      are the only cycle breakers, proved for all parameter values of a
      recursive type by a reachability fixpoint with shift-labelled
      edges (a self-edge of strictly positive shift is a systolic
      chain, not a cycle);
    - {b symbolic parameter-range checking} (Z404/Z405/Z406): empty
      ARRAY ranges, out-of-bounds indexing, non-positive widths and
      non-well-founded recursion in WHEN chains, by interval abstract
      interpretation over the generic parameters, with a Z406 note when
      the intervals are too coarse and the check falls back to
      elaboration.

    Soundness direction: a type is only reported {e proven}
    (conflict-safe / cycle-free) when no construct forced a
    conservative fallback, so a "proven" verdict never contradicts the
    elaborated lint; warnings (Z402/Z403/Z406) may over-approximate. *)

type result = {
  contracts : (string * Contract.t) list;
      (** per component type, in analysis order; symbolic contracts when
          [symbolic], concrete ones otherwise *)
  findings : Zeus_base.Diag.t list;
  proven_conflict_safe : string list;
      (** type names whose every analysed signature was proved free of
          internal drive conflicts, with no fallback *)
  proven_cycle_free : string list;
  fallbacks : (string * string) list;  (** (type, reason) pairs *)
  types_analyzed : int;  (** distinct component types reached *)
  summaries_computed : int;  (** (type, signature) summaries built *)
}

val analyze :
  ?symbolic:bool ->
  Zeus_lang.Ast.program ->
  result
(** [analyze prog] summarizes every top-level component type of [prog].

    [symbolic] (default [true]) additionally summarizes each type at
    the fully symbolic signature (every formal unconstrained), so the
    proofs quantify over {e all} parameter values; the concrete
    signatures reachable from the program's root SIGNAL declarations
    are always analysed.

    The only sharing is an in-process memo per (type, canonical
    signature), so the result is a function of [prog] alone. *)

val summary_line : result -> string
(** One-line statistics: types reached, summaries computed, the
    conflict-safe and cycle-free proofs, and the fallback count. *)
