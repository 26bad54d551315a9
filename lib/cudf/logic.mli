(** The CUDF software model as an ASP program.

    Structurally a sibling of {!Concretize.Logic_program}: the
    generalized-condition fragment is spliced in verbatim
    ({!Concretize.Logic_program.conditions_fragment}), so depends clauses,
    conflicts and request constraints all trigger through [condition/1] +
    [condition_requirement] facts and map back through the same unsat-core
    provenance path.  The rest is CUDF-specific: a flat
    [attr("in", P, V)] choice per stanza, interned satisfier sets
    ([sat/3]) instead of per-rule version comparisons, and the
    user-selected objective stack appended per solve. *)

val text : Criteria.stack -> string
(** ASP source for one criterion stack (rules are shared; only the
    [#minimize] statements differ). *)

val line_count : Criteria.stack -> int
(** Non-blank source lines (reported in benchmarks). *)
