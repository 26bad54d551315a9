(** Human-readable explanations for unsatisfiable concretizations.

    The ASP solver proves unsatisfiability but (like clasp) does not produce
    an explanation.  This module re-examines the request against the
    repository with cheap syntactic checks and reports the likely causes:
    unsatisfiable version requirements, unknown compilers/targets/OSes,
    matching [conflicts] declarations, variant misuse, and providerless
    virtuals. *)

val explain :
  env:Facts.env -> repo:Pkg.Repo.t -> Specs.Spec.abstract list -> string list
(** Best-effort list of reasons, most specific first; empty when nothing
    obvious is wrong (a genuinely combinatorial conflict).  Duplicates
    (repeated nodes across roots and [^deps]) are removed, keeping first
    occurrences. *)

val explain_core :
  params:Asp.Sat.params ->
  budget:Asp.Budget.t ->
  cond_origins:(int * (unit -> string)) list ->
  fallback:(unit -> string list) ->
  Asp.Ground.t ->
  string list
(** Exact explanation via a minimal unsat core ({!Asp.Explain}): the ground
    program is re-solved with selector-guarded constraints, the final
    conflict is shrunk by deletion, and each surviving constraint instance
    is mapped back through its {!Asp.Ground.origin}; ground instances of
    the same source constraint are grouped.  Every condition id found in
    the core's atoms is mapped back through [cond_origins], whose
    descriptions are formatted here ("because pkg foo conflicts with
    bar < 2").  Works for any frontend that targets the
    generalized-condition fragment ({!Logic_program.conditions_fragment}):
    Spack's {!Facts} and the CUDF encoder both qualify.  [fallback]
    supplies the frontend's syntactic heuristics ({!explain} for Spack),
    used when core extraction exhausts its budget (prefixed with a note)
    or, defensively, when the re-solve is satisfiable. *)
