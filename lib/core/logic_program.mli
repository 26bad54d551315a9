(** The concretizer's logic program — the declarative "software model" of
    Section V.

    This is the fixed part of every solve: first-order rules, integrity
    constraints and optimization criteria.  It changes only when the software
    model changes; the facts generated per solve ({!Facts}) are what varies
    with the root spec, the repository and Spack's state.  The paper reports
    ~800 lines for Spack's full program; this one covers the subset of the
    model reproduced here (nodes, versions, variants, compilers, targets,
    OSes, virtuals/providers, generalized conditions, conflicts, reuse, and
    the 15 + build-reuse optimization criteria). *)

val text : string
(** ASP source, parsed by {!Asp.Parser}. *)

val conditions_fragment : string
(** The generalized-condition rules alone (Section V-A): [condition_holds/1]
    triggered by [condition_requirement/3..5], imposing
    [imposed_constraint/3..5].  Ecosystem-neutral — [text] splices it in
    unchanged, and the CUDF frontend ([Cudf.Logic]) shares it so both
    workloads run the identical trigger/effect semantics and unsat-core
    provenance ({!Diagnose.explain_core}). *)

val program : unit -> Asp.Ast.program
(** Parsed form (parsed once, memoized). *)

val line_count : int
(** Number of non-blank source lines (reported in benchmarks). *)
