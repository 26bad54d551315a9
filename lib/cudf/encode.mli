(** CUDF universe → ASP facts, on the generalized-condition encoding.

    Version constraints never reach the logic program: each distinct
    constraint (and each keep-flag target) is interned once as a
    {e satisfier set} — [sat(S, Q, W)] facts listing every stanza that
    satisfies it, provides included — so a 10k-stanza universe with tall
    version columns grounds linearly in [sum of set sizes], not
    quadratically in versions.  Depends clauses, conflicts, keep flags and
    the request all become [condition/1]-keyed facts (driven through
    {!Concretize.Facts.Gen}), giving them the same trigger semantics and
    unsat-core provenance as Spack's conditions.  Installed state becomes
    [was_installed/2] reuse facts, built on demand after the encoder's
    other facts each time the atoms are replayed (as Spack's reuse facts
    are).

    Conflicts are split here, not in the program.  A [conflicts:] entry's
    members of other names are one satisfier set, shared by every version
    of the owner ([conflict_set/2]); its members of the owner's own name,
    the stanza itself excepted (CUDF's self-exemption), are listed one by
    one ([conflict_stanza/3]); an entry with neither gets no condition.  A
    name of two or more versions that all say ["conflicts: <name>"]
    unconstrained is stated once, as [single_version/2] (a described
    condition and the name), which the program turns into one cardinality
    bound; its versions' own-name members are then left out. *)

type t = {
  atoms : Asp.Grounder.facts;
      (** every fact as a ground atom, in generation order, the installed
          state last (pass as [?facts] to {!Asp.Grounder.ground}) *)
  n_packages : int;
  n_sets : int;  (** interned satisfier sets *)
  cond_origins : (int * (unit -> string)) list;
      (** condition id → provenance ("pkg=3 depends on bar >= 2 | baz",
          "package pkg=3 conflicts with quux < 4", "the request asks to
          install foo"), formatted and printed by {!Concretize.Diagnose}
          on unsat *)
}

val generate : Doc.t -> t
