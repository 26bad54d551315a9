(** Translation of a ground program into a {!Sat} instance via Clark
    completion.

    Each ground atom is read through its literal ({!lit_of_atom}).  An atom
    that is not a fact and whose only rule is a normal rule (a choice head
    counts as a rule) is that rule's body, as clasp's preprocessing merges
    an atom with its body: its literal is the body's indicator (the one body
    literal, or the body's shared auxiliary), or a constant when the body
    always or never holds, and it has no variable, no rule clause and no
    completion clause.  An atom met again while its own body is resolved
    closes a cycle (positive or through [not]) and keeps its variable.
    Every other non-fact atom gets a solver variable.  Rule bodies get
    shared auxiliary variables with full equivalence clauses; normal rules
    force their head; choice rules merely {e support} their heads, with
    cardinality bounds expressed as native pseudo-Boolean constraints
    conditioned on the body.  Completion clauses close each atom with its
    own variable under its set of supports.

    An integrity constraint maps to one clause, the negated body literals,
    with no auxiliary variable (clasp's nogood): a literal over a fact is
    dropped, a body that can never hold adds no clause, and a body of facts
    only adds the empty clause.

    The translation also records, per atom, its supporting rules (as rule
    indices, whose body indicator and positive body atoms {!support_lit} and
    {!support_pos} return), which is what the unfounded-set check in
    {!Stable} consumes, and whether the positive dependency graph is
    cyclic (tight programs skip the stability check entirely).

    The solver is created once, at its final size: a first pass over the
    rules and minimize bodies decides which atoms keep a variable (cycle
    breaks included), numbers them in the order the atoms are met and
    bounds the auxiliaries still to come, including the indicators
    {!Optimize.levels} adds, so {!Sat.new_var} never regrows the solver's
    arrays during translation.  Clauses are built in one reused literal
    buffer ({!Sat.add_clause_buf}), and a choice rule's cardinality bounds
    go to {!Sat.add_pb_le_arrays} as arrays. *)

type aux
(** The translation's own state: the shared auxiliaries of multi-literal
    bodies (of rules and minimize entries), each rule's body indicator, the
    constant-false literal and a clause buffer. *)

type t = {
  sat : Sat.t;
  ground : Ground.t;
  lit_of_atom : int array;
      (** ground atom id -> the solver literal of its truth, or {!always}
          (facts) or {!never} (atoms no rule can derive) when the
          translation fixed it; an atom's literal may be another atom's or
          a body's *)
  supports : int list array;
      (** ground atom id -> the rules with it in their head, as indices
          into [ground.rules] *)
  tight : bool;  (** no cycle in the positive dependency graph *)
  aux : aux;
}

val always : int
(** The [lit_of_atom] marker of an atom that always holds. *)

val never : int
(** The [lit_of_atom] marker of an atom that never holds. *)

val translate : ?params:Sat.params -> Ground.t -> t
(** Build the instance.  If the ground program was flagged inconsistent the
    returned solver is already unsatisfiable. *)

val translate_with_selectors :
  ?params:Sat.params -> Ground.t -> t * (Sat.lit * int) list
(** Like {!translate}, but every integrity constraint is guarded by a fresh
    {e selector} literal: its clause is [not sel \/ not body], again with no
    auxiliary variable for the body, instead of [not body] alone.  The upper
    bound of every choice rule that has one is guarded the same way: it is
    conditioned on [sel] as it is on the rule's body, so a core can name a
    cardinality constraint such as [{ a; b } 1].  Returns the selectors
    paired with the index of the guarded rule in [ground.rules].  Solving with all selectors assumed is
    equisatisfiable with {!translate}; on UNSAT, {!Sat.last_core} is a set of
    selectors whose constraints suffice for the conflict (the aspcud-style
    unsat-core setup used by {!Explain}). *)

val support_lit : t -> int -> Sat.lit option
(** [support_lit t r]: the indicator literal of the body of rule [r], one
    of the rules in [supports]; [None] when the body always holds. *)

val support_pos : t -> int -> int array
(** The positive body atom ids of rule [r]. *)

val atom_lit : t -> int -> Sat.lit option
(** Solver literal of a ground atom id ([None] for atoms whose truth the
    translation fixed: facts, atoms whose only body always or never holds,
    impossible atoms; {!atom_is_true} tells which). *)

val body_indicator : t -> Ground.body -> Sat.lit option
(** Indicator literal [b] with [body -> b] and [b -> body] (full
    equivalence, sharing auxiliaries across identical bodies).  [None] means
    the body is unconditionally true; if the body is unsatisfiable
    (mentions an impossible atom) the result is a literal fixed false. *)

val atom_is_true : t -> int -> bool
(** Truth of a ground atom id in the last model (facts are true). *)

val answer : t -> Gatom.t list
(** All atoms true in the last model, facts included, sorted. *)
