(** Grounding: instantiating a first-order {!Ast.program} into a
    propositional {!Ground.t}.

    The algorithm follows the classic two-phase scheme used by lparse/gringo:

    + a semi-naive fixpoint computes the set of {e possibly true} atoms,
      treating negative literals and conditional-literal targets
      optimistically; it finds each instance of a rule with a head exactly
      once and keeps it;
    + a second pass emits simplified ground rules from those instances,
      and from the instances of integrity constraints and minimize
      elements, joined once against the final possible-atom set: literals
      over input facts are removed, rules whose positive body mentions
      impossible atoms are dropped, and negative literals on impossible
      atoms are erased.

    Conditional literals ([a : conds]) and choice-element guards must range
    over EDB predicates (predicates defined only by facts); this is checked
    and a {!Solver_error.Error} is raised otherwise.

    Every join goes through one kernel ([enumerate]), whose contract is:
    - it enumerates the substitutions of a body's positive literals and
      comparisons, each literal restricted to a window of atom ids, and
      passes each one's matched ids, in literal order, to its callback in
      a reused array;
    - the next literal is the delta literal of a semi-naive window, else
      the first literal whose arguments are all bound (looked up, not
      scanned), else the one with the fewest candidates, the lowest index
      on a tie; instances therefore come in a fixed order, and the ground
      program does not depend on how the kernel is built;
    - a comparison is checked as soon as its variables are bound, wherever
      it is written in the body;
    - the steps are compiled once per body and kept with the compiled rule,
      and nothing is allocated per join node or per instance (arithmetic
      and function terms aside, which intern their values).

    Every call grounds its program from scratch: rules are compiled for
    that grounding, and nothing survives from one grounding to the next. *)

type stats = {
  possible_atoms : int;  (** atoms in the possible-set closure *)
  ground_rules : int;
  fixpoint_rounds : int;
      (** rounds of the closure that joined something: round 0, which
          joins every rule with a head in full, plus each later round in
          which some rule had atoms added since its last join began.  A
          round joins a rule only over those new atoms, so the last round
          derives nothing: a program whose rules come in dependency order,
          like the CUDF one, takes 2. *)
  seed_time : float;  (** wall seconds spent seeding facts and compiling rules *)
  close_time : float;  (** wall seconds in the possible-atom closure *)
  emit_time : float;  (** wall seconds emitting ground rules *)
}

val steps_line : stats -> string
(** ["Ground steps: seed 0.012s, close 0.010s, emit 0.031s"], the line
    [--stats] prints under the phase timings. *)

type facts = {
  count : int;  (** how many atoms [replay] pushes *)
  replay : (Gatom.t -> unit) -> unit;
      (** pushes the atoms into a sink, in the same order on every call *)
}
(** A frontend's input facts as ground atoms: what its fact generator
    built, handed to the atom store as they are. *)

val no_facts : facts
(** No atoms. *)

val ground :
  ?budget:Budget.t ->
  ?facts:facts ->
  Ast.program ->
  Ground.t * stats
(** The budget is ticked once per rule instance the closure derives and
    once per instance emitted.

    [facts] (default {!no_facts}) is replayed once into the atom store
    after the program's own fact statements: every atom is seeded as an
    input fact, exactly as if it had been a fact statement at the end of
    the program, and the store keeps the record it is given.  The store
    starts with about two slots per statement and fact.
    @raise Solver_error.Error ([Ground _]) on unsafe rules, non-EDB
    conditions, or arithmetic on non-integer terms.
    @raise Budget.Exhausted when the instance budget, deadline or cancel
    token fires mid-grounding. *)
