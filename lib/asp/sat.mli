(** A CDCL SAT solver with native pseudo-Boolean (cardinality) constraints.

    This plays the role of clasp's search core: conflict-driven clause
    learning with two-watched-literal propagation, EVSIDS decision heuristic
    with phase saving (after a caller's preferred literals, see
    {!set_preferred}), Luby restarts, and activity-based deletion of learnt
    clauses.  Like clasp's short-clause implication graph, two-literal
    clauses (most of what {!Translate} produces) are no clause records: each
    literal keeps a list of its binary partners, scanned before the watch
    list, and a literal they imply names the other, false literal as its
    reason.  Binary clauses, learnt ones included, are never deleted, so
    the learnt-clause cap ([learnt_start]) counts longer learnt
    clauses only.  Pseudo-Boolean [<=] constraints are propagated natively
    with a counter scheme (no CNF encoding), which is what makes cardinality
    rules and optimization bounds cheap.

    Literal encoding: variable [v] yields literals [2*v] (positive) and
    [2*v+1] (negated). *)

type t

type lit = int

module Lit : sig
  val pos : int -> lit
  val neg : int -> lit
  val negate : lit -> lit
  val var : lit -> int
  val sign : lit -> bool
  (** [true] for negative literals. *)
end

(** Search-behaviour knobs (set per clingo-style preset by {!Config}). *)
type params = {
  var_decay : float;  (** EVSIDS decay, e.g. 0.95 *)
  clause_decay : float;
  restart_base : int;  (** Luby unit, in conflicts *)
  default_phase : bool;  (** polarity used before phase saving kicks in *)
  learnt_start : int;
      (** cap on learnt clauses of three or more literals before the first
          reduction *)
  learnt_inc : float;  (** cap growth factor per reduction *)
  seed : int;  (** deterministic tie-breaking jitter on initial activities *)
}

val default_params : params

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_literals : int;
  mutable pb_propagations : int;
  mutable vars : int;  (** the instance's size: variables created, *)
  mutable clauses : int;
      (** problem clauses kept (binary ones included; units, satisfied
          clauses and learnt clauses are not counted), *)
  mutable pb_constraints : int;  (** and pseudo-Boolean constraints kept *)
}

val create : ?params:params -> ?capacity:int -> unit -> t
(** An empty solver.  Its per-variable and per-literal arrays start with
    room for [capacity] variables (default and minimum 16) and double when
    {!new_var} outgrows them: a caller that knows, or can bound, how many
    variables it will create ({!Translate} does) allocates them once.  The
    capacity changes no answer, model or search step. *)

val num_vars : t -> int

val new_var : t -> int
(** Fresh variable, initially unassigned. *)

val add_clause : t -> lit list -> unit
(** Add a clause (at decision level 0).  The solver may become trivially
    unsatisfiable; subsequent [solve] calls then return [Unsat]. *)

val add_clause_buf : t -> Ivec.t -> unit
(** [add_clause] over the literals of a buffer, which it sorts and dedups
    in place: the same clause, without building a list. *)

val add_pb_le : t -> (int * lit) list -> int -> unit
(** [add_pb_le s wls k] adds [sum w_i * l_i <= k]; all weights must be
    positive (normalize before calling).  Repeated literals are merged and a
    complementary pair's common weight comes off [k]; literals of distinct
    variables, the common case, skip that merge. *)

val add_pb_le_arrays : t -> int array -> lit array -> int -> unit
(** [add_pb_le_arrays s ws ls k] is [add_pb_le] over [(ws.(i), ls.(i))].
    The solver may keep the arrays: the caller must not change them. *)

type result = Sat | Unsat

val solve :
  ?assumptions:lit list ->
  ?on_model:(t -> [ `Accept | `Refine of lit list list ]) ->
  ?budget:Budget.t ->
  t ->
  result
(** Search for a model.  When a total assignment is found, [on_model] is
    consulted: [`Accept] ends the search with [Sat]; [`Refine clauses]
    installs the clauses (at least one of which must be violated by the
    current assignment, or the search may not terminate) and continues.
    Assumptions are decided first; if they are contradictory with the
    constraints the result is [Unsat].

    The budget is ticked at every learning conflict and polled at every
    decision.
    @raise Budget.Exhausted when the budget runs out; the solver is left in
    a consistent level-0 state (re-solvable, and the last stored model — if
    any — is untouched). *)

val value : t -> lit -> bool
(** Value of a literal in the last stored model.
    @raise Solver_error.Error [No_model] before the first successful solve,
    or when the literal's variable was created after the model was stored. *)

val model_true_vars : t -> int list
(** Variables assigned true in the last stored model.
    @raise Solver_error.Error [No_model] before the first successful solve. *)

val stats : t -> stats

val instance_line : stats -> string
(** [Instance: <V> variables, <C> clauses, <P> PB constraints], the
    instance's size as the counters stand. *)

val shared_lists_empty : unit -> bool
(** Self-check of the per-literal list allocation: the one watch list, the
    one binary-partner list and the one PB-occurrence list that every solver
    shares for literals it has never pushed to are still empty. *)

val heap_ok : t -> bool
(** Self-check of the decision heap: every parent's activity is at least its
    children's, and each variable's recorded heap position agrees with the
    heap array ([-1] exactly for variables not in the heap). *)

val current_lit_value : t -> lit -> int
(** Live value of a literal in the solver's current assignment: [1] true,
    [0] false, [-1] unassigned.  Meant for [on_model] hooks, where the
    assignment is total. *)

val set_preferred : t -> lit list -> unit
(** [set_preferred s lits] makes every search decide the unassigned
    literals of [lits] in order, after the assumptions and before the
    heuristic picks a variable.  The walk restarts from the head of the
    list on every backtrack.  Once the solver has met 16 conflicts (since
    its creation) the list is dropped for good, and a list set after that
    is ignored: this is clasp's sign-and-level domain heuristic, confined
    to the first searches.  It steers no answer, model check or core:
    assumptions still come first. *)

val last_core : t -> lit list
(** After [solve ~assumptions] returned [Unsat]: a subset of the assumptions
    that together are inconsistent with the constraints (the {e core}).
    Empty when the instance is unsatisfiable even without assumptions. *)

val solve_with_assumptions :
  ?on_model:(t -> [ `Accept | `Refine of lit list list ]) ->
  ?budget:Budget.t ->
  t ->
  lit list ->
  result
(** [solve] with the assumptions as the positional argument; on [Unsat] the
    core is available from {!last_core}. *)

val shrink_core :
  ?on_model:(t -> [ `Accept | `Refine of lit list list ]) ->
  ?budget:Budget.t ->
  t ->
  lit list ->
  lit list * bool
(** Deletion-based minimization of an unsatisfiable assumption set: re-solve
    with each literal removed in turn, keeping it only when its removal makes
    the instance satisfiable.  Returns [(core, minimal)]; [minimal] is [true]
    when the pass completed, in which case the core is a minimal
    unsatisfiable subset.  Anytime: on budget exhaustion the current (still
    unsatisfiable, possibly non-minimal) set is returned with [false] instead
    of raising.  The budget is ticked once per deletion attempt
    ({!Budget.Opt_step}) and by each inner solve as usual.  Pass the same
    [on_model] hook used for the original solve (e.g. {!Stable.hook}) so
    cores remain sound for non-tight programs. *)
