(** Lexicographic multi-objective optimization over [#minimize] statements.

    Ground minimize entries are grouped by (priority, weight, tuple) — a
    tuple contributes its weight when any of its condition bodies holds, as
    in the ASP-Core-2 semantics.  Levels are optimized from the highest
    priority down.  Each level runs a model-guided descent: after a model
    with objective value [v], a selector-guarded pseudo-Boolean bound
    [sum <= v-1] is assumed; when the bound becomes unsatisfiable the
    optimum [v] is fixed with a permanent constraint and the next level
    starts.  This mirrors clasp's branch-and-bound ([bb]) strategy; the
    [usc]-style strategy of the paper differs only in how bounds are probed,
    not in the optimum found.

    The levels' indicator literals are built before the first search, as
    clasp receives a program together with its objective: the first model
    already assigns them, so the descent starts from it without a second
    solve.  That search decides them first ({!Sat.set_preferred}): the
    negation of every level's entries, highest priority first, so a first
    model meets each level whose optimum is 0, and the descent skips such
    a level without a search. *)

type level = {
  priority : int;
  entries : (int * Sat.lit) list;  (** positive weights with indicator literals *)
  offset : int;  (** constant contribution (negative weights, constant-true bodies) *)
}

val levels : Translate.t -> level list
(** Build indicator literals for all minimize groups, highest priority
    first.  Adds variables/clauses to the underlying solver; {!run} calls
    it before its first search. *)

val eval_level : Sat.t -> level -> int
(** Objective value of [level] in the solver's last model (offset included). *)

type quality =
  [ `Optimal  (** every level solved to proven optimality *)
  | `Degraded of (int * int) list
    (** the budget expired mid-descent; the payload lists, for the
        interrupted level and every lower-priority level, the (priority,
        proved lower bound) at interruption.  Earlier levels are exact. *) ]

type outcome = {
  costs : (int * int) list;
  (** (priority, value) per level: the optimum for completed levels, the
      returned model's value for degraded ones *)
  models_enumerated : int;  (** SAT answers seen during descent *)
  descent_searches : int;  (** searches after the first one *)
  quality : quality;
  search_time : float;  (** wall seconds up to the first stable model *)
  optimize_time : float;
      (** wall seconds building the levels and descending through them *)
}

val descent_line : costs:(int * int) list -> descent_searches:int -> string
(** ["Optimize: 14 levels, 0 descent searches"], the line [--stats] prints
    under [Solve steps:]; [costs] has one entry per level. *)

val run :
  ?strategy:Config.strategy ->
  ?budget:Budget.t ->
  Translate.t ->
  on_model:(Sat.t -> [ `Accept | `Refine of Sat.lit list list ]) ->
  outcome option
(** Optimize all levels.  [None] if the program is unsatisfiable.  On
    success the solver's stored model is a stable model realizing [costs]:
    the optimum when [quality] is [`Optimal]; otherwise the best model
    found before the budget expired, whose cost vector is lexicographically
    >= the optimum and satisfies every completed level's fixed bound (the
    {e anytime} contract of clasp's [--time-limit]).
    @raise Budget.Exhausted only when the budget expires before any model
    is in hand (during the initial search); after that, expiry degrades the
    outcome instead of raising. *)
