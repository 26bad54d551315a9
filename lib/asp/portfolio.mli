(** Parallel portfolio solving: race diverse solver configurations over one
    shared ground program.

    clasp's parallel mode wins wall-clock not by splitting the search space
    but by {e strategy diversity}: several configurations (heuristic decay,
    restart schedule, optimization strategy, seeds) attack the same instance
    and the first to prove optimality wins.  This module reproduces that on
    OCaml 5 domains.  {!Solve.escalate} runs the race, and the
    sequential rescue when every racer's model failed verification, for
    every entry point.

    What is shared between racers is immutable during the race: the ground
    program ({!Ground.t} including its atom store) and the global interned
    term table.  Each racer builds its own {!Sat} state via
    {!Translate.translate}, so no solver state is shared while the race
    runs; once it is over, an optimal winner's translation goes to the caller
    with its model, and only the caller touches it.  Each
    racer's first search decides the objective first ({!Optimize.run})
    and then follows its own seed's heuristic.

    Cancellation protocol: every racer's budget shares one {e race token},
    a {!Budget.child_token} of the caller's token when there is one.  A
    racer that finishes with a {e proof} — optimality or unsatisfiability —
    cancels the race token on its own; the remaining racers trip
    [Cancelled] at their next budget tick and unwind.  A SIGINT on the
    caller's token reaches every racer through the parent link.

    Determinism: the winning {e cost vector} is deterministic — the
    lexicographic optimum is unique, and every racer that completes proves
    the same one — even though which racer wins (and hence which optimal
    {e model} is reported) may vary with scheduling.  On budget expiry the
    combined result is also deterministic given the per-racer outcomes: the
    lexicographically best incumbent wins, ties broken by tightest proved
    bounds, then racer order. *)

type racer = {
  rname : string;  (** e.g. ["usc/tweety"], for stats and tests *)
  rpreset : Config.preset;
  rstrategy : Config.strategy;
  rseed_offset : int;  (** added to the preset's EVSIDS seed *)
}

val racers : ?config:Config.t -> int -> racer list
(** [n] diverse racers: racer 0 is exactly [config]'s preset and strategy
    (a 1-racer portfolio degenerates to the sequential solver), then the
    strategy alternates and the preset cycles; once every
    strategy × preset pair is used, seeds are reshuffled. *)

(** A stable model with its cost vector, as a racer (or the sequential
    runner of {!Solve.escalate}) found it. *)
type model = {
  answer : Gatom.t list;  (** atoms of the model, facts included *)
  costs : (int * int) list;
  quality : Optimize.quality;  (** optimal iff [`Optimal] *)
  sat_stats : Sat.stats;  (** the solver's counters when the run returned *)
  models_enumerated : int;
  descent_searches : int;  (** {!Optimize.outcome}'s *)
  verified : bool;  (** passed {!Verify} (always true when verifying) *)
  steps : Phases.steps;  (** how long this run's solve steps took *)
  translation : Translate.t option;
      (** with [`Optimal] quality, the one translation the run made, its
          solver holding [answer] as its last model.  {!Optimize.run} has
          fixed every level at its optimum, so the solver's further models
          are exactly the other optimal ones: {!Solve.escalate} enumerates
          on it.  [None] when degraded: such a run has not fixed its
          levels, and its solver is freed when the run returns. *)
}

(** One racer's result. *)
type attempt =
  | Model of model
  | Proved_unsat
  | Gave_up of Budget.info
      (** budget expired (or the race was cancelled) before any model *)
  | Quarantined of { violations : string list }
      (** the racer's model failed independent verification: it is excluded
          from the combination (and never cancels the race); selected only
          when no racer produced anything usable, signalling the
          sequential rescue of {!Solve.escalate} *)

type outcome = {
  attempt : attempt;  (** the combined verdict (see module doc) *)
  attempts : (string * attempt) list;  (** every racer's result, racer order *)
}

val solve_once :
  verify:bool ->
  params:Sat.params ->
  strategy:Config.strategy ->
  budget:Budget.t ->
  Ground.t ->
  attempt
(** One configuration on the calling domain, as each racer runs it:
    translate with [params], optimize with [strategy], then,
    with [verify], re-check the model with {!Verify} on a fresh unlimited
    budget (so a [budget] that expired mid-descent cannot veto checking
    the degraded model).  An optimal [Model] carries that translation.  Never
    [Gave_up]: a model that fails the check is [Quarantined].
    @raise Budget.Exhausted before the first model, as {!Optimize.run}. *)

val race :
  pool:Pool.t ->
  ?verify:bool ->
  racers:racer list ->
  budget:Budget.t ->
  Ground.t ->
  outcome
(** Race the configurations over the pool.  [budget] is the caller's armed
    budget: each racer gets a {!Budget.sibling} (same deadline and limits,
    fresh counters) on the race token.
    With [verify] (default [true]) each winning model is independently
    re-checked {e before} the racer is allowed to cancel the others — the
    verify-then-cancel handshake; a failing model becomes {!Quarantined}
    and the race continues.
    Racer exceptions other than [Budget.Exhausted] are re-raised. *)
