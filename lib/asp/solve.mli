(** Top-level solving pipeline: ground, translate, search, optimize.

    This is the [clingo]-equivalent entry point: it takes a first-order
    program, grounds it, runs CDCL search under stable-model semantics and
    returns the optimal answer set together with per-phase timings (the
    paper's instrumentation distinguishes {e load}, {e ground} and {e solve}
    phases; {e setup} — fact generation — happens in the caller).

    No frontend steers the search: the first search decides the
    objective's literals toward zero before its heuristic picks a variable
    ({!Optimize.run}), which is what clasp's objective-driven heuristic
    does for Spack's criteria, so both frontends solve the ground program
    the same way and differ only in how they decode the model.

    Solves are budgeted (see {!Budget}): when the budget expires after a
    stable model is in hand the result is still [Sat], marked
    [`Degraded]; when it expires earlier the result is {!Interrupted}.
    Neither case raises. *)

type outcome = {
  answer : Gatom.t list;  (** atoms of the stable model, facts included *)
  index : Answer.t Lazy.t;
  (** id-keyed index over [answer], built on first use; {!holds} and
      {!atoms_of} query it instead of scanning the list *)
  costs : (int * int) list;  (** optimization results: (priority, value) *)
  quality : Optimize.quality;
  (** [`Optimal], or [`Degraded bounds] when the budget expired
      mid-optimization (the answer is the best model found; completed
      levels are exact, [bounds] are the proved lower bounds of the rest) *)
  ground_stats : Grounder.stats;
  sat_stats : Sat.stats;
  models_enumerated : int;
  descent_searches : int;  (** searches after the first ({!Optimize.outcome}) *)
  ground_time : float;  (** seconds *)
  solve_time : float;  (** translation + search + optimization, seconds *)
  solve_steps : Phases.steps;  (** the parts of [solve_time] *)
  verified : bool;
  (** the answer passed independent verification ({!Verify}); [false] only
      when [config.verify] was off — a model that {e fails} verification is
      never returned (reseeded retry, then
      {!Solver_error.Verification_failed}) *)
}

type result =
  | Sat of outcome
  | Unsat of { ground_time : float; solve_time : float }
  | Interrupted of {
      info : Budget.info;  (** phase, reason and partial stats at expiry *)
      ground_time : float;
      solve_time : float;
    }  (** the budget expired before any stable model was found *)

(** {1 The solve stage}

    Every entry point runs the step after grounding through
    {!solve_ground}: {!solve_program} here, [Concretize.Concretizer.solve]
    and [Cudf.Solver.solve] for the two frontends.  Each frontend times
    it, matches the {!verdict} and decodes the model its own way. *)

type verdict =
  | Model of Portfolio.model
      (** a verified stable model (unverified when [config.verify] is off);
          optimal iff its [quality] is [`Optimal] *)
  | Proved_unsat
  | Gave_up of Budget.info
      (** the budget expired (or was cancelled) before any model *)

val solve_ground :
  config:Config.t ->
  ?params:Sat.params ->
  ?pool:Pool.t ->
  ?racers:int ->
  budget:Budget.t ->
  Ground.t ->
  verdict
(** Solve an already-ground program.

    Sequentially (the default): translate with [params] (default: the
    preset's), optimize with [config.strategy] (whose first search decides
    the objective toward zero, see {!Optimize}), then
    re-check the model with {!Verify} on a fresh unlimited budget, so a
    budget that expired mid-descent cannot veto checking the degraded
    model.  A model that fails verification triggers one retry from a
    reseeded search.

    With a [pool] and [racers > 1]: {!Portfolio.race} [racers] diverse
    configurations, each on its own translation.  When
    every racer's model failed verification, the sequential runner
    rescues the solve from a seed shifted away from [params].
    @raise Solver_error.Error ([Verification_failed _]) when the
    sequential runner's model and its reseeded retry both fail
    verification. *)

val escalate :
  ?attempts:int ->
  ?config:Config.t ->
  ?cancel:Budget.cancel_token ->
  ?fault:(int -> Budget.t -> unit) ->
  interrupted:('r -> Budget.info option) ->
  (params:Sat.params -> budget:Budget.t -> 'r) ->
  'r
(** The retry loop of both frontends.  Round [k] (from 0) arms a budget
    from [config.limits] doubled [k] times, on [cancel] (shared by every
    round, so a SIGINT during any round sticks), lets [fault k] observe it,
    and runs the solve with the preset's parameters reseeded by [k].  When
    [interrupted] finds the result interrupted for a reason other than
    [Cancelled] and fewer than [attempts] (default 3) rounds ran, the next
    round starts; otherwise the result is returned. *)

val solve_program :
  ?config:Config.t ->
  ?budget:Budget.t ->
  ?pool:Pool.t ->
  ?jobs:int ->
  Ast.program ->
  result
(** Ground, then {!solve_ground}.  A budget is armed from [config.limits]
    unless an explicit (possibly fault-injected, see {!Fault}) [budget] is
    given.  [jobs > 1] races that many configurations over [pool], or over
    an ephemeral pool of [min jobs (Pool.default_size ())] domains when no
    pool is given; grounding stays on the calling domain.  The answer is
    filtered through the program's [#show] statements.
    @raise Solver_error.Error ([Ground _]) on unsafe or unsupported
    programs; ([Verification_failed _]) as {!solve_ground}. *)

val solve_text : ?config:Config.t -> ?budget:Budget.t -> string -> result
(** Parse then solve.
    @raise Solver_error.Error ([Parse _]) on syntax errors. *)

val index : outcome -> Answer.t
(** Force and return the answer index (O(answer) the first time, O(1)
    after).  Not domain-safe: force it before handing the outcome to other
    domains. *)

val holds : outcome -> string -> Term.t list -> bool
(** [holds o p args] tests whether atom [p(args)] is in the answer.
    O(arity) via the index. *)

val atoms_of : outcome -> string -> Term.t list list
(** Argument vectors of all answer atoms with predicate [p]. *)

val enumerate :
  ?config:Config.t ->
  ?budget:Budget.t ->
  ?limit:int ->
  Ast.program ->
  Gatom.t list list
(** Enumerate stable models (all of them by default, up to [limit]): each
    answer is blocked and the search continues, like clingo's [--models N].
    When the program has [#minimize] statements only {e optimal} models are
    enumerated (clingo's [--opt-mode=optN]).  Enumeration is anytime: a
    budget armed from [config.limits] (or the explicit [budget]) is ticked
    through grounding, search and every blocked re-solve, and on expiry the
    models found so far are returned. *)
