(** The solve pipeline of every frontend: setup, load, ground, solve.

    {!escalate} is the one pipeline: Spack's [Concretize.Concretizer],
    CUDF's [Cudf.Solver] and the [clingo]-equivalent {!solve_program} each
    supply their facts producer, logic program and UNSAT explainer to it,
    and it times the paper's four phases ({e setup} — fact generation —,
    {e load}, {e ground} and {e solve}) into one {!Phases.t}.  Every
    frontend's budget is armed there.

    No frontend steers the search: the first search decides the
    objective's literals toward zero before its heuristic picks a variable
    ({!Optimize.run}), which is what clasp's objective-driven heuristic
    does for Spack's criteria, so both frontends solve the ground program
    the same way and differ only in how they decode the model.

    Solves are budgeted (see {!Budget}): when the budget expires after a
    stable model is in hand the result is still [Sat], marked
    [`Degraded]; when it expires earlier the result is {!Interrupted}.
    Neither case raises. *)

(** {1 Shared statistics} *)

type stats = {
  phases : Phases.t;
  ground_stats : Grounder.stats;
  sat_stats : Sat.stats;
  solve_steps : Phases.steps;  (** the parts of [phases.solve_time] *)
  descent_searches : int;  (** searches after the first ({!Optimize.outcome}) *)
  costs : (int * int) list;  (** optimization results: (priority, value) *)
  quality : Optimize.quality;
  (** [`Optimal], or [`Degraded bounds] when the budget expired
      mid-optimization (the answer is the best model found; completed
      levels are exact, [bounds] are the proved lower bounds of the rest) *)
  verified : bool;
  (** the answer passed independent verification ({!Verify}); [false] only
      when [config.verify] was off — a model that {e fails} verification is
      never returned (reseeded retry, then
      {!Solver_error.Verification_failed}) *)
}
(** What every solved answer reports, whichever frontend produced it. *)

val print_stats : ?vector:bool -> stats -> unit
(** The [--stats] block of [spack_solve] and [cudf_solve]: the [Ground:],
    [Search:], [Phases:], [Ground steps:], [Solve steps:], [Optimize:] and
    [Instance:] lines, in that order.  With [vector] (Spack's block) an
    [Optimization vector (priority, value):] line of the nonzero costs
    follows [Search:].  perfbench and ci.sh parse these lines: keep them
    byte-stable. *)

type outcome = {
  answer : Gatom.t list;  (** atoms of the stable model, facts included *)
  index : Answer.t Lazy.t;
  (** id-keyed index over [answer], built on first use; {!holds} and
      {!atoms_of} query it instead of scanning the list *)
  models_enumerated : int;
  stats : stats;
  models : Gatom.t list list;
  (** with [~enumerate], the round's enumerated models ({!escalate}),
      [answer] first, each filtered like [answer]; [[]] otherwise *)
}

type result =
  | Sat of outcome
  | Unsat of {
      phases : Phases.t;
      core : Explain.result Lazy.t;
      (** a minimal core of constraint instances ({!Explain.explain}),
          computed on first use from the round's ground program, search
          parameters and budget *)
    }
  | Interrupted of {
      info : Budget.info;  (** phase, reason and partial stats at expiry *)
      phases : Phases.t;
    }  (** the budget expired before any stable model was found *)

(** {1 The pipeline}

    The paper's four timed phases, the same for every input: {e setup}
    (the frontend's facts), {e load} (its logic program), {e ground} and
    {e solve} (translation, optimization with [config.strategy] and
    independent verification of the model, {!Verify}).  A frontend
    supplies only what differs: its facts, its logic program and its
    UNSAT explainer; it decodes the model of a {!Solved} result itself.

    A frontend's facts reach the grounder as ground atoms, never as
    [Ast] statements: its generator builds each fact as the {!Gatom.t}
    the atom store keeps, and {!Grounder.ground} interns them after the
    logic program's own facts. *)

type ('f, 'e) frontend = {
  setup : unit -> 'f * Grounder.facts;
      (** the facts value the frontend keeps (['f]) and the replayable
          producer of its fact atoms, with their count *)
  load : unit -> Ast.program;  (** the logic program, grounded before the facts *)
  explain : 'f -> params:Sat.params -> budget:Budget.t -> Ground.t -> 'e;
      (** the reasons of a proved UNSAT, given the round's search
          parameters, budget and ground program *)
}

type ('f, 'e) staged =
  | Solved of {
      facts : 'f;
      answer : Gatom.t list;  (** the model, facts included *)
      models_enumerated : int;
      stats : stats;
      models : Gatom.t list list;
          (** with [~enumerate:n], up to [n] models of the round, [answer]
              first (see {!escalate}); [[]] otherwise *)
    }
  | Refuted of { facts : 'f; phases : Phases.t; reasons : 'e }
  | Stopped of { facts : 'f; phases : Phases.t; info : Budget.info }
      (** the budget expired (or was cancelled) before any model *)

val escalate :
  ?config:Config.t ->
  ?attempts:int ->
  ?cancel:Budget.cancel_token ->
  ?fault:(int -> Budget.t -> unit) ->
  ?pool:Pool.t ->
  ?racers:int ->
  ?enumerate:int ->
  ('f, 'e) frontend ->
  ('f, 'e) staged
(** Run the pipeline in rounds; the only place a frontend's budget is
    armed.  Round [k] (from 0) arms a budget from [config.limits] doubled
    [k] times, on [cancel] (shared by every round, so a SIGINT during any
    round sticks), lets [fault k] observe it (the fault-injection tests arm
    it there), and runs the pipeline with the preset's parameters reseeded
    by [k * 7919].  When the round stopped for a reason other than
    [Cancelled] and fewer than [attempts] (default 1) rounds ran, the next
    round starts; otherwise its result is returned.

    A model that fails verification is retried once from a reseeded
    search.  [pool] with [racers > 1] races that many diverse
    configurations ({!Portfolio.race}) in the solve phase; when every
    racer's model failed verification, a sequential reseeded solve rescues
    the round.  [enumerate n] makes a solved round also list up to [n]
    models (clingo's [--models n]), after the solve phase's clock stopped.
    The list starts with the round's model.  When the round proved it
    optimal, the solver that found it ({!Portfolio.model}'s translation,
    a raced round's winner's) searches on under the round's budget, each
    found model blocked: with every level fixed at its optimum, these are
    the other optimal models (clingo's [--opt-mode=optN]; without
    [#minimize], every stable model).  A model that fails {!Verify}'s
    stability check is skipped.  The listing is anytime: when the budget
    expires, the models found so far are returned.  A [`Degraded] round
    has not fixed its levels, so it lists only its own model.
    @raise Solver_error.Error ([Ground _]) on unsafe or unsupported
    programs; ([Verification_failed _]) when a model and its reseeded
    retry both fail verification. *)

val solve_program :
  ?config:Config.t ->
  ?cancel:Budget.cancel_token ->
  ?fault:(int -> Budget.t -> unit) ->
  ?pool:Pool.t ->
  ?jobs:int ->
  ?enumerate:int ->
  Ast.program ->
  result
(** One round of {!escalate} with no facts: the program is the logic
    program, and its UNSAT explainer is {!Explain.explain}.  [jobs > 1]
    races that many configurations over [pool], or over an ephemeral pool
    of [min jobs (Pool.default_size ())] domains when no pool is given.
    The answer is filtered through the program's [#show] statements.
    @raise Solver_error.Error as {!escalate}. *)

val index : outcome -> Answer.t
(** Force and return the answer index (O(answer) the first time, O(1)
    after).  Not domain-safe: force it before handing the outcome to other
    domains. *)

val holds : outcome -> string -> Term.t list -> bool
(** [holds o p args] tests whether atom [p(args)] is in the answer.
    O(arity) via the index. *)

val atoms_of : outcome -> string -> Term.t list list
(** Argument vectors of all answer atoms with predicate [p]. *)
