(** The ASP-based concretizer: Spack's dependency solver, reimplemented.

    Pipeline (§VII): {e setup} generates facts for the problem instance,
    {e load} parses the logic program, {e ground} instantiates it, and
    {e solve} runs CDCL search with lexicographic optimization.  Each phase
    is timed separately, matching the paper's instrumentation.

    Solves are budgeted (see {!Asp.Budget}): a budget expiring after a
    stable model is in hand still yields {!Concrete}, marked [`Degraded];
    expiring earlier yields {!Interrupted}.  Neither case raises, and
    {!solve_escalating} retries interrupted solves with doubled limits. *)

type success = {
  spec : Specs.Spec.concrete;
  reused : (string * string) list;  (** (package, hash) reused from the DB *)
  built : string list;  (** packages built from source *)
  costs : (int * int) list;  (** optimization vector: (priority, value) *)
  quality : Asp.Optimize.quality;
  (** [`Optimal], or [`Degraded bounds] when the budget expired
      mid-optimization: the spec is valid (it is a stable model) but its
      costs are only guaranteed optimal for completed levels *)
  phases : Asp.Phases.t;
  n_facts : int;
  n_possible : int;  (** possible dependencies considered (Fig. 7's x-axis) *)
  ground_stats : Asp.Grounder.stats;
  sat_stats : Asp.Sat.stats;
  solve_steps : Asp.Phases.steps;  (** the parts of [phases.solve_time] *)
  descent_searches : int;  (** searches after the first ({!Asp.Optimize.outcome}) *)
  verified : bool;
  (** the spec passed independent model verification ({!Asp.Verify});
      [false] only when [config.verify] is off — a model that {e fails}
      verification is never returned (reseeded retry, then
      {!Asp.Solver_error.Verification_failed}) *)
}

type result =
  | Concrete of success
  | Unsatisfiable of {
      phases : Asp.Phases.t;
      n_facts : int;
      n_possible : int;
      reasons : string list;  (** best-effort explanations ({!Diagnose}) *)
    }
  | Interrupted of {
      info : Asp.Budget.info;  (** phase, reason, partial stats at expiry *)
      phases : Asp.Phases.t;
      n_facts : int;
      n_possible : int;
    }  (** the budget expired before any stable model was found *)

(** {1 Solve caching}

    A content-addressed cache of solve results, supplied by the caller as a
    pair of closures ([Server.Cache] provides the LRU + on-disk
    implementation).  Keys come from {!request_key}; only proven-optimal
    {!Concrete} results are stored (degraded/interrupted outcomes depend on
    the budget that produced them, UNSAT diagnoses on [explain]).  A cached
    result is returned exactly as solved — cost vector, [verified] flag and
    original phase timings intact. *)

type cache = {
  lookup : string -> result option;
  store : string -> result -> unit;
}

val request_key :
  ?config:Asp.Config.t ->
  ?env:Facts.env ->
  ?prefs:Preferences.t ->
  ?installed:Pkg.Database.t ->
  repo:Pkg.Repo.t ->
  Specs.Spec.abstract list ->
  string
(** Canonical digest of everything a solve's answer depends on: the
    normalized request ({!Specs.Spec.abstract_digest} per root, root order
    preserved), {!Pkg.Repo.fingerprint}, {!Facts.reuse_digest} of the
    installed DB (the whole-DB {!Pkg.Database.fingerprint} only as a
    fallback for unknown packages), the answer-relevant solver
    configuration (preset/strategy/verify; budgets excluded), the
    environment roster and the preferences.  Installing a package changes
    the reuse digest — and therefore the key — only for requests whose
    package closure can observe the new record; every other cached answer
    survives the install.  Stale entries are never served, they just stop
    being addressed. *)

val solve :
  ?config:Asp.Config.t ->
  ?env:Facts.env ->
  ?prefs:Preferences.t ->
  ?installed:Pkg.Database.t ->
  ?reuse_mode:Facts.reuse_mode ->
  ?budget:Asp.Budget.t ->
  ?pool:Asp.Pool.t ->
  ?racers:int ->
  ?explain:bool ->
  ?cache:cache ->
  repo:Pkg.Repo.t ->
  Specs.Spec.abstract list ->
  result
(** Concretize one or more root specs together (unified DAG).  A budget is
    armed from [config.limits] unless an explicit [budget] is given.

    With [explain] (default [false]) an unsatisfiable solve is diagnosed
    through {!Diagnose.explain_core} — a provenance-mapped minimal unsat
    core naming the conflicting recipes and request constraints — instead
    of the cheap syntactic heuristics.

    With [config.verify] (default on) the winning model is independently
    re-checked before being reported; see [success.verified].

    The solve phase is {!Asp.Solve.solve_ground}.  When [racers > 1] and a
    [pool] is given it runs as a parallel portfolio ({!Asp.Portfolio}):
    setup, load and grounding stay on the calling domain, then [racers]
    diverse configurations race over the shared ground program; the cost
    vector of the result is the same as the sequential solver's.
    @raise Facts.Unknown_package on unknown roots or [^deps]. *)

val solve_spec :
  ?config:Asp.Config.t ->
  ?env:Facts.env ->
  ?prefs:Preferences.t ->
  ?installed:Pkg.Database.t ->
  ?reuse_mode:Facts.reuse_mode ->
  ?budget:Asp.Budget.t ->
  ?explain:bool ->
  ?cache:cache ->
  repo:Pkg.Repo.t ->
  string ->
  result
(** Parse a spec string, then {!solve}.
    @raise Specs.Spec_parser.Error on malformed spec syntax. *)

val solve_escalating :
  ?attempts:int ->
  ?config:Asp.Config.t ->
  ?env:Facts.env ->
  ?prefs:Preferences.t ->
  ?installed:Pkg.Database.t ->
  ?reuse_mode:Facts.reuse_mode ->
  ?cancel:Asp.Budget.cancel_token ->
  ?fault:(int -> Asp.Budget.t -> unit) ->
  ?pool:Asp.Pool.t ->
  ?racers:int ->
  ?explain:bool ->
  ?cache:cache ->
  repo:Pkg.Repo.t ->
  Specs.Spec.abstract list ->
  result
(** {!solve} with retry-on-interruption ({!Asp.Solve.escalate}): up to
    [attempts] (default 3) rounds, doubling every finite limit of
    [config.limits] and reseeding the search each round.  Returns the first non-interrupted result, or
    the last {!Interrupted} one.  Cancellation (reason [Cancelled]) is
    never retried.  [fault] observes each round's armed budget before the
    solve — the fault-injection tests use it; [cancel] is shared across
    rounds so a SIGINT during any round sticks.  [pool]/[racers] enable the
    portfolio solve phase of {!solve} on every round. *)

val solve_many :
  ?pool:Asp.Pool.t ->
  ?attempts:int ->
  ?config:Asp.Config.t ->
  ?env:Facts.env ->
  ?prefs:Preferences.t ->
  ?installed:Pkg.Database.t ->
  ?reuse_mode:Facts.reuse_mode ->
  ?cancel:Asp.Budget.cancel_token ->
  ?fault:(int -> Asp.Budget.t -> unit) ->
  ?explain:bool ->
  ?cache:cache ->
  repo:Pkg.Repo.t ->
  Specs.Spec.abstract list list ->
  result list
(** Concretize independent root sets in parallel across [pool] (sequential
    when the pool is absent or has one domain), each through
    {!solve_escalating} with [attempts] rounds (default 1, i.e. no
    retries).  Identical requests within the batch (same normalized
    constraint digests, any spelling) are deduplicated before dispatch: a
    duplicate-heavy batch performs one solve per {e unique} request and the
    result fans back out, so results are still in input order and
    one-per-job.  [cancel] is shared by every job, so one SIGINT stops the
    whole batch; [fault] observes each solve's armed budget (tests count
    dispatches through it).  Jobs are single-domain inside — batch
    parallelism does not compose with portfolio racing. *)
