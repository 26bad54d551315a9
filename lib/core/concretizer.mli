(** The ASP-based concretizer: Spack's dependency solver, reimplemented.

    Pipeline (§VII): {e setup} generates facts for the problem instance,
    {e load} parses the logic program, {e ground} instantiates it, and
    {e solve} runs CDCL search with lexicographic optimization.  The
    pipeline is {!Asp.Solve.escalate}, which times each phase separately,
    matching the paper's instrumentation; this module supplies the facts
    ({!Facts}), the logic program ({!Logic_program}), the UNSAT explainer
    ({!Diagnose}) and the model decoder ({!Extract}).

    The entry points are {!request_key}, {!solve} and {!solve_many}; each
    takes a {!request}.  Solves are budgeted (see {!Asp.Budget}): a budget
    expiring after a stable model is in hand still yields {!Concrete},
    marked [`Degraded]; expiring earlier yields {!Interrupted}.  Neither
    case raises, and [~attempts] retries interrupted solves with doubled
    limits. *)

type success = {
  spec : Specs.Spec.concrete;
  reused : (string * string) list;  (** (package, hash) reused from the DB *)
  built : string list;  (** packages built from source *)
  n_facts : int;
  n_possible : int;  (** possible dependencies considered (Fig. 7's x-axis) *)
  stats : Asp.Solve.stats;
  (** phases, ground and search statistics, the cost vector (a
      [`Degraded] quality means the spec is valid, it is a stable model,
      but its costs are only guaranteed optimal for completed levels) and
      the verification flag *)
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

(** {1 Requests} *)

type request = {
  repo : Pkg.Repo.t;
  roots : Specs.Spec.abstract list;
      (** concretized together, as one unified DAG rooted at the first *)
  env : Facts.env;
  prefs : Preferences.t;
  installed : Pkg.Database.t option;  (** reuse candidates *)
}
(** Everything a solve's answer depends on apart from the solver
    configuration. *)

val request :
  ?env:Facts.env ->
  ?prefs:Preferences.t ->
  ?installed:Pkg.Database.t ->
  repo:Pkg.Repo.t ->
  Specs.Spec.abstract list ->
  request
(** Defaults: {!Facts.default_env}, {!Preferences.empty}, no installed
    database. *)

(** {1 Solve caching}

    A content-addressed cache of solve results, supplied by the caller as a
    pair of closures ([Server.Cache] provides the LRU + on-disk
    implementation).  Keys come from {!request_key}; only proven-optimal
    {!Concrete} results are stored (degraded/interrupted outcomes depend on
    the budget that produced them, UNSAT diagnoses on [explain]).  A cached
    result is returned exactly as solved — cost vector, [verified] flag,
    the round's phase and step timings, descent count and instance size
    intact. *)

type cache = {
  lookup : string -> result option;
  store : string -> result -> unit;
}

val cacheable : result -> bool
(** Whether a result may be stored: a proven-optimal {!Concrete} one. *)

val request_key : ?config:Asp.Config.t -> request -> string
(** Canonical digest of everything a solve's answer depends on: the
    normalized request ({!Specs.Spec.abstract_digest} per root, root order
    preserved), {!Pkg.Repo.fingerprint}, {!Facts.reuse_digest} of the
    installed DB (the whole-DB {!Pkg.Database.fingerprint} only as a
    fallback for unknown packages), the answer-relevant solver
    configuration (preset/strategy/verify; budgets excluded), the
    environment roster and the preferences; not the reuse mode, which
    does not change the answer.  Installing a package changes
    the reuse digest — and therefore the key — only for requests whose
    package closure can observe the new record; every other cached answer
    survives the install.  Stale entries are never served, they just stop
    being addressed. *)

val solve :
  ?config:Asp.Config.t ->
  ?attempts:int ->
  ?cancel:Asp.Budget.cancel_token ->
  ?fault:(int -> Asp.Budget.t -> unit) ->
  ?pool:Asp.Pool.t ->
  ?racers:int ->
  ?explain:bool ->
  ?cache:cache ->
  request ->
  result
(** Concretize the request's roots together (unified DAG) through
    {!Asp.Solve.escalate}: up to [attempts] (default 1) rounds, each armed
    from [config.limits] doubled once more and reseeded, on [cancel];
    [fault] observes each round's budget (the fault-injection tests arm it
    there).  A cancellation is never retried.

    With [explain] (default [false]) an unsatisfiable solve is diagnosed
    through {!Diagnose.explain_core} — a provenance-mapped minimal unsat
    core naming the conflicting recipes and request constraints — instead
    of the cheap syntactic heuristics.

    With [config.verify] (default on) the winning model is independently
    re-checked before being reported; see [stats.verified].

    When [racers > 1] and a [pool] is given the solve phase runs as a
    parallel portfolio ({!Asp.Portfolio}): setup, load and grounding stay
    on the calling domain, then [racers] diverse configurations race over
    the shared ground program; the cost vector of the result is the same
    as the sequential solver's.  With a [cache], a stored result under
    {!request_key} is returned without solving.
    @raise Facts.Unknown_package on unknown roots or [^deps]. *)

val solve_many :
  ?pool:Asp.Pool.t ->
  ?config:Asp.Config.t ->
  ?attempts:int ->
  ?cancel:Asp.Budget.cancel_token ->
  ?fault:(int -> Asp.Budget.t -> unit) ->
  ?explain:bool ->
  ?cache:cache ->
  request list ->
  result list
(** Concretize independent requests in parallel across [pool] (sequential
    when the pool is absent or has one domain), each through {!solve}.
    Requests with the same {!request_key} within the batch (any spelling)
    are deduplicated before dispatch: a duplicate-heavy batch performs one
    solve per {e unique} request and the result fans back out, so results
    are still in input order and one-per-job.  [cancel] is shared by every
    job, so one SIGINT stops the whole batch; [fault] observes each solve's
    armed budget (tests count dispatches through it).  Jobs are
    single-domain inside — batch parallelism does not compose with
    portfolio racing. *)
