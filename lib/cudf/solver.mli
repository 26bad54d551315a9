(** End-to-end CUDF solving on the shared ASP engine.

    Mirrors the Spack pipeline ({!Concretize.Concretizer}): encode the
    document to facts, parse the (stack-specific) logic program, ground
    under a budget with installed stanzas streamed as reuse facts, solve
    with branch-and-bound or unsat-core optimization, optionally race a
    portfolio, verify the model, and decode the chosen state plus its
    per-criterion cost vector. *)

type solution = {
  state : (string * int) list;  (** the final installation, sorted *)
  removed : string list;
  installed_new : string list;
  changed : string list;
  costs : (int * int) list;  (** [(priority, value)], priorities descending *)
  quality : Asp.Optimize.quality;
  verified : bool;
  phases : Asp.Phases.t;
  n_facts : int;
  n_packages : int;
  n_sets : int;
  ground_stats : Asp.Grounder.stats;
  sat_stats : Asp.Sat.stats;
  solve_steps : Asp.Phases.steps;  (** the parts of [phases.solve_time] *)
  descent_searches : int;  (** searches after the first ({!Asp.Optimize.outcome}) *)
}

type result =
  | Solution of solution
  | Unsatisfiable of { reasons : string list; phases : Asp.Phases.t; n_facts : int }
  | Interrupted of { info : Asp.Budget.info; phases : Asp.Phases.t; n_facts : int }

val heuristic_reasons : Doc.t -> string list
(** Cheap syntactic diagnosis of an unsatisfiable document: unknown
    request targets, unsatisfiable request constraints, removes that
    contradict keep flags, [false!] dependencies of requested stanzas. *)

val diff_state :
  Doc.t -> (string * int) list -> string list * string list * string list
(** [diff_state doc state] is [(removed, installed_new, changed)]: installed
    names absent from [state], names of [state] not installed, and names
    whose (name, version) pairs differ between the two, each without
    repeats and in order of first appearance (installed stanzas, then
    [state]; [changed] lists [state]'s names first).  Linear in the sizes
    of both. *)

val solve :
  ?config:Asp.Config.t ->
  ?budget:Asp.Budget.t ->
  ?pool:Asp.Pool.t ->
  ?racers:int ->
  ?explain:bool ->
  ?stack:Criteria.stack ->
  ?installed_mode:Encode.mode ->
  Doc.t ->
  result
(** One attempt; the solve phase is {!Asp.Solve.solve_ground}.
    [installed_mode] (default [`Stream]) picks how installed stanzas reach
    the grounder; [`Materialize] is the reference the tests compare the
    streamed path against.  [~explain:true] runs unsat-core extraction over the
    encoder's condition provenance on UNSAT, naming the offending
    [depends:]/[conflicts:]/request stanza; otherwise UNSAT falls back to
    {!heuristic_reasons}.  [~pool] with [racers > 1] races a diversified
    portfolio. *)

val solve_escalating :
  ?attempts:int ->
  ?config:Asp.Config.t ->
  ?cancel:Asp.Budget.cancel_token ->
  ?pool:Asp.Pool.t ->
  ?racers:int ->
  ?explain:bool ->
  ?stack:Criteria.stack ->
  Doc.t ->
  result
(** Retry on budget exhaustion with doubled limits and a reseeded solver
    ([attempts] tries total, default 3; {!Asp.Solve.escalate});
    cancellations are never retried. *)
