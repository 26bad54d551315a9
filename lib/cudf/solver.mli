(** End-to-end CUDF solving on the shared ASP engine.

    Runs the pipeline the Spack concretizer runs ({!Asp.Solve.escalate}):
    encode the document to fact atoms (installed stanzas last, as reuse
    facts), parse the (stack-specific) logic program, ground under a
    budget, solve with branch-and-bound or unsat-core optimization,
    optionally race a portfolio, verify the model.  This module supplies
    the encoder, the logic program and the UNSAT explainer, and decodes
    the chosen state; the per-criterion cost vector is in [stats].
    {!solve} is the one entry point. *)

type solution = {
  state : (string * int) list;  (** the final installation, sorted *)
  removed : string list;
  installed_new : string list;
  changed : string list;
  n_facts : int;
  n_packages : int;
  n_sets : int;
  stats : Asp.Solve.stats;
      (** its [costs] are [(priority, value)], priorities descending *)
}

type result =
  | Solution of solution
  | Unsatisfiable of { reasons : string list; phases : Asp.Phases.t; n_facts : int }
  | Interrupted of { info : Asp.Budget.info; phases : Asp.Phases.t; n_facts : int }

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
  ?attempts:int ->
  ?cancel:Asp.Budget.cancel_token ->
  ?fault:(int -> Asp.Budget.t -> unit) ->
  ?pool:Asp.Pool.t ->
  ?racers:int ->
  ?explain:bool ->
  ?stack:Criteria.stack ->
  Doc.t ->
  result
(** Solve through {!Asp.Solve.escalate}: up to [attempts] (default 1)
    rounds with doubled limits and a reseeded solver, on [cancel]
    (cancellations are never retried); [fault] observes each round's armed
    budget.  [~explain:true] runs unsat-core
    extraction over the encoder's condition provenance on UNSAT, naming the
    offending [depends:]/[conflicts:]/request stanza; otherwise UNSAT falls
    back to cheap syntactic checks (unknown request targets, unsatisfiable
    request constraints, removes that contradict keep flags, [false!]
    dependencies of requested stanzas).  [~pool] with [racers > 1] races a
    diversified portfolio. *)
