(** Setup phase: translate the problem instance into ASP facts.

    The facts encode (1) the root specs and their constraints, (2) the
    metadata of every package that could possibly appear in the solve
    (versions, variants, dependencies-as-conditions, conflicts, provides),
    (3) the solver environment (compilers, OSes, targets and their weights),
    and (4) optionally the installed database for reuse (hash-keyed
    constraints, Section VI).  A typical solve produces 10k–100k facts. *)

(** Shared fact-generation core, exposed for other workload frontends.

    Accumulates fact statements and the condition-id / provenance
    bookkeeping needed to target the generalized-condition fragment
    ({!Logic_program.conditions_fragment}): fresh [condition/1] ids,
    [condition_requirement] / [imposed_constraint] facts keyed by them, and
    the id → human-readable origin map that
    {!Diagnose.explain_core} prints for unsat cores.  The Spack
    generator below and the CUDF encoder ([Cudf.Encode]) both drive it, so
    every frontend gets identical condition semantics and provenance. *)
module Gen : sig
  type t

  val create : ?first_id:int -> unit -> t
  (** Fresh state; condition ids start at [first_id] (default 1). *)

  val fact : t -> string -> Asp.Term.t list -> unit

  val bump : t -> int -> unit
  (** Count [n] facts delivered outside [statements] (streamed atoms). *)

  val new_condition : t -> int
  (** Allocate a condition id and emit its [condition/1] fact. *)

  val describe : t -> int -> string -> unit
  (** Record a condition's human-readable provenance. *)

  val require : t -> int -> string -> Asp.Term.t list -> unit
  (** [require t id attr args]: a [condition_requirement] of [id]. *)

  val impose : t -> int -> string -> Asp.Term.t list -> unit
  (** [impose t id attr args]: an [imposed_constraint] of [id]. *)

  val statements : t -> Asp.Ast.statement list
  (** Emission order. *)

  val n_facts : t -> int

  val origins : t -> (int * string) list
  (** Condition provenance, newest first. *)
end

type env = {
  compilers : Specs.Compiler.t list;  (** roster, most preferred first *)
  oses : Specs.Os.t list;  (** most preferred first *)
  target_family : string;  (** host architecture family, e.g. "x86_64" *)
}

val default_env : env

type reuse_mode = [ `Stream | `Materialize ]
(** How installed-database reuse facts are delivered.  [`Stream] (the
    default) puts them in {!t.reuse_stream} — a replayable callback the
    grounder seeds directly into its interned atom store, with no
    intermediate statement or per-spec atom list; at E4S scale (60k+
    installed specs, §VII-C) this is the difference between a bounded and
    an exploding setup phase.  [`Materialize] appends them to
    {!t.statements} as ordinary fact statements; both modes produce the
    identical ground program (atoms are seeded in the same order). *)

type t = {
  statements : Asp.Ast.statement list;
  n_facts : int;
  (** total fact count, including streamed reuse facts *)
  possible : string list;  (** package closure considered by this solve *)
  conflict_msgs : (int * string) list;  (** condition id -> message *)
  cond_origins : (int * string) list;
  (** condition id -> human-readable provenance ("hdf5 depends on mpi@3:",
      "the request asks for ...") — what {!Diagnose.explain_core} prints
      when the id turns up in an unsat core *)
  reuse_stream : ((Asp.Gatom.t -> unit) -> unit) option;
  (** with [`Stream] and a non-empty eligible slice: replays the reuse
      facts into a sink (pass as [?facts_stream] to {!Asp.Grounder}) *)
}

exception Unknown_package of string

val generate :
  ?env:env ->
  ?prefs:Preferences.t ->
  ?installed:Pkg.Database.t ->
  ?reuse_mode:reuse_mode ->
  repo:Pkg.Repo.t ->
  Specs.Spec.abstract list ->
  t
(** @raise Unknown_package when a root or [^dep] names no known package or
    virtual. *)

val closure_packages : repo:Pkg.Repo.t -> Specs.Spec.abstract list -> string list
(** The package closure a request's facts would cover, sorted.  Depends
    only on the names in the request (roots and [^dep]s), never on their
    constraints.
    @raise Unknown_package as {!generate}. *)

val reuse_digest :
  ?installed:Pkg.Database.t -> repo:Pkg.Repo.t -> Specs.Spec.abstract list -> string
(** Digest of the slice of the installed database a solve of [roots] can
    observe: the reuse-eligible records of the request's closure (plus
    whether reuse is on at all).  Installing a package outside the closure
    leaves the digest unchanged — cache keys built on it survive unrelated
    installs, narrowing install invalidation from "every key" to "keys
    whose answer could mention the new record".
    @raise Unknown_package as {!generate}. *)
