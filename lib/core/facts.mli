(** Setup phase: translate the problem instance into ASP facts.

    The facts encode (1) the root specs and their constraints, (2) the
    metadata of every package that could possibly appear in the solve
    (versions, variants, dependencies-as-conditions, conflicts, provides),
    (3) the solver environment (compilers, OSes, targets and their weights),
    and (4) optionally the installed database for reuse (hash-keyed
    constraints, Section VI).  A typical solve produces 10k–100k facts. *)

(** Shared fact-generation core, exposed for other workload frontends.

    Accumulates fact atoms and the condition-id / provenance bookkeeping
    needed to target the generalized-condition fragment
    ({!Logic_program.conditions_fragment}): fresh [condition/1] ids,
    [condition_requirement] / [imposed_constraint] facts keyed by them, and
    the id → human-readable origin map that
    {!Diagnose.explain_core} prints for unsat cores.  The Spack
    generator below and the CUDF encoder ([Cudf.Encode]) both drive it, so
    every frontend gets identical condition semantics and provenance.

    Each fact is built once, as the {!Asp.Gatom.t} the grounder's atom
    store keeps, and held in one vector in generation order. *)
module Gen : sig
  type t

  val create : ?first_id:int -> unit -> t
  (** Fresh state; condition ids start at [first_id] (default 1). *)

  val fact : t -> string -> Asp.Term.t list -> unit

  val new_condition : t -> int
  (** Allocate a condition id and emit its [condition/1] fact. *)

  val describe : t -> int -> (unit -> string) -> unit
  (** Record a condition's human-readable provenance, formatted only when
      an unsat core names the condition. *)

  val require : t -> int -> string -> Asp.Term.t list -> unit
  (** [require t id attr args]: a [condition_requirement] of [id]. *)

  val impose : t -> int -> string -> Asp.Term.t list -> unit
  (** [impose t id attr args]: an [imposed_constraint] of [id]. *)

  val facts : ?tail:Asp.Grounder.facts -> t -> Asp.Grounder.facts
  (** The atoms so far, in generation order, then [tail]'s, which it
      builds on demand on every replay. *)

  val origins : t -> (int * (unit -> string)) list
  (** Condition provenance, newest first. *)
end

type env = {
  compilers : Specs.Compiler.t list;  (** roster, most preferred first *)
  oses : Specs.Os.t list;  (** most preferred first *)
  target_family : string;  (** host architecture family, e.g. "x86_64" *)
}

val default_env : env

type t = {
  atoms : Asp.Grounder.facts;
  (** every fact, in generation order, then the installed database's
      reuse facts, built on demand from its slots on each replay; at E4S
      scale (60k+ installed specs, §VII-C) no per-spec atom list is ever
      held *)
  possible : string list;  (** package closure considered by this solve *)
  conflict_msgs : (int * string) list;  (** condition id -> message *)
  cond_origins : (int * (unit -> string)) list;
  (** condition id -> human-readable provenance ("hdf5 depends on mpi@3:",
      "the request asks for ...") — what {!Diagnose.explain_core} prints
      when the id turns up in an unsat core *)
}

exception Unknown_package of string

val generate :
  ?env:env ->
  ?prefs:Preferences.t ->
  ?installed:Pkg.Database.t ->
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
