(** Specs: Spack's dependency-graph descriptions of builds.

    An {e abstract} spec is a bag of constraints (possibly underspecified)
    on a root package and selected dependencies.  A {e concrete} spec is a
    fully specified DAG: every node has a version, variant values, compiler,
    OS and target, and every edge is resolved.  The concretizer maps the
    former to the latter. *)

(** {1 Abstract specs} *)

type constraint_node = {
  cname : string;  (** package or virtual name *)
  cversion : Vrange.t option;
  cvariants : (string * string) list;  (** variant -> required value *)
  ccompiler : string option;
  ccompiler_version : Vrange.t option;
  cflags : (string * string) list;  (** compiler flags, e.g. [("cflags", "-O3")] *)
  cos : string option;
  ctarget : string option;  (** exact name, or [family:] for descendants *)
}

type abstract = {
  aroot : constraint_node;
  adeps : constraint_node list;  (** [^dep] constraints *)
}

val empty_node : string -> constraint_node
val abstract_of_name : string -> abstract

val merge_nodes : constraint_node -> constraint_node -> constraint_node
(** Union of constraints; second wins on scalar conflicts.  Used when the
    same dependency is constrained twice. *)

val node_to_string : constraint_node -> string
val abstract_to_string : abstract -> string
(** Spec syntax that {!Spec_parser.parse} maps back to the same constraints
    (ranges re-rendered canonically, flag values quoted verbatim). *)

val abstract_digest : abstract -> string
(** Canonical 128-bit digest of the constraints: insensitive to variant and
    flag order, to [^dep] order, to duplicate [^dep] constraints on one
    package (merged as {!merge_nodes} would), and to range spelling
    ([@1.2, 2.0:] vs [@1.2,2.0:]).  Two syntactic spellings of the same
    request produce one digest — the solve cache's request key
    ([Concretize.Concretizer.request_key]) is built on this. *)

val digest_strings : string list -> string
(** The 128-bit FNV-style digest underlying {!node_hash} and
    {!abstract_digest}, exposed for other content-addressed keys (installed
    database fingerprints, repository fingerprints, cache file footers). *)

(** {1 Concrete specs} *)

type concrete_node = {
  name : string;
  version : Version.t;
  variants : (string * string) list;  (** sorted by variant name *)
  compiler : Compiler.t;
  flags : (string * string) list;  (** sorted by flag name *)
  os : Os.t;
  target : string;
  depends : string list;  (** dependency package names, sorted *)
}

module Node_map : Map.S with type key = string

type concrete = { root : string; nodes : concrete_node Node_map.t }

val make_concrete : root:string -> concrete_node list -> concrete
(** Equal node sets give structurally equal values, in whatever order the
    nodes are listed.
    @raise Invalid_argument if the root is missing, an edge dangles, or the
    graph is cyclic. *)

val concrete_root : concrete -> concrete_node
val concrete_nodes : concrete -> concrete_node list
(** In topological order, root first. *)

val node_satisfies : concrete_node -> constraint_node -> bool
(** Does a concrete node meet all the node-level constraints?  (Dependency
    constraints are checked by {!concrete_satisfies}.) *)

val concrete_satisfies : concrete -> abstract -> bool

val node_hash : concrete -> string -> string
(** Spack-style DAG hash of the sub-DAG rooted at the named node: stable
    digest of the node's parameters and its dependencies' hashes. *)

val concrete_node_to_string : concrete_node -> string
val pp_concrete : Format.formatter -> concrete -> unit
(** Paper-style rendering: root first, dependencies prefixed with [^]. *)
