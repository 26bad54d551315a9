(** Ground atoms and the interning store used by the grounder.

    Atoms are interned to dense integer ids.  The store keeps, per relation
    (predicate and arity), the ids of its (possibly true) atoms and, for
    each argument position a join probes, an index from the argument's
    term to ids.  Ids are handed out in order, so every id vector is
    sorted. *)

type t = { pred : string; args : Term.t list }

val equal : t -> t -> bool
val hash : t -> int
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val make : string -> Term.t list -> t

(** Interning store.

    A store is either a {e root} or a single {e extension layer} over a
    frozen root ({!Store.extend}): layered stores resolve ids below the
    base's count in the base and the rest locally, which is what lets the
    incremental grounder share one immutable base store across many
    concurrent per-request extensions. *)
module Store : sig
  type atom = t
  type t

  val create : ?size:int -> unit -> t
  (** [size] is the number of atoms expected: the atom table starts with
      that many buckets instead of growing (and rehashing) up to it. *)

  val intern : t -> atom -> int
  (** Id of the atom, adding it if new.
      @raise Invalid_argument when the store is frozen and the atom is new. *)

  val find : t -> atom -> int option

  val find_args : t -> string -> hpred:int -> Term.t array -> int -> int
  (** [find_args st pred ~hpred args n] is the id of the atom [pred] over
      the first [n] terms of [args], or [-1]; [hpred] is
      [Hashtbl.hash pred].  Nothing is built: the arguments are hashed as
      {!hash} does and compared in place. *)

  val intern_args : t -> string -> hpred:int -> Term.t array -> int -> int
  (** {!intern} of the atom {!find_args} names, built only when it is
      new. *)

  val atom : t -> int -> atom
  val count : t -> int

  val mark_fact : t -> int -> unit
  val is_fact : t -> int -> bool
  (** Atoms asserted by ground fact statements (unconditionally true).  A
      layer marking a base atom records the mark in a local overlay; the
      frozen base is never written. *)

  val intern_fact : t -> atom -> bool
  (** Intern the atom and mark it a fact, with one probe of the store;
      [false] when it already was a fact. *)

  val freeze : t -> unit
  (** Make a root store immutable ({!intern} of new atoms and {!mark_fact}
      raise), first building every argument index not built yet.  Required
      before {!extend}; a frozen store is safe to share across domains. *)

  val extend : t -> t
  (** A fresh mutable layer over a frozen root.  Layers do not nest. *)

  val clone : t -> t
  (** Independent mutable copy of a root store (atoms shared, tables
      fresh).  The install-delta path mutates clones instead of chaining
      layers. *)

  type relation
  (** The atoms of one (predicate, arity) pair as seen from a store,
      layers included. *)

  val relation : t -> string -> int -> relation

  (** A relation's ids are in two parts, each in ascending order: part [0]
      holds a root's atoms, or a layer's base atoms; part [1] a layer's own
      atoms (empty on a root).  Every id of part [0] is below every id of
      part [1].  The vectors returned are the store's own: do not mutate
      them.  Interning may append to them, but only ids >= the store's
      count at the time. *)

  val ids : relation -> int -> Ivec.t
  (** [ids rel part]: every atom of the relation in that part. *)

  val ids_with_arg : relation -> int -> pos:int -> value:Term.t -> Ivec.t
  (** [ids_with_arg rel part ~pos ~value]: the atoms of that part whose
      argument at [pos] is [value].  The position's index is built on its
      first probe; nothing is allocated after that. *)
end
