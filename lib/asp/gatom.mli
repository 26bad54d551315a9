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

(** Interning store. *)
module Store : sig
  type atom = t
  type t

  val create : ?size:int -> unit -> t
  (** [size] is the number of atoms expected: the atom table starts with
      that many buckets instead of growing (and rehashing) up to it. *)

  val intern : t -> atom -> int
  (** Id of the atom, adding it if new. *)

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
  (** Atoms asserted by ground fact statements (unconditionally true). *)

  val intern_fact : t -> atom -> unit
  (** Intern the atom and mark it a fact. *)

  type relation
  (** The atoms of one (predicate, arity) pair. *)

  val relation : t -> string -> int -> relation

  (** A relation's ids are in ascending order.  The vectors returned are
      the store's own: do not mutate them.  Interning may append to them,
      but only ids >= the store's count at the time. *)

  val ids : relation -> Ivec.t
  (** Every atom of the relation. *)

  val ids_with_arg : t -> relation -> pos:int -> value:Term.t -> Ivec.t
  (** [ids_with_arg st rel ~pos ~value]: the atoms of [st]'s relation [rel]
      whose argument at [pos] is [value].  The position's index is built on its
      first probe; nothing is allocated after that. *)
end
