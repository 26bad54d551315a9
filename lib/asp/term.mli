(** Ground terms of the ASP language, with hash-consing (maximal sharing).

    A ground term is either an integer, a symbolic constant, or a compound
    term.  Symbolic constants subsume both ASP identifiers ([foo]) and quoted
    strings (["foo"]); the two spellings denote the same constant if their
    characters coincide, which is the convention used throughout this code
    base (the concretizer only ever compares constants for equality).

    Every term is interned in a global hash-cons table: structurally equal
    terms are the {e same} OCaml value.  Consequently {!equal} is physical
    equality, {!hash} is an O(1) field read, and {!id} is a dense integer
    usable as a hash/index key.  Terms must only be built with the smart
    constructors {!int}, {!str} and {!fun_}; the record is exposed [private]
    so call sites can pattern-match on [t.node] but cannot forge un-interned
    values.

    The table is domain-safe (sharded, one lock per shard) and shared by
    every domain, so physical equality of equal terms holds across domains —
    a requirement of the parallel solving layer ({!Pool}, {!Portfolio}). *)

type t = private { node : node; id : int; hkey : int }

and node =
  | Int of int  (** integer constant *)
  | Str of string  (** symbolic constant or quoted string *)
  | Fun of string * t list  (** compound term, e.g. [node(1, "hdf5")] *)

val node : t -> node

val id : t -> int
(** Unique dense id of the interned term: [id a = id b] iff [a == b].  Ids
    are assigned in first-interning order and are stable for the lifetime of
    the process. *)

val compare : t -> t -> int
(** Total order: integers before strings before compound terms, then natural
    order.  This is the order exposed to ASP programs through comparison
    literals, so it must stay structural — it is {e not} the id order. *)

val equal : t -> t -> bool
(** Physical equality ([==]); sound because terms are hash-consed. *)

val hash : t -> int
(** Precomputed hash, O(1). *)

val int : int -> t
(** Non-negative ints below 16,384 come from a lazily filled array of the
    interned terms, without taking the table's lock. *)

val small_ints : int
(** That bound. *)

val str : string -> t

val fun_ : string -> t list -> t

val to_int : t -> int option
(** [to_int t] is [Some i] when [t] is an integer constant. *)

val to_string : t -> string
(** Raw contents without quoting (used when reading solutions back);
    compound terms render in ASP syntax. *)

val interned : unit -> int
(** Number of distinct terms interned so far (diagnostics). *)

val pp : Format.formatter -> t -> unit
(** Print in ASP input syntax: integers bare, strings quoted when they are not
    valid ASP identifiers. *)
