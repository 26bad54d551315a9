(** Growable [int] arrays: the trail, index and id lists of the grounder and
    solver.  Unlike a polymorphic {!Vec}, writes skip the write barrier and
    reads skip the float-array check. *)

type t = private { mutable data : int array; mutable len : int }
(** Elements [0 .. len - 1] of [data] are the vector's.  The record is
    exposed read-only so that hot loops (the grounder's joins) can read
    elements without a call: modules are compiled separately, so calls to
    {!get} are not inlined. *)

val create : ?capacity:int -> unit -> t
val length : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit
val push : t -> int -> unit
val pop : t -> int
(** @raise Invalid_argument on an empty vector. *)

val clear : t -> unit
val shrink : t -> int -> unit
(** [shrink v n] truncates [v] to its first [n] elements. *)

val iter : (int -> unit) -> t -> unit
val sub : t -> int -> int -> int array
(** [sub v pos len] is a fresh array of the [len] elements from [pos]. *)

val to_array : t -> int array

val lower_bound : t -> int -> int
(** [lower_bound v x] is the first index of ascending [v] whose element is
    [>= x] ([length v] if none is). *)

val sort_uniq : t -> int array
(** Sorts [v] in place, keeps one copy of each element, and returns the
    result as a fresh array. *)
