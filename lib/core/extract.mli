(** Reading an optimal stable model back into a concrete spec DAG. *)

exception Error of string

type info = {
  spec : Specs.Spec.concrete;
  reused : (string * string) list;  (** (package, installed hash) choices *)
  built : string list;  (** packages that must be built from source *)
}

val extract : Asp.Gatom.t list -> info
(** Read the answer through an id-keyed index ({!Asp.Answer}).
    @raise Error when the answer set is not a well-formed concretization
    (missing attributes — indicates a logic-program bug). *)
