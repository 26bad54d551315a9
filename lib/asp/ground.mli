(** Propositional (ground) programs produced by the grounder.

    Atom ids refer to the grounder's {!Gatom.Store}.  Bodies are already
    simplified: literals over input facts are removed, and rules whose body is
    refuted by the possible-atom analysis are dropped. *)

type body = { pos : int array; neg : int array }

type rule =
  | Rnormal of int * body  (** [head :- body] *)
  | Rchoice of choice
  | Rconstraint of body  (** [:- body] *)

and choice = {
  lb : int option;  (** lower cardinality bound on true head atoms *)
  ub : int option;  (** upper cardinality bound *)
  heads : int array;
  cbody : body;
}

type min_entry = {
  mweight : int;
  mpriority : int;
  mtuple : Term.t list;  (** discriminating tuple (deduplicated) *)
  mbody : body;  (** contributes [mweight] when this body holds *)
}

type origin = {
  o_line : int;  (** source line of the input rule (0 when synthesized) *)
  o_text : string;  (** pretty-printed input rule (shared per source rule) *)
  o_pos : int array;
      (** atom ids matched by the positive body before fact-stripping: the
          simplification removes literals over input facts, which is exactly
          where concretizer pins (version/compiler constraints imposed as
          facts) live — explanations recover them from here *)
}

type t = {
  store : Gatom.Store.t;
  rules : rule Vec.t;
  origins : origin Vec.t;  (** parallel to [rules], same indices *)
  conflicts0 : origin Vec.t;
      (** constraint instances whose body simplified to the empty body; each
          one independently forces unsatisfiability *)
  minimize : min_entry Vec.t;
  mutable inconsistent : bool;
      (** true when an integrity constraint grounded to an empty body *)
}

val create : Gatom.Store.t -> t
val empty_body : body

val body_size : body -> int
val num_rules : t -> int
val num_atoms : t -> int

val push_rule : t -> rule -> origin -> unit
(** Append a rule and its origin, keeping [rules] and [origins] in sync. *)

val origin : t -> int -> origin
(** Origin of rule [i]. *)

val pp_rule : Gatom.Store.t -> Format.formatter -> rule -> unit
val pp : Format.formatter -> t -> unit
