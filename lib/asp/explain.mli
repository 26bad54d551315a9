(** Minimal unsat cores with rule provenance.

    When a program is unsatisfiable, [explain] identifies a minimal set of
    integrity-constraint instances and choice upper bounds that are jointly
    responsible: the
    program is re-translated with assumable selector guards
    ({!Translate.translate_with_selectors}), solved under the full
    assumption set, and the final-conflict core is shrunk by deletion
    ({!Sat.shrink_core}).  Each cause carries the {!Ground.origin} of its
    constraint — source line, input-rule text, and the pre-simplification
    matched atoms — which is what [Core.Diagnose.explain_core] maps back to
    package recipes and request constraints. *)

type cause = {
  rule_index : int option;
      (** index of the constraint in [ground.rules]; [None] when the
          conflict was already detected at grounding time (the constraint's
          body grounded entirely to facts) *)
  origin : Ground.origin;
  ground_text : string;  (** the offending ground instance, pretty-printed *)
}

type result =
  | Unsat_core of { causes : cause list; minimal : bool }
      (** [minimal] is [false] when core shrinking was cut short by the
          budget; the causes are still jointly unsatisfiable *)
  | Satisfiable  (** the program has a stable model — nothing to explain *)
  | Exhausted of Budget.info
      (** the budget ran out before unsatisfiability was established *)

val explain : ?params:Sat.params -> ?budget:Budget.t -> Ground.t -> result
(** Never raises {!Budget.Exhausted}: exhaustion during the initial solve
    yields [Exhausted], exhaustion during shrinking yields a sound but
    possibly non-minimal core. *)

val pp_cause : Format.formatter -> cause -> unit
(** "input rule (line N): ground instance". *)
