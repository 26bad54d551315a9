(** Independent verification of claimed answers (the trust layer).

    Re-checks a model produced by the CDCL pipeline against the ground
    program using only the naive reference semantics ({!Naive}): rule
    satisfaction, Clark-completion support, unfounded-freeness, and
    weak-constraint cost recomputation.  One O(ground-program) pass (the
    foundedness fixpoint included, {!founded_set}), so it is cheap enough to run on every returned model — {!Solve} and
    {!Portfolio} do exactly that before a winning model is allowed to cancel
    the other racers. *)

type violation =
  | Inconsistent_program
      (** the ground program was flagged inconsistent: nothing is a model *)
  | Rule_violated of int  (** index into [ground.rules] *)
  | Unsupported of int
      (** ground atom id: true but no rule with a satisfied body derives it *)
  | Unfounded of int
      (** ground atom id: true but only circularly justified — a supported
          model that is not stable *)
  | Cost_mismatch of { claimed : (int * int) list; actual : (int * int) list }

val check :
  ?budget:Budget.t ->
  ?costs:(int * int) list ->
  Ground.t ->
  is_true:(int -> bool) ->
  (unit, violation list) result
(** Verify the assignment [is_true] (over ground atom ids; facts must be
    true).  [costs] is the cost vector the solver claims for this model;
    when given, it is recomputed and compared.  At most 20 violations are
    reported.  The budget is ticked per rule/atom ({!Budget.Verify_step}) so
    countdown faults and cancellation reach the checker; verification is
    normally run with its own (unlimited) budget — a budget exhausted during
    the solve must not veto checking the degraded model it produced.
    @raise Budget.Exhausted only via an explicitly passed budget. *)

val check_translation :
  ?budget:Budget.t ->
  ?costs:(int * int) list ->
  Translate.t ->
  (unit, violation list) result
(** {!check} against the translation's last stored SAT model. *)

val founded_set : Ground.t -> int -> (int -> bool) -> bool array
(** [founded_set g natoms is_true]: the least fixpoint of the reduct under
    [is_true], exactly {!Naive.founded_set}, computed in one pass with a
    counter per rule and a worklist instead of rescanning the rules until
    nothing changes.  It reads only the ground program. *)

val describe : Ground.t -> violation -> string

val describe_all : Ground.t -> violation list -> string list
