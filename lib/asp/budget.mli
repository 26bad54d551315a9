(** Resource governance for the solve pipeline.

    A budget bounds a solve by wall-clock deadline, number of conflicts and
    number of grounded instances, and carries a cooperative cancel token
    (settable from a SIGINT handler or an embedding caller).  The pipeline
    {e ticks} the budget at its three interruption points — {!Grounder}'s
    instantiation loop, {!Sat}'s conflict loop and {!Optimize}'s descent —
    and a tick that finds the budget exhausted raises {!Exhausted} carrying
    the phase, the reason and a snapshot of the progress counters.

    Every interruption point is exception-safe: the solver unwinds to a
    consistent state, so the caller can keep the best model found so far
    (see {!Optimize}) or retry with a larger budget (see
    [Concretizer.solve_escalating]).

    Budgets also host the deterministic fault-injection hook used by
    {!Fault}: the hook sees every tick and may force cancellation after an
    exact event count, which is how the interruption points are tested. *)

type phase =
  | Ground  (** instantiating the program *)
  | Search  (** looking for a first stable model *)
  | Optimize  (** lexicographic descent, a model is already in hand *)
  | Verify  (** independent re-checking of a claimed answer *)

type reason =
  | Deadline  (** wall-clock limit passed *)
  | Conflict_limit
  | Instance_limit
  | Cancelled  (** the cancel token was set (SIGINT or embedding caller) *)
  | Injected  (** fault-injection hook fired (tests only) *)

type progress = { conflicts : int; instances : int; opt_steps : int }
(** Event counts observed by this budget so far (its partial stats). *)

type info = { phase : phase; reason : reason; progress : progress }

exception Exhausted of info

val phase_name : phase -> string
val reason_name : reason -> string
val pp_info : Format.formatter -> info -> unit

(** Declarative limits; [None] everywhere means unbounded. *)
type limits = {
  wall : float option;  (** seconds from {!start} *)
  conflicts : int option;
  instances : int option;
}

val no_limits : limits

val double : limits -> limits
(** Double every finite limit (escalation retries). *)

type cancel_token

val token : unit -> cancel_token

val child_token : cancel_token -> cancel_token
(** A token linked under [parent]: cancelling the parent cancels the child,
    cancelling the child leaves the parent untouched.  The portfolio racer
    protocol hangs one race token under the caller's token — the winner
    cancels the race token to stop the losers, while a SIGINT on the
    caller's token still reaches every racer. *)

val cancel : cancel_token -> unit
(** Async-signal-safe and domain-safe: an atomic store, checked at the next
    tick of any budget sharing (or descending from) the token. *)

val is_cancelled : cancel_token -> bool
(** True when this token or any ancestor was cancelled. *)

type event = Conflict | Instance | Opt_step | Verify_step

type t

val start : ?cancel:cancel_token -> limits -> t
(** Arm a budget: the wall-clock deadline is [now + wall].  The same token
    may be shared by successive budgets (escalation keeps honouring a
    SIGINT received during an earlier attempt). *)

val unlimited : t
(** Shared never-expiring budget, the default of the [?budget] parameters
    throughout the pipeline.  Its progress counters are meaningless (they
    accumulate across unrelated solves); never arm a hook on it. *)

val cancel_token_of : t -> cancel_token option
(** The token the budget was armed with, if any. *)

val sibling : ?cancel:cancel_token -> t -> t
(** A budget with the {e same} absolute deadline and event limits but fresh
    counters, for parallel racers sharing one declarative budget.  [cancel]
    replaces the parent's token (default: share it); the fault hook is not
    inherited.  Each sibling must be ticked by a single domain. *)

val enter : t -> phase -> unit
(** Record the pipeline phase subsequent ticks are attributed to. *)

val progress : t -> progress

val set_hook : t -> (event -> bool) -> unit
(** Fault injection: the hook observes every tick (after the counter is
    bumped) and returns [true] to force cancellation with reason
    {!Injected}.  See {!Fault}. *)

val tick_conflict : t -> unit
(** @raise Exhausted when a limit is hit; once exhausted, every later tick
    or poll re-raises the same [info]. *)

val tick_instance : t -> unit
(** Ticked by the grounder once per rule derivation in the possible-atom
    closure and once per emitted rule or minimize instance.  Integrity
    constraints derive nothing and are skipped by the closure, so each
    constraint instance counts once, at emission. *)

val tick_opt_step : t -> unit

val tick_verify_step : t -> unit
(** Ticked by {!Verify} per checked rule/atom chunk.  No counter or limit of
    its own: the event exists so countdown faults and cancellation reach the
    verification pass. *)

val poll : t -> unit
(** Cheap check of the cancel flag and (periodically) the deadline without
    counting an event; called from {!Sat}'s decision loop so even
    conflict-free search notices deadlines and SIGINT. *)
