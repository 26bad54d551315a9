(** Request scheduler: admission control in front of {!Asp.Pool}.

    The daemon's event loop funnels every solve through a scheduler, which
    adds three behaviours the raw pool does not have:

    - {b single-flight}: a request whose key is already in flight joins the
      existing job instead of spawning a second identical solve; the one
      result fans out to every waiter.
    - {b overload shedding}: once [max_pending] distinct jobs are in flight,
      new work is refused with [`Overloaded] immediately — the queue never
      grows without bound and clients get a typed answer instead of a stall.
    - {b cancellation}: each job runs under its own {!Asp.Budget.cancel_token};
      when every waiter has {!abandon}ed (clients disconnected), the token is
      cancelled and the solver unwinds at its next budget tick.

    Tickets are polled, never awaited — the single-threaded event loop must
    not block on a future ({!Asp.Pool.is_done} exists for exactly this). *)

type 'a t

val create : pool:Asp.Pool.t -> max_pending:int -> 'a t
(** [max_pending] bounds distinct in-flight jobs (at least 1).  Joining an
    existing job never counts against the bound (it adds no work). *)

type 'a ticket
(** One waiter's handle on a (possibly shared) in-flight job. *)

val submit :
  'a t ->
  key:string ->
  ?notify:(unit -> unit) ->
  (cancel:Asp.Budget.cancel_token -> 'a) ->
  [ `Accepted of 'a ticket | `Overloaded ]
(** Run [job] on the pool under a fresh cancel token — unless [key] is
    already in flight and not cancelled, or landed while a waiter still
    holds it, in which case the returned ticket shares that job.  When the job finishes,
    every waiter's [notify] runs once, after {!poll} starts returning
    [`Done]: on the pool domain, or in [submit] itself for a waiter that
    joined a landed job.  A waiting event loop wakes up instead of finding
    out at its next timeout.  [notify] must not block. *)

val poll : 'a t -> 'a ticket -> [ `Pending | `Done of ('a, exn) result ]
(** Non-blocking.  [`Done] is stable: polling again returns the same
    answer. *)

val abandon : 'a t -> 'a ticket -> unit
(** This waiter no longer wants the result.  The last waiter off a still
    running job cancels its token and retires the job: no later {!submit}
    joins it, so no request is answered with its cancellation.  Idempotent
    per ticket. *)

type stats = {
  submitted : int;  (** jobs dispatched to the pool *)
  deduped : int;  (** submits that joined an in-flight job *)
  shed : int;  (** submits refused with [`Overloaded] *)
  cancelled : int;  (** jobs whose token was cancelled by {!abandon} *)
  completed : int;  (** jobs observed finished *)
  pending : int;  (** distinct jobs currently in flight, retired ones included *)
}

val stats : 'a t -> stats
