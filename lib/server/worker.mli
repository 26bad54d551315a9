(** One connection-handling worker domain.

    Each worker owns a private set of client connections (handed over by
    the {!Supervisor} through a mutex-protected queue plus a self-pipe
    wakeup) and runs the select(2) event loop for them: framing, request
    parsing, per-client token-bucket admission, enqueue-time deadlines,
    solve admission through the shared {!Scheduler}, reply writing and
    install recording through the shared {!State}.

    Workers are crash domains: an exception escaping request handling
    kills only this worker's domain.  The supervisor observes the
    {!status}, closes the file descriptors the dead domain leaked (the
    registry is shared) and starts a replacement — clients of other
    workers never notice.  A worker that stops heartbeating (wedged in a
    blocking call) is {!quarantine}d instead: it is replaced immediately
    and told to tear itself down whenever it wakes up. *)

type t

type status = Running | Crashed of string | Stopped

val start : State.t -> id:int -> n_workers:int -> drain_grace:float -> t
(** Spawn the worker domain and return its handle. *)

val assign : t -> Unix.file_descr -> unit
(** Hand an accepted connection to this worker (supervisor side). *)

val wake : t -> unit
(** Nudge the event loop: when lifecycle flags change, and from the pool
    domain when a solve this worker waits on finished.  A no-op once
    {!close_pipes} ran. *)

val status : t -> status

val heartbeat_age : t -> float -> float
(** Seconds since the loop last ticked, given the current time. *)

val quarantine : t -> unit
(** Mark the worker for teardown: its loop exits at the next iteration it
    actually executes.  Used for wedged workers that cannot be killed. *)

val is_drained : t -> bool
(** Under drain: no pending solves and every reply flushed. *)

val close_remaining : t -> unit
(** Close every connection fd still registered to this worker — only safe
    once the worker domain is dead (crashed). *)

val close_pipes : t -> unit
val join : t -> unit
