(** A fixed-size pool of OCaml 5 domains with a shared work queue.

    Domains are expensive to spawn (fresh minor heap, registration with the
    runtime), so the pool spawns them once and reuses them across solves:
    the portfolio races ({!Portfolio}) and batch concretization
    ([Concretize.Concretizer.solve_many]) both draw on one pool for the
    lifetime of the process.

    Jobs are arbitrary thunks; {!submit} enqueues and returns a future,
    {!await} blocks until the job ran and re-raises (with its original
    backtrace) any exception the job died with.  The queue is FIFO, so
    submission order is start order — {e not} completion order.

    The pool is safe to use from several domains at once, but jobs must not
    {!await} futures of jobs that have not started yet on the same pool
    (classic nested-blocking deadlock); the solving layer never nests. *)

type t

val create : domains:int -> t
(** Spawn [domains] worker domains (at least 1).
    @raise Invalid_argument when [domains < 1]. *)

val size : t -> int
(** Number of worker domains. *)

val default_size : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1: leave one core to
    the submitting domain. *)

type 'a future

val submit : ?on_done:(unit -> unit) -> t -> (unit -> 'a) -> 'a future
(** Enqueue a job.  [on_done] runs on the worker domain right after the
    future resolved ({!is_done} already holds), also when the job raised;
    an exception it raises is ignored.
    @raise Invalid_argument if the pool was {!shutdown}. *)

val await : 'a future -> 'a
(** Block until the job completed; its result, or re-raise its exception. *)

val is_done : 'a future -> bool
(** Non-blocking: has the job completed (successfully or not)?  When [true],
    {!await} returns without blocking.  The request scheduler
    ([Server.Scheduler]) polls this from its event loop. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
(** Run [f] on every element across the pool; results in input order.  The
    first exceptional job (in input order) is re-raised, after every job
    finished. *)

val shutdown : t -> unit
(** Drain the queue, then join every worker.  Idempotent. *)

val with_pool : domains:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)
