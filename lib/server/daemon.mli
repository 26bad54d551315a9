(** The concretization daemon: a supervised, multi-worker Unix-domain-socket
    service in front of the solver.

    Architecture (PR 7): a {!Supervisor} accepts connections and shards
    them round-robin across [workers] {!Worker} event-loop domains; every
    worker operates on one shared {!State} — solve cache, single-flight
    {!Scheduler} over a pool of [jobs] solver domains, and the installed database (an atomic snapshot swapped
    wholesale on install).  Workers are crash domains: an escaped
    exception kills one worker, the supervisor restarts it and closes the
    connections it leaked; other clients never notice.  Wedged workers
    (stalled heartbeat) are quarantined and replaced.

    Robustness features on the request path:

    - {b end-to-end deadlines}: the per-request wall budget (the tighter
      of [timeout] and the client's own [timeout] field) is fixed at
      {e enqueue}; time spent queued counts, and a job starting past its
      deadline is shed with a typed [Interrupted]/[Deadline] result
      instead of being solved;
    - {b admission control}: beyond the scheduler's [max_pending] shed, a
      per-client token bucket ([client_rate]/[client_burst], 0 = off)
      refuses a greedy client's excess with a typed [Overloaded] reply
      while other clients keep solving;
    - {b crash-safe installs}: installs flow through a write-ahead
      {!Journal} (intent fsynced before any state changes, commit marker
      after the database file is atomically published); a daemon killed
      mid-install recovers on restart via {!State.recover};
    - {b graceful drain}: a [shutdown] request (or SIGTERM with
      [~signals:true]) stops accepting, lets in-flight work finish within
      [drain_grace], persists the database and returns;
    - {b replication} (PR 9): with a journal, the daemon runs a
      {!Replica} hub shipping committed installs to hot-standby followers;
      [repl_ack] picks the client-ack durability point ([sync] = acked on
      two nodes).  With [follow], the daemon starts as a warm read-only
      follower of another daemon's socket (solves served locally, installs
      refused with a typed [Read_only]) until a [promote] request fences
      the old epoch and flips it to primary. *)

type config = {
  socket_path : string;
  repo : Pkg.Repo.t;
  solver : Asp.Config.t;  (** preset/strategy/verify; limits are ignored —
                              [timeout] governs *)
  db : Pkg.Database.t;  (** initial installed database (post-recovery) *)
  db_path : string option;  (** persist the database here after installs *)
  journal_path : string option;  (** write-ahead install journal *)
  journal_max_bytes : int;
      (** checkpoint/compact the journal beyond this size; 0 = never *)
  follow : string option;
      (** start as a follower of this primary socket (requires a journal) *)
  repl_ack : Replica.ack_mode;  (** install-ack durability (default async) *)
  cache : Cache.t;
  workers : int;  (** connection-handling event-loop domains (at least 1) *)
  jobs : int;  (** solver domains (at least 1) *)
  max_pending : int;  (** distinct in-flight solves before shedding *)
  timeout : float option;  (** per-request deadline, seconds, from enqueue *)
  client_rate : float;  (** per-client sustained solves/second; 0 = off *)
  client_burst : float;  (** per-client token-bucket capacity *)
  drain_grace : float;  (** seconds granted to in-flight work on drain *)
  wedge_timeout : float;  (** worker heartbeat stall before quarantine; 0 = off *)
  crash : (State.crash_point * (unit -> unit)) option;
      (** test seam: simulate a crash at an install crash point *)
}

val default_config :
  socket_path:string -> repo:Pkg.Repo.t -> db:Pkg.Database.t -> config
(** A config with production-shaped defaults (2 workers, 1 solver domain,
    [max_pending] 8, no timeout, token bucket off, 5 s drain grace, 10 s
    wedge timeout, memory-only cache, no persistence). *)

val serve :
  ?on_ready:(unit -> unit) -> ?signals:bool -> ?replayed:int -> config -> unit
(** [replayed] seeds the stats counter of journal intents re-applied by the
    startup {!State.recover} pass (informational).
    Bind, listen and run until a [shutdown] request drains the service (or
    SIGTERM does, when [signals] is true — a second SIGTERM forces an
    immediate stop).  [on_ready] fires once the socket accepts
    connections.  A stale socket file at [socket_path] is replaced.
    Returns after every worker and solver domain joined, the database was
    persisted and the socket file removed. *)
