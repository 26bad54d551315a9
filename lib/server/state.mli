(** Shared, domain-safe service state: everything the daemon's worker
    domains and supervisor operate on together.

    One value of {!t} is created per daemon and handed to every worker:
    the solve cache, the single-flight scheduler (and its solver pool), the installed database (an atomic
    reference, swapped wholesale on install) and the shared counters.
    Lifecycle is two flags: [draining] stops admission (new connections
    and new solves) while in-flight work finishes; [stopping] makes every
    loop exit now. *)

module C = Concretize.Concretizer

(** Where {!record_install} simulates a crash (tests and the kill -9
    recovery drill): [After_intent] dies after the journal intent was
    fsynced but before the database was touched; [After_save] dies after
    the new database file was published but before the commit marker;
    [After_commit] dies after the commit marker was fsynced but before the
    client saw the ack (and before replication shipped) — the seam that
    proves the ack ordering: everything acked is already durable. *)
type crash_point = After_intent | After_save | After_commit

type config = {
  repo : Pkg.Repo.t;
  solver : Asp.Config.t;
  cache : Cache.t;
  db : Pkg.Database.t;  (** initial installed database (post-recovery) *)
  db_path : string option;  (** persist the database here after installs *)
  journal : Journal.t option;  (** write-ahead journal for installs *)
  journal_max_bytes : int;
      (** compact the journal (checkpoint against the saved database) when
          it outgrows this; 0 = never *)
  repl : Replica.hub option;  (** replication hub (ships committed installs) *)
  follower : bool;  (** start read-only, following a primary *)
  timeout : float option;  (** server-side per-request deadline, seconds *)
  client_rate : float;  (** per-client token refill per second; 0 = off *)
  client_burst : float;  (** per-client token-bucket capacity *)
  max_pending : int;  (** distinct in-flight solves before shedding *)
  crash : (crash_point * (unit -> unit)) option;
      (** test seam: invoked when an install reaches the crash point *)
}

type t = {
  cfg : config;
  sched : C.result Scheduler.t;
  pool : Asp.Pool.t;
  db : Pkg.Database.t Atomic.t;
  install_mutex : Mutex.t;
  started : float;
  n_connections : int Atomic.t;
  n_requests : int Atomic.t;
  n_installs : int Atomic.t;
  n_expired : int Atomic.t;  (** jobs shed because their deadline passed *)
  n_throttled : int Atomic.t;  (** requests shed by the per-client bucket *)
  n_replayed : int Atomic.t;  (** journal intents re-applied at startup *)
  n_restarts : int Atomic.t;  (** crashed workers replaced *)
  n_wedged : int Atomic.t;  (** stalled workers quarantined *)
  n_replicated : int Atomic.t;  (** replicated records applied (follower) *)
  n_resyncs : int Atomic.t;  (** follower resets (fenced / resynced) *)
  read_only : bool Atomic.t;  (** refuses installs until promoted *)
  on_promote : (unit -> unit) ref;
      (** invoked by {!promote} before the role flips — the daemon hooks
          the follower-loop stop here *)
  repl_extra : (unit -> (string * Json.t) list) ref;
      (** extra fields for the stats [replication] section *)
  draining : bool Atomic.t;
  stopping : bool Atomic.t;
}

val create : jobs:int -> config -> t
(** Build the shared state, spawning [jobs] solver domains. *)

val db : t -> Pkg.Database.t
(** The current installed-database snapshot (immutable once published). *)

val read_only : t -> bool
(** [true] on an unpromoted follower: installs get a typed [Read_only]. *)

(** {1 Startup recovery} *)

type recovery = {
  db0 : Pkg.Database.t;  (** the recovered database *)
  replayed : int;  (** journal intents re-applied (committed or not) *)
  uncommitted : int;  (** subset whose commit marker was missing *)
  truncated : bool;  (** a torn journal tail was dropped *)
  rotated : bool;  (** a stale-format journal was moved aside *)
}

val recover : ?db_path:string -> ?journal_path:string -> unit -> recovery
(** Load the database file (if any), re-apply every journal intent, and —
    when anything was replayed — persist the repaired database and reset
    the journal.  Idempotent: running recovery twice yields the same
    database as running it once, and the same database a clean (uncrashed)
    run of the journaled installs would have produced.
    @raise Failure when the database file itself is unreadable or corrupt
    (a torn rename cannot produce this; disk corruption can, and must stop
    the daemon rather than silently drop installs). *)

(** {1 Solve jobs} *)

val request : t -> Specs.Spec.abstract -> C.request
(** The request for one root against the repository and the database as
    they stand now.  Key it ({!request_key}) and solve it ({!make_job}) as
    one value, so the answer cached is the answer to the key. *)

val request_key : t -> C.request -> string

val make_job :
  t ->
  deadline:float option ->
  C.request ->
  cancel:Asp.Budget.cancel_token ->
  C.result
(** A scheduler job for one request.  [deadline] is absolute (fixed at
    enqueue): a job starting past it is shed with a typed
    [Interrupted]/[Deadline] result and counted in [n_expired], never
    solved with a leftover sliver of budget.  Otherwise the time left is
    the solve's wall limit ([config.limits]), on [cancel]. *)

(** {1 Installs} *)

val record_install : t -> C.success -> (string * string) list
(** Journal (intent, fsync) → fresh database swapped in → database file
    saved → journal commit.  Serialized under the
    install mutex; safe against a kill -9 at any instant (see
    {!recover}).  Returns the (package, hash) pairs newly added. *)

val persist : t -> unit
(** Final save of the database, then a clean-shutdown journal checkpoint
    (the snapshot holds every entry; sequence positions carry over) and
    journal close. *)

(** {1 Replication} *)

val replica_position : t -> int * int
(** (epoch, next expected sequence) from the local journal — where a
    follower (re)subscribes from. *)

val apply_replicated :
  t ->
  epoch:int ->
  seq:int ->
  intent:string ->
  commit:string ->
  spec:Specs.Spec.concrete ->
  unit
(** Follower apply: fsync the primary's exact journal lines locally
    (bumping the epoch first if the stream moved ahead), then swap the
    install into the database.  The caller acks only after this returns. *)

val install_snapshot : t -> epoch:int -> next_seq:int -> db:string -> unit
(** Follower catch-up from a full database snapshot: verify and swap it
    in and restart the journal at the primary's position.
    @raise Failure when the snapshot fails its digest check. *)

val reset_replica : t -> epoch:int -> unit
(** Fenced (stale epoch): rotate the journal to [.stale], wipe the
    database, adopt [epoch] at sequence 1. *)

val promote : t -> int
(** Stop the follower loop ({!on_promote}), bump the journal epoch and
    start accepting installs; returns the (possibly new) epoch.
    Idempotent on a primary. *)

val stats_json : ?workers:int -> t -> Json.t
(** The [stats] reply: cache / scheduler / supervisor / replication /
    server sections. *)
