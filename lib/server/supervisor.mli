(** Worker supervision: the daemon's top-level loop.

    The supervisor owns the listening socket and shards accepted
    connections round-robin across {!Worker} domains over the shared
    {!State} (one solve cache, one scheduler, one installed database).  It is also the failure detector:

    - a worker whose domain died from an escaped exception is observed
      via its status flag; the supervisor closes the connections the dead
      domain leaked (clients see EOF and reconnect onto a healthy worker)
      and starts a replacement in the same slot — other workers' clients
      never notice;
    - a worker whose heartbeat stalls past [wedge_timeout] (wedged in a
      blocking call — OCaml domains cannot be killed) is quarantined:
      replaced immediately, told to tear itself down whenever it wakes,
      and joined at shutdown.

    Drain ([State.draining], set by a [shutdown] request or SIGTERM in
    [spack_serve]): stop accepting, let every worker finish or flush its
    in-flight work bounded by [drain_grace], then flip [State.stopping]
    and join everything.  {!run} returns with the socket file removed;
    final persistence ([State.persist]) is the caller's job. *)

type config = {
  socket_path : string;
  workers : int;  (** connection-handling worker domains (at least 1) *)
  drain_grace : float;  (** seconds to let in-flight work finish on drain *)
  wedge_timeout : float;  (** heartbeat stall before quarantine; 0 = off *)
}

val run : ?on_ready:(unit -> unit) -> config -> State.t -> unit
(** Bind, listen, supervise until [State.stopping].  [on_ready] fires once
    the socket accepts connections (tests synchronize on it). *)
