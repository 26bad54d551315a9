module C = Concretize.Concretizer

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-client token bucket: admission charges one token per root spec, so
   a greedy client exhausts its own bucket (typed Overloaded reply) while
   everyone else keeps solving. *)
type bucket = { mutable tokens : float; mutable last : float }

type conn = {
  fd : Unix.file_descr;
  mutable inbuf : string;  (* bytes read but not yet terminated by '\n' *)
  mutable out : string;  (* bytes owed to the client *)
  mutable alive : bool;
  bucket : bucket;
}

type slot =
  | Ready of Protocol.cache_status * C.result
  | Waiting of { key : string; ticket : C.result Scheduler.ticket }
  | Failed of exn

type pending = {
  pconn : conn;
  req_id : int;
  slots : slot array;
  install : string option;  (* spec text: record the result when done *)
}

type status = Running | Crashed of string | Stopped

type t = {
  id : int;
  st : State.t;
  n_workers : int;  (* for the stats reply *)
  drain_grace : float;
  inq : Unix.file_descr Queue.t;
  inq_mutex : Mutex.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  (* the pipe may be written from pool domains (job completion) after the
     supervisor closed it: [wake] and [close_pipes] serialize on this lock *)
  pipe_mutex : Mutex.t;
  mutable pipes_closed : bool;
  heartbeat : float Atomic.t;
  status : status Atomic.t;
  quarantined : bool Atomic.t;
  drained : bool Atomic.t;  (* no pendings, all output flushed *)
  (* fd registry shared with the supervisor: after a crash the supervisor
     closes whatever the dead domain left open *)
  live_fds : (Unix.file_descr, unit) Hashtbl.t;
  fds_mutex : Mutex.t;
  mutable domain : unit Domain.t option;
}

(* ---- local state of the running loop (single domain, no locking) --- *)

type loop = {
  w : t;
  mutable conns : conn list;
  mutable pendings : pending list;
  mutable drain_deadline : float option;
}

let register_fd w fd =
  Mutex.lock w.fds_mutex;
  Hashtbl.replace w.live_fds fd ();
  Mutex.unlock w.fds_mutex

let unregister_fd w fd =
  Mutex.lock w.fds_mutex;
  Hashtbl.remove w.live_fds fd;
  Mutex.unlock w.fds_mutex

let send conn line = if conn.alive then conn.out <- conn.out ^ line ^ "\n"

let reply conn ~id resp =
  send conn (Json.to_string (Protocol.response_to_json ~id resp))

let close_conn lp conn =
  if conn.alive then begin
    conn.alive <- false;
    unregister_fd lp.w conn.fd;
    (try Unix.close conn.fd with Unix.Unix_error _ -> ());
    (* a gone client wants nothing: drop its pendings and let the scheduler
       cancel solves nobody else is waiting on *)
    List.iter
      (fun p ->
        if p.pconn == conn then
          Array.iter
            (function
              | Waiting { ticket; _ } -> Scheduler.abandon lp.w.st.State.sched ticket
              | Ready _ | Failed _ -> ())
            p.slots)
      lp.pendings;
    lp.pendings <- List.filter (fun p -> p.pconn != conn) lp.pendings;
    lp.conns <- List.filter (fun c -> c != conn) lp.conns
  end

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let take_tokens st conn n =
  let cfg = st.State.cfg in
  if cfg.State.client_rate <= 0. then true
  else begin
    let b = conn.bucket in
    let now = Unix.gettimeofday () in
    b.tokens <-
      Float.min cfg.State.client_burst
        (b.tokens +. ((now -. b.last) *. cfg.State.client_rate));
    b.last <- now;
    let n = float_of_int n in
    if b.tokens >= n then begin
      b.tokens <- b.tokens -. n;
      true
    end
    else false
  end

let wake w =
  Mutex.lock w.pipe_mutex;
  if not w.pipes_closed then (
    try ignore (Unix.write_substring w.wake_w "x" 0 1)
    with Unix.Unix_error _ -> ());
  Mutex.unlock w.pipe_mutex

(* [Ok slot] or [Error ()] when the scheduler shed the solve.  A finished
   job wakes this worker's loop, which then polls the ticket. *)
let admit lp ~deadline root =
  let st = lp.w.st in
  let req = State.request st root in
  let key = State.request_key st req in
  match Cache.lookup st.State.cfg.State.cache key with
  | Some result -> Ok (Ready (Protocol.Hit, result))
  | None -> (
    match
      Scheduler.submit st.State.sched ~key
        ~notify:(fun () -> wake lp.w)
        (State.make_job st ~deadline req)
    with
    | `Accepted ticket -> Ok (Waiting { key; ticket })
    | `Overloaded -> Error ())

let abandon_slots lp slots =
  List.iter
    (function
      | Waiting { ticket; _ } -> Scheduler.abandon lp.w.st.State.sched ticket
      | Ready _ | Failed _ -> ())
    slots

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let parse_roots specs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
      match Specs.Spec_parser.parse s with
      | root -> go (root :: acc) rest
      | exception Specs.Spec_parser.Error e ->
        Error (Specs.Spec_parser.error_to_string e))
  in
  go [] specs

let overloaded message = Protocol.Error { kind = Protocol.Overloaded; message }

(* The end-to-end deadline is fixed here, at enqueue: the tighter of the
   server default and the client's own [timeout], measured from now.  A
   solve that starts late inherits less wall budget, and one that starts
   after the deadline is shed (State.make_job). *)
let effective_deadline st req_timeout =
  let budget =
    match (st.State.cfg.State.timeout, req_timeout) with
    | Some a, Some b -> Some (Float.min a b)
    | Some a, None -> Some a
    | None, b -> b
  in
  Option.map (fun t -> Unix.gettimeofday () +. t) budget

let solve_request lp conn ~id ~install ~timeout specs =
  let st = lp.w.st in
  if Atomic.get st.State.draining then
    reply conn ~id (overloaded "server draining: not accepting new solves")
  else
    match parse_roots specs with
    | Error msg ->
      reply conn ~id (Protocol.Error { kind = Protocol.Bad_request; message = msg })
    | Ok roots -> (
      if not (take_tokens st conn (List.length roots)) then begin
        Atomic.incr st.State.n_throttled;
        reply conn ~id
          (overloaded
             (Printf.sprintf
                "client rate limited (%.3g solves/s sustained, burst %.3g)"
                st.State.cfg.State.client_rate st.State.cfg.State.client_burst))
      end
      else
        let deadline = effective_deadline st timeout in
        let rec fill acc = function
          | [] -> Ok (List.rev acc)
          | root :: rest -> (
            match admit lp ~deadline root with
            | Ok slot -> fill (slot :: acc) rest
            | Error () ->
              abandon_slots lp acc;
              Error ())
        in
        match fill [] roots with
        | Error () ->
          reply conn ~id
            (overloaded
               (Printf.sprintf "server at capacity (%d solves in flight)"
                  st.State.cfg.State.max_pending))
        | Ok slots ->
          lp.pendings <-
            { pconn = conn; req_id = id; slots = Array.of_list slots; install }
            :: lp.pendings)

(* Hand a connection over to the replication hub: from here on the socket
   carries server-pushed record frames and follower acks, not the
   request/response protocol, and a dedicated hub domain owns its IO.  The
   worker flushes what it still owes, forgets the fd (without closing it)
   and never selects on it again. *)
let detach_for_replication lp conn =
  unregister_fd lp.w conn.fd;
  (try Unix.clear_nonblock conn.fd with Unix.Unix_error _ -> ());
  if conn.out <> "" then begin
    (try ignore (Unix.write_substring conn.fd conn.out 0 (String.length conn.out))
     with Unix.Unix_error _ -> ());
    conn.out <- ""
  end;
  conn.alive <- false;
  List.iter
    (fun p ->
      if p.pconn == conn then abandon_slots lp (Array.to_list p.slots))
    lp.pendings;
  lp.pendings <- List.filter (fun p -> p.pconn != conn) lp.pendings;
  lp.conns <- List.filter (fun c -> c != conn) lp.conns

let handle_request lp conn ~id req =
  let st = lp.w.st in
  Atomic.incr st.State.n_requests;
  if Asp.Fault.service_fires Asp.Fault.Worker_crash then
    failwith "injected worker crash";
  if Asp.Fault.service_fires Asp.Fault.Worker_wedge then
    (* block the event loop long enough for the supervisor's heartbeat
       monitor to notice *)
    Unix.sleepf 2.0;
  match req with
  | Protocol.Stats ->
    reply conn ~id
      (Protocol.Stats_reply (State.stats_json ~workers:lp.w.n_workers st))
  | Protocol.Shutdown ->
    reply conn ~id Protocol.Bye;
    Atomic.set st.State.draining true
  | Protocol.Solve { spec; timeout } ->
    solve_request lp conn ~id ~install:None ~timeout [ spec ]
  | Protocol.Install { spec; timeout } ->
    if State.read_only st then
      reply conn ~id
        (Protocol.Error
           {
             kind = Protocol.Read_only;
             message =
               "read-only follower: installs go to the primary (or promote)";
           })
    else solve_request lp conn ~id ~install:(Some spec) ~timeout [ spec ]
  | Protocol.Solve_many { specs; timeout } -> (
    match specs with
    | [] -> reply conn ~id (Protocol.Results [])
    | _ -> solve_request lp conn ~id ~install:None ~timeout specs)
  | Protocol.Promote ->
    let epoch = State.promote st in
    reply conn ~id (Protocol.Promoted { epoch })
  | Protocol.Repl_subscribe { epoch; from_seq } -> (
    match st.State.cfg.State.repl with
    | None ->
      reply conn ~id
        (Protocol.Error
           {
             kind = Protocol.Bad_request;
             message = "replication unavailable (daemon has no journal)";
           })
    | Some hub ->
      let fd = conn.fd in
      detach_for_replication lp conn;
      Replica.adopt hub fd ~epoch ~from_seq)
  | Protocol.Repl_ack _ ->
    (* acks belong on a subscription socket, which never reaches here *)
    reply conn ~id
      (Protocol.Error
         {
           kind = Protocol.Bad_request;
           message = "repl_ack outside a replication subscription";
         })

let handle_line lp conn line =
  let bad message =
    reply conn ~id:0 (Protocol.Error { kind = Protocol.Bad_request; message })
  in
  match Json.of_string line with
  | Error m -> bad ("invalid JSON: " ^ m)
  | Ok j -> (
    match Protocol.request_of_json j with
    | Error m -> bad m
    | Ok (id, req) -> handle_request lp conn ~id req)

(* ------------------------------------------------------------------ *)
(* Pending-request progress                                            *)
(* ------------------------------------------------------------------ *)

let exn_response = function
  | Concretize.Facts.Unknown_package p ->
    Protocol.Error
      { kind = Protocol.Unknown_package p; message = "unknown package " ^ p }
  | exn ->
    Protocol.Error { kind = Protocol.Internal; message = Printexc.to_string exn }

(* Advance one pending request; [true] when it was answered (or its client
   left) and can be dropped. *)
let advance lp p =
  let st = lp.w.st in
  if not p.pconn.alive then true
  else begin
    Array.iteri
      (fun i slot ->
        match slot with
        | Ready _ | Failed _ -> ()
        | Waiting { key; ticket } -> (
          match Scheduler.poll st.State.sched ticket with
          | `Pending -> ()
          | `Done (Error exn) -> p.slots.(i) <- Failed exn
          | `Done (Ok result) ->
            (* several waiters may share the job: first one stores *)
            if
              C.cacheable result
              && not (Cache.mem st.State.cfg.State.cache key)
            then Cache.store st.State.cfg.State.cache key result;
            p.slots.(i) <- Ready (Protocol.Miss, result)))
      p.slots;
    let all_done =
      Array.for_all (function Waiting _ -> false | _ -> true) p.slots
    in
    if not all_done then false
    else begin
      let failure =
        Array.fold_left
          (fun acc slot ->
            match (acc, slot) with
            | None, Failed exn -> Some exn
            | acc, _ -> acc)
          None p.slots
      in
      (match failure with
      | Some exn -> reply p.pconn ~id:p.req_id (exn_response exn)
      | None -> (
        let results =
          Array.to_list
            (Array.map
               (function
                 | Ready (c, r) -> (c, r)
                 | Waiting _ | Failed _ -> assert false)
               p.slots)
        in
        match (p.install, results) with
        | Some spec_text, [ (_, C.Concrete s) ] ->
          let hashes = State.record_install st s in
          reply p.pconn ~id:p.req_id
            (Protocol.Installed
               {
                 root = spec_text;
                 hashes;
                 total = Pkg.Database.size (State.db st);
               })
        | Some _, [ (cache, result) ] | None, [ (cache, result) ] ->
          (* an install whose solve did not produce a spec reports the
             outcome instead of recording anything *)
          reply p.pconn ~id:p.req_id (Protocol.Result { cache; result })
        | _, results -> reply p.pconn ~id:p.req_id (Protocol.Results results)));
      true
    end
  end

(* ------------------------------------------------------------------ *)
(* The event loop                                                      *)
(* ------------------------------------------------------------------ *)

let read_into lp conn =
  let buf = Bytes.create 4096 in
  match Unix.read conn.fd buf 0 4096 with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ -> close_conn lp conn
  | 0 -> close_conn lp conn
  | n ->
    conn.inbuf <- conn.inbuf ^ Bytes.sub_string buf 0 n;
    let rec lines () =
      match String.index_opt conn.inbuf '\n' with
      | None -> ()
      | Some nl ->
        let line = String.sub conn.inbuf 0 nl in
        conn.inbuf <-
          String.sub conn.inbuf (nl + 1) (String.length conn.inbuf - nl - 1);
        let line =
          (* tolerate CRLF clients *)
          if String.length line > 0 && line.[String.length line - 1] = '\r'
          then String.sub line 0 (String.length line - 1)
          else line
        in
        if String.trim line <> "" then handle_line lp conn line;
        if conn.alive then lines ()
    in
    lines ()

let write_out lp conn =
  let len = String.length conn.out in
  if len > 0 then
    if Asp.Fault.service_fires Asp.Fault.Drop_socket then close_conn lp conn
    else if Asp.Fault.service_fires Asp.Fault.Truncate_response then begin
      (try ignore (Unix.write_substring conn.fd conn.out 0 (len / 2))
       with Unix.Unix_error _ -> ());
      close_conn lp conn
    end
    else if Asp.Fault.service_fires Asp.Fault.Delay_response then
      (* hold the reply back one event-loop round *)
      ()
    else
      match Unix.write_substring conn.fd conn.out 0 len with
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error _ -> close_conn lp conn
      | n -> conn.out <- String.sub conn.out n (len - n)

let adopt_incoming lp =
  let w = lp.w in
  Mutex.lock w.inq_mutex;
  let fds = Queue.fold (fun acc fd -> fd :: acc) [] w.inq in
  Queue.clear w.inq;
  Mutex.unlock w.inq_mutex;
  List.iter
    (fun fd ->
      Unix.set_nonblock fd;
      let now = Unix.gettimeofday () in
      let bucket = { tokens = w.st.State.cfg.State.client_burst; last = now } in
      lp.conns <- { fd; inbuf = ""; out = ""; alive = true; bucket } :: lp.conns)
    (List.rev fds)

let drain_wake lp =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read lp.w.wake_r buf 0 64 with
    | 64 -> go ()
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let quiesced lp =
  lp.pendings = [] && List.for_all (fun c -> c.out = "") lp.conns

(* Stop now: cancel whatever is still waiting, close every connection —
   including ones still queued in the inbox that this loop never adopted
   (a connection accepted in the instant before shutdown must see EOF, not
   hang on a silent fd). *)
let teardown lp =
  adopt_incoming lp;
  List.iter (fun p -> abandon_slots lp (Array.to_list p.slots)) lp.pendings;
  lp.pendings <- [];
  List.iter (fun c -> close_conn lp c) lp.conns

let run w =
  let lp = { w; conns = []; pendings = []; drain_deadline = None } in
  let st = w.st in
  let should_exit () =
    if Atomic.get st.State.stopping || Atomic.get w.quarantined then true
    else if Atomic.get st.State.draining then begin
      (match lp.drain_deadline with
      | None -> lp.drain_deadline <- Some (Unix.gettimeofday () +. w.drain_grace)
      | Some _ -> ());
      if quiesced lp then begin
        Atomic.set w.drained true;
        (* stay alive until the supervisor flips [stopping]: other workers
           may still be finishing *)
        false
      end
      else
        match lp.drain_deadline with
        | Some d when Unix.gettimeofday () > d -> true
        | _ -> false
    end
    else false
  in
  while not (should_exit ()) do
    Atomic.set w.heartbeat (Unix.gettimeofday ());
    adopt_incoming lp;
    let rfds = w.wake_r :: List.map (fun c -> c.fd) lp.conns in
    let wfds =
      List.filter_map (fun c -> if c.out <> "" then Some c.fd else None) lp.conns
    in
    (* new connections and finished solves write the wake pipe; the
       timeout only keeps the heartbeat ticking on an idle loop *)
    let r, wr, _ =
      match Unix.select rfds wfds [] 0.05 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [], [])
      | x -> x
    in
    if List.memq w.wake_r r then drain_wake lp;
    List.iter (fun c -> if c.alive && List.memq c.fd r then read_into lp c) lp.conns;
    List.iter (fun c -> if c.alive && List.memq c.fd wr then write_out lp c) lp.conns;
    lp.pendings <- List.filter (fun p -> not (advance lp p)) lp.pendings
  done;
  teardown lp

(* ------------------------------------------------------------------ *)
(* Lifecycle (called by the supervisor)                                *)
(* ------------------------------------------------------------------ *)

let start st ~id ~n_workers ~drain_grace =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let w =
    {
      id;
      st;
      n_workers;
      drain_grace;
      inq = Queue.create ();
      inq_mutex = Mutex.create ();
      wake_r;
      wake_w;
      pipe_mutex = Mutex.create ();
      pipes_closed = false;
      heartbeat = Atomic.make (Unix.gettimeofday ());
      status = Atomic.make Running;
      quarantined = Atomic.make false;
      drained = Atomic.make false;
      live_fds = Hashtbl.create 16;
      fds_mutex = Mutex.create ();
      domain = None;
    }
  in
  let d =
    Domain.spawn (fun () ->
        match run w with
        | () -> Atomic.set w.status Stopped
        | exception exn ->
          (* an escaped exception is a worker crash: record it and die; the
             supervisor replaces the worker and closes the fds we leaked *)
          Atomic.set w.status (Crashed (Printexc.to_string exn)))
  in
  w.domain <- Some d;
  w

let assign w fd =
  register_fd w fd;
  Mutex.lock w.inq_mutex;
  Queue.push fd w.inq;
  Mutex.unlock w.inq_mutex;
  wake w

let status w = Atomic.get w.status
let heartbeat_age w now = now -. Atomic.get w.heartbeat
let quarantine w = Atomic.set w.quarantined true
let is_drained w = Atomic.get w.drained

(* After a crash: the dead domain cannot close its connections, so the
   supervisor does — clients observe EOF and their retry layer reconnects
   onto a healthy worker. *)
let close_remaining w =
  Mutex.lock w.fds_mutex;
  let fds = Hashtbl.fold (fun fd () acc -> fd :: acc) w.live_fds [] in
  Hashtbl.reset w.live_fds;
  Mutex.unlock w.fds_mutex;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds

let close_pipes w =
  Mutex.lock w.pipe_mutex;
  w.pipes_closed <- true;
  (try Unix.close w.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close w.wake_w with Unix.Unix_error _ -> ());
  Mutex.unlock w.pipe_mutex

let join w =
  match w.domain with
  | Some d ->
    Domain.join d;
    w.domain <- None
  | None -> ()
