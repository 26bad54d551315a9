(* Robustness tests for the production-hardened service: the write-ahead
   install journal (torn writes, stale formats, replay idempotence),
   crash-point recovery differentials (recovered state must equal a clean
   run), concurrent installers and cache writers, the client's
   reconnect/backoff layer, and the supervised daemon's failure handling
   (worker crashes and wedges, enqueue-time deadlines, per-client token
   buckets, graceful drain). *)

module C = Concretize.Concretizer
module J = Server.Json

let repo = Pkg.Repo_core.repo

(* a slow instance: solves take long enough to observe queues and drains *)
let slow_repo = lazy (Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled 4000))

let uid =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%d-%d" (Unix.getpid ()) !n

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ()) ("spack-svc-" ^ uid ())
  in
  Unix.mkdir d 0o755;
  d

let concrete spec =
  match C.solve (C.request ~repo [ Specs.Spec_parser.parse spec ]) with
  | C.Concrete s -> s
  | _ -> Alcotest.failf "expected a concrete result for %s" spec

let with_faults f =
  Fun.protect ~finally:Asp.Fault.disarm_services (fun () ->
      Asp.Fault.disarm_services ();
      f ())

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  let dir = temp_dir () in
  let path = Filename.concat dir "installs.journal" in
  let s1 = concrete "zlib" in
  let s2 = concrete "libiconv" in
  let j = Server.Journal.open_ path in
  let seq1 = Server.Journal.append_intent j s1.C.spec in
  Server.Journal.append_commit j seq1;
  (* second intent crashes before its commit marker *)
  let _seq2 = Server.Journal.append_intent j s2.C.spec in
  Server.Journal.close j;
  let r = Server.Journal.replay path in
  Alcotest.(check int) "both intents survive" 2 (List.length r.Server.Journal.entries);
  Alcotest.(check bool) "no torn tail" false r.Server.Journal.truncated;
  (match r.Server.Journal.entries with
  | [ e1; e2 ] ->
    Alcotest.(check bool) "first committed" true e1.Server.Journal.committed;
    Alcotest.(check bool) "second uncommitted" false e2.Server.Journal.committed;
    Alcotest.(check string) "payload DAG intact"
      (Specs.Spec.node_hash s2.C.spec s2.C.spec.Specs.Spec.root)
      (Specs.Spec.node_hash e2.Server.Journal.spec
         e2.Server.Journal.spec.Specs.Spec.root)
  | _ -> Alcotest.fail "unexpected entry list");
  (* replay is read-repair, not consumption: a second replay agrees *)
  let r2 = Server.Journal.replay path in
  Alcotest.(check int) "replay is idempotent" 2
    (List.length r2.Server.Journal.entries)

let test_journal_torn_tail () =
  with_faults (fun () ->
      let dir = temp_dir () in
      let path = Filename.concat dir "installs.journal" in
      let s1 = concrete "zlib" in
      let s2 = concrete "libiconv" in
      let j = Server.Journal.open_ path in
      let seq1 = Server.Journal.append_intent j s1.C.spec in
      Server.Journal.append_commit j seq1;
      (* the next append writes only half its bytes: a crash mid-write *)
      Asp.Fault.arm_service Asp.Fault.Journal_tear 1;
      ignore (Server.Journal.append_intent j s2.C.spec);
      Server.Journal.close j;
      let r = Server.Journal.replay path in
      Alcotest.(check bool) "tear detected" true r.Server.Journal.truncated;
      Alcotest.(check int) "valid prefix survives" 1
        (List.length r.Server.Journal.entries);
      (* replay repaired the file in place: appends work again and the
         journal parses cleanly *)
      let j2 = Server.Journal.open_ path in
      let seq = Server.Journal.append_intent j2 s2.C.spec in
      Server.Journal.append_commit j2 seq;
      Server.Journal.close j2;
      let r2 = Server.Journal.replay path in
      Alcotest.(check bool) "clean after repair" false r2.Server.Journal.truncated;
      Alcotest.(check int) "old + new entries" 2
        (List.length r2.Server.Journal.entries))

let test_journal_stale_rotation () =
  let dir = temp_dir () in
  let path = Filename.concat dir "installs.journal" in
  let oc = open_out path in
  output_string oc "spack-install-journal v999\nI\t1\tdeadbeef\t{}\n";
  close_out oc;
  let r = Server.Journal.replay path in
  Alcotest.(check bool) "rotated" true r.Server.Journal.rotated;
  Alcotest.(check int) "nothing misparsed" 0 (List.length r.Server.Journal.entries);
  Alcotest.(check bool) "moved to .stale" true (Sys.file_exists (path ^ ".stale"));
  (* the slot is free for a fresh journal *)
  let j = Server.Journal.open_ path in
  let s = concrete "zlib" in
  ignore (Server.Journal.append_intent j s.C.spec);
  Server.Journal.close j;
  Alcotest.(check int) "fresh journal usable" 1
    (List.length (Server.Journal.replay path).Server.Journal.entries)

(* ------------------------------------------------------------------ *)
(* Crash-point recovery differentials                                  *)
(* ------------------------------------------------------------------ *)

exception Simulated_crash

let service_state ?crash ?(journal_max_bytes = 0) ?repl ?(follower = false)
    ~dir () =
  let cfg =
    {
      Server.State.repo;
      solver = Asp.Config.default;
      cache = Server.Cache.create ();
      db = Pkg.Database.create ();
      db_path = Some (Filename.concat dir "installed.db");
      journal = Some (Server.Journal.open_ (Filename.concat dir "installed.db.journal"));
      journal_max_bytes;
      repl;
      follower;
      timeout = None;
      client_rate = 0.;
      client_burst = 8.;
      max_pending = 8;
      crash;
    }
  in
  Server.State.create ~jobs:1 cfg

let shutdown_state st = Asp.Pool.shutdown st.Server.State.pool

(* Kill the install at each crash point; recovery must produce exactly the
   database a clean, uncrashed run would have. *)
let test_recovery_differential () =
  let spec1 = concrete "zlib" in
  let spec2 = concrete "hdf5" in
  (* the reference: a clean run *)
  let clean_dir = temp_dir () in
  let clean = service_state ~dir:clean_dir () in
  ignore (Server.State.record_install clean spec1);
  ignore (Server.State.record_install clean spec2);
  let clean_fp = Pkg.Database.fingerprint (Server.State.db clean) in
  shutdown_state clean;
  List.iter
    (fun point ->
      let dir = temp_dir () in
      let st =
        service_state ~crash:(point, fun () -> raise Simulated_crash) ~dir ()
      in
      ignore (Server.State.record_install { st with cfg = { st.Server.State.cfg with crash = None } } spec1);
      (match Server.State.record_install st spec2 with
      | _ -> Alcotest.fail "crash seam did not fire"
      | exception Simulated_crash -> ());
      shutdown_state st;
      (* the process died; a new one recovers from disk *)
      let r =
        Server.State.recover
          ~db_path:(Filename.concat dir "installed.db")
          ~journal_path:(Filename.concat dir "installed.db.journal")
          ()
      in
      Alcotest.(check bool) "journal had entries to replay" true
        (r.Server.State.replayed >= 1);
      Alcotest.(check string) "recovered database equals the clean run"
        clean_fp
        (Pkg.Database.fingerprint r.Server.State.db0);
      (* recovery reset the journal: running it again changes nothing *)
      let r2 =
        Server.State.recover
          ~db_path:(Filename.concat dir "installed.db")
          ~journal_path:(Filename.concat dir "installed.db.journal")
          ()
      in
      Alcotest.(check int) "second recovery replays nothing" 0
        r2.Server.State.replayed;
      Alcotest.(check string) "and agrees" clean_fp
        (Pkg.Database.fingerprint r2.Server.State.db0))
    [ Server.State.After_intent; Server.State.After_save ]

let test_concurrent_installs () =
  let dir = temp_dir () in
  let specs =
    List.map concrete [ "zlib"; "libiconv"; "hdf5"; "fftw" ]
  in
  let st = service_state ~dir () in
  let install s = ignore (Server.State.record_install st s) in
  let half n = List.filteri (fun i _ -> i mod 2 = n) specs in
  let d1 = Domain.spawn (fun () -> List.iter install (half 0)) in
  let d2 = Domain.spawn (fun () -> List.iter install (half 1)) in
  Domain.join d1;
  Domain.join d2;
  let live_fp = Pkg.Database.fingerprint (Server.State.db st) in
  let live_size = Pkg.Database.size (Server.State.db st) in
  Server.State.persist st;
  shutdown_state st;
  Alcotest.(check bool) "overlapping DAGs recorded once" true (live_size >= 4);
  (* recovery over what the interleaved writers left on disk agrees with
     the in-memory end state *)
  let r =
    Server.State.recover
      ~db_path:(Filename.concat dir "installed.db")
      ~journal_path:(Filename.concat dir "installed.db.journal")
      ()
  in
  Alcotest.(check int) "same size" live_size (Pkg.Database.size r.Server.State.db0);
  Alcotest.(check string) "same fingerprint" live_fp
    (Pkg.Database.fingerprint r.Server.State.db0)

(* ------------------------------------------------------------------ *)
(* Cache under concurrent writers and torn files                       *)
(* ------------------------------------------------------------------ *)

let test_cache_concurrent_writers () =
  let dir = temp_dir () in
  let r = C.Concrete (concrete "zlib") in
  let cache = Server.Cache.create ~dir ~mem_capacity:64 () in
  let n_domains = 4 and per_domain = 8 in
  let key d i = Printf.sprintf "key-%d-%d" d i in
  let writer d () =
    for i = 0 to per_domain - 1 do
      Server.Cache.store cache (key d i) r;
      (* interleave reads of other writers' keys *)
      ignore (Server.Cache.lookup cache (key ((d + 1) mod n_domains) i))
    done
  in
  let ds = List.init n_domains (fun d -> Domain.spawn (writer d)) in
  List.iter Domain.join ds;
  (* a fresh instance over the same directory reads every entry back *)
  let fresh = Server.Cache.create ~dir () in
  for d = 0 to n_domains - 1 do
    for i = 0 to per_domain - 1 do
      Alcotest.(check bool)
        (Printf.sprintf "%s readable" (key d i))
        true
        (Server.Cache.lookup fresh (key d i) <> None)
    done
  done;
  (* tear one entry's file mid-payload: that key degrades to a miss, the
     rest stay servable *)
  let victim = Filename.concat dir "key-0-0.solve" in
  let len = (Unix.stat victim).Unix.st_size in
  let fd = Unix.openfile victim [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (len / 2);
  Unix.close fd;
  let fresh2 = Server.Cache.create ~dir () in
  Alcotest.(check bool) "torn entry is a miss" true
    (Server.Cache.lookup fresh2 "key-0-0" = None);
  Alcotest.(check bool) "neighbours unaffected" true
    (Server.Cache.lookup fresh2 "key-1-0" <> None)

(* ------------------------------------------------------------------ *)
(* Client reconnect / backoff against a toy server                     *)
(* ------------------------------------------------------------------ *)

let toy_socket () =
  Filename.concat (Filename.get_temp_dir_name ()) ("toy-" ^ uid () ^ ".sock")

let listen_on path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 8;
  fd

let reply_properly fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (match input_line ic with
  | line ->
    let id =
      match J.of_string line with
      | Ok j -> Option.value ~default:0 (Option.bind (J.member "id" j) J.to_int)
      | Error _ -> 0
    in
    output_string oc
      (J.to_string (Server.Protocol.response_to_json ~id Server.Protocol.Bye));
    output_char oc '\n';
    flush oc
  | exception (End_of_file | Sys_error _) -> ());
  (* hold the connection until the client hangs up *)
  (try ignore (input_line ic) with End_of_file | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let test_client_reconnects () =
  let path = toy_socket () in
  let listen = listen_on path in
  let server =
    Domain.spawn (fun () ->
        (* first connection: read the request, then slam the door *)
        let fd, _ = Unix.accept listen in
        ignore (Unix.read fd (Bytes.create 512) 0 512);
        Unix.close fd;
        (* second connection: behave *)
        let fd, _ = Unix.accept listen in
        reply_properly fd)
  in
  (match Server.Client.connect ~retries:4 ~backoff:0.01 path with
  | Error m -> Alcotest.failf "connect failed: %s" m
  | Ok c ->
    (match Server.Client.request c Server.Protocol.Shutdown with
    | Ok Server.Protocol.Bye -> ()
    | Ok _ -> Alcotest.fail "unexpected reply"
    | Error m -> Alcotest.failf "request did not survive the reset: %s" m);
    Alcotest.(check bool) "reconnect counted" true
      (Server.Client.reconnects c >= 1);
    Server.Client.close c);
  Domain.join server;
  Unix.close listen

let test_client_recv_timeout () =
  let path = toy_socket () in
  let listen = listen_on path in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        (* accept and never answer *)
        let conns = ref [] in
        while not (Atomic.get stop) do
          match Unix.select [ listen ] [] [] 0.05 with
          | [], _, _ -> ()
          | _ ->
            let fd, _ = Unix.accept listen in
            conns := fd :: !conns
          | exception Unix.Unix_error _ -> ()
        done;
        List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !conns)
  in
  let t0 = Unix.gettimeofday () in
  (match Server.Client.connect ~retries:1 ~backoff:0.01 ~recv_timeout:0.2 path with
  | Error m -> Alcotest.failf "connect failed: %s" m
  | Ok c ->
    (match Server.Client.request c Server.Protocol.Stats with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "a mute server cannot produce a reply");
    Server.Client.close c);
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "bounded by the receive timeout, no hang" true
    (elapsed < 5.0);
  Atomic.set stop true;
  Domain.join server;
  Unix.close listen

(* ------------------------------------------------------------------ *)
(* Daemon failure handling                                             *)
(* ------------------------------------------------------------------ *)

let with_daemon ?(repo = repo) ?(workers = 2) ?(jobs = 2) ?(max_pending = 8)
    ?timeout ?(client_rate = 0.) ?(client_burst = 8.) ?(drain_grace = 5.0)
    ?(wedge_timeout = 10.0) ?db ?db_path ?journal_path ?(journal_max_bytes = 0)
    ?follow ?(repl_ack = Server.Replica.Ack_async) f =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ())
      ("spacksvc-" ^ uid () ^ ".sock")
  in
  let cfg =
    {
      Server.Daemon.socket_path = sock;
      repo;
      solver = Asp.Config.default;
      db = (match db with Some db -> db | None -> Pkg.Database.create ());
      db_path;
      journal_path;
      journal_max_bytes;
      follow;
      repl_ack;
      cache = Server.Cache.create ();
      workers;
      jobs;
      max_pending;
      timeout;
      client_rate;
      client_burst;
      drain_grace;
      wedge_timeout;
      crash = None;
    }
  in
  let ready = Atomic.make false in
  let d =
    Domain.spawn (fun () ->
        Server.Daemon.serve ~on_ready:(fun () -> Atomic.set ready true) cfg)
  in
  while not (Atomic.get ready) do
    Domain.cpu_relax ()
  done;
  let finally () =
    (match Server.Client.connect sock with
    | Ok c ->
      ignore (Server.Client.request c Server.Protocol.Shutdown);
      Server.Client.close c
    | Error _ -> ());
    Domain.join d
  in
  Fun.protect ~finally (fun () -> f sock)

let client ?recv_timeout sock =
  match Server.Client.connect ?recv_timeout sock with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect failed: %s" m

let request c req =
  match Server.Client.request c req with
  | Ok resp -> resp
  | Error m -> Alcotest.failf "request failed: %s" m

let stats_int c section field =
  match request c Server.Protocol.Stats with
  | Server.Protocol.Stats_reply j -> (
    match
      Option.bind (J.member section j) (fun s ->
          Option.bind (J.member field s) J.to_int)
    with
    | Some n -> n
    | None -> Alcotest.failf "stats field %s.%s missing" section field)
  | _ -> Alcotest.fail "expected a stats reply"

let stats_str c section field =
  match request c Server.Protocol.Stats with
  | Server.Protocol.Stats_reply j -> (
    match
      Option.bind (J.member section j) (fun s ->
          Option.bind (J.member field s) J.to_str)
    with
    | Some s -> s
    | None -> Alcotest.failf "stats field %s.%s missing" section field)
  | _ -> Alcotest.fail "expected a stats reply"

let test_daemon_worker_crash_restart () =
  with_faults (fun () ->
      with_daemon ~workers:2 (fun sock ->
          let c1 = client sock in
          let c2 = client sock in
          Asp.Fault.arm_service Asp.Fault.Worker_crash 1;
          (* c1's request kills its worker mid-handling; the supervisor
             closes the leaked connection, c1 reconnects onto a healthy
             worker and the resent request succeeds *)
          (match request c1 (Server.Protocol.solve "zlib") with
          | Server.Protocol.Result { result = C.Concrete _; _ } -> ()
          | _ -> Alcotest.fail "expected a concrete result after restart");
          Alcotest.(check bool) "the crash forced a reconnect" true
            (Server.Client.reconnects c1 >= 1);
          (* the other worker's client was never disturbed, and the
             supervisor recorded the restart *)
          Alcotest.(check bool) "restart counted" true
            (stats_int c2 "supervisor" "restarts" >= 1);
          Server.Client.close c1;
          Server.Client.close c2))

let test_daemon_worker_wedge_quarantine () =
  with_faults (fun () ->
      with_daemon ~workers:2 ~wedge_timeout:0.3 (fun sock ->
          let c1 = client sock in
          Asp.Fault.arm_service Asp.Fault.Worker_wedge 1;
          (* the handling worker blocks for ~2s; the supervisor notices the
             stalled heartbeat after 0.3s and quarantines it; when it wakes
             it tears down, c1 sees EOF and retries on the replacement *)
          (match request c1 (Server.Protocol.solve "zlib") with
          | Server.Protocol.Result { result = C.Concrete _; _ } -> ()
          | _ -> Alcotest.fail "expected a concrete result after quarantine");
          let c2 = client sock in
          Alcotest.(check bool) "wedge counted" true
            (stats_int c2 "supervisor" "wedged" >= 1);
          Server.Client.close c1;
          Server.Client.close c2))

let test_daemon_reply_faults () =
  with_faults (fun () ->
      with_daemon ~workers:1 (fun sock ->
          let c = client sock in
          (* dropped socket instead of a reply: transparent retry *)
          Asp.Fault.arm_service Asp.Fault.Drop_socket 1;
          (match request c (Server.Protocol.solve "zlib") with
          | Server.Protocol.Result _ -> ()
          | _ -> Alcotest.fail "expected a result after a dropped socket");
          Alcotest.(check bool) "drop forced a reconnect" true
            (Server.Client.reconnects c >= 1);
          (* half-written reply then close: the client treats the garbage
             frame as transient and retries *)
          Asp.Fault.arm_service Asp.Fault.Truncate_response 1;
          (match request c (Server.Protocol.solve "libiconv") with
          | Server.Protocol.Result _ -> ()
          | _ -> Alcotest.fail "expected a result after a truncated reply");
          (* delayed reply: no disconnect, just one event-loop round late *)
          let before = Server.Client.reconnects c in
          Asp.Fault.arm_service Asp.Fault.Delay_response 1;
          (match request c (Server.Protocol.solve "zlib") with
          | Server.Protocol.Result _ -> ()
          | _ -> Alcotest.fail "expected a delayed result");
          Alcotest.(check int) "no reconnect for a mere delay" before
            (Server.Client.reconnects c);
          Server.Client.close c))

let test_daemon_enqueue_deadline () =
  with_daemon ~repo:(Lazy.force slow_repo) ~jobs:1 (fun sock ->
      (* occupy the single solver domain with an *unbounded* solve on a raw
         socket: it holds the domain until we hang up, so no amount of
         scheduler or test-runner latency can let it finish early and mask
         the deadline check *)
      let raw spec timeout =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        let line =
          J.to_string
            (Server.Protocol.request_to_json (Server.Protocol.solve ?timeout spec))
          ^ "\n"
        in
        ignore (Unix.write_substring fd line 0 (String.length line));
        fd
      in
      let fd_slow = raw "app-000" None in
      let c = client sock in
      let await_submitted n =
        let deadline = Unix.gettimeofday () +. 10.0 in
        while
          stats_int c "scheduler" "submitted" < n
          && Unix.gettimeofday () < deadline
        do
          Unix.sleepf 0.01
        done
      in
      await_submitted 1;
      (* queue a request with a 0.05s end-to-end deadline behind the slow
         solve, wait until it is demonstrably queued, let its deadline
         lapse, then hang up the slow solve so the queue advances: the
         expired job must be shed with a typed deadline result, not solved
         with a leftover sliver of budget *)
      let fd_exp = raw "app-001" (Some 0.05) in
      await_submitted 2;
      Unix.sleepf 0.1;
      Unix.close fd_slow;
      let ic = Unix.in_channel_of_descr fd_exp in
      (match J.of_string (input_line ic) with
      | Error m -> Alcotest.failf "unparsable reply: %s" m
      | Ok j -> (
        match Server.Protocol.response_of_json j with
        | Ok
            ( _,
              Server.Protocol.Result
                {
                  result =
                    C.Interrupted
                      { info = { Asp.Budget.reason = Asp.Budget.Deadline; _ }; _ };
                  _;
                } ) ->
          ()
        | Ok _ -> Alcotest.fail "expected a typed deadline result"
        | Error m -> Alcotest.failf "malformed reply: %s" m));
      Alcotest.(check bool) "expired counted" true
        (stats_int c "server" "expired" >= 1);
      Server.Client.close c;
      Unix.close fd_exp)

let test_daemon_token_bucket () =
  with_daemon ~client_rate:0.001 ~client_burst:2. (fun sock ->
      let c = client sock in
      (* three roots in one batch against a burst of two: refused outright,
         before any solver work *)
      (match
         request c (Server.Protocol.solve_many [ "zlib"; "libiconv"; "hdf5" ])
       with
      | Server.Protocol.Error { kind = Server.Protocol.Overloaded; message } ->
        Alcotest.(check bool) "names the rate limit" true
          (String.length message > 0)
      | _ -> Alcotest.fail "expected a typed Overloaded shed");
      Alcotest.(check bool) "throttle counted" true
        (stats_int c "server" "throttled" >= 1);
      (* within budget the same client still solves *)
      (match request c (Server.Protocol.solve "zlib") with
      | Server.Protocol.Result _ -> ()
      | _ -> Alcotest.fail "expected a result within the budget");
      (* a different client has its own bucket *)
      let c2 = client sock in
      (match request c2 (Server.Protocol.solve_many [ "zlib"; "libiconv" ]) with
      | Server.Protocol.Results _ -> ()
      | _ -> Alcotest.fail "another client must not inherit the empty bucket");
      Server.Client.close c;
      Server.Client.close c2)

let test_daemon_graceful_drain () =
  with_daemon ~repo:(Lazy.force slow_repo) ~jobs:1 ~drain_grace:0.5
    (fun sock ->
      (* leave a slow solve in flight, then ask for shutdown: the daemon
         stops accepting, the grace period expires, in-flight work is
         cancelled and the service exits instead of hanging *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let line =
        J.to_string
          (Server.Protocol.request_to_json (Server.Protocol.solve "app-002"))
        ^ "\n"
      in
      ignore (Unix.write_substring fd line 0 (String.length line));
      Unix.sleepf 0.05;
      let c = client sock in
      (match request c Server.Protocol.Shutdown with
      | Server.Protocol.Bye -> ()
      | _ -> Alcotest.fail "expected Bye");
      Server.Client.close c;
      Unix.close fd;
      (* new work is refused: the socket is gone or the reply is a typed
         draining shed — never a fresh solve *)
      match Server.Client.connect ~retries:0 ~recv_timeout:2.0 sock with
      | Error _ -> ()
      | Ok c2 -> (
        (match Server.Client.request_once c2 (Server.Protocol.solve "app-003") with
        | Ok (Server.Protocol.Result _) ->
          Alcotest.fail "daemon accepted new work while draining"
        | Ok _ | Error _ -> ());
        Server.Client.close c2))
(* with_daemon's teardown then joins the daemon domain: if drain hangs,
   the test hangs — the join itself is the assertion *)

(* ------------------------------------------------------------------ *)
(* Replication: journal shipping to hot-standby daemons                *)
(* ------------------------------------------------------------------ *)

let wait_for ?(timeout = 30.) msg f =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if not (f ()) then
      if Unix.gettimeofday () > deadline then
        Alcotest.failf "timed out waiting for %s" msg
      else begin
        Unix.sleepf 0.02;
        go ()
      end
  in
  go ()

let install_via c spec =
  match request c (Server.Protocol.install spec) with
  | Server.Protocol.Installed _ -> ()
  | Server.Protocol.Error { message; _ } ->
    Alcotest.failf "install %s refused: %s" spec message
  | _ -> Alcotest.failf "expected an Installed reply for %s" spec

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A follower started against a primary that already compacted its journal
   must catch up via a database snapshot, then track the live record
   stream; its database must be byte-identical to the primary's. *)
let test_repl_follower_equivalence () =
  let pdir = temp_dir () and fdir = temp_dir () in
  with_daemon
    ~db_path:(Filename.concat pdir "installed.db")
    ~journal_path:(Filename.concat pdir "installed.db.journal")
    ~journal_max_bytes:1 (* compact after every install *)
    (fun psock ->
      let pc = client psock in
      (* two installs land before any follower exists, and aggressive
         compaction folds them into the database snapshot *)
      install_via pc "zlib";
      install_via pc "libiconv";
      with_daemon
        ~db_path:(Filename.concat fdir "installed.db")
        ~journal_path:(Filename.concat fdir "installed.db.journal")
        ~follow:psock
        (fun fsock ->
          let fc = client fsock in
          Alcotest.(check string) "standby reports the follower role"
            "follower"
            (stats_str fc "replication" "role");
          (* counters trail the database swap by a few instructions, so
             the wait covers both *)
          wait_for "snapshot catch-up" (fun () ->
              stats_int fc "replication" "snapshots" >= 1
              && stats_str fc "server" "db_fingerprint"
                 = stats_str pc "server" "db_fingerprint");
          (* a live install now streams as a (seq, intent, commit) record *)
          install_via pc "hdf5";
          wait_for "live record stream" (fun () ->
              stats_int fc "replication" "stream_applied" >= 1
              && stats_str fc "server" "db_fingerprint"
                 = stats_str pc "server" "db_fingerprint");
          Alcotest.(check bool) "primary sees its follower" true
            (stats_int pc "replication" "followers" >= 1);
          (* a follower is read-only: installs are refused with a typed
             error the client can use to fail over *)
          (match request fc (Server.Protocol.install "fftw") with
          | Server.Protocol.Error { kind = Server.Protocol.Read_only; _ } ->
            ()
          | _ -> Alcotest.fail "follower accepted an install");
          Server.Client.close fc);
      Server.Client.close pc);
  (* both shut down cleanly; now tear the follower's journal (a crash
     mid-replicated-append) — recovery must drop the torn tail and still
     reproduce the replicated database from the saved snapshot *)
  let fj = Filename.concat fdir "installed.db.journal" in
  write_file fj (read_file fj ^ "I\t99\tdeadbeef\ttorn{");
  let r =
    Server.State.recover
      ~db_path:(Filename.concat fdir "installed.db")
      ~journal_path:fj ()
  in
  Alcotest.(check bool) "torn replicated tail detected" true
    r.Server.State.truncated;
  let p =
    Server.State.recover
      ~db_path:(Filename.concat pdir "installed.db")
      ~journal_path:(Filename.concat pdir "installed.db.journal")
      ()
  in
  Alcotest.(check string) "follower recovery equals primary recovery"
    (Pkg.Database.fingerprint p.Server.State.db0)
    (Pkg.Database.fingerprint r.Server.State.db0)

(* Under --repl-ack=sync the client-visible install ack implies the record
   is already durable on the follower: copying the follower's on-disk
   state the moment the ack returns (as a kill -9 would freeze it) and
   recovering from the copy must reproduce the install. *)
let test_repl_sync_ack_durability () =
  let pdir = temp_dir () and fdir = temp_dir () and snap = temp_dir () in
  with_daemon
    ~db_path:(Filename.concat pdir "installed.db")
    ~journal_path:(Filename.concat pdir "installed.db.journal")
    ~repl_ack:Server.Replica.Ack_sync
    (fun psock ->
      let pc = client psock in
      with_daemon
        ~db_path:(Filename.concat fdir "installed.db")
        ~journal_path:(Filename.concat fdir "installed.db.journal")
        ~follow:psock
        (fun _fsock ->
          wait_for "follower subscription" (fun () ->
              stats_int pc "replication" "followers" >= 1);
          install_via pc "zlib";
          (* freeze the follower's disk state as of the ack *)
          write_file
            (Filename.concat snap "installed.db")
            (read_file (Filename.concat fdir "installed.db"));
          write_file
            (Filename.concat snap "installed.db.journal")
            (read_file (Filename.concat fdir "installed.db.journal"));
          Alcotest.(check int) "no ack was follower-less" 0
            (stats_int pc "replication" "sync_degraded");
          Alcotest.(check int) "no ack timed out waiting for the follower" 0
            (stats_int pc "replication" "sync_timeouts");
          Alcotest.(check bool) "the follower acked" true
            (stats_int pc "replication" "acked" >= 1));
      let live_fp = stats_str pc "server" "db_fingerprint" in
      let r =
        Server.State.recover
          ~db_path:(Filename.concat snap "installed.db")
          ~journal_path:(Filename.concat snap "installed.db.journal")
          ()
      in
      Alcotest.(check string)
        "follower state frozen at ack time reproduces the install" live_fp
        (Pkg.Database.fingerprint r.Server.State.db0);
      Server.Client.close pc)

(* Promotion flips a follower to primary in a new epoch; installs are
   accepted from then on. *)
let test_repl_promotion () =
  let pdir = temp_dir () and fdir = temp_dir () in
  with_daemon
    ~db_path:(Filename.concat pdir "installed.db")
    ~journal_path:(Filename.concat pdir "installed.db.journal")
    (fun psock ->
      let pc = client psock in
      with_daemon
        ~db_path:(Filename.concat fdir "installed.db")
        ~journal_path:(Filename.concat fdir "installed.db.journal")
        ~follow:psock
        (fun fsock ->
          install_via pc "zlib";
          let fc = client fsock in
          wait_for "replication of the first install" (fun () ->
              stats_str fc "server" "db_fingerprint"
              = stats_str pc "server" "db_fingerprint");
          (match request fc Server.Protocol.Promote with
          | Server.Protocol.Promoted { epoch } ->
            Alcotest.(check int) "promotion bumps the epoch" 2 epoch
          | _ -> Alcotest.fail "expected a Promoted reply");
          Alcotest.(check string) "promoted standby reports primary"
            "primary"
            (stats_str fc "replication" "role");
          (* idempotent: a second promote reports the same epoch *)
          (match request fc Server.Protocol.Promote with
          | Server.Protocol.Promoted { epoch } ->
            Alcotest.(check int) "promote is idempotent" 2 epoch
          | _ -> Alcotest.fail "expected a Promoted reply");
          (* the new primary accepts installs *)
          install_via fc "libiconv";
          Server.Client.close fc);
      Server.Client.close pc)

(* A stale primary rejoining as a follower is fenced: its journal (with
   entries the new epoch never saw) is rotated aside, its database wiped
   and resynced — the unreplicated tail cannot leak into the new epoch. *)
let test_repl_stale_primary_fenced () =
  let dir_a = temp_dir () and dir_b = temp_dir () in
  (* epoch-1 primary A: one replicated install, then death; a second
     committed entry lands in its journal that nobody ever saw *)
  let st = service_state ~dir:dir_a () in
  ignore (Server.State.record_install st (concrete "zlib"));
  Server.State.persist st;
  shutdown_state st;
  let ja = Server.Journal.open_ (Filename.concat dir_a "installed.db.journal") in
  let seq = Server.Journal.append_intent ja (concrete "libiconv").C.spec in
  Server.Journal.append_commit ja seq;
  Server.Journal.close ja;
  (* B was promoted meanwhile: epoch 2 *)
  let jb = Server.Journal.open_ (Filename.concat dir_b "installed.db.journal") in
  Server.Journal.bump_epoch jb 2;
  Server.Journal.close jb;
  with_daemon
    ~db_path:(Filename.concat dir_b "installed.db")
    ~journal_path:(Filename.concat dir_b "installed.db.journal")
    (fun bsock ->
      let bc = client bsock in
      Alcotest.(check int) "B leads epoch 2" 2
        (stats_int bc "replication" "epoch");
      install_via bc "hdf5";
      (* A rejoins as a follower, announcing epoch 1 *)
      let ra =
        Server.State.recover
          ~db_path:(Filename.concat dir_a "installed.db")
          ~journal_path:(Filename.concat dir_a "installed.db.journal")
          ()
      in
      Alcotest.(check bool) "A recovered its unreplicated tail" true
        (Pkg.Database.size ra.Server.State.db0 >= 2);
      with_daemon ~db:ra.Server.State.db0
        ~db_path:(Filename.concat dir_a "installed.db")
        ~journal_path:(Filename.concat dir_a "installed.db.journal")
        ~follow:bsock
        (fun asock ->
          let ac = client asock in
          wait_for "fencing and resync" (fun () ->
              stats_int ac "replication" "epoch" = 2
              && stats_str ac "server" "db_fingerprint"
                 = stats_str bc "server" "db_fingerprint");
          Alcotest.(check bool) "A counted the reset" true
            (stats_int ac "replication" "resyncs" >= 1);
          Alcotest.(check bool) "B counted the fence" true
            (stats_int bc "replication" "resets_sent" >= 1);
          Alcotest.(check bool) "A's dead-epoch journal rotated aside" true
            (Sys.file_exists
               (Filename.concat dir_a "installed.db.journal.stale"));
          Server.Client.close ac);
      Server.Client.close bc)

(* Follower crash mid-stream and a hub-dropped record: both resume from
   the durable position and converge (the drop is detected as a sequence
   gap on the next record). *)
let test_repl_follower_crash_and_gap () =
  with_faults (fun () ->
      let pdir = temp_dir () and fdir = temp_dir () in
      with_daemon
        ~db_path:(Filename.concat pdir "installed.db")
        ~journal_path:(Filename.concat pdir "installed.db.journal")
        (fun psock ->
          let pc = client psock in
          with_daemon
            ~db_path:(Filename.concat fdir "installed.db")
            ~journal_path:(Filename.concat fdir "installed.db.journal")
            ~follow:psock
            (fun fsock ->
              let fc = client fsock in
              wait_for "follower subscription" (fun () ->
                  stats_int pc "replication" "followers" >= 1);
              (* the apply loop dies on the next record; the follower
                 domain reconnects and resumes from its fsynced position *)
              Asp.Fault.arm_service Asp.Fault.Follower_crash 1;
              install_via pc "zlib";
              wait_for "recovery from the crash" (fun () ->
                  stats_str fc "server" "db_fingerprint"
                  = stats_str pc "server" "db_fingerprint");
              (* the hub silently drops the next record; the follower only
                 notices when the one after arrives as a gap *)
              Asp.Fault.arm_service Asp.Fault.Repl_drop 1;
              install_via pc "libiconv";
              install_via pc "hdf5";
              wait_for "gap resync" (fun () ->
                  stats_str fc "server" "db_fingerprint"
                  = stats_str pc "server" "db_fingerprint");
              Alcotest.(check bool) "the follower resubscribed" true
                (stats_int fc "replication" "reconnects" >= 1
                || stats_int fc "replication" "stream_resyncs" >= 1);
              Alcotest.(check bool) "the drop was counted" true
                (stats_int pc "replication" "dropped" >= 1);
              Server.Client.close fc);
          Server.Client.close pc))

(* --journal-max-bytes compaction and the clean-shutdown checkpoint both
   preserve sequence positions while truncating entries. *)
let test_repl_checkpoint_compaction () =
  let dir = temp_dir () in
  let st = service_state ~journal_max_bytes:1 ~dir () in
  ignore (Server.State.record_install st (concrete "zlib"));
  ignore (Server.State.record_install st (concrete "hdf5"));
  let j =
    match st.Server.State.cfg.Server.State.journal with
    | Some j -> j
    | None -> Alcotest.fail "expected a journal"
  in
  Alcotest.(check int) "sequences survive compaction" 3
    (Server.Journal.next_seq j);
  Alcotest.(check int) "base advanced past the compacted entries" 3
    (Server.Journal.base_seq j);
  let live_fp = Pkg.Database.fingerprint (Server.State.db st) in
  Server.State.persist st;
  shutdown_state st;
  let path = Filename.concat dir "installed.db.journal" in
  Alcotest.(check int) "compacted journal holds no entries" 0
    (List.length (Server.Journal.replay path).Server.Journal.entries);
  let r =
    Server.State.recover ~db_path:(Filename.concat dir "installed.db")
      ~journal_path:path ()
  in
  Alcotest.(check int) "nothing left to replay" 0 r.Server.State.replayed;
  Alcotest.(check string) "database snapshot carries everything" live_fp
    (Pkg.Database.fingerprint r.Server.State.db0);
  let j2 = Server.Journal.open_ path in
  Alcotest.(check int) "reopened journal resumes the sequence" 3
    (Server.Journal.next_seq j2);
  Server.Journal.close j2

(* Journal v2 position plumbing: epochs, base sequences, raw appends and
   the catch-up tail — the primitives replication is built from. *)
let test_journal_v2_positions () =
  let dir = temp_dir () in
  let path = Filename.concat dir "installs.journal" in
  let s1 = concrete "zlib" in
  let j = Server.Journal.open_ path in
  Alcotest.(check int) "fresh epoch" 1 (Server.Journal.epoch j);
  Alcotest.(check int) "fresh base" 1 (Server.Journal.base_seq j);
  let seq = Server.Journal.append_intent j s1.C.spec in
  Server.Journal.append_commit j seq;
  (match Server.Journal.tail_from j 1 with
  | [ (1, il, cl) ] ->
    (match Server.Journal.parse il with
    | Some (`Intent (1, _)) -> ()
    | _ -> Alcotest.fail "tail intent line does not parse back");
    (match Server.Journal.parse cl with
    | Some (`Commit 1) -> ()
    | _ -> Alcotest.fail "tail commit line does not parse back")
  | t -> Alcotest.failf "unexpected tail of %d entries" (List.length t));
  Server.Journal.bump_epoch j 2;
  Alcotest.(check int) "epoch bumped" 2 (Server.Journal.epoch j);
  (* the follower side: mirror pre-rendered lines at an explicit seq *)
  Server.Journal.append_raw j ~seq:5
    [ Server.Journal.render_intent 5 s1.C.spec; Server.Journal.render_commit 5 ];
  Alcotest.(check int) "raw append advances the counter" 6
    (Server.Journal.next_seq j);
  Server.Journal.close j;
  let j2 = Server.Journal.open_ path in
  Alcotest.(check int) "epoch survives reopen" 2 (Server.Journal.epoch j2);
  Alcotest.(check int) "sequence survives reopen" 6 (Server.Journal.next_seq j2);
  Alcotest.(check int) "tail skips below from_seq" 1
    (List.length (Server.Journal.tail_from j2 2));
  Server.Journal.checkpoint j2;
  Alcotest.(check int) "checkpoint keeps the epoch" 2 (Server.Journal.epoch j2);
  Alcotest.(check int) "checkpoint advances the base" 6
    (Server.Journal.base_seq j2);
  Alcotest.(check int) "checkpointed tail is empty" 0
    (List.length (Server.Journal.tail_from j2 1));
  Server.Journal.set_position j2 ~epoch:5 ~base_seq:10;
  Server.Journal.close j2;
  let j3 = Server.Journal.open_ path in
  Alcotest.(check int) "adopted epoch survives reopen" 5
    (Server.Journal.epoch j3);
  Alcotest.(check int) "adopted base survives reopen" 10
    (Server.Journal.next_seq j3);
  Server.Journal.close j3

let () =
  Alcotest.run "service"
    [
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "stale rotation" `Quick test_journal_stale_rotation;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "crash-point differential" `Quick
            test_recovery_differential;
          Alcotest.test_case "concurrent installs" `Quick
            test_concurrent_installs;
        ] );
      ( "cache",
        [
          Alcotest.test_case "concurrent writers" `Quick
            test_cache_concurrent_writers;
        ] );
      ( "client",
        [
          Alcotest.test_case "reconnects" `Quick test_client_reconnects;
          Alcotest.test_case "recv timeout" `Quick test_client_recv_timeout;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "worker crash restart" `Quick
            test_daemon_worker_crash_restart;
          Alcotest.test_case "worker wedge quarantine" `Quick
            test_daemon_worker_wedge_quarantine;
          Alcotest.test_case "reply faults" `Quick test_daemon_reply_faults;
          Alcotest.test_case "enqueue deadline" `Quick
            test_daemon_enqueue_deadline;
          Alcotest.test_case "token bucket" `Quick test_daemon_token_bucket;
          Alcotest.test_case "graceful drain" `Quick test_daemon_graceful_drain;
        ] );
      ( "replication",
        [
          Alcotest.test_case "journal v2 positions" `Quick
            test_journal_v2_positions;
          Alcotest.test_case "checkpoint compaction" `Quick
            test_repl_checkpoint_compaction;
          Alcotest.test_case "follower equivalence + torn tail" `Quick
            test_repl_follower_equivalence;
          Alcotest.test_case "sync-ack durability" `Quick
            test_repl_sync_ack_durability;
          Alcotest.test_case "promotion" `Quick test_repl_promotion;
          Alcotest.test_case "stale primary fenced" `Quick
            test_repl_stale_primary_fenced;
          Alcotest.test_case "follower crash and gap resync" `Quick
            test_repl_follower_crash_and_gap;
        ] );
    ]
