(* Tests for the concretization service: JSON codec, the content-addressed
   solve cache (memory + disk), the request scheduler and the daemon
   end-to-end over a real Unix socket. *)

module C = Concretize.Concretizer
module J = Server.Json

let repo = Pkg.Repo_core.repo

(* a slow instance for the cancellation / overload window *)
let slow_repo = lazy (Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled 4000))

let uid =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%d-%d" (Unix.getpid ()) !n

let temp_dir () =
  let d = Filename.concat (Filename.get_temp_dir_name ()) ("spack-test-" ^ uid ()) in
  Unix.mkdir d 0o755;
  d

let solve spec = C.solve (C.request ~repo [ Specs.Spec_parser.parse spec ])

let concrete spec =
  match solve spec with
  | C.Concrete s -> s
  | _ -> Alcotest.failf "expected a concrete result for %s" spec

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let values =
    [
      J.Null;
      J.Bool true;
      J.Int (-42);
      J.Float 3.25;
      J.Str "with \"quotes\", back\\slash,\nnewline and \001 control";
      J.List [ J.Int 1; J.Str "two"; J.List []; J.Obj [] ];
      J.Obj [ ("a", J.Bool false); ("nested", J.Obj [ ("b", J.List [ J.Null ]) ]) ];
    ]
  in
  List.iter
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' ->
        Alcotest.(check string) "roundtrip" (J.to_string v) (J.to_string v')
      | Error m -> Alcotest.failf "reparse failed: %s" m)
    values

let test_json_errors () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected a parse error for %S" s)
    [ "{"; "[1,"; "\"unterminated"; "1 2"; "{\"a\" 1}"; "truthy"; "" ]

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let codec_roundtrip r =
  let j = Server.Codec.result_to_json r in
  match Server.Codec.result_of_json j with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok r' ->
    Alcotest.(check string) "re-encoding identical"
      (J.to_string j)
      (J.to_string (Server.Codec.result_to_json r'))

let test_codec_concrete () =
  let r = solve "hdf5" in
  codec_roundtrip r;
  (* the whole result crosses the wire: every span, the descent count and
     the instance size included *)
  Alcotest.(check bool) "decodes to the solved result" true
    (Server.Codec.result_of_json (Server.Codec.result_to_json r) = Ok r);
  match (r, Server.Codec.result_of_json (Server.Codec.result_to_json r)) with
  | C.Concrete s, Ok (C.Concrete s') ->
    Alcotest.(check (list (pair int int))) "cost vector survives" s.C.stats.Asp.Solve.costs s'.C.stats.Asp.Solve.costs;
    Alcotest.(check bool) "verified survives" s.C.stats.Asp.Solve.verified s'.C.stats.Asp.Solve.verified;
    Alcotest.(check string) "same DAG hash"
      (Specs.Spec.node_hash s.C.spec s.C.spec.Specs.Spec.root)
      (Specs.Spec.node_hash s'.C.spec s'.C.spec.Specs.Spec.root)
  | _ -> Alcotest.fail "expected concrete results"

let test_codec_unsat () =
  match solve "zlib@999.9" with
  | C.Unsatisfiable _ as r -> codec_roundtrip r
  | _ -> Alcotest.fail "expected UNSAT"

let test_codec_interrupted () =
  codec_roundtrip
    (C.Interrupted
       {
         info =
           {
             Asp.Budget.phase = Asp.Budget.Search;
             reason = Asp.Budget.Deadline;
             progress = { Asp.Budget.conflicts = 3; instances = 14; opt_steps = 1 };
           };
         phases =
           {
             Asp.Phases.zero with
             setup_time = 0.125;
             load_time = 0.5;
             ground_time = 0.25;
             seed_time = 0.0625;
             close_time = 0.125;
             solve_time = 1.0;
             search_time = 0.75;
           };
         n_facts = 100;
         n_possible = 7;
       })

let test_codec_rejects_garbage () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Error _ -> ()
      | Ok j -> (
        match Server.Codec.result_of_json j with
        | Error _ -> ()
        | Ok _ -> Alcotest.failf "expected decode failure for %s" s))
    [
      "{}";
      "{\"outcome\":\"concrete\"}";
      "{\"outcome\":\"interrupted\",\"info\":{\"phase\":\"warp\",\"reason\":\"deadline\",\"conflicts\":0,\"instances\":0,\"opt_steps\":0},\"phases\":{\"setup\":0,\"load\":0,\"ground\":0,\"solve\":0},\"n_facts\":0,\"n_possible\":0}";
    ]

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let test_cache_lru () =
  let r = C.Concrete (concrete "zlib") in
  let cache = Server.Cache.create ~mem_capacity:2 () in
  Server.Cache.store cache "k1" r;
  Server.Cache.store cache "k2" r;
  (* touch k1 so k2 becomes the LRU victim *)
  Alcotest.(check bool) "k1 hit" true (Server.Cache.lookup cache "k1" <> None);
  Server.Cache.store cache "k3" r;
  let s = Server.Cache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Server.Cache.evictions;
  Alcotest.(check int) "bounded" 2 s.Server.Cache.mem_entries;
  Alcotest.(check bool) "k2 was evicted" true (Server.Cache.lookup cache "k2" = None);
  Alcotest.(check bool) "k1 survived" true (Server.Cache.lookup cache "k1" <> None);
  Alcotest.(check bool) "k3 present" true (Server.Cache.lookup cache "k3" <> None);
  let s = Server.Cache.stats cache in
  Alcotest.(check int) "hits counted" 3 s.Server.Cache.hits;
  Alcotest.(check int) "misses counted" 1 s.Server.Cache.misses

let test_cache_disk () =
  let dir = temp_dir () in
  let r = C.Concrete (concrete "zlib") in
  let c1 = Server.Cache.create ~dir () in
  Server.Cache.store c1 "deadbeef" r;
  (* a fresh instance over the same directory serves the entry from disk *)
  let c2 = Server.Cache.create ~dir () in
  (match Server.Cache.lookup c2 "deadbeef" with
  | None -> Alcotest.fail "expected a disk hit"
  | Some r' ->
    Alcotest.(check string) "identical result"
      (J.to_string (Server.Codec.result_to_json r))
      (J.to_string (Server.Codec.result_to_json r')));
  let s = Server.Cache.stats c2 in
  Alcotest.(check int) "disk hit counted" 1 s.Server.Cache.disk_hits;
  (* promoted into memory: the second lookup does not re-read the file *)
  ignore (Server.Cache.lookup c2 "deadbeef");
  let s = Server.Cache.stats c2 in
  Alcotest.(check int) "promoted to memory" 1 s.Server.Cache.disk_hits;
  Alcotest.(check int) "both hits" 2 s.Server.Cache.hits

let test_cache_corruption () =
  let dir = temp_dir () in
  let r = C.Concrete (concrete "zlib") in
  let path = Filename.concat dir "k.solve" in
  let write lines =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  let read_lines () =
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []
  in
  let fresh () = Server.Cache.create ~dir () in
  Server.Cache.store (fresh ()) "k" r;
  let original = read_lines () in
  Alcotest.(check bool) "intact file hits" true
    (Server.Cache.lookup (fresh ()) "k" <> None);
  (* truncated: the digest footer is missing *)
  write (List.filteri (fun i _ -> i < 2) original);
  Alcotest.(check bool) "truncated file is a miss" true
    (Server.Cache.lookup (fresh ()) "k" = None);
  (* corrupt: payload byte flipped, digest no longer matches *)
  (match original with
  | [ header; key; body; footer ] ->
    let body = Bytes.of_string body in
    Bytes.set body (Bytes.length body / 2) '?';
    write [ header; key; Bytes.to_string body; footer ]
  | _ -> Alcotest.fail "unexpected cache file shape");
  Alcotest.(check bool) "corrupt file is a miss" true
    (Server.Cache.lookup (fresh ()) "k" = None);
  (* stale format version: internally consistent, still ignored *)
  (match original with
  | [ _; key; body; _ ] ->
    let header = "spack-solve-cache v0" in
    let digest = Specs.Spec.digest_strings [ header; key; body ] in
    write [ header; key; body; "digest\t" ^ digest ]
  | _ -> Alcotest.fail "unexpected cache file shape");
  Alcotest.(check bool) "stale format is a miss" true
    (Server.Cache.lookup (fresh ()) "k" = None)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let await_done sched ticket =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match Server.Scheduler.poll sched ticket with
    | `Done r -> r
    | `Pending ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "job never finished";
      Unix.sleepf 0.005;
      go ()
  in
  go ()

let test_scheduler_single_flight () =
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      let sched = Server.Scheduler.create ~pool ~max_pending:4 in
      let gate = Atomic.make false in
      let job ~cancel =
        ignore cancel;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        42
      in
      let t1 =
        match Server.Scheduler.submit sched ~key:"k" job with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "unexpected shed"
      in
      let t2 =
        match Server.Scheduler.submit sched ~key:"k" job with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "unexpected shed"
      in
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "one pool job" 1 s.Server.Scheduler.submitted;
      Alcotest.(check int) "second joined" 1 s.Server.Scheduler.deduped;
      Atomic.set gate true;
      (match (await_done sched t1, await_done sched t2) with
      | Ok a, Ok b ->
        Alcotest.(check int) "same result" a b;
        Alcotest.(check int) "it is 42" 42 a
      | _ -> Alcotest.fail "job failed");
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "completed once" 1 s.Server.Scheduler.completed;
      Alcotest.(check int) "nothing pending" 0 s.Server.Scheduler.pending)

(* A finished job notifies each of its waiters once, and only once [poll]
   already reports it done: the daemon's event loop relies on this to wake
   up for a completed solve. *)
let test_scheduler_notify () =
  Asp.Pool.with_pool ~domains:1 (fun pool ->
      let sched = Server.Scheduler.create ~pool ~max_pending:4 in
      let gate = Atomic.make false in
      let job ~cancel =
        ignore cancel;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        5
      in
      let notified = Atomic.make 0 and early = Atomic.make false in
      let tickets = ref [] in
      let notify () =
        List.iter
          (fun t ->
            match Server.Scheduler.poll sched t with
            | `Pending -> Atomic.set early true
            | `Done _ -> ())
          !tickets;
        Atomic.incr notified
      in
      let submit () =
        match Server.Scheduler.submit sched ~key:"k" ~notify job with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "unexpected shed"
      in
      let t1 = submit () in
      let t2 = submit () in
      tickets := [ t1; t2 ];
      Alcotest.(check int) "not before completion" 0 (Atomic.get notified);
      Atomic.set gate true;
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Atomic.get notified < 2 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Alcotest.(check int) "both waiters notified" 2 (Atomic.get notified);
      Alcotest.(check bool) "poll already done when notified" false (Atomic.get early);
      (match (await_done sched t1, await_done sched t2) with
      | Ok 5, Ok 5 -> ()
      | _ -> Alcotest.fail "job failed");
      Alcotest.(check int) "notified once each" 2 (Atomic.get notified))

(* A flight that landed before its result was collected is still shared:
   a daemon batch naming one request twice admits the second copy after
   the first solve may already have finished.  The late waiter is notified
   once, by [submit] itself. *)
let test_scheduler_landed_flight () =
  Asp.Pool.with_pool ~domains:1 (fun pool ->
      let sched = Server.Scheduler.create ~pool ~max_pending:4 in
      let landed = Atomic.make false and late = Atomic.make 0 in
      let submit notify =
        match Server.Scheduler.submit sched ~key:"k" ~notify (fun ~cancel:_ -> 7) with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "unexpected shed"
      in
      let t1 = submit (fun () -> Atomic.set landed true) in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (not (Atomic.get landed)) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      let t2 = submit (fun () -> Atomic.incr late) in
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "one pool job" 1 s.Server.Scheduler.submitted;
      Alcotest.(check int) "late copy joined" 1 s.Server.Scheduler.deduped;
      Alcotest.(check int) "late waiter notified once" 1 (Atomic.get late);
      (match (await_done sched t1, await_done sched t2) with
      | Ok 7, Ok 7 -> ()
      | _ -> Alcotest.fail "job failed");
      (* A landed flight nobody will collect is not shared: its result may
         be cut short by the abandoned request's deadline. *)
      let runs = Atomic.make 0 in
      let submit_j notify =
        match
          Server.Scheduler.submit sched ~key:"j" ~notify (fun ~cancel:_ ->
              Atomic.fetch_and_add runs 1)
        with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "unexpected shed"
      in
      Atomic.set landed false;
      let t3 = submit_j (fun () -> Atomic.set landed true) in
      let deadline = Unix.gettimeofday () +. 10.0 in
      while (not (Atomic.get landed)) && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Server.Scheduler.abandon sched t3;
      let t4 = submit_j ignore in
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "abandoned flight solved afresh" 3 s.Server.Scheduler.submitted;
      Alcotest.(check int) "abandoned flight not joined" 1 s.Server.Scheduler.deduped;
      Alcotest.(check int) "abandoned landing not cancelled" 0 s.Server.Scheduler.cancelled;
      match await_done sched t4 with
      | Ok 1 -> ()
      | _ -> Alcotest.fail "fresh job did not run")

let test_scheduler_overload () =
  Asp.Pool.with_pool ~domains:1 (fun pool ->
      let sched = Server.Scheduler.create ~pool ~max_pending:1 in
      let gate = Atomic.make false in
      let job ~cancel =
        ignore cancel;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        0
      in
      let t1 =
        match Server.Scheduler.submit sched ~key:"a" job with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "first job shed"
      in
      (match Server.Scheduler.submit sched ~key:"b" job with
      | `Overloaded -> ()
      | `Accepted _ -> Alcotest.fail "expected `Overloaded");
      (* joining the in-flight key adds no work, so it is never shed *)
      (match Server.Scheduler.submit sched ~key:"a" job with
      | `Accepted t -> Server.Scheduler.abandon sched t
      | `Overloaded -> Alcotest.fail "join was shed");
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "shed counted" 1 s.Server.Scheduler.shed;
      Atomic.set gate true;
      ignore (await_done sched t1))

let test_scheduler_cancel () =
  Asp.Pool.with_pool ~domains:1 (fun pool ->
      let sched = Server.Scheduler.create ~pool ~max_pending:2 in
      let job ~cancel =
        while not (Asp.Budget.is_cancelled cancel) do
          Unix.sleepf 0.002
        done;
        7
      in
      let t =
        match Server.Scheduler.submit sched ~key:"k" job with
        | `Accepted t -> t
        | `Overloaded -> Alcotest.fail "unexpected shed"
      in
      Server.Scheduler.abandon sched t;
      let s = Server.Scheduler.stats sched in
      Alcotest.(check int) "cancellation counted" 1 s.Server.Scheduler.cancelled;
      (* the job observes the token and terminates *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec drain () =
        let s = Server.Scheduler.stats sched in
        if s.Server.Scheduler.pending = 0 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "cancelled job never unwound"
        else begin
          Unix.sleepf 0.01;
          drain ()
        end
      in
      drain ())

(* A request must not join a flight that every earlier waiter abandoned:
   its token is cancelled, so it can only report [Cancelled].  A client
   whose connection a quarantined worker dropped resends its request while
   the abandoned solve may still be unwinding. *)
let test_scheduler_retired_flight () =
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      let sched = Server.Scheduler.create ~pool ~max_pending:4 in
      let gate = Atomic.make false in
      Fun.protect
        ~finally:(fun () -> Atomic.set gate true)
        (fun () ->
          let submit job =
            match Server.Scheduler.submit sched ~key:"k" job with
            | `Accepted t -> t
            | `Overloaded -> Alcotest.fail "unexpected shed"
          in
          (* the first flight keeps running after its cancellation until
             the gate opens *)
          let t1 =
            submit (fun ~cancel ->
                while not (Asp.Budget.is_cancelled cancel && Atomic.get gate) do
                  Unix.sleepf 0.002
                done;
                1)
          in
          Server.Scheduler.abandon sched t1;
          let t2 = submit (fun ~cancel:_ -> 2) in
          let s = Server.Scheduler.stats sched in
          Alcotest.(check int) "a fresh flight" 2 s.Server.Scheduler.submitted;
          Alcotest.(check int) "nothing joined" 0 s.Server.Scheduler.deduped;
          (match await_done sched t2 with
          | Ok 2 -> ()
          | _ -> Alcotest.fail "expected the fresh flight's result");
          Alcotest.(check int) "the retired flight still pending" 1
            (Server.Scheduler.stats sched).Server.Scheduler.pending;
          Atomic.set gate true;
          let deadline = Unix.gettimeofday () +. 10.0 in
          while
            (Server.Scheduler.stats sched).Server.Scheduler.pending > 0
            && Unix.gettimeofday () < deadline
          do
            Unix.sleepf 0.01
          done;
          let s = Server.Scheduler.stats sched in
          Alcotest.(check int) "both flights completed" 2 s.Server.Scheduler.completed;
          Alcotest.(check int) "nothing pending" 0 s.Server.Scheduler.pending))

(* ------------------------------------------------------------------ *)
(* Daemon end-to-end                                                   *)
(* ------------------------------------------------------------------ *)

let with_daemon ?(repo = repo) ?(workers = 2) ?(jobs = 2) ?(max_pending = 8)
    ?timeout ?(client_rate = 0.) ?(client_burst = 8.) ?db_path ?journal_path
    ?(cache = Server.Cache.create ()) f =
  let sock =
    Filename.concat (Filename.get_temp_dir_name ()) ("spackd-" ^ uid () ^ ".sock")
  in
  let cfg =
    {
      Server.Daemon.socket_path = sock;
      repo;
      solver = Asp.Config.default;
      db = Pkg.Database.create ();
      db_path;
      journal_path;
      journal_max_bytes = 0;
      follow = None;
      repl_ack = Server.Replica.Ack_async;
      cache;
      workers;
      jobs;
      max_pending;
      timeout;
      client_rate;
      client_burst;
      drain_grace = 5.0;
      wedge_timeout = 10.0;
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

let client sock =
  match Server.Client.connect sock with
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

let test_daemon_cold_warm () =
  with_daemon (fun sock ->
      let c = client sock in
      let cold =
        match request c (Server.Protocol.solve "zlib") with
        | Server.Protocol.Result { cache = Server.Protocol.Miss; result } -> result
        | Server.Protocol.Result { cache = Server.Protocol.Hit; _ } ->
          Alcotest.fail "cold solve reported a hit"
        | _ -> Alcotest.fail "unexpected reply"
      in
      let warm =
        match request c (Server.Protocol.solve "zlib") with
        | Server.Protocol.Result { cache = Server.Protocol.Hit; result } -> result
        | Server.Protocol.Result { cache = Server.Protocol.Miss; _ } ->
          Alcotest.fail "warm solve missed the cache"
        | _ -> Alcotest.fail "unexpected reply"
      in
      (match (cold, warm) with
      | C.Concrete a, C.Concrete b ->
        Alcotest.(check (list (pair int int))) "identical cost vector" a.C.stats.Asp.Solve.costs
          b.C.stats.Asp.Solve.costs;
        Alcotest.(check bool) "cold verified" true a.C.stats.Asp.Solve.verified;
        Alcotest.(check bool) "warm verified intact" true b.C.stats.Asp.Solve.verified;
        Alcotest.(check string) "same DAG"
          (Specs.Spec.node_hash a.C.spec a.C.spec.Specs.Spec.root)
          (Specs.Spec.node_hash b.C.spec b.C.spec.Specs.Spec.root)
      | _ -> Alcotest.fail "expected concrete results");
      Alcotest.(check bool) "stats count the hit" true (stats_int c "cache" "hits" >= 1);
      Alcotest.(check int) "one solve ran" 1 (stats_int c "scheduler" "submitted");
      Server.Client.close c)

let test_daemon_solve_many_single_flight () =
  with_daemon (fun sock ->
      let c = client sock in
      (match
         request c (Server.Protocol.solve_many [ "libiconv"; "libiconv"; "libiconv" ])
       with
      | Server.Protocol.Results entries ->
        Alcotest.(check int) "one result per input" 3 (List.length entries);
        let costs = function
          | _, C.Concrete s -> s.C.stats.Asp.Solve.costs
          | _ -> Alcotest.fail "expected concrete"
        in
        List.iter
          (fun e ->
            Alcotest.(check (list (pair int int)))
              "identical fan-out" (costs (List.hd entries)) (costs e))
          entries
      | _ -> Alcotest.fail "unexpected reply");
      (* the duplicates joined the first request in flight *)
      Alcotest.(check int) "one solve ran" 1 (stats_int c "scheduler" "submitted");
      Alcotest.(check int) "two joined" 2 (stats_int c "scheduler" "deduped");
      Server.Client.close c)

let test_daemon_overload () =
  with_daemon ~jobs:1 ~max_pending:1 (fun sock ->
      let c = client sock in
      (* two distinct solves in one batch against a capacity of one: the
         second is shed, and the whole request reports Overloaded *)
      (match request c (Server.Protocol.solve_many [ "zlib"; "libiconv" ]) with
      | Server.Protocol.Error { kind = Server.Protocol.Overloaded; _ } -> ()
      | _ -> Alcotest.fail "expected a typed Overloaded reply");
      Alcotest.(check int) "shed counted" 1 (stats_int c "scheduler" "shed");
      (* the daemon keeps answering: the shed batch abandoned its first
         slot, so capacity frees again once the solver unwinds *)
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec retry () =
        match request c (Server.Protocol.solve "zlib") with
        | Server.Protocol.Result _ -> ()
        | Server.Protocol.Error { kind = Server.Protocol.Overloaded; _ } ->
          if Unix.gettimeofday () > deadline then
            Alcotest.fail "server never recovered from overload"
          else begin
            Unix.sleepf 0.05;
            retry ()
          end
        | _ -> Alcotest.fail "unexpected reply"
      in
      retry ();
      Server.Client.close c)

let test_daemon_disconnect_cancels () =
  with_daemon ~repo:(Lazy.force slow_repo) ~jobs:1 (fun sock ->
      (* fire a slow solve and hang up without reading the reply *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX sock);
      let line =
        J.to_string
          (Server.Protocol.request_to_json (Server.Protocol.solve "app-000"))
        ^ "\n"
      in
      ignore (Unix.write_substring fd line 0 (String.length line));
      Unix.sleepf 0.1;
      Unix.close fd;
      let c = client sock in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec wait () =
        if stats_int c "scheduler" "cancelled" >= 1 then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.fail "disconnect did not cancel the solve"
        else begin
          Unix.sleepf 0.05;
          wait ()
        end
      in
      wait ();
      Server.Client.close c)

let test_daemon_install_invalidates () =
  with_daemon (fun sock ->
      let c = client sock in
      (match request c (Server.Protocol.solve "zlib") with
      | Server.Protocol.Result { cache = Server.Protocol.Miss; _ } -> ()
      | _ -> Alcotest.fail "unexpected first reply");
      (match request c (Server.Protocol.install "zlib") with
      | Server.Protocol.Installed { hashes; total; _ } ->
        Alcotest.(check bool) "records added" true (total >= 1);
        Alcotest.(check bool) "zlib recorded" true
          (List.exists (fun (p, _) -> p = "zlib") hashes)
      | _ -> Alcotest.fail "expected an install reply");
      (* the database fingerprint changed, so the old cache entry is no
         longer addressed — and the fresh solve reuses the installed DAG *)
      (match request c (Server.Protocol.solve "zlib") with
      | Server.Protocol.Result { cache = Server.Protocol.Miss; result = C.Concrete s }
        ->
        Alcotest.(check bool) "reuses the installed package" true (s.C.reused <> [])
      | Server.Protocol.Result { cache = Server.Protocol.Hit; _ } ->
        Alcotest.fail "stale cache entry served after install"
      | _ -> Alcotest.fail "unexpected reply");
      Alcotest.(check bool) "db grew" true (stats_int c "server" "db_size" >= 1);
      Server.Client.close c)

(* A cache entry persisted by a daemon whose phase timings still split the
   ground time into base build and extension: the file below is byte for
   byte what such a daemon wrote for [zlib] on an empty database.  Its
   [v1] header is a stale format since replies carry every span of the
   round: it is a miss, from the cache and by a daemon, which solves the
   request afresh.  Its body, which carries no steps, does not decode. *)
let legacy_entry =
  [
    "spack-solve-cache v1";
    "fec5dffb1afff0b8d554e62e839f7028";
    {|{"outcome":"concrete","spec":{"root":"zlib","nodes":[{"name":"zlib","version":"1.2.12","variants":[["pic","true"],["shared","true"]],"compiler":"gcc","compiler_version":"11.2.0","flags":[],"os":"rhel8","target":"icelake","depends":[]}]},"reused":[],"built":["zlib"],"costs":[[15,0],[14,0],[13,0],[11,0],[6,0],[3,0],[1,0]],"quality":"optimal","phases":{"setup":0.0004119873046875,"load":0.0,"ground":0.00545501708984375,"ground_base":0.0052599906921386719,"ground_extend":9.918212890625e-05,"solve":0.00051403045654296875},"n_facts":102,"n_possible":1,"ground_stats":[172,146,0],"sat_stats":[0,46,261,0,0,16],"verified":true}|};
    "digest\t21dc6345a83de8dd1992c69ecc7af0ad";
  ]

let write_entry dir key lines =
  let oc = open_out (Filename.concat dir (key ^ ".solve")) in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

let test_cache_legacy_phases () =
  let key = List.nth legacy_entry 1 and body = List.nth legacy_entry 2 in
  Alcotest.(check bool) "old body does not decode" true
    (Result.is_error (Result.bind (J.of_string body) Server.Codec.result_of_json));
  (match J.member "phases" (Server.Codec.result_to_json (solve "zlib")) with
  | Some (J.Obj fields) ->
    Alcotest.(check (list string)) "fields written"
      [ "setup"; "load"; "ground"; "solve"; "seed"; "close"; "emit"; "translate";
        "search"; "optimize"; "verify" ]
      (List.map fst fields)
  | _ -> Alcotest.fail "no phases object");
  let dir = temp_dir () in
  write_entry dir key legacy_entry;
  let cache = Server.Cache.create ~dir () in
  Alcotest.(check bool) "stale format is a miss" true (Server.Cache.lookup cache key = None);
  Alcotest.(check int) "no disk hit" 0 (Server.Cache.stats cache).Server.Cache.disk_hits;
  (* the same file under the key today's daemon derives for the request *)
  let dir = temp_dir () in
  let key =
    C.request_key ~config:Asp.Config.default
      (C.request ~installed:(Pkg.Database.create ()) ~repo
         [ Specs.Spec_parser.parse "zlib" ])
  in
  let header = List.hd legacy_entry in
  write_entry dir key
    [ header; key; body; "digest\t" ^ Specs.Spec.digest_strings [ header; key; body ] ];
  with_daemon ~cache:(Server.Cache.create ~dir ()) (fun sock ->
      let c = client sock in
      (match request c (Server.Protocol.solve "zlib") with
      | Server.Protocol.Result { cache = Server.Protocol.Miss; result = C.Concrete _ } -> ()
      | _ -> Alcotest.fail "expected the stale entry solved afresh as a miss");
      Server.Client.close c)

let test_daemon_bad_requests () =
  with_daemon (fun sock ->
      let c = client sock in
      (match request c (Server.Protocol.solve "zlib@") with
      | Server.Protocol.Error { kind = Server.Protocol.Bad_request; _ } -> ()
      | _ -> Alcotest.fail "expected Bad_request for a malformed spec");
      (match request c (Server.Protocol.solve "no-such-package") with
      | Server.Protocol.Error { kind = Server.Protocol.Unknown_package p; _ } ->
        Alcotest.(check string) "names the package" "no-such-package" p
      | _ -> Alcotest.fail "expected Unknown_package");
      (* the connection survives bad requests *)
      (match request c (Server.Protocol.solve "zlib") with
      | Server.Protocol.Result _ -> ()
      | _ -> Alcotest.fail "connection unusable after errors");
      Server.Client.close c)

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "codec",
        [
          Alcotest.test_case "concrete" `Quick test_codec_concrete;
          Alcotest.test_case "unsatisfiable" `Quick test_codec_unsat;
          Alcotest.test_case "interrupted" `Quick test_codec_interrupted;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "disk layer" `Quick test_cache_disk;
          Alcotest.test_case "corruption" `Quick test_cache_corruption;
          Alcotest.test_case "entry with the old ground split" `Quick test_cache_legacy_phases;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "single flight" `Quick test_scheduler_single_flight;
          Alcotest.test_case "completion notifies waiters" `Quick test_scheduler_notify;
          Alcotest.test_case "landed flight shared" `Quick test_scheduler_landed_flight;
          Alcotest.test_case "overload" `Quick test_scheduler_overload;
          Alcotest.test_case "cancellation" `Quick test_scheduler_cancel;
          Alcotest.test_case "retired flight not joined" `Quick test_scheduler_retired_flight;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "cold and warm solves" `Quick test_daemon_cold_warm;
          Alcotest.test_case "batch single flight" `Quick
            test_daemon_solve_many_single_flight;
          Alcotest.test_case "overload shedding" `Quick test_daemon_overload;
          Alcotest.test_case "disconnect cancels" `Quick
            test_daemon_disconnect_cancels;
          Alcotest.test_case "install invalidates" `Quick
            test_daemon_install_invalidates;
          Alcotest.test_case "bad requests" `Quick test_daemon_bad_requests;
        ] );
    ]
