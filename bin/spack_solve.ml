(* spack_solve: concretize specs against the bundled repository, in the
   style of `spack spec` / `spack solve`. *)

open Cmdliner

let pick_repo = function
  | "core" -> Pkg.Repo_core.repo
  | s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled n)
    | _ ->
      Printf.eprintf "unknown repo %S (use 'core' or a package count)\n" s;
      exit 2)

(* Render one concretization result; returns the exit code. *)
let print_result repo show_stats validate spec_text result =
  let phase_stats phases n_facts n_possible =
    if show_stats then begin
      Printf.printf "Facts: %d, possible dependencies: %d\n" n_facts n_possible;
      print_endline (Asp.Phases.to_line phases)
    end
  in
  match result with
  | Concretize.Concretizer.Interrupted { info; phases; n_facts; n_possible } ->
    Format.printf "INTERRUPTED: %a@." Asp.Budget.pp_info info;
    phase_stats phases n_facts n_possible;
    3
  | Concretize.Concretizer.Unsatisfiable { phases; n_facts; n_possible; reasons } ->
    Printf.printf "UNSATISFIABLE: no valid configuration of %s exists\n" spec_text;
    List.iter (Printf.printf "  possible cause: %s\n") reasons;
    phase_stats phases n_facts n_possible;
    1
  | Concretize.Concretizer.Concrete s ->
        let st = s.Concretize.Concretizer.stats in
        Format.printf "%a@." Specs.Spec.pp_concrete s.Concretize.Concretizer.spec;
        (match st.Asp.Solve.quality with
        | `Optimal -> ()
        | `Degraded _ ->
          print_endline
            "note: budget expired mid-optimization; this configuration is \
             valid but may be suboptimal");
        if validate then begin
          match Concretize.Validate.check ~repo s.Concretize.Concretizer.spec with
          | [] -> print_endline "validated: ok"
          | vs ->
            List.iter
              (fun v -> Format.printf "VIOLATION %a@." Concretize.Validate.pp_violation v)
              vs
        end;
        if s.Concretize.Concretizer.reused <> [] then begin
          Printf.printf "\n%d installed package(s) reused, %d to build\n"
            (List.length s.Concretize.Concretizer.reused)
            (List.length s.Concretize.Concretizer.built);
          List.iter
            (fun (p, h) -> Printf.printf "  [%s]  %s\n" (String.sub h 0 8) p)
            s.Concretize.Concretizer.reused
        end;
        if st.Asp.Solve.verified then
          print_endline "verified: independent model check passed";
        if show_stats then begin
          Printf.printf "Facts: %d, possible dependencies: %d, logic program: %d lines\n"
            s.Concretize.Concretizer.n_facts s.Concretize.Concretizer.n_possible
            Concretize.Logic_program.line_count;
          Asp.Solve.print_stats ~vector:true st
        end;
        0

(* Run [f] (a solve and its rendering); a solver error prints and exits 2. *)
let guarded f =
  match f () with
  | exception Concretize.Facts.Unknown_package p ->
    Printf.eprintf "Error: unknown package %s\n" p;
    2
  | exception Asp.Solver_error.Error e ->
    Format.eprintf "Error: %a@." Asp.Solver_error.pp e;
    2
  | rc -> rc

let solve_one repo config installed cancel attempts show_stats greedy validate
    explain ?pool ?racers spec_text =
  if greedy then begin
    match Concretize.Greedy.concretize_spec ~repo spec_text with
    | Concretize.Greedy.Ok c ->
      Format.printf "%a@." Specs.Spec.pp_concrete c;
      0
    | Concretize.Greedy.Error e ->
      Printf.eprintf "Error: %s\n" e.Concretize.Greedy.message;
      (match e.Concretize.Greedy.hint with
      | Some h -> Printf.eprintf "Hint: %s\n" h
      | None -> ());
      1
  end
  else
    match Specs.Spec_parser.parse spec_text with
    | exception Specs.Spec_parser.Error e ->
      Printf.eprintf "Error: invalid spec: %s\n"
        (Specs.Spec_parser.error_to_string e);
      2
    | root ->
      guarded (fun () ->
          print_result repo show_stats validate spec_text
            (Concretize.Concretizer.solve ~attempts ~config ?cancel ?pool ?racers
               ~explain
               (Concretize.Concretizer.request ?installed ~repo [ root ])))

(* A spec of the command line; an invalid one prints and exits 2. *)
let parse_root s =
  match Specs.Spec_parser.parse s with
  | root -> root
  | exception Specs.Spec_parser.Error e ->
    Printf.eprintf "Error: invalid spec: %s\n" (Specs.Spec_parser.error_to_string e);
    exit 2

(* --jobs N with several specs: concretize the batch across the pool, then
   print in input order. *)
let solve_batch repo config installed cancel attempts show_stats validate
    explain pool specs =
  let requests =
    List.map
      (fun s -> Concretize.Concretizer.request ?installed ~repo [ parse_root s ])
      specs
  in
  guarded (fun () ->
      List.fold_left2
        (fun rc spec result ->
          max rc (print_result repo show_stats validate spec result))
        0 specs
        (Concretize.Concretizer.solve_many ~pool ~config ~attempts ?cancel
           ~explain requests))

let run_multishot repo config installed ?pool ?racers specs =
  let ms =
    Concretize.Multishot.solve_stack ~config ?pool ?racers
      (Concretize.Concretizer.request ?installed ~repo (List.map parse_root specs))
  in
  List.iter
    (fun (sh : Concretize.Multishot.shot) ->
      match sh.Concretize.Multishot.shot_result with
      | Concretize.Concretizer.Concrete s ->
        Printf.printf "%-24s -> %s  (%d reused, %d built)
"
          sh.Concretize.Multishot.shot_root
          (Specs.Spec.concrete_node_to_string
             (Specs.Spec.concrete_root s.Concretize.Concretizer.spec))
          (List.length s.Concretize.Concretizer.reused)
          (List.length s.Concretize.Concretizer.built)
      | Concretize.Concretizer.Unsatisfiable _ ->
        Printf.printf "%-24s -> UNSATISFIABLE
" sh.Concretize.Multishot.shot_root
      | Concretize.Concretizer.Interrupted { info; _ } ->
        Format.printf "%-24s -> INTERRUPTED (%a)@."
          sh.Concretize.Multishot.shot_root Asp.Budget.pp_info info)
    ms.Concretize.Multishot.shots;
  Printf.printf "
%d specs installed in %.2fs" (Pkg.Database.size ms.Concretize.Multishot.db)
    ms.Concretize.Multishot.total_time;
  (match ms.Concretize.Multishot.distinct_configs with
  | [] -> print_endline "; every package has a single configuration"
  | dups ->
    Printf.printf "; %d package(s) duplicated: %s
" (List.length dups)
      (String.concat ", " (List.map fst dups)));
  exit 0

(* --connect: be a client of a running spack_serve instead of solving
   locally.  Results print through the same renderer, prefixed with the
   daemon's cache verdict.  A comma-separated socket list is a failover
   chain (primary first, standbys after): transient failures and
   read-only refusals rotate to the next endpoint. *)
let run_client socks remote_stats remote_shutdown remote_install
    remote_promote show_stats validate repo_name specs =
  let endpoints =
    String.split_on_char ',' socks |> List.filter (fun s -> s <> "")
  in
  match Server.Client.connect_many endpoints with
  | Error m ->
    Printf.eprintf "Error: cannot connect: %s\n" m;
    2
  | Ok client ->
    let one rc spec_text =
      let req =
        if remote_install then Server.Protocol.install spec_text
        else Server.Protocol.solve spec_text
      in
      match Server.Client.call client req with
      | Error m ->
        Printf.eprintf "Error: %s\n" m;
        max rc 2
      | Ok (Server.Protocol.Installed { root; hashes; total }) ->
        Printf.printf "installed %s: %d new record(s), %d total\n" root
          (List.length hashes) total;
        rc
      | Ok (Server.Protocol.Result { cache; result }) ->
        Printf.printf "cache %s: %s\n"
          (Server.Protocol.cache_status_name cache)
          spec_text;
        max rc
          (print_result (pick_repo repo_name) show_stats validate spec_text
             result)
      | Ok (Server.Protocol.Error { kind; message }) ->
        (match kind with
        | Server.Protocol.Overloaded ->
          Printf.eprintf "Error: server overloaded: %s\n" message
        | _ -> Printf.eprintf "Error: %s\n" message);
        max rc 2
      | Ok _ ->
        Printf.eprintf "Error: unexpected reply\n";
        max rc 2
    in
    let rc =
      if remote_stats then begin
        match Server.Client.request client Server.Protocol.Stats with
        | Ok (Server.Protocol.Stats_reply j) ->
          print_endline (Server.Json.to_string j);
          0
        | Ok _ ->
          Printf.eprintf "Error: unexpected reply\n";
          2
        | Error m ->
          Printf.eprintf "Error: %s\n" m;
          2
      end
      else if remote_promote then begin
        match Server.Client.request client Server.Protocol.Promote with
        | Ok (Server.Protocol.Promoted { epoch }) ->
          Printf.printf "promoted: now primary in epoch %d\n" epoch;
          0
        | Ok (Server.Protocol.Error { message; _ }) ->
          Printf.eprintf "Error: %s\n" message;
          2
        | Ok _ ->
          Printf.eprintf "Error: unexpected reply\n";
          2
        | Error m ->
          Printf.eprintf "Error: %s\n" m;
          2
      end
      else if remote_shutdown then begin
        match Server.Client.request client Server.Protocol.Shutdown with
        | Ok Server.Protocol.Bye ->
          print_endline "server shut down";
          0
        | Ok _ ->
          Printf.eprintf "Error: unexpected reply\n";
          2
        | Error m ->
          Printf.eprintf "Error: %s\n" m;
          2
      end
      else if specs = [] then begin
        Printf.eprintf "Error: no specs given\n";
        2
      end
      else List.fold_left one 0 specs
    in
    Server.Client.close client;
    rc

let run repo_name preset specs show_stats greedy multishot validate reuse_roots
    cache_size timeout retries jobs explain no_verify connect remote_stats
    remote_shutdown remote_install remote_promote =
  if connect <> "" then begin
    (* the client layer ignores SIGPIPE (it needs EPIPE as an exception),
       so a reader that hung up — `spack_solve ... | head` — surfaces here
       as Sys_error instead of a silent SIGPIPE death; exit like one.  The
       buffered tail is flushed *before* exit: once a flush has failed the
       channel is poisoned and the at_exit flushes would raise out of
       [exit], so that case skips them with [_exit]. *)
    let rc =
      try
        run_client connect remote_stats remote_shutdown remote_install
          remote_promote show_stats validate repo_name specs
      with Sys_error m when m = "Broken pipe" -> 141
    in
    match flush stdout with
    | () -> exit rc
    | exception Sys_error _ -> Unix._exit (if rc = 0 then 141 else rc)
  end;
  if specs = [] then begin
    Printf.eprintf "Error: no specs given\n";
    exit 2
  end;
  let repo = pick_repo repo_name in
  let preset =
    match Asp.Config.preset_of_name preset with
    | Some p -> p
    | None ->
      Printf.eprintf "unknown preset %s\n" preset;
      exit 2
  in
  let limits =
    {
      Asp.Budget.no_limits with
      Asp.Budget.wall = (if timeout > 0. then Some timeout else None);
    }
  in
  let config = Asp.Config.make ~preset ~limits ~verify:(not no_verify) () in
  (* first ^C cancels the solve cooperatively; a second one kills *)
  let tok = Asp.Budget.token () in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         if Asp.Budget.is_cancelled tok then exit 130;
         Asp.Budget.cancel tok));
  let installed =
    match reuse_roots with
    | [] -> None
    | roots ->
      let db = Pkg.Buildcache_gen.quick ~repo ~roots cache_size in
      Printf.printf "Populated a synthetic buildcache with %d installed specs\n\n"
        (Pkg.Database.size db);
      Some db
  in
  let with_jobs_pool f =
    if jobs <= 1 then f None
    else
      Asp.Pool.with_pool ~domains:jobs (fun pool -> f (Some pool))
  in
  with_jobs_pool (fun pool ->
      if multishot then
        run_multishot repo config installed ?pool ?racers:(if jobs > 1 then Some jobs else None) specs;
      let rc =
        match (pool, specs) with
        | Some p, _ :: _ :: _ when not greedy ->
          (* several specs: parallelize across the batch *)
          solve_batch repo config installed (Some tok) (retries + 1) show_stats
            validate explain p specs
        | _ ->
          (* single spec (or greedy): portfolio-race each solve if jobs > 1 *)
          List.fold_left
            (fun rc spec ->
              max rc
                (solve_one repo config installed (Some tok) (retries + 1)
                   show_stats greedy validate explain ?pool
                   ?racers:(if jobs > 1 then Some jobs else None) spec))
            0 specs
      in
      exit rc)

let specs =
  Arg.(value & pos_all string [] & info [] ~docv:"SPEC" ~doc:"Abstract specs to concretize.")

let connect =
  Arg.(value & opt string "" & info [ "connect" ] ~docv:"SOCKS"
         ~doc:"Solve through a running spack_serve daemon instead of locally; each result is prefixed with the daemon's cache verdict (hit or miss). A comma-separated socket list is a failover chain (primary first, hot standbys after): requests rotate to the next endpoint when the active one dies or answers read-only.")

let remote_stats =
  Arg.(value & flag & info [ "remote-stats" ]
         ~doc:"With --connect: print the daemon's cache/scheduler/server counters as JSON and exit.")

let remote_shutdown =
  Arg.(value & flag & info [ "remote-shutdown" ]
         ~doc:"With --connect: ask the daemon to shut down and exit.")

let remote_install =
  Arg.(value & flag & info [ "remote-install" ]
         ~doc:"With --connect: concretize each spec and record the resulting DAG in the daemon's installed database (write-ahead journaled).")

let remote_promote =
  Arg.(value & flag & info [ "remote-promote" ]
         ~doc:"With --connect: promote a hot-standby follower to primary (it stops following, bumps the replication epoch to fence the old primary, and starts accepting installs) and exit.")

let repo_name =
  Arg.(value & opt string "core" & info [ "repo" ] ~docv:"REPO"
         ~doc:"Repository: 'core' (bundled HPC packages) or an integer for a synthetic repository of roughly that many packages.")

let preset =
  Arg.(value & opt string "tweety" & info [ "preset" ] ~docv:"PRESET"
         ~doc:"clingo-style solver preset (tweety|trendy|handy|frumpy|jumpy|crafty).")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print solver phases and statistics.")

let greedy =
  Arg.(value & flag & info [ "greedy" ] ~doc:"Use the original greedy concretizer instead of the ASP solver.")

let multishot =
  Arg.(value & flag & info [ "multishot" ]
         ~doc:"Concretize the specs one at a time, reusing earlier results (divide and conquer).")

let validate =
  Arg.(value & flag & info [ "validate" ]
         ~doc:"Audit the result against the repository (the validity checklist of Section III-C.1).")

let reuse_roots =
  Arg.(value & opt (list string) [] & info [ "reuse" ] ~docv:"ROOTS"
         ~doc:"Enable reuse against a synthetic buildcache populated from these comma-separated root packages.")

let cache_size =
  Arg.(value & opt int 500 & info [ "cache-size" ] ~docv:"N"
         ~doc:"Approximate number of installed specs in the synthetic buildcache.")

let timeout =
  Arg.(value & opt float 0. & info [ "timeout" ] ~docv:"SECS"
         ~doc:"Wall-clock budget per solve in seconds (0 = none). An expired budget yields a valid but possibly suboptimal spec, or INTERRUPTED when no model was found in time.")

let retries =
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N"
         ~doc:"On an interrupted solve, retry up to N times with doubled limits and a reseeded search.")

let jobs =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Solve on N domains: a single spec races N diverse solver configurations (portfolio), several specs are concretized in parallel across the batch, and multishot races each shot's solve.")

let explain =
  Arg.(value & flag & info [ "explain" ]
         ~doc:"On an unsatisfiable solve, extract a provenance-mapped minimal unsat core naming the conflicting package recipes and request constraints (slower than the default syntactic diagnosis).")

let no_verify =
  Arg.(value & flag & info [ "no-verify" ]
         ~doc:"Skip the independent re-verification of the winning model (stable-model, support and cost checks run by default).")

let cmd =
  let doc = "concretize package specs with the ASP-based dependency solver" in
  let man =
    [
      `S Manpage.s_examples;
      `P "Concretize HDF5 with full statistics:";
      `Pre "  spack_solve --stats hdf5";
      `P "The paper's conditional-dependency example (Section V-B.1):";
      `Pre "  spack_solve 'hpctoolkit ^mpich'\n  spack_solve --greedy 'hpctoolkit ^mpich'";
      `P "Reuse against a synthetic buildcache (Section VI):";
      `Pre "  spack_solve --reuse hdf5,cmake --stats hdf5";
    ]
  in
  Cmd.v (Cmd.info "spack_solve" ~doc ~man)
    Term.(
      const run $ repo_name $ preset $ specs $ stats $ greedy $ multishot $ validate
      $ reuse_roots $ cache_size $ timeout $ retries $ jobs $ explain
      $ no_verify $ connect $ remote_stats $ remote_shutdown $ remote_install
      $ remote_promote)

(* Safety net for the hung-up-reader case: once a flush has failed with
   EPIPE the channel buffer is poisoned, so the at_exit flushes (stdlib's
   and Format's) would re-raise out of [exit] — skip them with [_exit]. *)
let () =
  let rc =
    match Cmd.eval cmd with
    | rc -> rc
    | exception Sys_error m when m = "Broken pipe" -> 141
  in
  match flush stdout with
  | () -> exit rc
  | exception Sys_error _ -> Unix._exit (if rc = 0 then 141 else rc)
