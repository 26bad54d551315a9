(* Differential tests for the ground-program substrate: every request in a
   randomized stream (with interleaved installs) is solved twice — once
   incrementally through a shared substrate (frozen base + extension,
   install rebase) and once from scratch — and the two answers must agree
   exactly: same cost vector, same [verified] flag, same concrete spec. *)

open Concretize

let repo = Pkg.Repo_core.repo

let render = function
  | Concretizer.Concrete s ->
    Format.asprintf "concrete %a | costs %s | verified %b"
      Specs.Spec.pp_concrete s.Concretizer.spec
      (String.concat ","
         (List.map
            (fun (p, v) -> Printf.sprintf "%d@%d" v p)
            s.Concretizer.costs))
      s.Concretizer.verified
  | Concretizer.Unsatisfiable _ -> "unsat"
  | Concretizer.Interrupted _ -> "interrupted"

let solve_both ?installed ~substrate spec =
  let roots = [ Specs.Spec_parser.parse spec ] in
  let inc = Concretizer.solve ?installed ~substrate ~repo roots in
  let scr = Concretizer.solve ?installed ~repo roots in
  Alcotest.(check string) ("differential: " ^ spec) (render scr) (render inc);
  inc

(* The request pool deliberately repeats name skeletons under different
   constraints: every group shares one substrate base, so the stream
   exercises the warm extension path, not just base builds. *)
let requests =
  [|
    "hdf5";
    "hdf5+szip";
    "hdf5@1.10:";
    "hdf5~mpi";
    "zlib";
    "zlib@1.2:";
    "cmake";
    "fftw";
    "fftw precision=float";
    "gromacs";
  |]

let test_differential_stream () =
  let substrate = Substrate.create () in
  let db = Pkg.Database.create () in
  let rng = Random.State.make [| 0x5eed |] in
  let installed_something = ref false in
  for step = 1 to 24 do
    let spec = requests.(Random.State.int rng (Array.length requests)) in
    let installed = if Pkg.Database.is_empty db then None else Some db in
    let r = solve_both ?installed ~substrate spec in
    (* interleave installs: record some answers into the DB and push the
       delta through the substrate instead of discarding it *)
    match r with
    | Concretizer.Concrete s when step mod 7 = 0 ->
      Pkg.Database.add_concrete db s.Concretizer.spec;
      Substrate.on_install substrate ~repo ~db;
      installed_something := true
    | _ -> ()
  done;
  Alcotest.(check bool) "installs happened" true !installed_something;
  let c = Substrate.counters substrate in
  Alcotest.(check bool) "bases were reused"
    true
    (c.Substrate.extensions > c.Substrate.base_builds);
  Alcotest.(check bool) "installs reached the substrate" true
    (c.Substrate.delta_applies + c.Substrate.drops > 0);
  Alcotest.(check int) "no fallbacks" 0 c.Substrate.fallbacks

let test_extension_timings () =
  let substrate = Substrate.create () in
  let phases r =
    match r with
    | Concretizer.Concrete s -> s.Concretizer.phases
    | _ -> Alcotest.fail "expected a concrete result"
  in
  let cold =
    phases (Concretizer.solve ~substrate ~repo [ Specs.Spec_parser.parse "hdf5" ])
  in
  Alcotest.(check bool) "cold solve builds a base" true
    (cold.Asp.Phases.ground_base_time > 0.);
  let warm =
    phases
      (Concretizer.solve ~substrate ~repo
         [ Specs.Spec_parser.parse "hdf5+szip" ])
  in
  Alcotest.(check bool) "warm solve reuses the base" true
    (warm.Asp.Phases.ground_base_time = 0.
    && warm.Asp.Phases.ground_extend_time > 0.);
  let c = Substrate.counters substrate in
  Alcotest.(check int) "one base" 1 c.Substrate.base_builds;
  Alcotest.(check int) "two extensions" 2 c.Substrate.extensions

(* Portfolio racers must share the one grounded extended program: the
   grounding happens before the race, so a racers=2 solve extends the
   substrate exactly once (and agrees with the sequential answer). *)
let test_portfolio_shares_extension () =
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      let substrate = Substrate.create () in
      let roots = [ Specs.Spec_parser.parse "hdf5+szip" ] in
      let seq = Concretizer.solve ~repo roots in
      let before = Substrate.counters substrate in
      let raced =
        Concretizer.solve ~pool ~racers:2 ~substrate ~repo roots
      in
      let after = Substrate.counters substrate in
      Alcotest.(check string) "portfolio agrees with sequential" (render seq)
        (render raced);
      Alcotest.(check int) "exactly one extension for the whole race" 1
        (after.Substrate.extensions - before.Substrate.extensions))

(* Batch solving across a pool shares the substrate registry between
   domains: one base, one extension per unique request. *)
let test_batch_shares_substrate () =
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      let substrate = Substrate.create () in
      (* four jobs, three unique — solve_many dedupes the repeat before
         dispatch, so the substrate sees three extensions *)
      let jobs =
        List.map
          (fun s -> [ Specs.Spec_parser.parse s ])
          [ "hdf5"; "hdf5+szip"; "hdf5@1.10:"; "hdf5" ]
      in
      let rs = Concretizer.solve_many ~pool ~substrate ~repo jobs in
      List.iter
        (function
          | Concretizer.Concrete _ -> ()
          | _ -> Alcotest.fail "batch job failed")
        rs;
      let c = Substrate.counters substrate in
      Alcotest.(check int) "one base for the skeleton" 1 c.Substrate.base_builds;
      Alcotest.(check int) "every unique request extended it" 3 c.Substrate.extensions)

(* Narrowed install invalidation: the solve-cache key digests only the
   reuse-visible slice of the DB, so installing a package outside a
   request's closure leaves that request's key — and its cached answer —
   intact, while requests that can see the install are re-keyed. *)
let test_request_key_narrowing () =
  let db = Pkg.Database.create () in
  let roots s = [ Specs.Spec_parser.parse s ] in
  (* a root whose closure excludes zlib (verified, not assumed) *)
  let unrelated =
    match
      List.find_opt
        (fun s ->
          not (List.mem "zlib" (Facts.closure_packages ~repo (roots s))))
        [ "bzip2"; "autoconf"; "fftw"; "openblas" ]
    with
    | Some s -> s
    | None -> Alcotest.fail "no zlib-free root in the fixture repo"
  in
  let key s = Concretizer.request_key ~installed:db ~repo (roots s) in
  let unrelated_before = key unrelated and zlib_before = key "zlib" in
  (match Concretizer.solve ~installed:db ~repo (roots "zlib") with
  | Concretizer.Concrete s -> Pkg.Database.add_concrete db s.Concretizer.spec
  | _ -> Alcotest.fail "zlib solve failed");
  Alcotest.(check string) "unrelated key survives the install"
    unrelated_before (key unrelated);
  Alcotest.(check bool) "observing key is re-keyed" true
    (zlib_before <> key "zlib")

let test_eviction () =
  let substrate = Substrate.create ~capacity:1 () in
  let solve s =
    ignore (Concretizer.solve ~substrate ~repo [ Specs.Spec_parser.parse s ])
  in
  solve "zlib";
  solve "cmake";
  solve "zlib";
  let c = Substrate.counters substrate in
  Alcotest.(check int) "capacity 1 holds one base" 1 (Substrate.size substrate);
  Alcotest.(check bool) "eviction forced a rebuild" true
    (c.Substrate.base_builds = 3 && c.Substrate.evictions = 2)

(* A solve must not depend on what the process solved before: term ids are
   handed out in first-interning order for the whole process, so nothing
   that shapes translation or search may be walked in an id-hashed order.
   Each history runs in a fresh process (this executable, re-run with
   [SUBSTRATE_HISTORY] set): the cold one solves the requests first, the
   warm one after unrelated requests that intern an overlapping set of
   terms in another order. *)
let history_var = "SUBSTRATE_HISTORY"

let in_child mode =
  let r, w = Unix.pipe ~cloexec:true () in
  let env = Array.append (Unix.environment ()) [| history_var ^ "=" ^ mode |] in
  let pid =
    Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let s = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.failf "%s history process failed" mode);
  (* each of the three requests ends in a search line, so fewer means a
     child stopped early or a request went unsolved *)
  let mark = " conflicts, " in
  let k = String.length mark in
  let rec searched i n =
    if i + k > String.length s then n
    else if String.sub s i k = mark then searched (i + k) (n + 1)
    else searched (i + 1) n
  in
  if searched 0 0 <> 3 then Alcotest.failf "%s history output incomplete: %S" mode s;
  s

let search_line (st : Asp.Sat.stats) =
  Printf.sprintf "%d conflicts, %d decisions" st.Asp.Sat.conflicts st.Asp.Sat.decisions

let cudf_answer ~n ~seed stack =
  match Cudf.Solver.solve ~stack (Cudf.Synth.universe ~seed ~n ()) with
  | Cudf.Solver.Solution s ->
    Printf.sprintf "state %s | costs %s | %s"
      (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) s.Cudf.Solver.state))
      (String.concat "," (List.map (fun (p, v) -> Printf.sprintf "%d@%d" v p) s.Cudf.Solver.costs))
      (search_line s.Cudf.Solver.sat_stats)
  | _ -> "no solution"

let spack_answer ?substrate spec =
  match Concretizer.solve ?substrate ~repo [ Specs.Spec_parser.parse spec ] with
  | Concretizer.Concrete s as r -> render r ^ " | " ^ search_line s.Concretizer.sat_stats
  | r -> render r

let history_requests () =
  let substrate = Substrate.create () in
  String.concat "\n"
    [
      cudf_answer ~n:3000 ~seed:1 Cudf.Criteria.Trendy;
      spack_answer "hdf5+szip";
      spack_answer ~substrate "hdf5+szip";
    ]

let run_history = function
  | "warm" ->
    let substrate = Substrate.create () in
    List.iter (fun spec -> ignore (spack_answer ~substrate spec)) [ "gromacs"; "hdf5~mpi" ];
    ignore (spack_answer "fftw");
    ignore (cudf_answer ~n:1000 ~seed:2 Cudf.Criteria.Trendy);
    history_requests ()
  | _ -> history_requests ()

let test_history_independent () =
  Alcotest.(check string) "cold and warm solves agree" (in_child "cold") (in_child "warm")

let () =
  match Sys.getenv_opt history_var with
  | Some mode -> print_string (run_history mode)
  | None ->
    Alcotest.run "substrate"
      [
        ( "history",
          [ Alcotest.test_case "solves ignore process history" `Quick test_history_independent ] );
        ( "differential",
          [
            Alcotest.test_case "randomized stream with installs" `Slow
              test_differential_stream;
          ] );
        ( "phases",
          [ Alcotest.test_case "base/extend timings" `Quick test_extension_timings ] );
        ( "sharing",
          [
            Alcotest.test_case "portfolio racers share one extension" `Slow
              test_portfolio_shares_extension;
            Alcotest.test_case "batch jobs share the registry" `Slow
              test_batch_shares_substrate;
          ] );
        ( "invalidation",
          [
            Alcotest.test_case "narrowed request keys" `Quick
              test_request_key_narrowing;
          ] );
        ( "lru",
          [ Alcotest.test_case "capacity eviction" `Quick test_eviction ] );
      ]
