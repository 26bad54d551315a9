(* Properties of a request that hold across solves: an answer does not
   depend on what the process solved before, and the solve-cache key of a
   request changes only when an install can change its answer. *)

open Concretize

let repo = Pkg.Repo_core.repo

let render = function
  | Concretizer.Concrete s ->
    Format.asprintf "concrete %a | costs %s | verified %b"
      Specs.Spec.pp_concrete s.Concretizer.spec
      (String.concat ","
         (List.map
            (fun (p, v) -> Printf.sprintf "%d@%d" v p)
            s.Concretizer.stats.Asp.Solve.costs))
      s.Concretizer.stats.Asp.Solve.verified
  | Concretizer.Unsatisfiable _ -> "unsat"
  | Concretizer.Interrupted _ -> "interrupted"

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
  let key s = Concretizer.request_key (Concretizer.request ~installed:db ~repo (roots s)) in
  let unrelated_before = key unrelated and zlib_before = key "zlib" in
  (match Concretizer.solve (Concretizer.request ~installed:db ~repo (roots "zlib")) with
  | Concretizer.Concrete s -> Pkg.Database.add_concrete db s.Concretizer.spec
  | _ -> Alcotest.fail "zlib solve failed");
  Alcotest.(check string) "unrelated key survives the install"
    unrelated_before (key unrelated);
  Alcotest.(check bool) "observing key is re-keyed" true
    (zlib_before <> key "zlib")

(* A solve must not depend on what the process solved before: term ids are
   handed out in first-interning order for the whole process, so nothing
   that shapes translation or search may be walked in an id-hashed order.
   Each history runs in a fresh process (this executable, re-run with
   [SOLVE_HISTORY] set): the cold one solves the requests first, the
   warm one after unrelated requests that intern an overlapping set of
   terms in another order. *)
let history_var = "SOLVE_HISTORY"

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
  (* each of the two requests ends in a search line, so fewer means a
     child stopped early or a request went unsolved *)
  let mark = " conflicts, " in
  let k = String.length mark in
  let rec searched i n =
    if i + k > String.length s then n
    else if String.sub s i k = mark then searched (i + k) (n + 1)
    else searched (i + 1) n
  in
  if searched 0 0 <> 2 then Alcotest.failf "%s history output incomplete: %S" mode s;
  s

let search_line (st : Asp.Sat.stats) =
  Printf.sprintf "%d conflicts, %d decisions" st.Asp.Sat.conflicts st.Asp.Sat.decisions

let cudf_answer ~n ~seed stack =
  match Cudf.Solver.solve ~stack (Cudf.Synth.universe ~seed ~n ()) with
  | Cudf.Solver.Solution s ->
    Printf.sprintf "state %s | costs %s | %s"
      (String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) s.Cudf.Solver.state))
      (String.concat "," (List.map (fun (p, v) -> Printf.sprintf "%d@%d" v p) s.Cudf.Solver.stats.Asp.Solve.costs))
      (search_line s.Cudf.Solver.stats.Asp.Solve.sat_stats)
  | _ -> "no solution"

let spack_answer spec =
  match Concretizer.solve (Concretizer.request ~repo [ Specs.Spec_parser.parse spec ]) with
  | Concretizer.Concrete s as r -> render r ^ " | " ^ search_line s.Concretizer.stats.Asp.Solve.sat_stats
  | r -> render r

let history_requests () =
  String.concat "\n" [ cudf_answer ~n:3000 ~seed:1 Cudf.Criteria.Trendy; spack_answer "hdf5+szip" ]

let run_history = function
  | "warm" ->
    List.iter (fun spec -> ignore (spack_answer spec)) [ "gromacs"; "hdf5~mpi"; "fftw" ];
    ignore (cudf_answer ~n:1000 ~seed:2 Cudf.Criteria.Trendy);
    history_requests ()
  | _ -> history_requests ()

let test_history_independent () =
  Alcotest.(check string) "cold and warm solves agree" (in_child "cold") (in_child "warm")

let () =
  match Sys.getenv_opt history_var with
  | Some mode -> print_string (run_history mode)
  | None ->
    Alcotest.run "requests"
      [
        ( "history",
          [ Alcotest.test_case "solves ignore process history" `Quick test_history_independent ] );
        ( "invalidation",
          [
            Alcotest.test_case "narrowed request keys" `Quick
              test_request_key_narrowing;
          ] );
      ]
