(* Concretizing an E4S-style software stack (Fig. 1, §VII-C).

   E4S deploys ~100 core products plus ~500 required dependencies.  This
   example concretizes every root of the bundled repository's E4S subset,
   reports DAG sizes and solve times, and then concretizes the whole stack
   as one unified multi-root solve.

   Run with:  dune exec examples/e4s_stack.exe  *)

let repo = Pkg.Repo_core.repo

let () =
  let roots = Pkg.Repo_core.e4s_roots in
  Printf.printf "E4S-style roots: %d packages\n\n" (List.length roots);
  Printf.printf "%-20s %9s %7s %9s %9s\n" "root" "poss.deps" "nodes" "ground(s)" "solve(s)";
  let total_time = ref 0.0 in
  List.iter
    (fun root ->
      match Concretize.Concretizer.(solve (request ~repo [ Specs.Spec_parser.parse root ])) with
      | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
      | Concretize.Concretizer.Unsatisfiable _ ->
        Printf.printf "%-20s UNSAT\n" root
      | Concretize.Concretizer.Concrete s ->
        let p = s.Concretize.Concretizer.stats.Asp.Solve.phases in
        total_time := !total_time +. Asp.Phases.total p;
        Printf.printf "%-20s %9d %7d %9.3f %9.3f\n" root
          s.Concretize.Concretizer.n_possible
          (List.length (Specs.Spec.concrete_nodes s.Concretize.Concretizer.spec))
          p.Asp.Phases.ground_time p.Asp.Phases.solve_time)
    roots;
  Printf.printf "\ntotal: %.1fs for %d solves\n" !total_time (List.length roots);

  (* one unified environment solve: all roots share one DAG, like a Spack
     environment with unified concretization *)
  print_endline "\nUnified stack solve (all roots in one DAG):";
  let abstracts = List.map Specs.Spec_parser.parse roots in
  match Concretize.Concretizer.solve (Concretize.Concretizer.request ~repo abstracts) with
  | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
  | Concretize.Concretizer.Unsatisfiable _ -> print_endline "UNSAT"
  | Concretize.Concretizer.Concrete s ->
    let nodes = Specs.Spec.concrete_nodes s.Concretize.Concretizer.spec in
    let p = s.Concretize.Concretizer.stats.Asp.Solve.phases in
    Printf.printf "  %d packages concretized together in %.2fs (ground %.2fs, solve %.2fs)\n"
      (List.length nodes)
      (Asp.Phases.total p)
      p.Asp.Phases.ground_time p.Asp.Phases.solve_time;
    (* every MPI-dependent package agreed on a single MPI implementation *)
    let mpi =
      List.find_opt
        (fun (n : Specs.Spec.concrete_node) ->
          List.mem n.Specs.Spec.name (Pkg.Repo.providers repo "mpi"))
        nodes
    in
    (match mpi with
    | Some n -> Printf.printf "  unified MPI provider: %s\n" n.Specs.Spec.name
    | None -> ())
