(* Quickstart: concretize a spec and inspect the result.

   Run with:  dune exec examples/quickstart.exe  *)

let () =
  let repo = Pkg.Repo_core.repo in

  (* 1. Parse an abstract spec, exactly like `spack install hdf5@1.10:+szip` *)
  let abstract = Specs.Spec_parser.parse "hdf5@1.10:+szip %gcc" in
  Printf.printf "Abstract spec : %s\n" (Specs.Spec.abstract_to_string abstract);

  (* 2. Concretize it: the ASP solver picks versions, variants, compilers,
        targets and providers for the whole dependency DAG, optimally
        w.r.t. the 15 criteria of Table II. *)
  match Concretize.Concretizer.solve (Concretize.Concretizer.request ~repo [ abstract ]) with
  | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
  | Concretize.Concretizer.Unsatisfiable _ ->
    print_endline "no valid configuration exists"
  | Concretize.Concretizer.Concrete s ->
    print_endline "Concrete spec :";
    Format.printf "  %a@." Specs.Spec.pp_concrete s.Concretize.Concretizer.spec;

    (* 3. Work with the concrete DAG programmatically. *)
    let spec = s.Concretize.Concretizer.spec in
    let root = Specs.Spec.concrete_root spec in
    Printf.printf "\nRoot version  : %s\n" (Specs.Version.to_string root.Specs.Spec.version);
    Printf.printf "Node count    : %d\n" (List.length (Specs.Spec.concrete_nodes spec));
    Printf.printf "szip enabled  : %s\n" (List.assoc "szip" root.Specs.Spec.variants);
    Printf.printf "DAG hash      : %s\n" (Specs.Spec.node_hash spec "hdf5");

    (* 4. Solver diagnostics: the phases the paper measures (§VII). *)
    let p = s.Concretize.Concretizer.stats.Asp.Solve.phases in
    Printf.printf "\nPhases        : setup %.3fs | ground %.3fs | solve %.3fs\n"
      p.Asp.Phases.setup_time p.Asp.Phases.ground_time
      p.Asp.Phases.solve_time;
    Printf.printf "Problem size  : %d facts, %d possible dependencies\n"
      s.Concretize.Concretizer.n_facts s.Concretize.Concretizer.n_possible
