(* Section V-B.1: conditional dependencies.

   hpctoolkit's MPI support sits behind a non-default variant:

     variant('mpi', default=False)
     depends_on('mpi', when='+mpi')

   The old greedy concretizer fixes variant values before descending into
   dependencies, so `hpctoolkit ^mpich` fails with a hint to overconstrain.
   The ASP solver simply *finds* variant settings under which mpich is part
   of the solution.

   Run with:  dune exec examples/conditional_deps.exe  *)

let repo = Pkg.Repo_core.repo
let spec = "hpctoolkit ^mpich"

let () =
  Printf.printf "spec: %s\n\n" spec;

  print_endline "--- original (greedy) concretizer ---";
  (match Concretize.Greedy.concretize_spec ~repo spec with
  | Concretize.Greedy.Ok c -> Format.printf "%a@." Specs.Spec.pp_concrete c
  | Concretize.Greedy.Error e ->
    Printf.printf "Error: %s\n" e.Concretize.Greedy.message;
    Option.iter (Printf.printf "Hint: %s\n") e.Concretize.Greedy.hint);

  print_endline "\n--- ASP concretizer ---";
  match Concretize.Concretizer.(solve (request ~repo [ Specs.Spec_parser.parse spec ])) with
  | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
  | Concretize.Concretizer.Unsatisfiable _ -> print_endline "UNSAT (unexpected)"
  | Concretize.Concretizer.Concrete s ->
    let spec = s.Concretize.Concretizer.spec in
    Format.printf "%a@." Specs.Spec.pp_concrete spec;
    let mpich = Specs.Spec.Node_map.mem "mpich" spec.Specs.Spec.nodes in
    Printf.printf "\nmpich in the solution: %b — no overconstraining needed.\n" mpich;
    (* which variant did the solver flip to make that happen? *)
    Specs.Spec.Node_map.iter
      (fun name (n : Specs.Spec.concrete_node) ->
        match Pkg.Repo.find repo name with
        | None -> ()
        | Some p ->
          List.iter
            (fun (v : Pkg.Package.variant_decl) ->
              let chosen = List.assoc v.Pkg.Package.var_name n.Specs.Spec.variants in
              if chosen <> v.Pkg.Package.var_default then
                Printf.printf "solver flipped: %s %s=%s (default %s)\n" name
                  v.Pkg.Package.var_name chosen v.Pkg.Package.var_default)
            p.Pkg.Package.variants)
      spec.Specs.Spec.nodes
