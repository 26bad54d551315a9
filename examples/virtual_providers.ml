(* Virtual packages and provider specialization (§III-B, §V-B.3).

   MPI, BLAS and LAPACK are *virtual*: several packages provide them.  The
   solver picks exactly one provider per needed virtual, preferring the
   configured order, and can impose constraints on whichever provider it
   picks — berkeleygw+openmp forces openblas+openmp, but only when openblas
   is the chosen LAPACK provider.

   Run with:  dune exec examples/virtual_providers.exe  *)

let repo = Pkg.Repo_core.repo

let solve spec =
  match Concretize.Concretizer.(solve (request ~repo [ Specs.Spec_parser.parse spec ])) with
  | Concretize.Concretizer.Concrete s -> s.Concretize.Concretizer.spec
  | Concretize.Concretizer.Interrupted _ -> failwith ("INTERRUPTED: " ^ spec)
  | Concretize.Concretizer.Unsatisfiable _ -> failwith ("UNSAT: " ^ spec)

let provider_of spec_dag virt =
  List.find_opt
    (fun p -> Specs.Spec.Node_map.mem p spec_dag.Specs.Spec.nodes)
    (Pkg.Repo.providers repo virt)

let () =
  Printf.printf "mpi providers    : %s\n" (String.concat ", " (Pkg.Repo.providers repo "mpi"));
  Printf.printf "lapack providers : %s\n\n" (String.concat ", " (Pkg.Repo.providers repo "lapack"));

  (* default: the preferred provider (mpich) is chosen *)
  let dag = solve "hdf5" in
  Printf.printf "hdf5            -> mpi = %s\n" (Option.get (provider_of dag "mpi"));

  (* the user can pick a provider with ^; its constraints propagate *)
  let dag = solve "hdf5 ^openmpi@4.1.1" in
  Printf.printf "hdf5 ^openmpi   -> mpi = %s @%s\n"
    (Option.get (provider_of dag "mpi"))
    (Specs.Version.to_string
       (Specs.Spec.Node_map.find "openmpi" dag.Specs.Spec.nodes).Specs.Spec.version);

  (* a conflict on one provider makes the solver pick another: mvapich2
     cannot build on aarch64 *)
  let dag = solve "hdf5 target=thunderx2 %gcc@11.2.0" in
  Printf.printf "hdf5 on aarch64 -> mpi = %s (mvapich2 conflicts with aarch64)\n"
    (Option.get (provider_of dag "mpi"));

  (* §V-B.3: constraints on the chosen provider of a virtual *)
  print_newline ();
  let show_openblas spec =
    let dag = solve spec in
    let ob = Specs.Spec.Node_map.find "openblas" dag.Specs.Spec.nodes in
    Printf.printf "%-22s -> openblas openmp=%s\n" spec
      (List.assoc "openmp" ob.Specs.Spec.variants)
  in
  show_openblas "berkeleygw+openmp";
  show_openblas "berkeleygw~openmp"
