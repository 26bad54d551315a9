(* A site deployment workflow: configuration preferences, a multi-shot
   software-stack build, and independent validation.

   This combines the three inputs of §III-C (command line, package DSL,
   configuration preferences) with the reuse machinery of §VI and the
   divide-and-conquer mode hinted at in §VII-C.

   Run with:  dune exec examples/site_deployment.exe  *)

let repo = Pkg.Repo_core.repo

(* The site's packages.yaml-style configuration: prefer the LTS toolchain,
   openmpi over mpich, HDF5 1.12 over 1.13, and szip-enabled HDF5. *)
let site_prefs =
  {
    Concretize.Preferences.packages =
      [
        ( "hdf5",
          {
            Concretize.Preferences.pref_version = Some (Specs.Vrange.of_string "1.12");
            pref_variants = [ ("szip", "true") ];
          } );
      ];
    providers = [ ("mpi", [ "openmpi" ]) ];
    compilers = None;
  }

let () =
  print_endline "== single solve under site preferences ==";
  (match
     Concretize.Concretizer.solve
       (Concretize.Concretizer.request ~prefs:site_prefs ~repo
          [ Specs.Spec_parser.parse "hdf5" ])
   with
  | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
  | Concretize.Concretizer.Unsatisfiable _ -> print_endline "UNSAT"
  | Concretize.Concretizer.Concrete s ->
    let root = Specs.Spec.concrete_root s.Concretize.Concretizer.spec in
    Printf.printf "hdf5 -> %s\n" (Specs.Spec.concrete_node_to_string root);
    Printf.printf "  (1.12 preferred over 1.13, szip on, openmpi instead of mpich)\n");

  print_endline "\n== multi-shot deployment of a small stack ==";
  let stack = [ "hdf5"; "netcdf-c"; "h5utils"; "fftw"; "gromacs" ] in
  let ms =
    Concretize.Multishot.solve_stack
      (Concretize.Concretizer.request ~prefs:site_prefs ~repo
         (List.map Specs.Spec_parser.parse stack))
  in
  List.iter
    (fun (sh : Concretize.Multishot.shot) ->
      match sh.Concretize.Multishot.shot_result with
      | Concretize.Concretizer.Concrete s ->
        Printf.printf "  %-12s reused %2d, built %2d\n" sh.Concretize.Multishot.shot_root
          (List.length s.Concretize.Concretizer.reused)
          (List.length s.Concretize.Concretizer.built)
      | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
      | Concretize.Concretizer.Unsatisfiable _ ->
        Printf.printf "  %-12s UNSAT\n" sh.Concretize.Multishot.shot_root)
    ms.Concretize.Multishot.shots;
  Printf.printf "stack of %d installed specs built in %.2fs\n"
    (Pkg.Database.size ms.Concretize.Multishot.db)
    ms.Concretize.Multishot.total_time;

  print_endline "\n== independent validation of every installed sub-DAG ==";
  let all_ok = ref true in
  List.iter
    (fun (sh : Concretize.Multishot.shot) ->
      match sh.Concretize.Multishot.shot_result with
      | Concretize.Concretizer.Concrete s ->
        let violations =
          Concretize.Validate.check ~repo s.Concretize.Concretizer.spec
        in
        if violations <> [] then begin
          all_ok := false;
          List.iter
            (fun v ->
              Format.printf "  %s: %a@." sh.Concretize.Multishot.shot_root
                Concretize.Validate.pp_violation v)
            violations
        end
      | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
      | Concretize.Concretizer.Unsatisfiable _ -> ())
    ms.Concretize.Multishot.shots;
  if !all_ok then print_endline "  every concretized DAG passes the §III-C.1 checklist"
