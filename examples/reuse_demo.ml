(* Reusing already-built packages (Section VI, Figs. 4 and 6).

   The old concretizer reused installed packages only on *exact hash match*
   (Fig. 4): any configuration drift meant rebuilding everything.  The ASP
   encoding instead lets the solver pick an installed hash for any node and
   minimizes the number of builds between the two optimization buckets
   (Fig. 5) — so most of an installed graph is reused even when the request
   doesn't match exactly (Fig. 6).

   Run with:  dune exec examples/reuse_demo.exe  *)

let repo = Pkg.Repo_core.repo

let () =
  (* populate a buildcache the way an HPC site would: several compilers,
     targets and OSes, with configuration jitter *)
  let db = Pkg.Database.create () in
  ignore
    (Pkg.Buildcache_gen.populate ~repo ~combos:Pkg.Buildcache_gen.default_combos
       ~roots:[ "hdf5"; "cmake"; "zlib"; "openmpi" ]
       db
      : Pkg.Buildcache_gen.stats);
  Printf.printf "buildcache: %d installed specs\n\n" (Pkg.Database.size db);

  let request = "hdf5+szip" in
  Printf.printf "request: %s (no cached build has +szip)\n\n" request;

  (* --- Fig. 6a: hash-based reuse --- *)
  print_endline "--- hash-based reuse (old concretizer, Fig. 4/6a) ---";
  (match Concretize.Greedy.concretize_spec ~repo request with
  | Concretize.Greedy.Error e -> Printf.printf "greedy failed: %s\n" e.Concretize.Greedy.message
  | Concretize.Greedy.Ok c ->
    let nodes = Specs.Spec.concrete_nodes c in
    let hits =
      List.filter
        (fun (n : Specs.Spec.concrete_node) ->
          Pkg.Database.find db (Specs.Spec.node_hash c n.Specs.Spec.name) <> None)
        nodes
    in
    Printf.printf "%d/%d exact hash hits -> %d packages must be installed from source\n"
      (List.length hits) (List.length nodes)
      (List.length nodes - List.length hits));

  (* --- Fig. 6b: solving for reuse --- *)
  print_endline "\n--- solver-based reuse (Fig. 6b) ---";
  let roots = [ Specs.Spec_parser.parse request ] in
  match Concretize.Concretizer.solve (Concretize.Concretizer.request ~installed:db ~repo roots) with
  | Concretize.Concretizer.Interrupted _ -> print_endline "INTERRUPTED"
  | Concretize.Concretizer.Unsatisfiable _ -> print_endline "UNSAT (unexpected)"
  | Concretize.Concretizer.Concrete s ->
    let reused = s.Concretize.Concretizer.reused and built = s.Concretize.Concretizer.built in
    Printf.printf "%d installed packages reused, only %d to build:\n" (List.length reused)
      (List.length built);
    List.iter (fun (p, h) -> Printf.printf "  reuse  [%s] %s\n" (String.sub h 0 8) p) reused;
    List.iter (fun p -> Printf.printf "  build           %s\n" p) built;
    print_newline ();
    Format.printf "%a@." Specs.Spec.pp_concrete s.Concretize.Concretizer.spec
