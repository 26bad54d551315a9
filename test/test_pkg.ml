(* Tests for the package layer: the DSL, repositories, possible-dependency
   closures, the installed database, and the generators. *)

open Pkg

let repo = Repo_core.repo

(* ------------------------------------------------------------------ *)
(* Package DSL                                                         *)
(* ------------------------------------------------------------------ *)

let test_example_recipe () =
  (* the paper's Fig. 2 package is modeled verbatim *)
  let p = Repo.find_exn repo "example" in
  Alcotest.(check int) "two versions" 2 (List.length p.Package.versions);
  Alcotest.(check int) "four dependencies" 4 (List.length p.Package.dependencies);
  Alcotest.(check int) "two conflicts" 2 (List.length p.Package.conflicts);
  let bzip = Option.get (Package.find_variant p "bzip") in
  Alcotest.(check string) "bzip default" "true" bzip.Package.var_default;
  Alcotest.(check string) "preferred version" "1.1.0"
    (Specs.Version.to_string (Package.preferred_version p))

let test_when_conditions () =
  let p = Repo.find_exn repo "example" in
  let dep_on name =
    List.find
      (fun (d : Package.dependency) ->
        String.equal d.Package.dep_spec.Specs.Spec.cname name)
      p.Package.dependencies
  in
  (match (dep_on "bzip2").Package.dep_when with
  | Some w ->
    Alcotest.(check (list (pair string string))) "when +bzip"
      [ ("bzip", "true") ]
      w.Specs.Spec.aroot.Specs.Spec.cvariants
  | None -> Alcotest.fail "bzip2 dep should be conditional");
  match
    List.filter
      (fun (d : Package.dependency) ->
        String.equal d.Package.dep_spec.Specs.Spec.cname "zlib")
      p.Package.dependencies
  with
  | [ unconditional; versioned ] ->
    Alcotest.(check bool) "plain zlib dep" true (unconditional.Package.dep_when = None);
    Alcotest.(check (option string)) "zlib version constraint" (Some "1.2.8:")
      (Option.map Specs.Vrange.to_string versioned.Package.dep_spec.Specs.Spec.cversion)
  | _ -> Alcotest.fail "expected two zlib dependencies"

let test_anonymous_constraints () =
  let c = Package.parse_constraint ~self:"foo" "%intel" in
  Alcotest.(check string) "conflict self" "foo" c.Specs.Spec.cname;
  Alcotest.(check (option string)) "compiler" (Some "intel") c.Specs.Spec.ccompiler;
  let t = Package.parse_constraint ~self:"foo" "target=aarch64:" in
  Alcotest.(check (option string)) "family target" (Some "aarch64:") t.Specs.Spec.ctarget;
  let w = Package.parse_when ~self:"foo" "+openmp ^openblas" in
  Alcotest.(check (list (pair string string))) "self variant"
    [ ("openmp", "true") ]
    w.Specs.Spec.aroot.Specs.Spec.cvariants;
  Alcotest.(check int) "one ^dep" 1 (List.length w.Specs.Spec.adeps)

(* ------------------------------------------------------------------ *)
(* Repository                                                          *)
(* ------------------------------------------------------------------ *)

let test_virtuals () =
  Alcotest.(check bool) "mpi is virtual" true (Repo.is_virtual repo "mpi");
  Alcotest.(check bool) "zlib is not" false (Repo.is_virtual repo "zlib");
  let mpis = Repo.providers repo "mpi" in
  Alcotest.(check bool) "mpich preferred" true (List.hd mpis = "mpich");
  Alcotest.(check bool) "openmpi second" true (List.nth mpis 1 = "openmpi");
  Alcotest.(check bool) "mpilander provides mpi" true (List.mem "mpilander" mpis);
  Alcotest.(check int) "mpich weight" 0 (Repo.provider_weight repo ~virtual_:"mpi" ~provider:"mpich");
  Alcotest.(check bool) "blas providers include openblas" true
    (List.mem "openblas" (Repo.providers repo "blas"))

let test_possible_dependencies () =
  let pd name = List.length (Repo.possible_dependencies repo name) in
  Alcotest.(check int) "zlib has none" 0 (pd "zlib");
  Alcotest.(check bool) "m4 small" true (pd "m4" <= 2);
  (* the paper's observation: anything that can reach MPI has a large
     possible-dependency count; the clusters are separated by a gap *)
  Alcotest.(check bool) "hdf5 large (reaches mpi)" true (pd "hdf5" > 35);
  Alcotest.(check bool) "valgrind large (reaches mpi)" true (pd "valgrind" > 35);
  Alcotest.(check bool) "readline small" true (pd "readline" < 15);
  (* mpilander -> cmake -> qt -> valgrind -> mpi: the potential cycle makes
     the closure of cmake large too *)
  Alcotest.(check bool) "cmake pulled into the big cluster" true (pd "cmake" > 35)

let test_repo_errors () =
  (match Repo.make [ Package.make "dup" [ Package.version "1" ]; Package.make "dup" [] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate names accepted");
  Alcotest.(check (option string)) "unknown lookup" None
    (Option.map (fun (p : Package.t) -> p.Package.name) (Repo.find repo "no-such-pkg"))

(* ------------------------------------------------------------------ *)
(* Database                                                            *)
(* ------------------------------------------------------------------ *)

let mk_concrete root_deps =
  let node name version depends =
    {
      Specs.Spec.name;
      version = Specs.Version.of_string version;
      variants = [];
      compiler = Specs.Compiler.make "gcc" "11.2.0";
      flags = [];
      os = "rhel8";
      target = "skylake";
      depends;
    }
  in
  Specs.Spec.make_concrete ~root:"a"
    (node "a" "1.0" root_deps :: List.map (fun d -> node d "2.0" []) root_deps)

let test_database_roundtrip () =
  let db = Database.create () in
  let c = mk_concrete [ "b"; "c" ] in
  Database.add_concrete db c;
  Alcotest.(check int) "three records" 3 (Database.size db);
  let h = Specs.Spec.node_hash c "a" in
  (match Database.find db h with
  | Some r ->
    Alcotest.(check string) "record name" "a" r.Database.name;
    Alcotest.(check int) "two deps" 2 (List.length r.Database.deps);
    Alcotest.(check bool) "dag complete" true (Database.mem_dag db h)
  | None -> Alcotest.fail "root record missing");
  (* adding again is idempotent *)
  Database.add_concrete db c;
  Alcotest.(check int) "still three" 3 (Database.size db)

let test_database_filter () =
  let db = Database.create () in
  Database.add_concrete db (mk_concrete [ "b" ]);
  (* filter that drops the dependency must drop the dependent too *)
  let filtered = Database.filter db ~f:(fun r -> r.Database.name <> "b") in
  Alcotest.(check int) "closure-consistent filter" 0 (Database.size filtered);
  let keep_all = Database.filter db ~f:(fun _ -> true) in
  Alcotest.(check int) "identity filter" 2 (Database.size keep_all);
  (* slices are arena-sharing views: mutating through one is rejected... *)
  Alcotest.(check bool) "slice is a view" true (Database.is_view keep_all);
  (match Database.add_concrete keep_all (mk_concrete [ "c" ]) with
  | () -> Alcotest.fail "mutating a slice must raise"
  | exception Invalid_argument _ -> ());
  (* ...and installs into the parent stay invisible to the snapshot *)
  Database.add_concrete db (mk_concrete [ "b"; "c" ]);
  Alcotest.(check int) "parent grew" 4 (Database.size db);
  Alcotest.(check int) "snapshot unchanged" 2 (Database.size keep_all);
  List.iter2
    (fun (a : Database.record) (b : Database.record) ->
      Alcotest.(check string) "same records" a.Database.hash b.Database.hash)
    (Database.records keep_all)
    (List.filteri (fun i _ -> i < 2) (Database.records db))

(* ------------------------------------------------------------------ *)
(* Database persistence                                                *)
(* ------------------------------------------------------------------ *)

let temp_db_path =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "spack-test-db-%d-%d" (Unix.getpid ()) !n)

let record_key (r : Database.record) =
  ( r.Database.hash,
    r.Database.name,
    Specs.Version.to_string r.Database.version,
    List.sort compare r.Database.variants,
    r.Database.compiler,
    r.Database.os,
    r.Database.target,
    List.sort compare r.Database.deps )

let facts_of db roots =
  (* every fact, the reuse facts over the installed records included,
     rendered as a statement *)
  let f =
    Concretize.Facts.generate ~repo ~installed:db
      (List.map Specs.Spec_parser.parse roots)
  in
  List.map
    (Format.asprintf "%a" Asp.Ast.pp_statement)
    (Fact_ref.statements f.Concretize.Facts.atoms)

let test_database_save_load () =
  (* a realistically messy database: generated buildcache over core recipes *)
  let db = Buildcache_gen.quick ~repo ~roots:[ "hdf5"; "cmake" ] 60 in
  let path = temp_db_path () in
  Database.save db path;
  match Database.load path with
  | Error e -> Alcotest.failf "load failed: %s" (Database.load_error_to_string e)
  | Ok db' ->
    Alcotest.(check int) "same size" (Database.size db) (Database.size db');
    List.iter2
      (fun a b ->
        Alcotest.(check bool) "records identical" true (record_key a = record_key b))
      (Database.records db) (Database.records db');
    Alcotest.(check string) "same fingerprint" (Database.fingerprint db)
      (Database.fingerprint db');
    (* the reload is invisible to the solver: reuse facts are identical *)
    Alcotest.(check (list string)) "identical reuse facts"
      (facts_of db [ "hdf5" ]) (facts_of db' [ "hdf5" ]);
    (* saving the reload reproduces the file byte for byte *)
    let path' = temp_db_path () in
    Database.save db' path';
    let slurp p =
      let ic = open_in_bin p in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      s
    in
    Alcotest.(check string) "byte-identical re-save" (slurp path) (slurp path');
    Sys.remove path;
    Sys.remove path'

let test_database_load_errors () =
  let write path lines =
    let oc = open_out path in
    List.iter (fun l -> output_string oc (l ^ "\n")) lines;
    close_out oc
  in
  let path = temp_db_path () in
  let expect what lines check =
    write path lines;
    match Database.load path with
    | Ok _ -> Alcotest.failf "%s: expected a load error" what
    | Error e ->
      if not (check e) then
        Alcotest.failf "%s: wrong error %s" what (Database.load_error_to_string e)
  in
  (match Database.load (path ^ ".does-not-exist") with
  | Error (Database.No_such_file _) -> ()
  | _ -> Alcotest.fail "expected No_such_file");
  expect "foreign header" [ "something else"; "digest\tffff" ] (function
    | Database.Bad_header _ -> true
    | _ -> false);
  expect "stale version" [ "spack-installed-db v0"; "digest\tffff" ] (function
    | Database.Bad_header _ -> true
    | _ -> false);
  (* a valid database, truncated before the footer *)
  let db = Database.create () in
  Database.add_concrete db (mk_concrete [ "b" ]);
  Database.save db path;
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  let original = lines [] in
  expect "truncated"
    (List.filteri (fun i _ -> i < List.length original - 1) original)
    (function Database.Truncated -> true | _ -> false);
  (* flip a payload byte: the digest footer catches it *)
  expect "corrupt"
    (List.map
       (fun l ->
         if String.length l > 7 && String.sub l 0 6 = "record" then l ^ "x" else l)
       original)
    (function Database.Bad_digest -> true | _ -> false);
  (* internally consistent digest over a malformed body: typed Malformed *)
  let bogus = [ "spack-installed-db v1"; "gibberish line" ] in
  expect "malformed"
    (bogus @ [ "digest\t" ^ Specs.Spec.digest_strings bogus ])
    (function Database.Malformed _ -> true | _ -> false);
  Sys.remove path

let test_database_fingerprint () =
  let db = Database.create () in
  let fp0 = Database.fingerprint db in
  Database.add_concrete db (mk_concrete [ "b" ]);
  let fp1 = Database.fingerprint db in
  Alcotest.(check bool) "install changes the fingerprint" true (fp0 <> fp1);
  (* idempotent re-add keeps it stable *)
  Database.add_concrete db (mk_concrete [ "b" ]);
  Alcotest.(check string) "stable fingerprint" fp1 (Database.fingerprint db);
  let repo_fp = Repo.fingerprint repo in
  Alcotest.(check string) "repo fingerprint memoized" repo_fp (Repo.fingerprint repo)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_synth_repo () =
  let p = Pkg.Repo_synth.scaled 200 in
  let r = Pkg.Repo_synth.repo p in
  Alcotest.(check bool) "roughly 200 packages" true
    (abs (Repo.size r - 200) < 60);
  Alcotest.(check bool) "smpi virtual exists" true (Repo.is_virtual r "smpi");
  Alcotest.(check int) "provider count" p.Pkg.Repo_synth.n_mpi_providers
    (List.length (Repo.providers r "smpi"));
  (* deterministic in the seed *)
  let r2 = Pkg.Repo_synth.repo p in
  Alcotest.(check (list string)) "deterministic" (Repo.package_names r)
    (Repo.package_names r2);
  (* the bimodal closure structure must exist: some packages reach the hub
     closure, some don't *)
  let counts =
    List.map (fun n -> List.length (Repo.possible_dependencies r n)) (Repo.package_names r)
  in
  let big = List.filter (fun c -> c > 20) counts and small = List.filter (fun c -> c <= 20) counts in
  Alcotest.(check bool) "two clusters" true (List.length big > 10 && List.length small > 10)

let test_buildcache_gen () =
  let db = Database.create () in
  let st =
    Buildcache_gen.populate ~repo ~combos:Buildcache_gen.default_combos
      ~roots:[ "zlib"; "hdf5" ] db
  in
  Alcotest.(check bool) "cache populated" true (Database.size db > 50);
  (* the stats account for every expansion and agree with the cache size *)
  Alcotest.(check int) "added = size" (Database.size db)
    st.Buildcache_gen.added;
  Alcotest.(check bool) "expansions counted" true
    (st.Buildcache_gen.expanded > 0);
  Alcotest.(check bool) "duplicates deduped" true
    (st.Buildcache_gen.duplicates > 0);
  (* deterministic in the seed: same stats, same fingerprint *)
  let db2 = Database.create () in
  let st2 =
    Buildcache_gen.populate ~repo ~combos:Buildcache_gen.default_combos
      ~roots:[ "zlib"; "hdf5" ] db2
  in
  Alcotest.(check bool) "deterministic stats" true (st = st2);
  Alcotest.(check string) "deterministic contents" (Database.fingerprint db)
    (Database.fingerprint db2);
  (* scale_to reaches its target deterministically and reports honestly *)
  let big, bst = Buildcache_gen.scale_to ~repo ~roots:[ "zlib"; "hdf5" ] 200 in
  Alcotest.(check bool) "target reached" true (Database.size big >= 200);
  Alcotest.(check int) "scale_to added = size" (Database.size big)
    bst.Buildcache_gen.added;
  (* every record's dep closure is present *)
  List.iter
    (fun (r : Database.record) ->
      Alcotest.(check bool) ("complete " ^ r.Database.name) true
        (Database.mem_dag db r.Database.hash))
    (Database.records db);
  (* arch slice behaves like the paper's ppc64le group: strictly smaller *)
  let ppc =
    Database.filter db ~f:(fun r ->
        match Specs.Target.find r.Database.target with
        | Some t -> String.equal t.Specs.Target.family "ppc64le"
        | None -> false)
  in
  Alcotest.(check bool) "ppc slice nonempty" true (Database.size ppc > 0);
  Alcotest.(check bool) "ppc slice smaller" true (Database.size ppc < Database.size db)

let () =
  Alcotest.run "pkg"
    [
      ( "dsl",
        [
          Alcotest.test_case "fig2 example recipe" `Quick test_example_recipe;
          Alcotest.test_case "when conditions" `Quick test_when_conditions;
          Alcotest.test_case "anonymous constraints" `Quick test_anonymous_constraints;
        ] );
      ( "repo",
        [
          Alcotest.test_case "virtuals" `Quick test_virtuals;
          Alcotest.test_case "possible dependencies" `Quick test_possible_dependencies;
          Alcotest.test_case "errors" `Quick test_repo_errors;
        ] );
      ( "database",
        [
          Alcotest.test_case "roundtrip" `Quick test_database_roundtrip;
          Alcotest.test_case "filter" `Quick test_database_filter;
          Alcotest.test_case "save/load" `Quick test_database_save_load;
          Alcotest.test_case "load errors" `Quick test_database_load_errors;
          Alcotest.test_case "fingerprints" `Quick test_database_fingerprint;
        ] );
      ( "generators",
        [
          Alcotest.test_case "synthetic repo" `Quick test_synth_repo;
          Alcotest.test_case "buildcache" `Quick test_buildcache_gen;
        ] );
    ]
