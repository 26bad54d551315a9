(* Differential proof that the fact-atom pipeline, with reuse facts built
   on demand from the packed database, is observationally identical to
   the statement reference (Fact_ref): same
   ground program (byte-for-byte), same fact counts, same digests and
   request keys, same solve answers (nodes, cost vectors, reuse sets,
   verification) — across randomized synthetic universes, buildcache
   slices (arena-sharing views), interleaved installs, and the daemon's
   journaled install path. *)

module C = Concretize.Concretizer
module F = Concretize.Facts
module D = Pkg.Database

let lp = lazy (Asp.Parser.parse Concretize.Logic_program.text)

let universe seed n =
  Pkg.Repo_synth.repo { (Pkg.Repo_synth.scaled n) with Pkg.Repo_synth.seed }

let apps_of repo =
  List.filter
    (fun p -> String.length p > 3 && String.sub p 0 3 = "app")
    (Pkg.Repo.package_names repo)

let is_family fam (r : D.record) =
  match Specs.Target.find r.D.target with
  | Some t -> String.equal t.Specs.Target.family fam
  | None -> false

let slices_of db =
  [
    ("full", db);
    ("x86_64", D.filter db ~f:(is_family "x86_64"));
    ("rhel8", D.filter db ~f:(fun r -> r.D.os = "rhel8"));
  ]

let ground_pp g = Format.asprintf "%a" Asp.Ground.pp g

(* ------------------------------------------------------------------ *)
(* Ground-program equivalence                                          *)
(* ------------------------------------------------------------------ *)

(* Grounding the fact atoms must produce the very same interned store and
   ground program as the statement reference (Fact_ref): atom ids, rule
   multiset, minimize statements — checked by byte-comparing the printed
   ground program, which includes all of those. *)
let check_ground_equal ~repo ~installed roots =
  let f = F.generate ~installed ~repo roots in
  Alcotest.(check int) "n_facts equal across modes"
    (List.length (Fact_ref.statements f.F.atoms))
    f.F.atoms.Asp.Grounder.count;
  let gm, sm = Fact_ref.ground (Lazy.force lp) f.F.atoms in
  let gs, ss = Asp.Grounder.ground ~facts:f.F.atoms (Lazy.force lp) in
  Alcotest.(check int) "ground rule count"
    sm.Asp.Grounder.ground_rules ss.Asp.Grounder.ground_rules;
  Alcotest.(check int) "possible atom count"
    sm.Asp.Grounder.possible_atoms ss.Asp.Grounder.possible_atoms;
  let pm = ground_pp gm and ps = ground_pp gs in
  if not (String.equal pm ps) then
    Alcotest.failf "ground programs differ (statements %d bytes, atoms %d)"
      (String.length pm) (String.length ps)

let test_ground_differential () =
  List.iter
    (fun seed ->
      let repo = universe seed 60 in
      let apps = apps_of repo in
      let db = Pkg.Buildcache_gen.quick ~seed ~repo ~roots:apps 300 in
      let rng = Random.State.make [| seed; 99 |] in
      List.iter
        (fun (_, slice) ->
          let root = List.nth apps (Random.State.int rng (List.length apps)) in
          check_ground_equal ~repo ~installed:slice
            [ Specs.Spec_parser.parse root ])
        (slices_of db))
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Digest stability of views                                           *)
(* ------------------------------------------------------------------ *)

(* A filter view shares the parent's arena; a copy of it is a compacted
   rebuild.  Every digest derived from the database must not be able to
   tell them apart. *)
let test_view_digests () =
  let repo = universe 4 60 in
  let apps = apps_of repo in
  let db = Pkg.Buildcache_gen.quick ~seed:4 ~repo ~roots:apps 400 in
  let roots = [ Specs.Spec_parser.parse (List.nth apps 1) ] in
  List.iter
    (fun (name, view) ->
      let compacted = D.copy view in
      Alcotest.(check bool) (name ^ ": compacted copy is not a view") false
        (D.is_view compacted);
      Alcotest.(check string) (name ^ ": fingerprint") (D.fingerprint view)
        (D.fingerprint compacted);
      Alcotest.(check string)
        (name ^ ": reuse digest")
        (F.reuse_digest ~installed:view ~repo roots)
        (F.reuse_digest ~installed:compacted ~repo roots);
      Alcotest.(check string)
        (name ^ ": request key")
        (C.request_key (C.request ~installed:view ~repo roots))
        (C.request_key (C.request ~installed:compacted ~repo roots)))
    (slices_of db)

(* ------------------------------------------------------------------ *)
(* Whole-solve equivalence with interleaved installs                   *)
(* ------------------------------------------------------------------ *)

let signature = function
  | C.Concrete s ->
    let nodes =
      Specs.Spec.concrete_nodes s.C.spec
      |> List.map (fun (n : Specs.Spec.concrete_node) ->
             Specs.Spec.node_hash s.C.spec n.Specs.Spec.name)
      |> List.sort compare
    in
    Printf.sprintf "nodes=%s costs=%s reused=%s built=%s verified=%b"
      (String.concat "," nodes)
      (String.concat ","
         (List.map (fun (p, v) -> Printf.sprintf "%d:%d" p v) s.C.stats.Asp.Solve.costs))
      (String.concat ","
         (List.sort compare (List.map (fun (p, h) -> p ^ "=" ^ h) s.C.reused)))
      (String.concat "," (List.sort compare s.C.built))
      s.C.stats.Asp.Solve.verified
  | C.Unsatisfiable _ -> "unsat"
  | C.Interrupted _ -> "interrupted"

let solve_both ~repo ~installed roots =
  let m = Fact_ref.spack_solve (C.request ~installed ~repo roots) in
  let s = C.solve (C.request ~installed ~repo roots) in
  (signature m, signature s, m)

let test_solve_differential () =
  let repo = universe 5 60 in
  let apps = apps_of repo in
  let db = Pkg.Buildcache_gen.quick ~seed:5 ~repo ~roots:apps 250 in
  let rng = Random.State.make [| 5; 7 |] in
  let pick () = List.nth apps (Random.State.int rng (List.length apps)) in
  (* solve, install the answer, solve something else: the second round sees
     a database extended mid-run, on both paths *)
  let rec rounds n db =
    if n > 0 then begin
      let roots = [ Specs.Spec_parser.parse (pick ()) ] in
      let sig_m, sig_s, m = solve_both ~repo ~installed:db roots in
      Alcotest.(check string) "solve equal across modes" sig_m sig_s;
      let db =
        match m with
        | C.Concrete s ->
          let db = D.copy db in
          D.add_concrete db s.C.spec;
          db
        | _ -> db
      in
      rounds (n - 1) db
    end
  in
  rounds 4 db

(* ------------------------------------------------------------------ *)
(* Daemon journal path                                                 *)
(* ------------------------------------------------------------------ *)

let uid =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "%d-%d" (Unix.getpid ()) !n

let temp_dir () =
  let d =
    Filename.concat (Filename.get_temp_dir_name ()) ("spack-e4s-" ^ uid ())
  in
  Unix.mkdir d 0o755;
  d

(* Installs flowing through the daemon's journaled path (intent, arena-blit
   copy, save, commit) must leave the daemon's own solve in agreement with
   a from-scratch solve over the statement reference (Fact_ref), and
   recovery must reproduce the live database exactly. *)
let test_daemon_journal_differential () =
  let repo = Pkg.Repo_core.repo in
  let dir = temp_dir () in
  let cfg =
    {
      Server.State.repo;
      solver = Asp.Config.default;
      cache = Server.Cache.create ();
      db = Pkg.Database.create ();
      db_path = Some (Filename.concat dir "installed.db");
      journal =
        Some (Server.Journal.open_ (Filename.concat dir "installed.db.journal"));
      journal_max_bytes = 0;
      repl = None;
      follower = false;
      timeout = None;
      client_rate = 0.;
      client_burst = 8.;
      max_pending = 8;
      crash = None;
    }
  in
  let st = Server.State.create ~jobs:1 cfg in
  Fun.protect
    ~finally:(fun () -> Asp.Pool.shutdown st.Server.State.pool)
    (fun () ->
      let solve_spec spec =
        match C.solve (C.request ~repo [ Specs.Spec_parser.parse spec ]) with
        | C.Concrete s -> s
        | _ -> Alcotest.failf "expected concrete for %s" spec
      in
      let check_agreement root =
        let roots = [ Specs.Spec_parser.parse root ] in
        let db = Server.State.db st in
        let daemon =
          Server.State.make_job st ~deadline:None
            (Server.State.request st (List.hd roots))
            ~cancel:(Asp.Budget.token ())
        in
        let scratch = Fact_ref.spack_solve (C.request ~installed:db ~repo roots) in
        Alcotest.(check string)
          ("daemon vs scratch statement reference: " ^ root)
          (signature scratch) (signature daemon)
      in
      check_agreement "hdf5";
      (* two journaled installs, agreement re-checked after each over the
         database they swapped in *)
      ignore (Server.State.record_install st (solve_spec "zlib") : (string * string) list);
      check_agreement "hdf5";
      ignore (Server.State.record_install st (solve_spec "hdf5") : (string * string) list);
      check_agreement "hdf5";
      check_agreement "h5utils";
      (* recovery over what the journaled path persisted *)
      Server.State.persist st;
      let r =
        Server.State.recover
          ~db_path:(Filename.concat dir "installed.db")
          ~journal_path:(Filename.concat dir "installed.db.journal")
          ()
      in
      let live = Server.State.db st in
      Alcotest.(check string) "recovered db fingerprint equals live"
        (Pkg.Database.fingerprint live)
        (Pkg.Database.fingerprint r.Server.State.db0);
      let roots = [ Specs.Spec_parser.parse "hdf5" ] in
      Alcotest.(check string) "recovered db addresses the same request key"
        (C.request_key (C.request ~installed:live ~repo roots))
        (C.request_key (C.request ~installed:r.Server.State.db0 ~repo roots)))

let () =
  Alcotest.run "e4s"
    [
      ( "differential",
        [
          Alcotest.test_case "ground program: streamed = materialized" `Quick
            test_ground_differential;
          Alcotest.test_case "digests blind to arena views" `Quick
            test_view_digests;
          Alcotest.test_case "solves equal across modes (with installs)" `Quick
            test_solve_differential;
          Alcotest.test_case "daemon journal path differential" `Quick
            test_daemon_journal_differential;
        ] );
    ]
