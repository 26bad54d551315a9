(* Grounder-equivalence goldens.

   Each fixture is ground to a propositional program which is rendered in a
   canonical, id-independent form (atoms, rules and minimize entries as
   sorted strings).  The result is compared against a committed golden file,
   so any change to the grounder — in particular the term-interning refactor —
   is proven to leave the ground program unchanged: same possible atoms, same
   fact markings, same rules, same minimize entries.

   Regenerate with:  GOLDEN_PROMOTE=/abs/path/to/test/golden dune exec test/test_ground_golden.exe *)

let repo = Pkg.Repo_core.repo

(* ------------------------------------------------------------------ *)
(* Canonical rendering                                                 *)
(* ------------------------------------------------------------------ *)

let canon (g : Asp.Ground.t) : string =
  let store = g.Asp.Ground.store in
  let atom id = Format.asprintf "%a" Asp.Gatom.pp (Asp.Gatom.Store.atom store id) in
  let atoms = ref [] in
  for id = 0 to Asp.Gatom.Store.count store - 1 do
    let tag = if Asp.Gatom.Store.is_fact store id then "fact " else "atom " in
    atoms := (tag ^ atom id) :: !atoms
  done;
  let body (b : Asp.Ground.body) =
    let pos =
      Array.to_list (Array.map atom b.Asp.Ground.pos) |> List.sort compare
    in
    let neg =
      Array.to_list (Array.map (fun id -> "not " ^ atom id) b.Asp.Ground.neg)
      |> List.sort compare
    in
    String.concat ", " (pos @ neg)
  in
  let bound = function None -> "_" | Some n -> string_of_int n in
  let rules = ref [] in
  Asp.Vec.iter
    (fun r ->
      let s =
        match r with
        | Asp.Ground.Rnormal (h, b) ->
          Printf.sprintf "rule %s :- %s" (atom h) (body b)
        | Asp.Ground.Rconstraint b -> Printf.sprintf "constraint :- %s" (body b)
        | Asp.Ground.Rchoice { lb; ub; heads; cbody } ->
          let hs = Array.to_list (Array.map atom heads) |> List.sort compare in
          Printf.sprintf "choice %s { %s } %s :- %s" (bound lb)
            (String.concat "; " hs) (bound ub) (body cbody)
      in
      rules := s :: !rules)
    g.Asp.Ground.rules;
  let mins = ref [] in
  Asp.Vec.iter
    (fun (m : Asp.Ground.min_entry) ->
      let tup =
        String.concat ","
          (List.map (Format.asprintf "%a" Asp.Term.pp) m.Asp.Ground.mtuple)
      in
      mins :=
        Printf.sprintf "min %d@%d,[%s] :- %s" m.Asp.Ground.mweight
          m.Asp.Ground.mpriority tup
          (body m.Asp.Ground.mbody)
        :: !mins)
    g.Asp.Ground.minimize;
  let lines =
    List.sort compare !atoms
    @ List.sort compare !rules
    @ List.sort compare !mins
    @ [ Printf.sprintf "inconsistent %b" g.Asp.Ground.inconsistent ]
  in
  String.concat "\n" lines ^ "\n"

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let inline_fixtures =
  [
    ( "closure",
      {|node("hdf5"). depends_on("hdf5","mpi"). depends_on("mpi","hwloc").
        node(D) :- node(P), depends_on(P, D).
        :- depends_on(P, P).|} );
    ( "choice_minimize",
      {|pkg(a). pkg(b). ver(a, 1..3). ver(b, 2).
        1 { pick(P, V) : ver(P, V) } 1 :- pkg(P).
        #minimize{ V@1,P : pick(P, V) }.|} );
    ( "negation_arith",
      {|num(1..4). even(X) :- num(X), X \ 2 = 0.
        odd(X) :- num(X), not even(X).
        big(X + 10) :- num(X), X > 2.|} );
    ( "functions",
      {|item(pair("a", 1)). item(pair("b", 2)).
        fst(N) :- item(pair(N, V)).
        wrapped(f(g(X))) :- fst(X).|} );
    ( "conditional",
      {|condition(1). condition(2).
        req(1, "x"). req(2, "x"). req(2, "y").
        have("x").
        holds(ID) :- condition(ID); have(N) : req(ID, N).|} );
  ]

let program_of_spec spec =
  Asp.Parser.parse Concretize.Logic_program.text
  @ Fact_ref.statements
      (Concretize.Facts.generate ~repo [ Specs.Spec_parser.parse spec ])
        .Concretize.Facts.atoms

let fixtures () =
  List.map (fun (n, src) -> (n, lazy (Asp.Parser.parse src))) inline_fixtures
  @ [
      ("lp_zlib", lazy (program_of_spec "zlib"));
      ("lp_hdf5", lazy (program_of_spec "hdf5"));
    ]

(* ------------------------------------------------------------------ *)
(* Golden comparison / promotion                                       *)
(* ------------------------------------------------------------------ *)

let golden_dir =
  match Sys.getenv_opt "GOLDEN_PROMOTE" with Some d -> d | None -> "golden"

let golden_path name = Filename.concat golden_dir (name ^ ".golden")

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let promoting = Sys.getenv_opt "GOLDEN_PROMOTE" <> None

(* Large pipeline fixtures are stored as a digest + line count so the goldens
   stay small; inline fixtures keep their full canonical text for diffing. *)
let golden_repr s =
  if String.length s <= 65536 then s
  else
    Printf.sprintf "digest %s lines %d\n"
      (Digest.to_hex (Digest.string s))
      (List.length (String.split_on_char '\n' s))

let check_fixture name prog () =
  let g, _stats = Asp.Grounder.ground (Lazy.force prog) in
  let got = golden_repr (canon g) in
  if promoting then write_file (golden_path name) got
  else
    let want = read_file (golden_path name) in
    Alcotest.(check string) (name ^ " ground program unchanged") want got

(* ------------------------------------------------------------------ *)
(* Ground-program digests                                              *)
(* ------------------------------------------------------------------ *)

(* Unlike the canonical goldens above, these hash the id-ordered rendering
   of [Asp.Ground.pp] exactly as the pipelines produce it (fact atoms
   seeded straight into the store), so they pin atom interning
   order and rule order too; the statement reference (Fact_ref) must give
   the same bytes.  The CUDF digests were re-recorded when the encoder
   began to split conflicts (the program and its facts changed); the Spack
   ones were re-recorded when emission started to follow the closure's
   instance order (the sorted digests below did not move). *)

(* The two ways to ground a logic program [lp] with a frontend's facts:
   the fact atoms straight into the store, and the statement reference. *)
let atom_path lp facts = fst (Asp.Grounder.ground ~facts lp)
let statement_path lp facts = fst (Fact_ref.ground lp facts)

let spack_ground ~ground ~repo spec =
  let roots = [ Specs.Spec_parser.parse spec ] in
  let facts = Concretize.Facts.generate ~repo roots in
  ground (Asp.Parser.parse Concretize.Logic_program.text) facts.Concretize.Facts.atoms

let cudf_ground ~ground stack =
  let d = Cudf.Synth.universe ~seed:1 ~n:1000 () in
  let enc = Cudf.Encode.generate d in
  ground (Asp.Parser.parse (Cudf.Logic.text stack)) enc.Cudf.Encode.atoms

let synth_repo = lazy (Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled 300))

let digest_fixtures =
  [
    ( "spack hdf5",
      (fun ground -> spack_ground ~ground ~repo "hdf5"),
      "21ff801923862d8a9c1dd302fadf8a5c" );
    ( "repo300 app-007",
      (fun ground -> spack_ground ~ground ~repo:(Lazy.force synth_repo) "app-007"),
      "5630f21680c70c576589842ae7ad3155" );
    ( "cudf synth 1k paranoid",
      (fun ground -> cudf_ground ~ground Cudf.Criteria.Paranoid),
      "debb7c183517eebb562e2dec61286cf3" );
    ( "cudf synth 1k trendy",
      (fun ground -> cudf_ground ~ground Cudf.Criteria.Trendy),
      "c19cdcf3bd30ce149ee1233cf2b178eb" );
  ]

let check_digest mk want () =
  let digest g = Digest.to_hex (Digest.string (Format.asprintf "%a" Asp.Ground.pp g)) in
  Alcotest.(check string) "ground program digest" want (digest (mk atom_path));
  Alcotest.(check string) "statement reference digest" want (digest (mk statement_path))

(* Order-insensitive digests of the same fixtures: the MD5 of [canon], the
   sorted, id-independent rendering (atom lists inside a rule sorted by
   name too, since [Ground.pp] orders them by id).  A grounder change that
   only reorders interning or emission keeps these while the byte digests
   above move; the Spack ones were recorded before the closure stopped
   re-deriving instances, the CUDF ones when the encoder began to split
   conflicts. *)
let sorted_digests =
  [
    ("spack hdf5", "d4593a5b7ef0b41b2d71e76915096eec");
    ("repo300 app-007", "872728c607c7140a8ce7713e99ebf329");
    ("cudf synth 1k paranoid", "ea4329df67a3466cdd4a99fabd93d4f2");
    ("cudf synth 1k trendy", "c22e17cec05994b8b1f9f9ac4b866f4c");
  ]

let check_sorted_digest mk want () =
  let got = Digest.to_hex (Digest.string (canon (mk atom_path))) in
  Alcotest.(check string) "sorted ground program digest" want got

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

(* Minor words allocated inside [Grounder.ground] on the 1k-stanza CUDF
   fixture.  The join kernel allocates nothing per join node or instance,
   and the encoder's fact atoms are interned as they are, with no statement
   to walk and no atom to rebuild: what remains is the ground program, the
   atom store and the closure's instance records.  The bound is 20% above
   the 370,758 words measured once the encoder split conflicts and stated
   "one version per name" once; the pairwise conflict joins before that
   took 563,430, seeding from fact statements 1,328,472, and the grounder
   before the join kernel 6,256,454. *)
let ground_words_bound = 444_910

let test_ground_allocation () =
  let d = Cudf.Synth.universe ~seed:1 ~n:1000 () in
  let enc = Cudf.Encode.generate d in
  let prog = Asp.Parser.parse (Cudf.Logic.text Cudf.Criteria.Paranoid) in
  let before = Gc.minor_words () in
  ignore (Asp.Grounder.ground ~facts:enc.Cudf.Encode.atoms prog);
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= %d" words ground_words_bound)
    true
    (words <= float_of_int ground_words_bound)

(* ------------------------------------------------------------------ *)
(* Term interning invariants                                           *)
(* ------------------------------------------------------------------ *)

let test_intern_idempotent () =
  let mk () =
    Asp.Term.fun_ "node"
      [ Asp.Term.str "hdf5"; Asp.Term.int 42; Asp.Term.fun_ "v" [ Asp.Term.str "1.10.2" ] ]
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "intern t == intern t" true (a == b);
  Alcotest.(check bool) "str idempotent" true (Asp.Term.str "x" == Asp.Term.str "x");
  Alcotest.(check bool) "int idempotent" true (Asp.Term.int 7 == Asp.Term.int 7)

(* [Term.int] answers 0 .. small_ints - 1 from an array it fills from the
   hash-cons table.  At the edges of that range and on either side of it,
   the term is the interned one — one id, physically equal — whichever
   domain builds it first, and two domains racing on fresh slots agree. *)
let test_small_int_cache () =
  let b = Asp.Term.small_ints in
  let edges = [ -1; 0; b - 1; b; max_int ] in
  let on_domain f = Domain.join (Domain.spawn f) in
  let remote = on_domain (fun () -> List.map Asp.Term.int edges) in
  let before = Asp.Term.interned () in
  let local = List.map Asp.Term.int edges in
  Alcotest.(check int) "nothing interned twice" before (Asp.Term.interned ());
  List.iter2
    (fun i (r, l) ->
      let what = string_of_int i in
      Alcotest.(check bool) (what ^ ": physically equal") true (r == l);
      Alcotest.(check int) (what ^ ": same id") (Asp.Term.id r) (Asp.Term.id l);
      Alcotest.(check (option int)) (what ^ ": value") (Some i) (Asp.Term.to_int l);
      Alcotest.(check bool) (what ^ ": stable") true (Asp.Term.int i == l))
    edges (List.combine remote local);
  (* two domains filling the same fresh slots at once *)
  let fresh = List.init 256 (fun k -> b - 512 + k) in
  let d = Domain.spawn (fun () -> List.map Asp.Term.int fresh) in
  let mine = List.map Asp.Term.int fresh in
  let theirs = Domain.join d in
  Alcotest.(check bool) "racing domains agree" true (List.for_all2 ( == ) mine theirs)

let test_equal_is_physical () =
  let terms =
    [
      Asp.Term.int 0;
      Asp.Term.int 1;
      Asp.Term.str "a";
      Asp.Term.str "b";
      Asp.Term.fun_ "f" [ Asp.Term.int 1 ];
      Asp.Term.fun_ "f" [ Asp.Term.int 2 ];
      Asp.Term.fun_ "g" [ Asp.Term.int 1 ];
      Asp.Term.fun_ "f" [ Asp.Term.int 1; Asp.Term.str "a" ];
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Format.asprintf "equal ⇔ (==) on %a/%a" Asp.Term.pp a Asp.Term.pp b)
            (a == b) (Asp.Term.equal a b))
        terms)
    terms

let test_hash_consistent () =
  (* interning returns the same object, so hashes trivially agree; also check
     hash agrees with a freshly parsed copy of the same term *)
  let a = Asp.Parser.parse_term "f(g(1), \"x\")" in
  let b = Asp.Parser.parse_term "f(g(1), \"x\")" in
  Alcotest.(check bool) "parsed twice: same object" true (Asp.Term.equal a b);
  Alcotest.(check int) "same hash" (Asp.Term.hash a) (Asp.Term.hash b);
  let c = Asp.Parser.parse_term "f(g(2), \"x\")" in
  Alcotest.(check bool) "distinct terms differ" false (Asp.Term.equal a c)

let test_compare_order () =
  (* the documented total order survives interning: ints < strs < funs *)
  let i = Asp.Term.int 3 and s = Asp.Term.str "a" in
  let f = Asp.Term.fun_ "f" [ i ] in
  Alcotest.(check bool) "int < str" true (Asp.Term.compare i s < 0);
  Alcotest.(check bool) "str < fun" true (Asp.Term.compare s f < 0);
  Alcotest.(check int) "reflexive" 0 (Asp.Term.compare f f);
  Alcotest.(check bool) "int order" true
    (Asp.Term.compare (Asp.Term.int 1) (Asp.Term.int 2) < 0)

(* ------------------------------------------------------------------ *)

let () =
  let golden_tests =
    List.map
      (fun (name, prog) ->
        Alcotest.test_case name `Quick (check_fixture name prog))
      (fixtures ())
  in
  let intern_tests =
    [
      Alcotest.test_case "intern idempotence" `Quick test_intern_idempotent;
      Alcotest.test_case "small int cache edges" `Quick test_small_int_cache;
      Alcotest.test_case "equal iff physical" `Quick test_equal_is_physical;
      Alcotest.test_case "hash consistency" `Quick test_hash_consistent;
      Alcotest.test_case "compare order" `Quick test_compare_order;
    ]
  in
  let digest_tests =
    List.map
      (fun (name, mk, want) -> Alcotest.test_case name `Quick (check_digest mk want))
      digest_fixtures
    @ List.map
        (fun (name, mk, _) ->
          Alcotest.test_case ("sorted " ^ name) `Quick
            (check_sorted_digest mk (List.assoc name sorted_digests)))
        digest_fixtures
  in
  Alcotest.run "ground_golden"
    [
      ("grounder equivalence", golden_tests);
      ("ground program digests", digest_tests);
      ("term interning", intern_tests);
      ( "allocation",
        [ Alcotest.test_case "cudf synth 1k paranoid" `Quick test_ground_allocation ] );
    ]
