(* Unsat cores with provenance: Asp.Explain on curated programs (isolation
   and true minimality of the shrunken core) and Diagnose.explain_core on
   curated unsatisfiable concretizations (the reasons must name the
   conflicting package / constraint pair). *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- Asp-level cores ---------------------------------------------------- *)

(* Lines 4-6 are jointly unsatisfiable; the satisfiable constraint on line 7
   must not appear in the core. *)
let curated_lines =
  [| "{ a }."; "{ b }."; "{ e }."; ":- not a."; ":- a, not b."; ":- b."; ":- e." |]

let curated_src = String.concat "\n" (Array.to_list curated_lines) ^ "\n"

let explain_src src =
  let g, _ = Asp.Grounder.ground (Asp.Parser.parse src) in
  Asp.Explain.explain g

(* the core that [solve_program]'s UNSAT carries, made from the solve's own
   ground program *)
let solve_program_core src =
  match Asp.Solve.solve_program (Asp.Parser.parse src) with
  | Asp.Solve.Unsat { core; _ } -> Lazy.force core
  | _ -> Alcotest.fail "expected UNSAT"

let core_lines ?(explain = explain_src) src =
  match explain src with
  | Asp.Explain.Unsat_core { causes; minimal } ->
    ( List.sort_uniq compare
        (List.map
           (fun (c : Asp.Explain.cause) -> c.Asp.Explain.origin.Asp.Ground.o_line)
           causes),
      minimal )
  | Asp.Explain.Satisfiable -> Alcotest.fail "expected an unsat core, got SAT"
  | Asp.Explain.Exhausted _ -> Alcotest.fail "unlimited explain exhausted"

let test_core_isolates_culprits () =
  List.iter
    (fun explain ->
      let lines, minimal = core_lines ~explain curated_src in
      Alcotest.(check bool) "shrinking completed" true minimal;
      Alcotest.(check (list int)) "exactly the three culprit constraints"
        [ 4; 5; 6 ] lines)
    [ explain_src; solve_program_core ]

(* dropping any single core member makes the program satisfiable: the core
   is a true MUS, not just jointly unsatisfiable *)
let test_core_is_minimal () =
  List.iter
    (fun drop ->
      let src =
        String.concat "\n"
          (List.filteri (fun i _ -> i <> drop - 1) (Array.to_list curated_lines))
      in
      match explain_src src with
      | Asp.Explain.Satisfiable -> ()
      | Asp.Explain.Unsat_core _ ->
        Alcotest.failf "dropping line %d should make the program SAT" drop
      | Asp.Explain.Exhausted _ -> Alcotest.fail "unlimited explain exhausted")
    [ 4; 5; 6 ]

(* the core members alone (non-constraint rules kept) stay unsatisfiable *)
let test_core_unsat_in_isolation () =
  let src =
    String.concat "\n"
      (List.filteri (fun i _ -> i <> 6) (Array.to_list curated_lines))
  in
  match explain_src src with
  | Asp.Explain.Unsat_core _ -> ()
  | _ -> Alcotest.fail "core constraints alone must stay UNSAT"

(* a conflict already found at grounding time (constraint body is all facts)
   is reported without any solving *)
let test_grounding_time_conflict () =
  match explain_src "a.\nb.\n:- a, b.\n" with
  | Asp.Explain.Unsat_core { causes; minimal } ->
    Alcotest.(check bool) "minimal" true minimal;
    Alcotest.(check (list int)) "the fact-level conflict" [ 3 ]
      (List.map
         (fun (c : Asp.Explain.cause) -> c.Asp.Explain.origin.Asp.Ground.o_line)
         causes)
  | _ -> Alcotest.fail "expected an unsat core"

let test_satisfiable_program () =
  match explain_src "{ a }.\n:- a.\n" with
  | Asp.Explain.Satisfiable -> ()
  | _ -> Alcotest.fail "satisfiable program must report Satisfiable"

(* --- concretizer-level explanations ------------------------------------- *)

let reasons_of ~repo spec =
  match
    Concretize.Concretizer.solve ~explain:true
      (Concretize.Concretizer.request ~repo [ Specs.Spec_parser.parse spec ])
  with
  | Concretize.Concretizer.Unsatisfiable { reasons; _ } ->
    String.concat "\n" reasons
  | Concretize.Concretizer.Concrete _ -> Alcotest.fail "expected UNSAT, got a spec"
  | Concretize.Concretizer.Interrupted _ -> Alcotest.fail "expected UNSAT, interrupted"

let check_mentions what text needles =
  List.iter
    (fun needle ->
      if not (contains ~needle text) then
        Alcotest.failf "%s: expected %S in:\n%s" what needle text)
    needles

let test_explain_version_pin () =
  let text = reasons_of ~repo:Pkg.Repo_core.repo "hdf5@99.9" in
  check_mentions "version pin" text
    [ "hdf5"; "99.9"; "because the request asks for hdf5@99.9" ]

let test_explain_compiler_mismatch () =
  let text = reasons_of ~repo:Pkg.Repo_core.repo "zlib %gcc@99" in
  check_mentions "compiler mismatch" text
    [ "zlib"; "gcc"; "because the request asks for zlib%gcc@99" ]

(* conflicting version pins from two recipes: the classic diamond — the
   explanation must name both dependency conditions *)
let diamond_repo =
  Pkg.Repo.make
    [
      Pkg.Package.make "dep"
        [ Pkg.Package.version "1.0.8"; Pkg.Package.version "1.0.7" ];
      Pkg.Package.make "liba"
        [ Pkg.Package.version "1.0"; Pkg.Package.depends_on "dep@1.0.8:" ];
      Pkg.Package.make "libb"
        [ Pkg.Package.version "1.0"; Pkg.Package.depends_on "dep@:1.0.7" ];
      Pkg.Package.make "app"
        [
          Pkg.Package.version "1.0";
          Pkg.Package.depends_on "liba";
          Pkg.Package.depends_on "libb";
        ];
    ]

let test_explain_conflicting_pins () =
  let text = reasons_of ~repo:diamond_repo "app" in
  check_mentions "conflicting pins" text
    [ "liba depends on dep@1.0.8:"; "libb depends on dep@:1.0.7" ]

(* a declared conflict: the recipe's own message must surface *)
let conflict_repo =
  Pkg.Repo.make
    [
      Pkg.Package.make "broken"
        [
          Pkg.Package.version "1.0";
          Pkg.Package.conflicts ~msg:"does not build with gcc" "%gcc";
        ];
    ]

let test_explain_declared_conflict () =
  let text = reasons_of ~repo:conflict_repo "broken %gcc" in
  check_mentions "declared conflict" text
    [ "broken conflicts with broken%gcc"; "does not build with gcc" ]

(* a virtual whose only provider's [provides] condition can never hold *)
let providerless_repo =
  Pkg.Repo.make
    [
      Pkg.Package.make "fakempi"
        [ Pkg.Package.version "1.0"; Pkg.Package.provides ~when_:"@2.0" "mpi" ];
      Pkg.Package.make "mpi-user"
        [ Pkg.Package.version "1.0"; Pkg.Package.depends_on "mpi" ];
    ]

let test_explain_providerless_virtual () =
  let text = reasons_of ~repo:providerless_repo "mpi-user" in
  check_mentions "providerless virtual" text [ "mpi"; "fakempi" ]

(* --- Diagnose.explain satellites ---------------------------------------- *)

(* repeated nodes across the request must not repeat their diagnosis *)
let test_heuristics_deduped () =
  let root = Specs.Spec_parser.parse "hdf5@99.9" in
  let reasons =
    Concretize.Diagnose.explain ~env:Concretize.Facts.default_env
      ~repo:Pkg.Repo_core.repo [ root; root ]
  in
  Alcotest.(check int) "one reason for two identical roots" 1
    (List.length reasons);
  Alcotest.(check (list string)) "stable order, no duplicates" reasons
    (List.sort_uniq compare reasons)

let () =
  Alcotest.run "explain"
    [
      ( "asp cores",
        [
          Alcotest.test_case "isolates culprits" `Quick test_core_isolates_culprits;
          Alcotest.test_case "true minimality" `Quick test_core_is_minimal;
          Alcotest.test_case "unsat in isolation" `Quick
            test_core_unsat_in_isolation;
          Alcotest.test_case "grounding-time conflict" `Quick
            test_grounding_time_conflict;
          Alcotest.test_case "satisfiable program" `Quick test_satisfiable_program;
        ] );
      ( "concretizer",
        [
          Alcotest.test_case "version pin" `Quick test_explain_version_pin;
          Alcotest.test_case "compiler mismatch" `Quick
            test_explain_compiler_mismatch;
          Alcotest.test_case "conflicting pins" `Quick
            test_explain_conflicting_pins;
          Alcotest.test_case "declared conflict" `Quick
            test_explain_declared_conflict;
          Alcotest.test_case "providerless virtual" `Quick
            test_explain_providerless_virtual;
        ] );
      ( "heuristics",
        [ Alcotest.test_case "deduped" `Quick test_heuristics_deduped ] );
    ]
