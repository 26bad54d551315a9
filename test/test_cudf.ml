(* CUDF frontend tests: parser/printer round-trips, document semantics,
   differential solves against two independent oracles (the brute-force
   {!Cudf.Reference} enumerator and the engine-level {!Asp.Naive}
   all-subsets checker), curated UNSAT diagnoses, and the divergence of
   the paranoid and trendy criterion stacks. *)

open Cudf

let vp ?c name = { Doc.vname = name; Doc.vconstr = c }

let pkg ?(depends = []) ?(conflicts = []) ?(provides = []) ?(recommends = [])
    ?(installed = false) ?(keep = Doc.Knone) name version =
  { Doc.name; version; depends; conflicts; provides; recommends; installed; keep }

let doc ?(install = []) ?(upgrade = []) ?(remove = []) packages =
  { Doc.packages; request = { Doc.req_id = "t"; install; upgrade; remove } }

let costs_str costs =
  String.concat ","
    (List.map (fun (p, v) -> Printf.sprintf "%d@%d" v p) costs)

let state_str state =
  String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) state)

(* engine cost vectors omit levels whose minimize statements ground to
   nothing; compare against the reference with missing levels as 0 *)
let normalize ~against costs =
  List.map
    (fun (p, _) -> (p, Option.value ~default:0 (List.assoc_opt p costs)))
    against

(* ---------- parser / printer ---------- *)

let test_roundtrip_property () =
  let gen = QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 500) in
  let t =
    QCheck.Test.make ~count:300 ~name:"print/parse roundtrip (small)" gen
      (fun seed ->
        let d = Synth.small ~seed () in
        Doc.equal d (Doc.parse (Doc.to_string d)))
  in
  QCheck.Test.check_exn t

let test_roundtrip_universe () =
  List.iter
    (fun (seed, n) ->
      let d = Synth.universe ~seed ~n () in
      Alcotest.(check bool)
        (Printf.sprintf "universe %d/%d roundtrips" seed n)
        true
        (Doc.equal d (Doc.parse (Doc.to_string d))))
    [ (0, 50); (1, 120); (7, 300) ]

let test_parse_details () =
  let text =
    "preamble: \nproperty: junk\n\n# comment\npackage: a\nversion: 2\ndepends: \
     b >= 1 | c, d != 3\nconflicts: e, a\nprovides: f = 4, g\nrecommends: \
     h\ninstalled: true\nkeep: version\nunknown-prop: ignored\n\npackage: b\n\
     version: 1\ndepends: true!\n\npackage: c\nversion: 1\ndepends: \
     false!\n\nrequest: r\ninstall: a > 1\nupgrade: b\nremove: c\n"
  in
  let d = Doc.parse text in
  Alcotest.(check int) "three stanzas" 3 (List.length d.Doc.packages);
  let a = List.find (fun p -> p.Doc.name = "a") d.Doc.packages in
  Alcotest.(check int) "cnf" 2 (List.length a.Doc.depends);
  Alcotest.(check int) "disjunction" 2 (List.length (List.hd a.Doc.depends));
  Alcotest.(check bool) "installed" true a.Doc.installed;
  Alcotest.(check bool) "keep" true (a.Doc.keep = Doc.Kversion);
  Alcotest.(check bool)
    "versioned provide" true
    (List.mem ("f", Some 4) a.Doc.provides && List.mem ("g", None) a.Doc.provides);
  let b = List.find (fun p -> p.Doc.name = "b") d.Doc.packages in
  Alcotest.(check bool) "true! is no clause" true (b.Doc.depends = []);
  let c = List.find (fun p -> p.Doc.name = "c") d.Doc.packages in
  Alcotest.(check bool) "false! is the empty clause" true (c.Doc.depends = [ [] ]);
  Alcotest.(check int) "request parsed" 1 (List.length d.Doc.request.Doc.install)

let expect_parse_error name text =
  match Doc.parse text with
  | exception Doc.Parse_error _ -> ()
  | _ -> Alcotest.failf "%s: expected Parse_error" name

let test_parse_errors () =
  expect_parse_error "missing version" "package: a\n\nrequest: r\n";
  expect_parse_error "bad version" "package: a\nversion: x\n\nrequest: r\n";
  expect_parse_error "duplicate stanza"
    "package: a\nversion: 1\n\npackage: a\nversion: 1\n\nrequest: r\n";
  expect_parse_error "two requests" "request: r\n\nrequest: s\n";
  expect_parse_error "provides with range"
    "package: a\nversion: 1\nprovides: f >= 2\n\nrequest: r\n"

let test_satisfies () =
  let p = pkg "a" 3 ~provides:[ ("f", Some 2); ("g", None) ] in
  let checks =
    [
      (vp "a", true);
      (vp "a" ~c:(Doc.Geq, 3), true);
      (vp "a" ~c:(Doc.Gt, 3), false);
      (vp "a" ~c:(Doc.Neq, 3), false);
      (vp "b", false);
      (* versioned feature matches exactly its version *)
      (vp "f", true);
      (vp "f" ~c:(Doc.Eq, 2), true);
      (vp "f" ~c:(Doc.Geq, 3), false);
      (* unversioned feature matches any constraint *)
      (vp "g" ~c:(Doc.Eq, 99), true);
    ]
  in
  List.iter
    (fun (v, expect) ->
      Alcotest.(check bool) (Doc.vpkg_to_string v) expect (Doc.satisfies p v))
    checks

(* ---------- differential: engine vs brute-force reference ---------- *)

let check_against_reference ?(explain = false) label d stack =
  let eng = Solver.solve ~explain ~stack d in
  let oracle = Reference.best ~stack d in
  match (eng, oracle) with
  | Solver.Interrupted _, _ -> Alcotest.failf "%s: interrupted" label
  | Solver.Unsatisfiable _, None -> ()
  | Solver.Solution s, Some (ref_costs, _) ->
    Alcotest.(check bool)
      (label ^ ": engine state valid per reference")
      true
      (Reference.valid_state d s.Solver.state);
    Alcotest.(check string)
      (label ^ ": optimal cost vector")
      (costs_str ref_costs)
      (costs_str (normalize ~against:ref_costs s.Solver.stats.Asp.Solve.costs));
    Alcotest.(check bool) (label ^ ": verified") true s.Solver.stats.Asp.Solve.verified;
    Alcotest.(check bool) (label ^ ": optimal") true (s.Solver.stats.Asp.Solve.quality = `Optimal)
  | Solver.Solution s, None ->
    Alcotest.failf "%s: engine found %s but reference says UNSAT" label
      (state_str s.Solver.state)
  | Solver.Unsatisfiable _, Some (ref_costs, st) ->
    Alcotest.failf "%s: engine UNSAT but reference found %s (%s)" label
      (state_str st) (costs_str ref_costs)

let test_differential_small () =
  for seed = 0 to 80 do
    let d = Synth.small ~seed () in
    List.iter
      (fun stack ->
        check_against_reference
          (Printf.sprintf "small seed=%d stack=%s" seed (Criteria.name stack))
          d stack)
      Criteria.all
  done

(* the unsat-core path must agree with the oracle too (same verdicts), so
   run a slice of the stream with --explain semantics *)
let test_differential_small_explain () =
  for seed = 0 to 15 do
    let d = Synth.small ~seed () in
    check_against_reference ~explain:true
      (Printf.sprintf "small+explain seed=%d" seed)
      d Criteria.Paranoid
  done

(* ---------- differential: whole pipeline vs Asp.Naive ---------- *)

(* Extra-tiny universes (Naive enumerates all subsets of every candidate
   atom, derived ones included), cross-checking the CUDF logic program
   itself against a third, engine-independent implementation. *)
let naive_docs =
  [
    ("upgrade column", doc ~install:[ vp "a" ] [ pkg "a" 1 ~installed:true; pkg "a" 2 ]);
    ( "conflict forces old",
      doc ~install:[ vp "a" ]
        [ pkg "a" 1; pkg "a" 2 ~conflicts:[ vp "b" ]; pkg "b" 1 ~installed:true ] );
  ]

let check_against_naive label d stack =
  let enc = Encode.generate d in
  let program =
    Asp.Parser.parse (Logic.text stack) @ Fact_ref.statements enc.Encode.atoms
  in
  let naive = Asp.Naive.optimal_models program in
  let eng = Solver.solve ~stack d in
  match (naive, eng) with
  | [], Solver.Unsatisfiable _ -> ()
  | (_, ncosts) :: _, Solver.Solution s ->
    Alcotest.(check string)
      (Printf.sprintf "%s/%s: naive cost vector" label (Criteria.name stack))
      (costs_str (normalize ~against:s.Solver.stats.Asp.Solve.costs ncosts))
      (costs_str s.Solver.stats.Asp.Solve.costs)
  | [], Solver.Solution s ->
    Alcotest.failf "%s: naive UNSAT, engine %s" label (state_str s.Solver.state)
  | _ :: _, Solver.Unsatisfiable _ -> Alcotest.failf "%s: naive SAT, engine UNSAT" label
  | _, Solver.Interrupted _ -> Alcotest.failf "%s: interrupted" label

let test_differential_naive () =
  List.iter
    (fun (label, d) -> List.iter (check_against_naive label d) Criteria.all)
    naive_docs

(* ---------- conflict splitting: exact against both oracles ---------- *)

(* The encoder states "conflicts: p" on every version of p once, as one
   single_version fact, lists the other same-name members of any other
   conflict as conflict_stanza facts, and puts the other names' members in
   one satisfier set.  Each universe below is solved against the reference
   and against Naive, and its encoding is checked for the facts it should
   and should not use. *)
let exact_docs =
  let self = vp "p" in
  [
    ( "full idiom, two versions needed",
      doc ~install:[ vp "q"; vp "p" ~c:(Doc.Eq, 2) ]
        [ pkg "p" 1 ~conflicts:[ self ]; pkg "p" 2 ~conflicts:[ self ];
          pkg "q" 1 ~depends:[ [ vp "p" ~c:(Doc.Eq, 1) ] ] ],
      [ ("single_version", 1); ("conflict_stanza", 0); ("conflict_set", 0) ] );
    ( "full idiom, one version",
      doc ~install:[ vp "q" ]
        [ pkg "p" 1 ~conflicts:[ self ]; pkg "p" 2 ~conflicts:[ self ];
          pkg "q" 1 ~depends:[ [ vp "p" ] ] ],
      [ ("single_version", 1); ("conflict_stanza", 0); ("conflict_set", 0) ] );
    ( "partial idiom",
      doc ~install:[ vp "p" ~c:(Doc.Eq, 2); vp "p" ~c:(Doc.Eq, 3) ]
        [ pkg "p" 1 ~conflicts:[ self ]; pkg "p" 2; pkg "p" 3 ],
      [ ("single_version", 0); ("conflict_stanza", 2); ("conflict_set", 0) ] );
    ( "partial idiom, excluded pair",
      doc ~install:[ vp "p" ~c:(Doc.Eq, 1); vp "p" ~c:(Doc.Eq, 3) ]
        [ pkg "p" 1 ~conflicts:[ self ]; pkg "p" 2; pkg "p" 3 ],
      [ ("single_version", 0); ("conflict_stanza", 2); ("conflict_set", 0) ] );
    ( "constrained self-conflict, allowed pair",
      doc ~install:[ vp "p" ~c:(Doc.Eq, 2); vp "p" ~c:(Doc.Eq, 3) ]
        [ pkg "p" 1; pkg "p" 2 ~conflicts:[ vp "p" ~c:(Doc.Lt, 3) ]; pkg "p" 3 ],
      [ ("single_version", 0); ("conflict_stanza", 1); ("conflict_set", 0) ] );
    ( "constrained self-conflict, excluded pair",
      doc ~install:[ vp "p" ~c:(Doc.Eq, 1); vp "p" ~c:(Doc.Eq, 2) ]
        [ pkg "p" 1; pkg "p" 2 ~conflicts:[ vp "p" ~c:(Doc.Lt, 3) ]; pkg "p" 3 ],
      [ ("single_version", 0); ("conflict_stanza", 1); ("conflict_set", 0) ] );
    ( "name also a feature, excluded",
      doc ~install:[ vp "r"; vp "p" ~c:(Doc.Eq, 2) ]
        [ pkg "p" 1 ~conflicts:[ self ]; pkg "p" 2 ~conflicts:[ self ];
          pkg "r" 1 ~provides:[ ("p", Some 1) ] ],
      [ ("single_version", 1); ("conflict_stanza", 0); ("conflict_set", 2) ] );
    ( "name also a feature, provided",
      doc ~install:[ vp "r"; vp "p" ~c:(Doc.Eq, 2) ]
        [ pkg "p" 1 ~conflicts:[ self ]; pkg "p" 2 ~conflicts:[ self ];
          pkg "r" 1 ~provides:[ ("p", Some 2) ] ],
      [ ("single_version", 1); ("conflict_stanza", 0); ("conflict_set", 2) ] );
    ( "stanza provides its own name",
      doc ~install:[ vp "p" ~c:(Doc.Eq, 1); vp "p" ~c:(Doc.Eq, 2) ]
        [ pkg "p" 1 ~provides:[ ("p", Some 2) ] ~conflicts:[ vp "p" ~c:(Doc.Lt, 3) ];
          pkg "p" 2 ],
      [ ("single_version", 0); ("conflict_stanza", 1); ("conflict_set", 0) ] );
    ( "stanza provides its own name, idiom",
      doc ~install:[ vp "p" ~c:(Doc.Eq, 1); vp "p" ~c:(Doc.Eq, 2) ]
        [ pkg "p" 1 ~provides:[ ("p", None) ] ~conflicts:[ self ];
          pkg "p" 2 ~conflicts:[ self ] ],
      [ ("single_version", 1); ("conflict_stanza", 0); ("conflict_set", 0) ] );
    ( "rival providers",
      doc ~install:[ vp "p"; vp "q" ]
        [ pkg "p" 1 ~provides:[ ("m", None) ] ~conflicts:[ vp "m" ];
          pkg "q" 1 ~provides:[ ("m", None) ] ~conflicts:[ vp "m" ] ],
      [ ("single_version", 0); ("conflict_stanza", 0); ("conflict_set", 2) ] );
    ( "rival providers, one needed",
      doc ~install:[ vp "m" ]
        [ pkg "p" 1 ~provides:[ ("m", None) ] ~conflicts:[ vp "m" ];
          pkg "p" 2 ~provides:[ ("m", None) ] ~conflicts:[ vp "p"; vp "m" ];
          pkg "q" 1 ~provides:[ ("m", None) ] ~conflicts:[ vp "m" ] ],
      [ ("single_version", 0); ("conflict_stanza", 3); ("conflict_set", 3) ] );
  ]

let count_facts (enc : Encode.t) pred =
  let n = ref 0 in
  enc.Encode.atoms.Asp.Grounder.replay (fun a ->
      if a.Asp.Gatom.pred = pred then incr n);
  !n

let test_conflict_split_exact () =
  List.iter
    (fun (label, d, shape) ->
      let enc = Encode.generate d in
      List.iter
        (fun (pred, n) ->
          Alcotest.(check int) (Printf.sprintf "%s: %s facts" label pred) n
            (count_facts enc pred))
        shape;
      List.iter
        (fun stack ->
          check_against_reference label d stack;
          check_against_naive label d stack)
        Criteria.all)
    exact_docs

(* ---------- curated UNSAT diagnoses ---------- *)

let reasons_of d =
  match Solver.solve ~explain:true d with
  | Solver.Unsatisfiable { reasons; _ } -> String.concat "\n" reasons
  | Solver.Solution s ->
    Alcotest.failf "expected UNSAT, got %s" (state_str s.Solver.state)
  | Solver.Interrupted _ -> Alcotest.fail "interrupted"

let contains text needle =
  let nt = String.length text and nn = String.length needle in
  let rec go i = i + nn <= nt && (String.sub text i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let assert_mentions label text needles =
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "%s: diagnosis does not mention %S:\n%s" label needle text)
    needles

let test_unsat_conflict_named () =
  (* install b, but a=1 (required by b) conflicts with b *)
  let d =
    doc ~install:[ vp "b" ]
      [ pkg "a" 1 ~conflicts:[ vp "b" ]; pkg "b" 1 ~depends:[ [ vp "a" ] ] ]
  in
  assert_mentions "conflict core" (reasons_of d)
    [ "package a=1 conflicts with b"; "b=1 depends on a"; "asks to install b" ]

let test_unsat_rival_providers_named () =
  let d =
    doc
      ~install:[ vp "p"; vp "q" ]
      [
        pkg "p" 1 ~provides:[ ("m", None) ] ~conflicts:[ vp "m" ];
        pkg "q" 1 ~provides:[ ("m", None) ] ~conflicts:[ vp "m" ];
      ]
  in
  assert_mentions "rival providers" (reasons_of d)
    [ "conflicts with m"; "asks to install p"; "asks to install q" ]

let test_unsat_self_conflict_named () =
  (* one version per name, stated once by single_version: the core still
     names the self-conflict *)
  let d =
    doc
      ~install:[ vp "p" ~c:(Doc.Eq, 1); vp "p" ~c:(Doc.Eq, 2) ]
      [ pkg "p" 1 ~conflicts:[ vp "p" ]; pkg "p" 2 ~conflicts:[ vp "p" ] ]
  in
  assert_mentions "self-conflict" (reasons_of d)
    [ "package p=1 conflicts with p"; "asks to install p = 1"; "asks to install p = 2" ]

let test_unsat_heuristic_fallback () =
  (* without --explain the syntactic diagnosis catches unknown names and
     keep contradictions *)
  let d =
    doc
      ~install:[ vp "nosuch" ]
      ~remove:[ vp "a" ]
      [ pkg "a" 1 ~installed:true ~keep:Doc.Kversion ]
  in
  match Solver.solve d with
  | Solver.Unsatisfiable { reasons; _ } ->
    let text = String.concat "\n" reasons in
    assert_mentions "heuristic" text
      [ "unknown package nosuch"; "keep: version" ]
  | _ -> Alcotest.fail "expected UNSAT"

(* ---------- stack divergence and request semantics ---------- *)

(* editor 2 (newest) drags in a brand-new library: paranoid holds the
   installed world (remove/change nothing), trendy pays one new package
   to reach the all-newest frontier — provably different optima *)
let divergence_doc =
  doc ~install:[ vp "editor" ]
    [
      pkg "editor" 1 ~installed:true ~conflicts:[ vp "editor" ];
      pkg "editor" 2 ~conflicts:[ vp "editor" ] ~depends:[ [ vp "libnew" ] ];
      pkg "libnew" 1;
    ]

let solved_state label d stack =
  match Solver.solve ~stack d with
  | Solver.Solution s -> s
  | Solver.Unsatisfiable _ -> Alcotest.failf "%s: unexpectedly UNSAT" label
  | Solver.Interrupted _ -> Alcotest.failf "%s: interrupted" label

let test_stacks_diverge () =
  let p = solved_state "paranoid" divergence_doc Criteria.Paranoid in
  let t = solved_state "trendy" divergence_doc Criteria.Trendy in
  Alcotest.(check string)
    "paranoid keeps the installed editor" "editor=1"
    (state_str p.Solver.state);
  Alcotest.(check string)
    "trendy upgrades and pays a new package" "editor=2 libnew=1"
    (state_str t.Solver.state);
  Alcotest.(check string) "paranoid optimum" "0@20,0@19" (costs_str p.Solver.stats.Asp.Solve.costs);
  Alcotest.(check string)
    "trendy optimum" "0@20,1@19"
    (costs_str (normalize ~against:[ (20, 0); (19, 0) ] t.Solver.stats.Asp.Solve.costs))

let test_upgrade_semantics () =
  (* upgrade: exactly one version, no downgrade below the installed one *)
  let d =
    doc ~upgrade:[ vp "a" ]
      [ pkg "a" 1; pkg "a" 2 ~installed:true; pkg "a" 3 ]
  in
  let s = solved_state "upgrade" d Criteria.Paranoid in
  let versions_of_a = List.filter (fun (n, _) -> n = "a") s.Solver.state in
  Alcotest.(check bool)
    "single version, not below installed" true
    (match versions_of_a with [ (_, v) ] -> v >= 2 | _ -> false);
  (* downgrade-only universe is unsatisfiable under upgrade *)
  let d' = doc ~upgrade:[ vp "b" ] [ pkg "b" 2 ~installed:true ] in
  let d' =
    { d' with Doc.packages = pkg "b" 1 :: d'.Doc.packages }
  in
  let d' =
    {
      d' with
      Doc.packages =
        List.filter (fun p -> not (p.Doc.name = "b" && p.Doc.version = 2)) d'.Doc.packages
        @ [ { (pkg "b" 2 ~installed:true) with Doc.depends = [ [] ] } ];
    }
  in
  match Solver.solve d' with
  | Solver.Unsatisfiable _ -> ()
  | _ -> Alcotest.fail "upgrade with only a broken target must be UNSAT"

let test_keep_semantics () =
  (* keep: version pins the stanza even though trendy wants the newest *)
  let d =
    doc
      [ pkg "a" 1 ~installed:true ~keep:Doc.Kversion ~conflicts:[ vp "a" ];
        pkg "a" 2 ~conflicts:[ vp "a" ] ]
  in
  let s = solved_state "keep" d Criteria.Trendy in
  Alcotest.(check string) "pinned at 1" "a=1" (state_str s.Solver.state);
  Alcotest.(check string)
    "and it counts as outdated" "1@20"
    (costs_str (List.filter (fun (p, _) -> p = 20) s.Solver.stats.Asp.Solve.costs))

(* ---------- statement reference and determinism ---------- *)

let test_stream_equals_materialize () =
  let d = Synth.universe ~seed:5 ~n:400 () in
  List.iter
    (fun stack ->
      let a = solved_state "atoms" d stack in
      let b_costs, b_facts =
        match Fact_ref.cudf_solve ~stack d with
        | Some r -> r
        | None -> Alcotest.fail "statement reference failed"
      in
      Alcotest.(check string)
        (Criteria.name stack ^ ": same optimum either way")
        (costs_str a.Solver.stats.Asp.Solve.costs) (costs_str b_costs);
      Alcotest.(check int)
        (Criteria.name stack ^ ": same fact count")
        a.Solver.n_facts b_facts)
    Criteria.all

let test_synth_deterministic () =
  let a = Synth.universe ~seed:3 ~n:200 () in
  let b = Synth.universe ~seed:3 ~n:200 () in
  Alcotest.(check bool) "same doc" true (Doc.equal a b);
  Alcotest.(check int) "exact stanza count" 200 (List.length a.Doc.packages);
  let c = Synth.universe ~seed:4 ~n:200 () in
  Alcotest.(check bool) "seed changes the universe" false (Doc.equal a c)

let test_synth_sat_by_construction () =
  List.iter
    (fun (seed, n) ->
      let d = Synth.universe ~seed ~n () in
      List.iter
        (fun stack ->
          let s =
            solved_state (Printf.sprintf "synth %d/%d" seed n) d stack
          in
          Alcotest.(check bool) "verified optimal" true
            (s.Solver.stats.Asp.Solve.verified && s.Solver.stats.Asp.Solve.quality = `Optimal))
        Criteria.all)
    [ (11, 150); (12, 350) ]

(* ---------- the shared solve stage: portfolio and escalation ---------- *)

let test_portfolio_costs () =
  let d = Synth.universe ~seed:21 ~n:300 () in
  Asp.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun stack ->
          let seq = solved_state "sequential" d stack in
          match Solver.solve ~pool ~racers:3 ~stack d with
          | Solver.Solution s ->
            Alcotest.(check string)
              (Criteria.name stack ^ ": race gives the sequential costs")
              (costs_str seq.Solver.stats.Asp.Solve.costs) (costs_str s.Solver.stats.Asp.Solve.costs);
            Alcotest.(check bool)
              (Criteria.name stack ^ ": race is optimal and verified") true
              (s.Solver.stats.Asp.Solve.quality = `Optimal && s.Solver.stats.Asp.Solve.verified)
          | _ -> Alcotest.failf "%s: race did not solve" (Criteria.name stack))
        Criteria.all)

let test_escalation_gives_up () =
  (* round k arms an instance limit of 50 * 2^k, and the budget trips one
     instance past it: 201 instances means exactly three rounds ran *)
  let d = Synth.universe ~seed:22 ~n:200 () in
  let config =
    Asp.Config.make
      ~limits:{ Asp.Budget.no_limits with Asp.Budget.instances = Some 50 }
      ()
  in
  match Solver.solve ~attempts:3 ~config d with
  | Solver.Interrupted { info; _ } ->
    Alcotest.(check bool) "instance limit" true
      (info.Asp.Budget.reason = Asp.Budget.Instance_limit);
    Alcotest.(check int) "three rounds" 201
      info.Asp.Budget.progress.Asp.Budget.instances
  | _ -> Alcotest.fail "expected the escalation to give up"

let test_escalation_honours_cancel () =
  let d = Synth.universe ~seed:22 ~n:200 () in
  let cancel = Asp.Budget.token () in
  Asp.Budget.cancel cancel;
  let rounds = ref 0 in
  match Solver.solve ~attempts:3 ~cancel ~fault:(fun _ _ -> incr rounds) d with
  | Solver.Interrupted { info; _ } ->
    Alcotest.(check bool) "reason is cancellation" true
      (info.Asp.Budget.reason = Asp.Budget.Cancelled);
    Alcotest.(check int) "cancellation is never retried" 1 !rounds
  | _ -> Alcotest.fail "cancelled escalation did not report Interrupted"

(* The list-based definition [Solver.diff_state] replaced, kept verbatim
   as the oracle: quadratic in the state sizes, but plainly right. *)
let diff_state_lists (doc : Doc.t) state =
  let installed = Doc.installed_pairs doc in
  let uniq xs =
    let seen = Hashtbl.create 16 in
    List.filter (fun n ->
        if Hashtbl.mem seen n then false
        else begin
          Hashtbl.add seen n ();
          true
        end)
      xs
  in
  let installed_names = uniq (List.map fst installed) in
  let state_names = uniq (List.map fst state) in
  let removed =
    List.filter (fun n -> not (List.mem n state_names)) installed_names
  in
  let installed_new =
    List.filter (fun n -> not (List.mem n installed_names)) state_names
  in
  let changed =
    uniq
      (List.filter_map
         (fun (n, v) -> if List.mem (n, v) installed then None else Some n)
         state
      @ List.filter_map
          (fun (n, v) -> if List.mem (n, v) state then None else Some n)
          installed)
  in
  (removed, installed_new, changed)

let test_diff_state () =
  let rng = Random.State.make [| 17 |] in
  List.iter
    (fun (seed, n) ->
      let d = Synth.universe ~seed ~n () in
      let pairs = List.map (fun (p : Doc.package) -> (p.Doc.name, p.Doc.version)) d.Doc.packages in
      (* random states in random order, with repeated pairs, plus the
         installed state itself and the empty state *)
      let random_state () =
        List.filter (fun _ -> Random.State.int rng 3 = 0) (pairs @ pairs)
        |> List.map (fun x -> (Random.State.bits rng, x))
        |> List.sort compare |> List.map snd
      in
      let states =
        Doc.installed_pairs d :: [] :: List.init 4 (fun _ -> random_state ())
      in
      List.iteri
        (fun i state ->
          let r, a, c = Solver.diff_state d state and r', a', c' = diff_state_lists d state in
          let msg what = Printf.sprintf "synth %d/%d state %d: %s" seed n i what in
          Alcotest.(check (list string)) (msg "removed") r' r;
          Alcotest.(check (list string)) (msg "new") a' a;
          Alcotest.(check (list string)) (msg "changed") c' c)
        states)
    [ (1, 100); (2, 400); (3, 1000) ]

let () =
  Alcotest.run "cudf"
    [
      ( "doc",
        [
          Alcotest.test_case "roundtrip property" `Quick test_roundtrip_property;
          Alcotest.test_case "roundtrip universes" `Quick test_roundtrip_universe;
          Alcotest.test_case "parse details" `Quick test_parse_details;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "satisfies" `Quick test_satisfies;
        ] );
      ( "differential",
        [
          Alcotest.test_case "vs reference (81 universes)" `Slow
            test_differential_small;
          Alcotest.test_case "vs reference with unsat cores" `Slow
            test_differential_small_explain;
          Alcotest.test_case "vs Asp.Naive" `Quick test_differential_naive;
          Alcotest.test_case "conflict splitting exact" `Quick
            test_conflict_split_exact;
        ] );
      ( "diagnose",
        [
          Alcotest.test_case "conflict stanza named" `Quick
            test_unsat_conflict_named;
          Alcotest.test_case "rival providers named" `Quick
            test_unsat_rival_providers_named;
          Alcotest.test_case "self-conflict named" `Quick
            test_unsat_self_conflict_named;
          Alcotest.test_case "heuristic fallback" `Quick
            test_unsat_heuristic_fallback;
        ] );
      ( "stacks",
        [
          Alcotest.test_case "paranoid vs trendy diverge" `Quick
            test_stacks_diverge;
          Alcotest.test_case "upgrade semantics" `Quick test_upgrade_semantics;
          Alcotest.test_case "keep semantics" `Quick test_keep_semantics;
        ] );
      ( "solve stage",
        [
          Alcotest.test_case "race = sequential costs" `Quick
            test_portfolio_costs;
          Alcotest.test_case "escalation gives up" `Quick
            test_escalation_gives_up;
          Alcotest.test_case "escalation honours cancel" `Quick
            test_escalation_honours_cancel;
        ] );
      ( "state diff",
        [ Alcotest.test_case "hash sets = lists" `Quick test_diff_state ] );
      ( "encode",
        [
          Alcotest.test_case "stream = materialize" `Slow
            test_stream_equals_materialize;
          Alcotest.test_case "synth determinism" `Quick test_synth_deterministic;
          Alcotest.test_case "synth satisfiable by construction" `Slow
            test_synth_sat_by_construction;
        ] );
    ]
