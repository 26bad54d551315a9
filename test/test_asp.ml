(* Tests for the ASP engine: lexer, parser, grounder, solver, optimization. *)

let solve ?config src = Asp.Solve.solve_program ?config (Asp.Parser.parse src)

let answer_strings = function
  | Asp.Solve.Unsat _ -> [ "UNSAT" ]
  | Asp.Solve.Interrupted _ -> [ "INTERRUPTED" ]
  | Asp.Solve.Sat o ->
    List.map (Format.asprintf "%a" Asp.Gatom.pp) o.Asp.Solve.answer |> List.sort compare

let check_answer msg src expected =
  Alcotest.(check (slist string compare)) msg expected (answer_strings (solve src))

let outcome src =
  match solve src with
  | Asp.Solve.Sat o -> o
  | Asp.Solve.Unsat _ -> Alcotest.fail "expected SAT"
  | Asp.Solve.Interrupted _ -> Alcotest.fail "unbudgeted solve interrupted"

let is_unsat src =
  match solve src with
  | Asp.Solve.Unsat _ -> true
  | Asp.Solve.Sat _ | Asp.Solve.Interrupted _ -> false

(* Up to [limit] optimal models of [prog], as one solve lists them
   (clingo's --models); none when it is unsatisfiable. *)
let enumerate ?config ?(limit = max_int) prog =
  match Asp.Solve.solve_program ?config ~enumerate:limit prog with
  | Asp.Solve.Sat o -> o.Asp.Solve.models
  | Asp.Solve.Unsat _ | Asp.Solve.Interrupted _ -> []

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_roundtrip () =
  let src =
    "node(\"hdf5\").\n\
     depends_on(\"hdf5\", \"mpi\").\n\
     node(D) :- node(P), depends_on(P, D).\n\
     :- depends_on(P, P).\n\
     1 { version(P, V) : possible_version(P, V) } 1 :- node(P).\n\
     #minimize{ W@3,P,V : version_weight(P, V, W) }.\n"
  in
  let prog = Asp.Parser.parse src in
  Alcotest.(check int) "statements" 6 (List.length prog);
  (* pretty-print then re-parse: same statement count *)
  let printed = Format.asprintf "%a" Asp.Ast.pp_program prog in
  let reparsed = Asp.Parser.parse printed in
  Alcotest.(check int) "reparse" 6 (List.length reparsed)

let test_parse_conditional () =
  let src =
    "condition_holds(ID) :- condition(ID); attr(N, A1) : condition_requirement(ID, N, \
     A1); attr(N, A1, A2) : condition_requirement(ID, N, A1, A2).\n"
  in
  match Asp.Parser.parse src with
  | [ Asp.Ast.Rule { body; _ } ] ->
    let foralls =
      List.filter (function Asp.Ast.Forall _ -> true | _ -> false) body
    in
    Alcotest.(check int) "two conditional literals" 2 (List.length foralls)
  | _ -> Alcotest.fail "expected one rule"

let test_parse_errors () =
  let bad = [ "node(."; "a :- b"; "1 { x } y."; "#unknown." ] in
  List.iter
    (fun src ->
      match Asp.Parser.parse src with
      | exception Asp.Solver_error.Error (Asp.Solver_error.Parse _) -> ()
      | _ -> Alcotest.failf "expected syntax error for %S" src)
    bad

let test_parse_error_position () =
  match Asp.Parser.parse "p(a).\nq(X :- r." with
  | exception Asp.Solver_error.Error (Asp.Solver_error.Parse { line; col; _ }) ->
    Alcotest.(check int) "error on the second line" 2 line;
    Alcotest.(check bool) "column is positive" true (col > 0)
  | _ -> Alcotest.fail "expected a located parse error"

let test_lexer_error_position () =
  match Asp.Parser.parse "p(a).\nq(\"unterminated." with
  | exception Asp.Solver_error.Error (Asp.Solver_error.Parse { line; col; _ }) ->
    Alcotest.(check int) "line of the open quote" 2 line;
    Alcotest.(check int) "column of the open quote" 3 col
  | _ -> Alcotest.fail "expected a located lexer error"

let test_parse_arith () =
  match Asp.Parser.parse "p(X + 2 * Y) :- q(X, Y)." with
  | [ Asp.Ast.Rule { head = Asp.Ast.Head_atom { args = [ t ]; _ }; _ } ] -> (
    match t with
    | Asp.Ast.Binop (Asp.Ast.Add, _, Asp.Ast.Binop (Asp.Ast.Mul, _, _)) -> ()
    | _ -> Alcotest.fail "precedence: expected X + (2 * Y)")
  | _ -> Alcotest.fail "expected one rule"

(* ------------------------------------------------------------------ *)
(* Grounding + solving basics                                          *)
(* ------------------------------------------------------------------ *)

let test_facts_only () =
  check_answer "facts are the answer" {|p(1). q("a"). r.|} [ "p(1)"; "q(a)"; "r" ]

let test_closure () =
  (* the paper's dependency-closure example *)
  let src =
    {|node("hdf5").
      depends_on("hdf5", "mpi").
      depends_on("mpi", "hwloc").
      node(D) :- node(P), depends_on(P, D).|}
  in
  check_answer "transitive nodes" src
    [
      "node(hdf5)";
      "node(mpi)";
      "node(hwloc)";
      "depends_on(hdf5,mpi)";
      "depends_on(mpi,hwloc)";
    ]

let test_integrity_constraint () =
  Alcotest.(check bool) "self-dep banned" true
    (is_unsat
       {|node("a"). depends_on("a", "a").
         node(D) :- node(P), depends_on(P, D).
         :- depends_on(P, P).|})

let test_fig3 () =
  (* Figure 3 of the paper: two stable models; the choice picks node(a)
     and/or node(b); closure adds c and d. *)
  let src =
    {|depends_on(a, c).
      depends_on(b, d).
      depends_on(c, d).
      node(D) :- node(P), depends_on(P, D).
      1 { node(a); node(b) }.|}
  in
  let models = Asp.Naive.stable_models (Asp.Parser.parse src) in
  let strings =
    List.map
      (fun m ->
        List.filter_map
          (fun (a : Asp.Gatom.t) ->
            if a.Asp.Gatom.pred = "node" then
              Some (Format.asprintf "%a" Asp.Gatom.pp a)
            else None)
          m)
      models
  in
  (* three models: {b,d}, {a,c,d}, {a,b,c,d} *)
  Alcotest.(check int) "three stable models" 3 (List.length strings);
  Alcotest.(check bool) "b-only model" true
    (List.mem [ "node(b)"; "node(d)" ] strings);
  Alcotest.(check bool) "a-only model" true
    (List.mem [ "node(a)"; "node(c)"; "node(d)" ] strings)

let test_negation () =
  check_answer "negation as failure" {|p :- not q. r :- p.|} [ "p"; "r" ]

let test_negation_cycle_two_models () =
  (* p :- not q. q :- not p. has two stable models; solver returns one *)
  let o = outcome "p :- not q. q :- not p." in
  let ans = List.map (fun (a : Asp.Gatom.t) -> a.Asp.Gatom.pred) o.Asp.Solve.answer in
  Alcotest.(check bool) "exactly one of p/q" true (ans = [ "p" ] || ans = [ "q" ])

let test_unfounded_rejected () =
  (* mutual positive support must not justify itself *)
  check_answer "unfounded loop" {|p :- q. q :- p. r :- not p.|} [ "r" ]

let test_loop_external_support_via_other_atom () =
  (* Regression: {a, b} form a positive loop; only [a] has an external
     support (via e), while [b] must be true.  A loop formula built from
     per-atom external supports would wrongly conclude UNSAT -- the correct
     formula uses the external supports of the whole unfounded set. *)
  let src = {|a :- b. b :- a. a :- e. { e }. :- not b.|} in
  check_answer "loop entered through the other atom" src [ "a"; "b"; "e" ]

let test_unfounded_with_choice () =
  (* a and b support each other; the choice provides external support only
     for a, so {a, b} is stable only via the choice *)
  let src = {|a :- b. b :- a. { a }. :- not b.|} in
  check_answer "choice-founded loop" src [ "a"; "b" ]

let test_choice_cardinality () =
  let src =
    {|item(1). item(2). item(3).
      2 { pick(I) : item(I) } 2.|}
  in
  let o = outcome src in
  Alcotest.(check int) "picks exactly 2" 2
    (List.length (Asp.Solve.atoms_of o "pick"))

let test_choice_bound_unsat () =
  Alcotest.(check bool) "lb > elems" true
    (is_unsat {|item(1). 3 { pick(I) : item(I) } 3.|})

let test_paper_version_choice () =
  (* Section IV-D program: optimization picks the newest version (weight 0) *)
  let src =
    {|node("hdf5").
      possible_version("hdf5", "1.13.1", 0).
      possible_version("hdf5", "1.12.1", 1).
      1 { version(P, V) : possible_version(P, V, W) } 1 :- node(P).
      version_weight(P, V, Weight) :-
        version(P, V), possible_version(P, V, Weight).
      #minimize{ W@3,P,V : version_weight(P, V, W)}.|}
  in
  let o = outcome src in
  Alcotest.(check bool) "newest version chosen" true
    (Asp.Solve.holds o "version" [ Asp.Term.str "hdf5"; Asp.Term.str "1.13.1" ]);
  Alcotest.(check (list (pair int int))) "cost 0 at priority 3" [ (3, 0) ]
    o.Asp.Solve.stats.Asp.Solve.costs

let test_optimization_forced_cost () =
  (* constraint forces the worse version: optimal cost is 1 *)
  let src =
    {|node("hdf5").
      possible_version("hdf5", "new", 0).
      possible_version("hdf5", "old", 1).
      1 { version(P, V) : possible_version(P, V, W) } 1 :- node(P).
      :- version("hdf5", "new").
      version_weight(P, V, W) :- version(P, V), possible_version(P, V, W).
      #minimize{ W@3,P,V : version_weight(P, V, W)}.|}
  in
  let o = outcome src in
  Alcotest.(check (list (pair int int))) "forced cost" [ (3, 1) ] o.Asp.Solve.stats.Asp.Solve.costs

let test_multi_level_optimization () =
  (* lexicographic: higher priority dominates *)
  let src =
    {|1 { pick(a); pick(b) } 1.
      costly_high(X) :- pick(X), X = a.
      costly_low(X) :- pick(X), X = b.
      #minimize{ 1@10,X : costly_high(X) }.
      #minimize{ 5@1,X : costly_low(X) }.|}
  in
  let o = outcome src in
  (* avoiding the priority-10 cost means picking b, paying 5 at priority 1 *)
  Alcotest.(check bool) "picked b" true
    (Asp.Solve.holds o "pick" [ Asp.Term.str "b" ]);
  Alcotest.(check (list (pair int int))) "costs" [ (10, 0); (1, 5) ] o.Asp.Solve.stats.Asp.Solve.costs

let test_maximize () =
  let src =
    {|{ take(gold); take(silver) }.
      value(gold, 10). value(silver, 5).
      :- take(gold), take(silver).
      #maximize{ V@1,X : take(X), value(X, V) }.|}
  in
  let o = outcome src in
  Alcotest.(check bool) "takes gold" true
    (Asp.Solve.holds o "take" [ Asp.Term.str "gold" ]);
  Alcotest.(check (list (pair int int))) "negated cost" [ (1, -10) ] o.Asp.Solve.stats.Asp.Solve.costs

(* Every model of these programs is optimal, so the first one is: the
   minimize levels exist before the first search, which therefore needs no
   second solve to give their indicators values.  The programs use a group
   of several bodies (one indicator for the group) and bodies of two
   literals (an auxiliary each). *)
let test_first_model_optimal () =
  let programs =
    [
      ("one group", "1 { a; b } 1. #minimize { 1@1,x : a; 1@1,x : b }.", [ (1, 1) ]);
      ( "two-literal bodies",
        "{ a; b }. #minimize { 1@1,y : a, not b; 1@1,y : b, not a; 1@1,y : a, b; 1@1,y : not a, not b }.",
        [ (1, 1) ] );
      ( "two levels",
        "{ a; b }. c :- a. c :- b. d :- not c. #minimize { 2@2 : c; 2@2 : d }. #minimize { 1@1,z : c; 1@1,z : d }.",
        [ (2, 2); (1, 1) ] );
    ]
  in
  List.iter
    (fun strategy ->
      let config = Asp.Config.make ~strategy () in
      List.iter
        (fun (name, src, costs) ->
          let msg = Asp.Config.strategy_name strategy ^ ", " ^ name in
          match solve ~config src with
          | Asp.Solve.Sat o ->
            Alcotest.(check int) (msg ^ ": models") 1 o.Asp.Solve.models_enumerated;
            Alcotest.(check (list (pair int int))) (msg ^ ": costs") costs
              (List.filter (fun (_, v) -> v <> 0) o.Asp.Solve.stats.Asp.Solve.costs)
          | _ -> Alcotest.fail (msg ^ ": expected SAT"))
        programs)
    [ Asp.Config.Bb; Asp.Config.Usc ]

(* Every level's optimum is 0, but a first search that decides [v] and [w]
   by the default phase picks [v(1)] and [w(1)]: cost 1 on level 1.  The
   first search decides the objective first, so its model costs 0
   everywhere and the descent runs no search. *)
let test_zero_optimum_first () =
  let src =
    "d(1..5). 1 { v(X) : d(X) } 1. 1 { w(X) : d(X) } 1. #minimize{1@2,X: v(X), X != 1}. \
     #minimize{1@1,X: w(X), X != 2}."
  in
  List.iter
    (fun strategy ->
      let msg = Asp.Config.strategy_name strategy in
      match solve ~config:(Asp.Config.make ~strategy ()) src with
      | Asp.Solve.Sat o ->
        Alcotest.(check int) (msg ^ ": models") 1 o.Asp.Solve.models_enumerated;
        Alcotest.(check int) (msg ^ ": descent searches") 0 o.Asp.Solve.stats.Asp.Solve.descent_searches;
        Alcotest.(check (list (pair int int))) (msg ^ ": costs") [ (2, 0); (1, 0) ]
          o.Asp.Solve.stats.Asp.Solve.costs
      | _ -> Alcotest.fail (msg ^ ": expected SAT"))
    [ Asp.Config.Bb; Asp.Config.Usc ]

let test_cycle_detection_path () =
  (* the paper's acyclicity program *)
  let src =
    {|depends_on(a, b). depends_on(b, c). depends_on(c, a).
      path(A, B) :- depends_on(A, B).
      path(A, C) :- path(A, B), depends_on(B, C).
      :- path(A, B), path(B, A).|}
  in
  Alcotest.(check bool) "cyclic graph rejected" true (is_unsat src)

let test_arith_in_rules () =
  check_answer "arithmetic" {|num(3). double(X * 2) :- num(X). big(X) :- double(X), X > 5.|}
    [ "num(3)"; "double(6)"; "big(6)" ]

let test_comparisons () =
  let src =
    {|v(1). v(2). v(3).
      less(X, Y) :- v(X), v(Y), X < Y.|}
  in
  let o = outcome src in
  Alcotest.(check int) "three pairs" 3 (List.length (Asp.Solve.atoms_of o "less"))

(* ------------------------------------------------------------------ *)
(* Conditional literals (generalized conditions of Section V-A)        *)
(* ------------------------------------------------------------------ *)

let test_generalized_conditions () =
  let src =
    {|condition(1).
      condition_requirement(1, "node", "h5utils").
      condition_requirement(1, "variant_on", "h5utils").
      attr("node", "h5utils").
      attr("variant_on", "h5utils").
      condition_holds(ID) :-
        condition(ID);
        attr(N, A1) : condition_requirement(ID, N, A1).|}
  in
  let o = outcome src in
  Alcotest.(check bool) "condition holds" true
    (Asp.Solve.holds o "condition_holds" [ Asp.Term.int 1 ])

let test_generalized_conditions_unmet () =
  let src =
    {|condition(1).
      condition_requirement(1, "node", "h5utils").
      condition_requirement(1, "variant_on", "h5utils").
      attr("node", "h5utils").
      condition_holds(ID) :-
        condition(ID);
        attr(N, A1) : condition_requirement(ID, N, A1).|}
  in
  let o = outcome src in
  Alcotest.(check bool) "condition does not hold" false
    (Asp.Solve.holds o "condition_holds" [ Asp.Term.int 1 ])

let test_condition_triggers_choice () =
  (* requirement satisfied by a solver choice, not a fact *)
  let src =
    {|condition(1).
      condition_requirement(1, "on", "x").
      { attr("on", "x") }.
      condition_holds(ID) :- condition(ID); attr(N, A) : condition_requirement(ID, N, A).
      imposed("y") :- condition_holds(1).
      :- not imposed("y").|}
  in
  let o = outcome src in
  Alcotest.(check bool) "choice made to satisfy condition" true
    (Asp.Solve.holds o "attr" [ Asp.Term.str "on"; Asp.Term.str "x" ])

(* ------------------------------------------------------------------ *)
(* Grounder edge cases and error reporting                              *)
(* ------------------------------------------------------------------ *)

let ground_error src =
  match Asp.Grounder.ground (Asp.Parser.parse src) with
  | exception Asp.Solver_error.Error (Asp.Solver_error.Ground _) -> true
  | _ -> false

let test_grounder_errors () =
  Alcotest.(check bool) "unsafe head variable" true (ground_error "p(X) :- q.  q.");
  Alcotest.(check bool) "unsafe negative literal" true
    (ground_error "p :- q, not r(X). q.");
  Alcotest.(check bool) "division by zero" true (ground_error "p(1 / 0).");
  Alcotest.(check bool) "arithmetic on strings" true
    (ground_error {|q("a"). p(X + 1) :- q(X).|});
  Alcotest.(check bool) "non-EDB forall condition" true
    (ground_error "d(1). c(X) :- d(X). h :- a(X) : c(X).");
  Alcotest.(check bool) "string cardinality bound" true
    (ground_error {|b("x"). B { p } :- b(B).|})

let test_arith_operators () =
  check_answer "all operators"
    {|n(7). sub(X - 2) :- n(X). mul(X * 3) :- n(X). div(X / 2) :- n(X).
      md(X \ 4) :- n(X). neg(0 - X) :- n(X).|}
    [ "n(7)"; "sub(5)"; "mul(21)"; "div(3)"; "md(3)"; "neg(-7)" ]

let test_choice_guard_generates () =
  (* guards bind choice-local variables over EDB facts *)
  let src = {|opt(a). opt(b). opt(c). 2 { pick(X) : opt(X) } 2.|} in
  let o = outcome src in
  Alcotest.(check int) "two picks" 2 (List.length (Asp.Solve.atoms_of o "pick"))

let test_minimize_with_negation_guard () =
  let src =
    {|1 { p(a); p(b) } 2.
      #minimize { 1@1,X : p(X), not preferred(X) }.
      preferred(a).|}
  in
  let o = outcome src in
  (* choosing only the preferred element costs nothing *)
  Alcotest.(check (list (pair int int))) "zero cost" [ (1, 0) ] o.Asp.Solve.stats.Asp.Solve.costs;
  Alcotest.(check bool) "picked a" true (Asp.Solve.holds o "p" [ Asp.Term.str "a" ])

let test_lexer_strings_and_comments () =
  let src = "p(\"a \\\"quoted\\\" string\"). % trailing comment\n% full line\nq." in
  let o = outcome src in
  Alcotest.(check bool) "string fact" true
    (Asp.Solve.holds o "p" [ Asp.Term.str "a \"quoted\" string" ]);
  Alcotest.(check bool) "q" true (Asp.Solve.holds o "q" [])

let test_empty_and_weird_programs () =
  (* an empty program has one (empty) stable model *)
  (match solve "" with
  | Asp.Solve.Sat o -> Alcotest.(check int) "empty answer" 0 (List.length o.Asp.Solve.answer)
  | Asp.Solve.Unsat _ -> Alcotest.fail "empty program is satisfiable"
  | Asp.Solve.Interrupted _ -> Alcotest.fail "unbudgeted solve interrupted");
  (* a single trivially false constraint *)
  Alcotest.(check bool) "fact + contradiction" true (is_unsat "p. :- p.")

let test_intervals () =
  check_answer "interval facts expand" {|cell(1..3). even(X) :- cell(X), X \ 2 = 0.|}
    [ "cell(1)"; "cell(2)"; "cell(3)"; "even(2)" ];
  check_answer "empty interval" {|p(5..3). q.|} [ "q" ];
  (* multiple intervals take the cartesian product *)
  let o = outcome "grid(1..2, 1..2)." in
  Alcotest.(check int) "2x2 grid" 4 (List.length (Asp.Solve.atoms_of o "grid"));
  (* intervals outside facts are rejected *)
  match Asp.Grounder.ground (Asp.Parser.parse "p(X) :- q(X..3). q(1).") with
  | exception Asp.Solver_error.Error (Asp.Solver_error.Ground _) -> ()
  | _ -> Alcotest.fail "interval in body accepted"

let test_const_directive () =
  check_answer "#const substitution"
    {|#const n = 3. #const who = "world". size(n). hello(who). big :- size(X), X >= n.|}
    [ "size(3)"; "hello(world)"; "big" ]

let test_show_directive () =
  let o = outcome {|p(1). q(2). r(1, 2). #show q/1. #show r/2.|} in
  let preds =
    List.sort_uniq compare (List.map (fun (a : Asp.Gatom.t) -> a.Asp.Gatom.pred) o.Asp.Solve.answer)
  in
  Alcotest.(check (list string)) "only shown predicates" [ "q"; "r" ] preds;
  (* #show. alone hides everything *)
  let o = outcome {|p(1). #show.|} in
  Alcotest.(check int) "all hidden" 0 (List.length o.Asp.Solve.answer)

let test_function_terms () =
  (* compound terms unify structurally, like Spack's node(ID, Package) *)
  let src =
    {|pkg(node(1, "hdf5")). pkg(node(2, "zlib")).
      id(I) :- pkg(node(I, N)).
      named(N) :- pkg(node(I, N)), I > 1.
      wrapped(pair(N, I)) :- pkg(node(I, N)).|}
  in
  let o = outcome src in
  Alcotest.(check int) "ids projected" 2 (List.length (Asp.Solve.atoms_of o "id"));
  Alcotest.(check bool) "guarded projection" true
    (Asp.Solve.holds o "named" [ Asp.Term.str "zlib" ]);
  Alcotest.(check bool) "terms rebuilt in heads" true
    (Asp.Solve.holds o "wrapped"
       [ Asp.Term.fun_ "pair" [ Asp.Term.str "hdf5"; Asp.Term.int 1 ] ]);
  (* nested terms *)
  let o = outcome {|deep(f(g(1), h(x, 2))). got(A) :- deep(f(A, B)).|} in
  Alcotest.(check bool) "nested unification" true
    (Asp.Solve.holds o "got" [ Asp.Term.fun_ "g" [ Asp.Term.int 1 ] ])

let test_function_term_mismatch () =
  (* different functors or arities never unify *)
  check_answer "no cross-functor match"
    {|p(f(1)). p(g(1)). p(f(1, 2)). q(X) :- p(f(X)).|}
    [ "p(f(1))"; "p(g(1))"; "p(f(1,2))"; "q(1)" ]

let test_enumerate_limit () =
  let prog = Asp.Parser.parse "{ a; b; c }." in
  Alcotest.(check int) "eight models" 8 (List.length (enumerate prog));
  Alcotest.(check int) "limit respected" 3 (List.length (enumerate ~limit:3 prog))

(* ------------------------------------------------------------------ *)
(* Cross-validation against the naive reference solver                 *)
(* ------------------------------------------------------------------ *)

let gen_small_program =
  let open QCheck in
  (* random programs over atoms a..e with normal rules, negation, and a
     choice; guaranteed <= 22 candidate atoms *)
  let atom = Gen.oneofl [ "a"; "b"; "c"; "d"; "e" ] in
  let lit =
    Gen.map2
      (fun neg a -> if neg then Asp.Ast.Neg (Asp.Ast.atom a []) else Asp.Ast.Pos (Asp.Ast.atom a []))
      Gen.bool atom
  in
  let rule =
    Gen.map2
      (fun h body ->
        Asp.Ast.Rule { head = Asp.Ast.Head_atom (Asp.Ast.atom h []); body; line = 0 })
      atom
      (Gen.list_size (Gen.int_range 0 3) lit)
  in
  let constraint_ =
    Gen.map
      (fun body -> Asp.Ast.Rule { head = Asp.Ast.Head_none; body; line = 0 })
      (Gen.list_size (Gen.int_range 1 3) lit)
  in
  let choice =
    Gen.map3
      (fun elems lb ub ->
        let n = List.length elems in
        Asp.Ast.Rule
          {
            head =
              Asp.Ast.Head_choice
                {
                  (* bounds are sometimes absent, sometimes within range,
                     occasionally infeasible *)
                  lb = Option.map Asp.Ast.cst_int lb;
                  ub =
                    Option.map (fun u -> Asp.Ast.cst_int (min (n + 1) u)) ub;
                  elems =
                    List.map (fun a -> { Asp.Ast.elem = Asp.Ast.atom a []; guard = [] }) elems;
                };
            body = [];
            line = 0;
          })
      (Gen.list_size (Gen.int_range 1 3) atom)
      (Gen.opt (Gen.int_range 0 3))
      (Gen.opt (Gen.int_range 0 3))
  in
  let stmt = Gen.frequency [ (5, rule); (2, constraint_); (2, choice) ] in
  (* Half the programs add a recursive shape over a four-node graph, which
     takes the closure several rounds: a transitive closure, a mutual
     recursion, a recursion through a choice head and one through a
     conditional literal.  The propositional atoms [p] and [q] tie it to the
     rest of the program.  Edges point forward, so at most 6 paths. *)
  let edge =
    Gen.(int_range 1 3 >>= fun i -> map (fun j -> (i, j)) (int_range (i + 1) 4))
  in
  let shape =
    Gen.map3
      (fun (kind, flip) (p, q) edges ->
        let facts =
          String.concat " " (List.map (fun (i, j) -> Printf.sprintf "edge(%d,%d)." i j) edges)
        in
        let rules =
          match kind with
          | 0 ->
            [
              Printf.sprintf "t(X,Y) :- edge(X,Y), not %s." p;
              "t(X,Z) :- t(X,Y), edge(Y,Z).";
              Printf.sprintf "%s :- t(X,4)." q;
            ]
          | 1 ->
            [
              Printf.sprintf "r(1) :- not %s." p;
              "s(Y) :- r(X), edge(X,Y).";
              "r(Y) :- s(X), edge(X,Y).";
              Printf.sprintf "%s :- s(4)." q;
            ]
          | 2 ->
            [
              "reach(1).";
              Printf.sprintf "{ reach(Y) } :- reach(X), edge(X,Y), not %s." p;
              Printf.sprintf "%s :- reach(4)." q;
            ]
          | _ ->
            [
              "node(1..4).";
              Printf.sprintf "done(X) :- node(X); not %s; done(Y) : edge(X,Y)." p;
              Printf.sprintf "%s :- done(1)." q;
            ]
        in
        (* the recursive rules first, so that round 0 misses what the base
           cases derive *)
        let rules = if flip then List.rev rules else rules in
        Asp.Parser.parse (String.concat "\n" (facts :: rules)))
      (Gen.pair (Gen.int_range 0 3) Gen.bool)
      (Gen.pair atom atom)
      (Gen.list_size (Gen.int_range 2 5) edge)
  in
  make
    ~print:(fun p -> Format.asprintf "%a" Asp.Ast.pp_program p)
    (Gen.frequency
       [
         (1, Gen.list_size (Gen.int_range 1 8) stmt);
         (1, Gen.map2 ( @ ) shape (Gen.list_size (Gen.int_range 0 5) stmt));
       ])

(* [prog] with every rule instantiated over the constants [domain]: the
   variables of a rule's head and plain body literals range over [domain],
   a conditional literal's own variables stay for the grounder.  Each rule
   then has one instance, which the grounder finds without binding a
   variable. *)
let instantiate domain prog =
  let open Asp.Ast in
  let rec term env = function
    | Var v when List.mem_assoc v env -> Cst (List.assoc v env)
    | Binop (op, a, b) -> Binop (op, term env a, term env b)
    | Fn (f, args) -> Fn (f, List.map (term env) args)
    | t -> t
  in
  let atom env (a : atom) = { a with args = List.map (term env) a.args } in
  let lit env = function
    | Pos a -> Pos (atom env a)
    | Neg a -> Neg (atom env a)
    | Cmp (c, x, y) -> Cmp (c, term env x, term env y)
    | Forall (a, conds) -> Forall (atom env a, List.map (atom env) conds)
  in
  let head env = function
    | Head_none -> Head_none
    | Head_atom a -> Head_atom (atom env a)
    | Head_choice c ->
      Head_choice
        {
          c with
          elems =
            List.map (fun e -> { elem = atom env e.elem; guard = List.map (lit env) e.guard }) c.elems;
        }
  in
  List.concat_map
    (function
      | Rule r as stmt when not (statement_is_fact stmt) ->
        let vars =
          List.concat_map atom_vars (head_atoms r.head)
          @ List.concat_map (function Forall _ -> [] | l -> body_lit_vars l) r.body
          |> List.sort_uniq String.compare
        in
        let envs =
          List.fold_left
            (fun envs v -> List.concat_map (fun env -> List.map (fun c -> (v, c) :: env) domain) envs)
            [ [] ] vars
        in
        List.map (fun env -> Rule { r with head = head env r.head; body = List.map (lit env) r.body }) envs
      | stmt -> [ stmt ])
    prog

let cdcl_model_of prog =
  match Asp.Solve.solve_program prog with
  | Asp.Solve.Unsat _ | Asp.Solve.Interrupted _ -> None
  | Asp.Solve.Sat o -> Some (List.sort Asp.Gatom.compare o.Asp.Solve.answer)

let prop_agrees_with_naive =
  QCheck.Test.make ~count:300 ~name:"CDCL solver agrees with naive enumeration"
    gen_small_program (fun prog ->
      let naive = Asp.Naive.stable_models prog in
      (* the same models when every rule is instantiated up front *)
      naive = Asp.Naive.stable_models (instantiate (List.init 4 (fun i -> Asp.Term.int (i + 1))) prog)
      &&
      match cdcl_model_of prog with
      | None -> naive = []
      | Some m -> List.exists (fun m' -> List.compare Asp.Gatom.compare m m' = 0) naive)

let gen_opt_program =
  let open QCheck in
  (* random optimization problems: choices over a..d plus random weights *)
  let atom = Gen.oneofl [ "a"; "b"; "c"; "d" ] in
  let lit =
    Gen.map2
      (fun neg a -> if neg then Asp.Ast.Neg (Asp.Ast.atom a []) else Asp.Ast.Pos (Asp.Ast.atom a []))
      Gen.bool atom
  in
  let choice =
    Gen.return
      (Asp.Ast.Rule
         {
           head =
             Asp.Ast.Head_choice
               {
                 lb = None;
                 ub = None;
                 elems =
                   List.map
                     (fun a -> { Asp.Ast.elem = Asp.Ast.atom a []; guard = [] })
                     [ "a"; "b"; "c"; "d" ];
               };
           body = [];
           line = 0;
         })
  in
  let rule =
    Gen.map2
      (fun h body -> Asp.Ast.Rule { head = Asp.Ast.Head_atom (Asp.Ast.atom h []); body; line = 0 })
      atom
      (Gen.list_size (Gen.int_range 1 2) lit)
  in
  let minimize =
    Gen.map3
      (fun a w p ->
        Asp.Ast.Minimize
          [
            {
              Asp.Ast.weight = Asp.Ast.cst_int w;
              priority = Asp.Ast.cst_int p;
              tuple = [ Asp.Ast.cst_str a ];
              guard = [ Asp.Ast.Pos (Asp.Ast.atom a []) ];
            };
          ])
      atom (Gen.int_range 1 4) (Gen.int_range 1 2)
  in
  let stmt = Gen.frequency [ (3, rule); (3, minimize) ] in
  make
    ~print:(fun p -> Format.asprintf "%a" Asp.Ast.pp_program p)
    (Gen.map2 (fun c rest -> c :: rest) choice (Gen.list_size (Gen.int_range 2 6) stmt))

let prop_optimal_cost_matches_naive =
  QCheck.Test.make ~count:300 ~name:"optimal cost vector matches naive enumeration"
    gen_opt_program (fun prog ->
      let naive = Asp.Naive.optimal_models prog in
      match Asp.Solve.solve_program prog with
      | Asp.Solve.Interrupted _ -> false
      | Asp.Solve.Unsat _ -> naive = []
      | Asp.Solve.Sat o -> (
        match naive with
        | [] -> false
        | (_, best_costs) :: _ ->
          let nonzero = List.filter (fun (_, v) -> v <> 0) in
          nonzero o.Asp.Solve.stats.Asp.Solve.costs = nonzero best_costs))

(* [gen_small_program] with #minimize statements: weights from -2 to 3,
   two priorities, three tuples (so a group often has several bodies) and
   bodies of one or two literals, negated ones among them. *)
let gen_small_min_program =
  let open QCheck in
  let atom = Gen.oneofl [ "a"; "b"; "c"; "d"; "e" ] in
  let lit =
    Gen.map2
      (fun neg a -> if neg then Asp.Ast.Neg (Asp.Ast.atom a []) else Asp.Ast.Pos (Asp.Ast.atom a []))
      Gen.bool atom
  in
  let element =
    Gen.map3
      (fun (w, p) t guard ->
        {
          Asp.Ast.weight = Asp.Ast.cst_int w;
          priority = Asp.Ast.cst_int p;
          tuple = [ Asp.Ast.cst_str t ];
          guard;
        })
      (Gen.pair (Gen.int_range (-2) 3) (Gen.int_range 1 2))
      (Gen.oneofl [ "x"; "y"; "z" ])
      (Gen.list_size (Gen.int_range 1 2) lit)
  in
  let minimize = Gen.map (fun es -> Asp.Ast.Minimize es) (Gen.list_size (Gen.int_range 1 3) element) in
  make
    ~print:(fun p -> Format.asprintf "%a" Asp.Ast.pp_program p)
    (Gen.map2 ( @ ) (QCheck.gen gen_small_program) (Gen.list_size (Gen.int_range 1 3) minimize))

let prop_strategies_match_naive =
  QCheck.Test.make ~count:200 ~name:"bb and usc optima match naive on #minimize"
    gen_small_min_program (fun prog ->
      let nonzero = List.filter (fun (_, v) -> v <> 0) in
      let expected =
        match Asp.Naive.optimal_models prog with
        | [] -> None
        | (_, costs) :: _ -> Some (nonzero costs)
      in
      List.for_all
        (fun strategy ->
          match Asp.Solve.solve_program ~config:(Asp.Config.make ~strategy ()) prog with
          | Asp.Solve.Interrupted _ -> false
          | Asp.Solve.Unsat _ -> expected = None
          | Asp.Solve.Sat o -> expected = Some (nonzero o.Asp.Solve.stats.Asp.Solve.costs))
        [ Asp.Config.Bb; Asp.Config.Usc ])

let prop_enumerate_matches_naive =
  QCheck.Test.make ~count:200 ~name:"model enumeration matches naive (no optimization)"
    gen_small_program (fun prog ->
      (* only compare on programs without minimize statements *)
      let naive = Asp.Naive.stable_models prog in
      let enumerated =
        enumerate prog
        |> List.map (List.sort Asp.Gatom.compare)
        |> List.sort (List.compare Asp.Gatom.compare)
      in
      List.compare (List.compare Asp.Gatom.compare) naive enumerated = 0)

let prop_usc_matches_bb =
  QCheck.Test.make ~count:200 ~name:"usc and bb strategies find the same optimum"
    gen_opt_program (fun prog ->
      let solve strategy =
        let config = Asp.Config.make ~strategy () in
        match Asp.Solve.solve_program ~config prog with
        | Asp.Solve.Unsat _ | Asp.Solve.Interrupted _ -> None
        | Asp.Solve.Sat o ->
          Some (List.filter (fun (_, v) -> v <> 0) o.Asp.Solve.stats.Asp.Solve.costs)
      in
      solve Asp.Config.Bb = solve Asp.Config.Usc)

(* ------------------------------------------------------------------ *)
(* Choice rules whose body mentions their heads                        *)
(* ------------------------------------------------------------------ *)

let models_strings ?(only = fun _ -> true) models =
  List.map
    (fun m ->
      List.filter_map
        (fun (a : Asp.Gatom.t) ->
          if only a.Asp.Gatom.pred then Some (Format.asprintf "%a" Asp.Gatom.pp a) else None)
        m
      |> List.sort compare)
    models
  |> List.sort compare

(* A choice rule's cardinality bounds become pseudo-Boolean constraints
   over its head literals and its body's indicator.  When the indicator is
   a head's literal or its negation, the constraint has a repeated or a
   complementary literal, which the solver merges before adding it; the
   answers must not change.  Enumeration runs without verification, which
   would drop a wrong model instead of reporting it. *)
let unverified_models prog =
  models_strings (enumerate ~config:(Asp.Config.make ~verify:false ()) prog)

(* [Ground.pp] prints a missing bound as nothing: no space before the
   brace or the period, as in the source *)
let test_choice_printed_bounds () =
  let g, _ =
    Asp.Grounder.ground
      (Asp.Parser.parse "{ a; b } 1.\n1 { c; d }.\n{ e }.\n2 { f; g } 2 :- e.")
  in
  Alcotest.(check (list string)) "choice rules as written"
    [ "{ a; b } 1."; "1 { c; d }."; "{ e }."; "2 { f; g } 2 :- e."; "" ]
    (String.split_on_char '\n' (Format.asprintf "%a" Asp.Ground.pp g))

let test_choice_body_heads () =
  List.iter
    (fun src ->
      let prog = Asp.Parser.parse src in
      Alcotest.(check (list (list string))) src
        (models_strings (Asp.Naive.stable_models prog))
        (unverified_models prog))
    [
      "1 { a; b } 1 :- a.";
      "1 { a; b } 1 :- not a.";
      "{ a }. 2 { a; b; c } :- a.";
      "{ a }. 1 { a; b; c } 1 :- not a.";
      "{ c }. 1 { a; b } 1 :- b, c.";
      "{ a }. { b; c } 1 :- a, not b.";
      "{ d }. 2 { a; b; c } 2 :- not a, d.";
    ]

let prop_choice_body_heads =
  let open QCheck in
  let head = Gen.oneofl [ "a"; "b"; "c" ] in
  let lit =
    Gen.map2
      (fun neg a -> if neg then Asp.Ast.Neg (Asp.Ast.atom a []) else Asp.Ast.Pos (Asp.Ast.atom a []))
      Gen.bool
      (Gen.oneofl [ "a"; "b"; "c"; "d" ])
  in
  let choice =
    Gen.map3
      (fun heads (lb, ub) body ->
        Asp.Ast.Rule
          {
            head =
              Asp.Ast.Head_choice
                {
                  lb = Option.map Asp.Ast.cst_int lb;
                  ub = Option.map Asp.Ast.cst_int ub;
                  elems = List.map (fun a -> { Asp.Ast.elem = Asp.Ast.atom a []; guard = [] }) heads;
                };
            body;
            line = 0;
          })
      (Gen.list_size (Gen.int_range 1 3) head)
      (Gen.pair (Gen.opt (Gen.int_range 0 3)) (Gen.opt (Gen.int_range 0 3)))
      (Gen.list_size (Gen.int_range 1 2) lit)
  in
  let rule =
    Gen.map2
      (fun h body -> Asp.Ast.Rule { head = Asp.Ast.Head_atom (Asp.Ast.atom h []); body; line = 0 })
      (Gen.oneofl [ "a"; "b"; "c"; "d" ])
      (Gen.list_size (Gen.int_range 0 2) lit)
  in
  Test.make ~count:300 ~name:"choice bodies over their heads match naive"
    (make
       ~print:(fun p -> Format.asprintf "%a" Asp.Ast.pp_program p)
       (Gen.map2 ( @ ) (Gen.list_size (Gen.int_range 1 3) choice)
          (Gen.list_size (Gen.int_range 0 3) rule)))
    (fun prog ->
      models_strings (Asp.Naive.stable_models prog) = unverified_models prog)

(* ------------------------------------------------------------------ *)
(* Bound positive literals                                             *)
(* ------------------------------------------------------------------ *)

(* Once every argument of a positive body literal is bound, the grounder
   looks its one possible atom up instead of scanning an index.  These
   programs hold such literals with constant, function-term and arithmetic
   arguments, present and absent atoms, and (in extensions) atoms on either
   side of the semi-naive bound.  Each answer set list is checked twice:
   against [Asp.Naive] over the whole program, and against the expected
   atoms written out by hand. *)

let derived = function "p" | "r" | "e" -> false | _ -> true

let check_models msg ~expected cdcl naive =
  let expected = List.sort compare (List.map (List.sort compare) expected) in
  Alcotest.(check (list (list string))) (msg ^ ": naive") expected
    (models_strings ~only:derived naive);
  Alcotest.(check (list (list string))) (msg ^ ": solver") expected
    (models_strings ~only:derived cdcl)

let test_bound_literals () =
  let src =
    {|p(1..4). r(2). r(3). e(f(1, 2)). e(f(3, 4)).
      c(X) :- p(X), r(2).
      a(X) :- p(X), r(X + 1).
      g(X, Y) :- p(X), p(Y), e(f(X, Y)).
      m(X) :- p(X), r(X * 10).
      { s(X) } :- a(X).
      h(X) :- s(X), g(X, Y), c(Y).|}
  in
  let prog = Asp.Parser.parse src in
  let fixed = [ "a(1)"; "a(2)"; "c(1)"; "c(2)"; "c(3)"; "c(4)"; "g(1,2)"; "g(3,4)" ] in
  check_models "bound literals"
    ~expected:[ fixed; "h(1)" :: "s(1)" :: fixed; "s(2)" :: fixed; "h(1)" :: "s(1)" :: "s(2)" :: fixed ]
    (enumerate prog) (Asp.Naive.stable_models prog)

(* Arithmetic over a variable that an earlier argument of the same literal
   binds: [r(X, X + 1)] holds no bound variable before it is matched, yet
   matches, as [X] is bound left to right. *)
let test_same_literal_arithmetic () =
  let src =
    {|r(1, 2). r(2, 2). r(1, 3). r(2, 3). p(1). p(2). e(f(2), 4). e(f(3), 5).
      q(X) :- r(X, X + 1).
      w(X, Y) :- p(Y), r(X, X + Y).
      v(X) :- e(f(X), X * 2).|}
  in
  let prog = Asp.Parser.parse src in
  check_models "same-literal arithmetic"
    ~expected:[ [ "q(1)"; "q(2)"; "v(2)"; "w(1,1)"; "w(1,2)"; "w(2,1)" ] ]
    (enumerate prog) (Asp.Naive.stable_models prog)

(* The closure finds each rule instance once and emission reuses it: over
   an n-node chain the transitive closure has n(n-1)/2 instances, each
   ticking the budget once when derived and once when emitted, whichever
   rule comes first. *)
let test_instances_once () =
  let n = 12 in
  let edges k =
    String.concat " " (List.init (k - 1) (fun i -> Printf.sprintf "edge(%d,%d)." (i + 1) (i + 2)))
  in
  let instances f =
    let budget = Asp.Budget.start Asp.Budget.no_limits in
    f budget;
    (Asp.Budget.progress budget).Asp.Budget.instances
  in
  List.iter
    (fun rules ->
      let prog = Asp.Parser.parse (edges n ^ "\n" ^ String.concat "\n" rules) in
      Alcotest.(check int) "full grounding" (n * (n - 1))
        (instances (fun budget -> ignore (Asp.Grounder.ground ~budget prog))))
    [
      [ "path(X,Y) :- edge(X,Y)."; "path(X,Z) :- path(X,Y), edge(Y,Z)." ];
      [ "path(X,Z) :- path(X,Y), edge(Y,Z)."; "path(X,Y) :- edge(X,Y)." ];
    ]

(* One answer set per way of picking one alternative from each group. *)
let product groups =
  List.fold_right
    (fun alts rest -> List.concat_map (fun alt -> List.map (fun r -> alt @ r) rest) alts)
    groups [ [] ]

(* ------------------------------------------------------------------ *)
(* Join kernel corners                                                 *)
(* ------------------------------------------------------------------ *)

(* Each join below exercises one corner of the grounder's compiled join
   steps.  The answer sets, restricted to the predicates in [show], are
   checked against atoms written out by hand, against [Asp.Naive] (which
   grounds with the same grounder) and against [Asp.Naive] over the program
   instantiated on [domain], whose rules the grounder joins without binding
   a variable. *)
let check_kernel msg src ~show ~domain ~expected =
  let prog = Asp.Parser.parse src in
  let only p = List.mem p show in
  let expected = List.sort compare (List.map (List.sort compare) expected) in
  let check what models =
    Alcotest.(check (list (list string))) (msg ^ ": " ^ what) expected (models_strings ~only models)
  in
  check "solver" (enumerate prog);
  check "naive" (Asp.Naive.stable_models prog);
  check "instantiated" (Asp.Naive.stable_models (instantiate domain prog))

let ints = List.map Asp.Term.int

(* Every subset of [xs]. *)
let subsets xs =
  List.fold_right (fun x rest -> rest @ List.map (fun s -> x :: s) rest) xs [ [] ]

let test_cmp_before_binders () =
  (* the comparison comes first but is checked only once both literals
     that bind it have matched *)
  let expected =
    List.concat_map
      (fun s ->
        List.filter_map
          (fun t ->
            if List.exists (fun x -> List.exists (fun y -> x < y) t) s then None
            else
              Some
                (List.map (Printf.sprintf "s(%d)") s @ List.map (Printf.sprintf "t(%d)") t))
          (subsets [ 2; 3 ]))
      (subsets [ 1; 2; 3 ])
  in
  check_kernel "comparison before its binders"
    {|p(1..3). q(2..3).
      { s(X) } :- p(X).
      { t(Y) } :- q(Y).
      :- X < Y, s(X), t(Y).|}
    ~show:[ "s"; "t" ] ~domain:(ints [ 1; 2; 3 ]) ~expected

let test_ne_function_terms () =
  let fn f x = Asp.Term.fun_ f [ Asp.Term.int x ] in
  check_kernel "!= between function terms"
    {|e(f(1), f(1)). e(f(1), f(2)). e(g(1), f(1)).
      diff(X, Y) :- e(X, Y), X != Y.
      other(A, F) :- e(f(A), F), F != f(A).|}
    ~show:[ "diff"; "other" ]
    ~domain:(ints [ 1; 2 ] @ [ fn "f" 1; fn "f" 2; fn "g" 1 ])
    ~expected:[ [ "diff(f(1),f(2))"; "diff(g(1),f(1))"; "other(1,f(2))" ] ]

let test_repeated_variable () =
  check_kernel "repeated variable"
    {|r(1, 1). r(1, 2). r(2, 2). r(3, 1).
      { u(X) } :- r(X, X).
      loop(X) :- r(X, X), u(X).|}
    ~show:[ "u"; "loop" ] ~domain:(ints [ 1; 2; 3 ])
    ~expected:(product [ [ []; [ "u(1)"; "loop(1)" ] ]; [ []; [ "u(2)"; "loop(2)" ] ] ])

let test_bound_literals_in_window () =
  (* The rule for a(X) comes first, so its first join sees only the facts,
     and p(3), e(f(3)), r(4), p(5), e(f(5)) reach it in the next round,
     which joins it over the window of new atoms under each literal in
     turn.  Under e(f(X)) the literal p(X) is bound and must match only
     atoms from before the window, as r(X + 1) must under p(X) in every
     round; otherwise a(3) is found, and emitted, twice. *)
  let src =
    {|p(1). e(f(1)). r(2). s(3). s(5).
      a(X) :- p(X), e(f(X)), r(X + 1), not b(X).
      { b(X) } :- p(X).
      p(X) :- s(X).
      e(f(X)) :- s(X).
      r(X + 1) :- s(X), X < 4.|}
  in
  check_kernel "window" src ~show:[ "a"; "b" ]
    ~domain:(ints [ 1; 2; 3; 4; 5; 6 ])
    ~expected:
      (product
         [ [ [ "a(1)" ]; [ "b(1)" ] ]; [ [ "a(3)" ]; [ "b(3)" ] ]; [ []; [ "b(5)" ] ] ]);
  let g, _ = Asp.Grounder.ground (Asp.Parser.parse src) in
  let rules = String.split_on_char '\n' (Format.asprintf "%a" Asp.Ground.pp g) in
  Alcotest.(check int) "window: no rule emitted twice"
    (List.length (List.sort_uniq compare rules)) (List.length rules)

let test_partly_bound_condition () =
  (* the condition b(Y, X) of the conditional literal has Y bound by the
     body and X bound by the condition itself *)
  check_kernel "partly bound condition"
    {|c(1). c(2). n(1..3). b(1, 1). b(1, 2). b(2, 3).
      { a(X) : n(X) }.
      all(Y) :- c(Y); a(X) : b(Y, X).|}
    ~show:[ "a"; "all" ] ~domain:(ints [ 1; 2; 3 ])
    ~expected:
      (product
         [
           [ []; [ "a(1)" ]; [ "a(2)" ]; [ "a(1)"; "a(2)"; "all(1)" ] ];
           [ []; [ "a(3)"; "all(2)" ] ];
         ])

let test_arith_before_binder () =
  (* r(X + 1) comes before p(X), which binds X: emission restores the
     instance the closure found without evaluating the arithmetic in
     literal order *)
  check_kernel "arithmetic before its binder"
    {|p(1). p(2). r(2). r(4).
      { q(X) } :- p(X).
      a(X) :- r(X + 1), p(X), q(X).|}
    ~show:[ "q"; "a" ] ~domain:(ints [ 1; 2; 3 ])
    ~expected:(product [ [ []; [ "q(1)"; "a(1)" ] ]; [ []; [ "q(2)" ] ] ])

(* ------------------------------------------------------------------ *)
(* Tightness                                                           *)
(* ------------------------------------------------------------------ *)

(* The list-based definition the CSR search of [Translate] replaced, kept
   verbatim as the oracle for its [tight] flag. *)
let has_positive_cycle_lists (g : Asp.Ground.t) natoms =
  let open Asp in
  let edges = Array.make natoms [] in
  let add_edges heads (b : Ground.body) =
    if Array.length b.pos > 0 then
      Array.iter (fun h -> edges.(h) <- Array.to_list b.pos @ edges.(h)) heads
  in
  Vec.iter
    (function
      | Ground.Rnormal (h, b) -> add_edges [| h |] b
      | Ground.Rchoice { heads; cbody; _ } -> add_edges heads cbody
      | Ground.Rconstraint _ -> ())
    g.Ground.rules;
  let color = Array.make natoms 0 in
  (* 0 white, 1 on stack, 2 done *)
  let cyclic = ref false in
  let rec visit stack =
    match stack with
    | [] -> ()
    | `Enter v :: rest ->
      if color.(v) = 1 then begin
        cyclic := true;
        visit rest
      end
      else if color.(v) = 2 then visit rest
      else begin
        color.(v) <- 1;
        visit (List.map (fun w -> `Enter w) edges.(v) @ (`Exit v :: rest))
      end
    | `Exit v :: rest ->
      color.(v) <- 2;
      visit rest
  in
  (try
     for v = 0 to natoms - 1 do
       if color.(v) = 0 && not !cyclic then visit [ `Enter v ]
     done
   with Stack_overflow -> cyclic := true);
  !cyclic

let check_tight msg (g : Asp.Ground.t) =
  let natoms = Asp.Gatom.Store.count g.Asp.Ground.store in
  Alcotest.(check bool) (msg ^ ": tight") (not (has_positive_cycle_lists g natoms))
    (Asp.Translate.translate g).Asp.Translate.tight

let ground_text src = fst (Asp.Grounder.ground (Asp.Parser.parse src))

let test_tight_random () =
  let programs =
    QCheck.Gen.generate ~rand:(Random.State.make [| 18 |]) ~n:300 (QCheck.gen gen_small_program)
  in
  let cyclic = ref 0 in
  List.iteri
    (fun i prog ->
      let g, _ = Asp.Grounder.ground prog in
      if not (Asp.Translate.translate g).Asp.Translate.tight then incr cyclic;
      check_tight (Printf.sprintf "random program %d" i) g)
    programs;
  (* both answers occur *)
  Alcotest.(check bool) "some random programs are not tight" true (!cyclic > 0);
  Alcotest.(check bool) "some random programs are tight" true (!cyclic < 300)

let test_tight_shapes () =
  List.iter
    (fun (msg, src, tight) ->
      let g = ground_text src in
      check_tight msg g;
      Alcotest.(check bool) (msg ^ ": expected") tight (Asp.Translate.translate g).Asp.Translate.tight)
    [
      ("self-loop", "{ b }. a :- a, b. a :- b.", false);
      ("choice-head cycle", "{ a; b } :- c. c :- a. { c }.", false);
      ("choice heads, no cycle", "{ a; b } :- c. { c }. d :- a, b.", true);
      ("long chain", String.concat " " (List.init 3000 (fun i -> Printf.sprintf "p%d :- p%d." i (i + 1))) ^ " { p3000 }.", true);
      ("long cycle", String.concat " " (List.init 3000 (fun i -> Printf.sprintf "p%d :- p%d." i (i + 1))) ^ " p3000 :- p0. { p0 }.", false);
    ]

let test_tight_pipelines () =
  let spack spec =
    let facts = Concretize.Facts.generate ~repo:Pkg.Repo_core.repo [ Specs.Spec_parser.parse spec ] in
    fst
      (Asp.Grounder.ground ~facts:facts.Concretize.Facts.atoms
         (Asp.Parser.parse Concretize.Logic_program.text))
  in
  let cudf stack =
    let enc = Cudf.Encode.generate (Cudf.Synth.universe ~seed:1 ~n:1000 ()) in
    fst
      (Asp.Grounder.ground ~facts:enc.Cudf.Encode.atoms
         (Asp.Parser.parse (Cudf.Logic.text stack)))
  in
  check_tight "spack zlib" (spack "zlib");
  check_tight "spack hdf5" (spack "hdf5");
  check_tight "cudf paranoid" (cudf Cudf.Criteria.Paranoid);
  check_tight "cudf trendy" (cudf Cudf.Criteria.Trendy)

(* ------------------------------------------------------------------ *)
(* Solver per-literal lists                                            *)
(* ------------------------------------------------------------------ *)

(* Every literal starts on a shared empty watch list and a shared empty
   PB-occurrence list, and gets its own vector on its first push.  These
   cases drive the pushes that happen late: constraints over variables
   created after a completed solve (how Optimize adds its bound and level
   literals), learnt-clause reduction, and solvers built on other
   domains. *)

module S = Asp.Sat

let pos = S.Lit.pos
and neg = S.Lit.neg

let check_shared_empty msg =
  Alcotest.(check bool) (msg ^ ": shared empty lists untouched") true
    (S.shared_lists_empty ())

let test_clauses_after_solve () =
  let s = S.create () in
  let a = S.new_var s and b = S.new_var s in
  S.add_clause s [ pos a; pos b ];
  Alcotest.(check bool) "first solve sat" true (S.solve s = S.Sat);
  (* 40 fresh variables: the per-variable arrays double twice, and every
     new literal's first watch is pushed after the solve *)
  let xs = Array.init 40 (fun _ -> S.new_var s) in
  for i = 0 to Array.length xs - 2 do
    S.add_clause s [ neg xs.(i); pos xs.(i + 1) ]
  done;
  Alcotest.(check bool) "chain sat under x0" true
    (S.solve ~assumptions:[ pos xs.(0) ] s = S.Sat);
  Array.iteri
    (fun i x -> Alcotest.(check bool) (Printf.sprintf "x%d propagated" i) true (S.value s (pos x)))
    xs;
  S.add_clause s [ neg xs.(39); neg a ];
  S.add_clause s [ neg xs.(39); neg b ];
  Alcotest.(check bool) "chain end conflicts with a or b" true
    (S.solve ~assumptions:[ pos xs.(0) ] s = S.Unsat);
  Alcotest.(check (list int)) "core is the chain start" [ pos xs.(0) ] (S.last_core s);
  Alcotest.(check bool) "sat without the assumption" true (S.solve s = S.Sat);
  Alcotest.(check bool) "x0 forced false" false (S.value s (pos xs.(0)));
  check_shared_empty "clauses after solve"

let test_pb_after_solve () =
  let s = S.create () in
  let a = S.new_var s in
  S.add_clause s [ pos a ];
  Alcotest.(check bool) "first solve sat" true (S.solve s = S.Sat);
  let ys = Array.init 24 (fun _ -> S.new_var s) in
  (* at most two of the fresh literals, the shape of a bound constraint *)
  S.add_pb_le s (Array.to_list (Array.map (fun y -> (1, pos y)) ys)) 2;
  Alcotest.(check bool) "two of them fit" true
    (S.solve ~assumptions:[ pos ys.(3); pos ys.(17) ] s = S.Sat);
  Array.iteri
    (fun i y ->
      Alcotest.(check bool) (Printf.sprintf "y%d" i) (i = 3 || i = 17) (S.value s (pos y)))
    ys;
  Alcotest.(check bool) "three overflow the cap" true
    (S.solve ~assumptions:[ pos ys.(0); pos ys.(5); pos ys.(23) ] s = S.Unsat);
  (* a weighted constraint over more fresh variables, forced at level 0 *)
  let zs = Array.init 8 (fun _ -> S.new_var s) in
  S.add_pb_le s [ (3, pos zs.(0)); (2, pos zs.(1)); (1, neg zs.(2)) ] 2;
  S.add_clause s [ neg zs.(2); pos zs.(1) ];
  Alcotest.(check bool) "weighted sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "z0 propagated false" false (S.value s (pos zs.(0)));
  Alcotest.(check bool) "z2 implies z1" true
    ((not (S.value s (pos zs.(2)))) || S.value s (pos zs.(1)));
  S.add_clause s [ pos zs.(0); pos zs.(3) ];
  S.add_clause s [ pos zs.(0); neg zs.(3) ];
  Alcotest.(check bool) "forcing z0 conflicts with its weight" true (S.solve s = S.Unsat);
  check_shared_empty "pb after solve"

let test_reduce_db_lists () =
  (* a learnt cap of 2 makes every few conflicts run the learnt-clause
     reduction, which compacts every literal's watch list *)
  let params = { S.default_params with S.learnt_start = 2; learnt_inc = 1.05 } in
  let s = S.create ~params () in
  let np = 7 and nh = 6 in
  let x = Array.init np (fun _ -> Array.init nh (fun _ -> S.new_var s)) in
  (* never-watched literals around the instance *)
  ignore (Array.init 50 (fun _ -> S.new_var s));
  for p = 0 to np - 1 do
    S.add_clause s (List.init nh (fun h -> pos x.(p).(h)))
  done;
  for h = 0 to nh - 1 do
    for p1 = 0 to np - 1 do
      for p2 = p1 + 1 to np - 1 do
        S.add_clause s [ neg x.(p1).(h); neg x.(p2).(h) ]
      done
    done
  done;
  Alcotest.(check bool) "php(7,6) unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "enough conflicts to reduce" true ((S.stats s).S.conflicts > 10);
  check_shared_empty "reduce_db"

let test_portfolio_lists () =
  (* many atoms that no constraint mentions: their literals stay on the
     shared lists while racers on other domains solve *)
  let src =
    {|n(1..60). pad(X) :- n(X).
      item(1..6).
      { pick(X) : item(X) }.
      :- pick(X), pick(Y), X < Y, Y - X < 2.
      #maximize { X@1,X : pick(X) }.|}
  in
  let ground, _ = Asp.Grounder.ground (Asp.Parser.parse src) in
  let config = Asp.Config.default in
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      let outcome =
        Asp.Portfolio.race ~pool
          ~racers:(Asp.Portfolio.racers ~config 3)
          ~budget:(Asp.Budget.start Asp.Budget.no_limits)
          ground
      in
      match outcome.Asp.Portfolio.attempt with
      | Asp.Portfolio.Model { costs; quality; _ } ->
        Alcotest.(check bool) "optimal" true (quality = `Optimal);
        Alcotest.(check (list (pair int int))) "best pick 2,4,6" [ (1, -12) ] costs
      | _ -> Alcotest.fail "portfolio found no model");
  check_shared_empty "portfolio"

(* ------------------------------------------------------------------ *)
(* Translation of integrity constraints                                *)
(* ------------------------------------------------------------------ *)

(* Integrity constraints become one clause over the negated body literals,
   with no body-indicator variable.  Each program below is built by hand on
   [Ground.t]: a choice [{ a; b }] with an empty body (no indicator either),
   facts [f] and [g], and one or more constraints. *)

module G = Asp.Ground

type hand = { hg : G.t; a : int; b : int; f : int; g : int }

let add_rule hg r =
  G.push_rule hg r { G.o_line = G.num_rules hg + 1; o_text = ""; o_pos = [||] }

let hand_program () =
  let store = Asp.Gatom.Store.create () in
  let atom name = Asp.Gatom.Store.intern store (Asp.Gatom.make name []) in
  let a = atom "a" and b = atom "b" and f = atom "f" and g = atom "g" in
  Asp.Gatom.Store.mark_fact store f;
  Asp.Gatom.Store.mark_fact store g;
  let hg = G.create store in
  add_rule hg (G.Rchoice { lb = None; ub = None; heads = [| a; b |]; cbody = G.empty_body });
  { hg; a; b; f; g }

let constr ?(pos = [||]) ?(neg = [||]) () = G.Rconstraint { G.pos; neg }

(* the variables of the atoms' literals *)
let lit_vars (tr : Asp.Translate.t) =
  Array.to_list tr.Asp.Translate.lit_of_atom
  |> List.filter_map (fun l -> if l >= 0 then Some (S.Lit.var l) else None)
  |> List.sort_uniq Int.compare

let atom_vars tr = List.length (lit_vars tr)

let check_no_indicator msg tr ~extra =
  Alcotest.(check int) (msg ^ ": no indicator variable") (atom_vars tr + extra)
    (S.num_vars tr.Asp.Translate.sat)

let lit_of tr id = Option.get (Asp.Translate.atom_lit tr id)

let test_constraint_fact_pos () =
  (* :- f, a.  The fact literal is dropped: the clause is [not a]. *)
  let h = hand_program () in
  add_rule h.hg (constr ~pos:[| h.f; h.a |] ());
  let tr = Asp.Translate.translate h.hg in
  check_no_indicator "fact positive" tr ~extra:0;
  Alcotest.(check int) "a and b have variables" 2 (atom_vars tr);
  Alcotest.(check bool) "a cannot hold" true
    (S.solve ~assumptions:[ lit_of tr h.a ] tr.sat = S.Unsat);
  Alcotest.(check bool) "b is free" true (S.solve ~assumptions:[ lit_of tr h.b ] tr.sat = S.Sat)

let test_constraint_negated_fact () =
  (* :- a, b, not f.  [not f] never holds, so the constraint adds no clause. *)
  let h = hand_program () in
  add_rule h.hg (constr ~pos:[| h.a; h.b |] ~neg:[| h.f |] ());
  let tr = Asp.Translate.translate h.hg in
  check_no_indicator "negated fact" tr ~extra:0;
  Alcotest.(check bool) "a and b together" true
    (S.solve ~assumptions:[ lit_of tr h.a; lit_of tr h.b ] tr.sat = S.Sat)

let test_constraint_unsupported_atom () =
  (* :- z, not a.  [z] heads no rule: it gets a variable that completion
     fixes false, so the constraint never fires and [a] stays free. *)
  let h = hand_program () in
  let z = Asp.Gatom.Store.intern h.hg.G.store (Asp.Gatom.make "z" []) in
  add_rule h.hg (constr ~pos:[| z |] ~neg:[| h.a |] ());
  let tr = Asp.Translate.translate h.hg in
  check_no_indicator "unsupported atom" tr ~extra:0;
  Alcotest.(check int) "a, b and z have variables" 3 (atom_vars tr);
  Alcotest.(check bool) "a false is allowed" true
    (S.solve ~assumptions:[ S.Lit.negate (lit_of tr h.a) ] tr.sat = S.Sat);
  Alcotest.(check bool) "z false" false (Asp.Translate.atom_is_true tr z)

let test_constraint_all_facts () =
  (* :- a, not b.  :- f, g.  The second body is all facts: the empty
     clause. *)
  let h = hand_program () in
  add_rule h.hg (constr ~pos:[| h.a |] ~neg:[| h.b |] ());
  add_rule h.hg (constr ~pos:[| h.f; h.g |] ());
  let tr = Asp.Translate.translate h.hg in
  check_no_indicator "all facts" tr ~extra:0;
  Alcotest.(check bool) "unsat" true (S.solve tr.sat = S.Unsat)

let test_constraint_selectors () =
  (* :- not a.  :- a, f.  Together UNSAT; each is guarded by a selector and
     the core names both rule indices (1 and 2; rule 0 is the choice). *)
  let h = hand_program () in
  add_rule h.hg (constr ~neg:[| h.a |] ());
  add_rule h.hg (constr ~pos:[| h.a; h.f |] ());
  add_rule h.hg (constr ~pos:[| h.a; h.b |] ());
  let tr, sels = Asp.Translate.translate_with_selectors h.hg in
  Alcotest.(check (list int)) "one selector per constraint" [ 1; 2; 3 ] (List.map snd sels);
  check_no_indicator "selectors" tr ~extra:(List.length sels);
  let assumptions = List.map fst sels in
  Alcotest.(check bool) "unsat under all selectors" true
    (S.solve ~assumptions tr.sat = S.Unsat);
  let core, minimal = S.shrink_core tr.sat (S.last_core tr.sat) in
  Alcotest.(check bool) "minimal" true minimal;
  let rules = List.sort compare (List.map (fun l -> List.assoc l sels) core) in
  Alcotest.(check (list int)) "core names the guarded rules" [ 1; 2 ] rules;
  Alcotest.(check bool) "sat with the third alone" true
    (S.solve ~assumptions:[ fst (List.nth sels 2) ] tr.sat = S.Sat)

let test_choice_bound_selector () =
  (* { a; b }.  { a; b } 1 :- f.  :- not a.  :- not b.  The upper bound
     conflicts with the two constraints only together: it is guarded by a
     selector of its own, so the core names rules 1 to 3, and without its
     selector both atoms hold. *)
  let h = hand_program () in
  add_rule h.hg
    (G.Rchoice { lb = None; ub = Some 1; heads = [| h.a; h.b |]; cbody = { G.pos = [| h.f |]; neg = [||] } });
  add_rule h.hg (constr ~neg:[| h.a |] ());
  add_rule h.hg (constr ~neg:[| h.b |] ());
  let tr, sels = Asp.Translate.translate_with_selectors h.hg in
  Alcotest.(check (list int)) "a selector per bound and constraint" [ 1; 2; 3 ]
    (List.map snd sels);
  check_no_indicator "selectors" tr ~extra:(List.length sels);
  Alcotest.(check bool) "unsat under all selectors" true
    (S.solve ~assumptions:(List.map fst sels) tr.sat = S.Unsat);
  let core, minimal = S.shrink_core tr.sat (S.last_core tr.sat) in
  Alcotest.(check bool) "minimal" true minimal;
  let rules = List.sort compare (List.map (fun l -> List.assoc l sels) core) in
  Alcotest.(check (list int)) "core names the bound" [ 1; 2; 3 ] rules;
  Alcotest.(check bool) "sat without the bound's selector" true
    (S.solve ~assumptions:(List.map fst (List.tl sels)) tr.sat = S.Sat)

(* ------------------------------------------------------------------ *)
(* Atoms that are their body                                           *)
(* ------------------------------------------------------------------ *)

(* An atom whose only rule is a normal rule is that rule's body: it shares
   the body's literal and has no variable of its own.  The programs start
   from [hand_program]'s choice [{ a; b }] (two variables) and facts [f],
   [g]. *)

let fresh h name = Asp.Gatom.Store.intern h.hg.G.store (Asp.Gatom.make name [])
let normal h head ?(pos = [||]) ?(neg = [||]) () = add_rule h.hg (G.Rnormal (head, { G.pos; neg }))

(* Every stable model of [tr]'s program, as the sorted ids of its true
   atoms: solve, block the model on its atoms' literals, repeat. *)
let models_of (tr : Asp.Translate.t) =
  let natoms = Asp.Gatom.Store.count tr.Asp.Translate.ground.G.store in
  let vars = lit_vars tr in
  let block v = if S.value tr.sat (S.Lit.pos v) then S.Lit.neg v else S.Lit.pos v in
  let rec go acc =
    match S.solve ~on_model:(Asp.Stable.hook tr) tr.sat with
    | S.Unsat -> List.sort compare acc
    | S.Sat ->
      let m = List.filter (Asp.Translate.atom_is_true tr) (List.init natoms Fun.id) in
      S.add_clause tr.sat (List.map block vars);
      go (m :: acc)
  in
  go []

let naive_models g =
  let natoms = Asp.Gatom.Store.count g.G.store in
  snd (Asp.Naive.stable_models_ground g)
  |> List.map (fun truth -> List.filter (fun i -> truth.(i)) (List.init natoms Fun.id))
  |> List.sort compare

let check_models msg h =
  Alcotest.(check (list (list int))) (msg ^ ": models match naive") (naive_models h.hg)
    (models_of (Asp.Translate.translate h.hg))

let test_alias_literal () =
  (* p :- a.  q :- not a.  Both share a's variable: p's literal is a's,
     q's its negation. *)
  let h = hand_program () in
  let p = fresh h "p" and q = fresh h "q" in
  normal h p ~pos:[| h.a |] ();
  normal h q ~neg:[| h.a |] ();
  let tr = Asp.Translate.translate h.hg in
  Alcotest.(check int) "a and b only" 2 (S.num_vars tr.sat);
  Alcotest.(check int) "p is a" (lit_of tr h.a) (lit_of tr p);
  Alcotest.(check int) "q is not a" (S.Lit.negate (lit_of tr h.a)) (lit_of tr q);
  check_models "literal" h

let test_alias_shared_body () =
  (* p :- a, b.  { c } :- a, b.  p is the body's auxiliary, which the
     choice rule's body shares. *)
  let h = hand_program () in
  let p = fresh h "p" and c = fresh h "c" in
  normal h p ~pos:[| h.a; h.b |] ();
  add_rule h.hg
    (G.Rchoice
       { lb = None; ub = None; heads = [| c |]; cbody = { G.pos = [| h.a; h.b |]; neg = [||] } });
  let tr = Asp.Translate.translate h.hg in
  Alcotest.(check int) "a, b, c and one auxiliary" 4 (S.num_vars tr.sat);
  Alcotest.(check (option int)) "the choice body is p" (Some (lit_of tr p))
    (Asp.Translate.support_lit tr 2);
  Alcotest.(check bool) "p with a and b" true
    (S.solve ~assumptions:[ lit_of tr h.a; lit_of tr h.b; S.Lit.negate (lit_of tr p) ] tr.sat
    = S.Unsat);
  Alcotest.(check bool) "p without b" true
    (S.solve ~assumptions:[ S.Lit.negate (lit_of tr h.b); lit_of tr p ] tr.sat = S.Unsat);
  check_models "shared body" h

let test_alias_keeps_variable () =
  (* p :- a.  p :- b.  a :- b.  p has two rules and a is a choice head:
     both keep their variables. *)
  let h = hand_program () in
  let p = fresh h "p" in
  normal h p ~pos:[| h.a |] ();
  normal h p ~pos:[| h.b |] ();
  normal h h.a ~pos:[| h.b |] ();
  let tr = Asp.Translate.translate h.hg in
  Alcotest.(check int) "a, b and p" 3 (atom_vars tr);
  Alcotest.(check int) "no other variable" 3 (S.num_vars tr.sat);
  Alcotest.(check bool) "p is its own" true
    (lit_of tr p <> lit_of tr h.a && lit_of tr p <> lit_of tr h.b);
  check_models "two rules" h

let test_alias_positive_cycle () =
  (* p :- q.  q :- p.  p, met again while its own body is resolved, keeps
     a variable and q is p; no stable model makes them true. *)
  let h = hand_program () in
  let p = fresh h "p" and q = fresh h "q" in
  normal h p ~pos:[| q |] ();
  normal h q ~pos:[| p |] ();
  let tr = Asp.Translate.translate h.hg in
  Alcotest.(check int) "one variable for the cycle" 3 (S.num_vars tr.sat);
  Alcotest.(check bool) "not tight" false tr.tight;
  check_models "positive cycle" h

let test_alias_negative_pair () =
  (* p :- not q.  q :- not p.  r :- p, a.  One of p, q keeps a variable,
     the other is its negation. *)
  let h = hand_program () in
  let p = fresh h "p" and q = fresh h "q" and r = fresh h "r" in
  normal h p ~neg:[| q |] ();
  normal h q ~neg:[| p |] ();
  normal h r ~pos:[| p; h.a |] ();
  let tr = Asp.Translate.translate h.hg in
  Alcotest.(check int) "p and q are one variable" (S.Lit.negate (lit_of tr p)) (lit_of tr q);
  Alcotest.(check int) "a, b, p or q, r's body" 4 (S.num_vars tr.sat);
  check_models "negative pair" h

let test_alias_promoted_fact () =
  (* p :- a.  q :- p.  s :- not p.  Then p becomes a fact (as when a later
     emission derives it): q always holds, s never does. *)
  let h = hand_program () in
  let p = fresh h "p" and q = fresh h "q" and s = fresh h "s" in
  normal h p ~pos:[| h.a |] ();
  normal h q ~pos:[| p |] ();
  normal h s ~neg:[| p |] ();
  Asp.Gatom.Store.mark_fact h.hg.G.store p;
  let tr = Asp.Translate.translate h.hg in
  Alcotest.(check int) "a and b only" 2 (S.num_vars tr.sat);
  Alcotest.(check (option int)) "q has no literal" None (Asp.Translate.atom_lit tr q);
  Alcotest.(check bool) "q holds" true (Asp.Translate.atom_is_true tr q);
  Alcotest.(check bool) "s does not" false (Asp.Translate.atom_is_true tr s);
  check_models "promoted fact" h

let test_alias_fact_body () =
  (* p :- a.  p :- f, g.  q :- not p.  p has two rules, so it keeps its
     variable; the second body holds by facts alone, which fixes p true
     and q false. *)
  let h = hand_program () in
  let p = fresh h "p" and q = fresh h "q" in
  normal h p ~pos:[| h.a |] ();
  normal h p ~pos:[| h.f; h.g |] ();
  normal h q ~neg:[| p |] ();
  check_models "fact body" h

let test_alias_selectors () =
  (* p :- a.  :- not p.  :- p, b.  :- not b.  The three constraints (rules
     2 to 4) conflict only together, through p's shared literal: the core
     names all three. *)
  let h = hand_program () in
  let p = fresh h "p" in
  normal h p ~pos:[| h.a |] ();
  add_rule h.hg (constr ~neg:[| p |] ());
  add_rule h.hg (constr ~pos:[| p; h.b |] ());
  add_rule h.hg (constr ~neg:[| h.b |] ());
  let tr, sels = Asp.Translate.translate_with_selectors h.hg in
  check_no_indicator "selectors" tr ~extra:(List.length sels);
  Alcotest.(check bool) "unsat under all selectors" true
    (S.solve ~assumptions:(List.map fst sels) tr.sat = S.Unsat);
  let core, minimal = S.shrink_core tr.sat (S.last_core tr.sat) in
  Alcotest.(check bool) "minimal" true minimal;
  let rules = List.sort compare (List.map (fun l -> List.assoc l sels) core) in
  Alcotest.(check (list int)) "core names the guarded rules" [ 2; 3; 4 ] rules

let () =
  let qsuite =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_agrees_with_naive;
        prop_optimal_cost_matches_naive;
        prop_usc_matches_bb;
        prop_enumerate_matches_naive;
        prop_strategies_match_naive;
        prop_choice_body_heads;
      ]
  in
  Alcotest.run "asp"
    [
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "conditional literals" `Quick test_parse_conditional;
          Alcotest.test_case "syntax errors" `Quick test_parse_errors;
          Alcotest.test_case "parse error position" `Quick test_parse_error_position;
          Alcotest.test_case "lexer error position" `Quick test_lexer_error_position;
          Alcotest.test_case "arithmetic precedence" `Quick test_parse_arith;
        ] );
      ( "solving",
        [
          Alcotest.test_case "facts only" `Quick test_facts_only;
          Alcotest.test_case "dependency closure" `Quick test_closure;
          Alcotest.test_case "integrity constraint" `Quick test_integrity_constraint;
          Alcotest.test_case "figure 3" `Quick test_fig3;
          Alcotest.test_case "negation" `Quick test_negation;
          Alcotest.test_case "negation cycle" `Quick test_negation_cycle_two_models;
          Alcotest.test_case "unfounded loop rejected" `Quick test_unfounded_rejected;
          Alcotest.test_case "loop external support" `Quick
            test_loop_external_support_via_other_atom;
          Alcotest.test_case "choice-founded loop" `Quick test_unfounded_with_choice;
          Alcotest.test_case "choice cardinality" `Quick test_choice_cardinality;
          Alcotest.test_case "choice bound unsat" `Quick test_choice_bound_unsat;
          Alcotest.test_case "acyclicity constraint" `Quick test_cycle_detection_path;
          Alcotest.test_case "arithmetic" `Quick test_arith_in_rules;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
        ] );
      ( "optimization",
        [
          Alcotest.test_case "paper version choice" `Quick test_paper_version_choice;
          Alcotest.test_case "forced cost" `Quick test_optimization_forced_cost;
          Alcotest.test_case "multi level" `Quick test_multi_level_optimization;
          Alcotest.test_case "maximize" `Quick test_maximize;
          Alcotest.test_case "first model optimal" `Quick test_first_model_optimal;
          Alcotest.test_case "zero optimum decided first" `Quick test_zero_optimum_first;
        ] );
      ( "grounder",
        [
          Alcotest.test_case "error reporting" `Quick test_grounder_errors;
          Alcotest.test_case "arithmetic operators" `Quick test_arith_operators;
          Alcotest.test_case "choice guard generators" `Quick test_choice_guard_generates;
          Alcotest.test_case "minimize with negation guard" `Quick
            test_minimize_with_negation_guard;
          Alcotest.test_case "strings and comments" `Quick test_lexer_strings_and_comments;
          Alcotest.test_case "degenerate programs" `Quick test_empty_and_weird_programs;
          Alcotest.test_case "intervals" `Quick test_intervals;
          Alcotest.test_case "#const" `Quick test_const_directive;
          Alcotest.test_case "#show" `Quick test_show_directive;
          Alcotest.test_case "function terms" `Quick test_function_terms;
          Alcotest.test_case "functor mismatch" `Quick test_function_term_mismatch;
          Alcotest.test_case "enumeration limit" `Quick test_enumerate_limit;
          Alcotest.test_case "each instance once" `Quick test_instances_once;
        ] );
      ( "conditions",
        [
          Alcotest.test_case "generalized conditions" `Quick test_generalized_conditions;
          Alcotest.test_case "unmet requirement" `Quick test_generalized_conditions_unmet;
          Alcotest.test_case "condition triggers choice" `Quick
            test_condition_triggers_choice;
        ] );
      ( "choice rules",
        [
          Alcotest.test_case "body among the heads" `Quick test_choice_body_heads;
          Alcotest.test_case "printed bounds" `Quick test_choice_printed_bounds;
        ] );
      ( "bound lookup",
        [
          Alcotest.test_case "constant, function and arithmetic" `Quick test_bound_literals;
          Alcotest.test_case "same-literal arithmetic" `Quick test_same_literal_arithmetic;
        ] );
      ( "join kernel",
        [
          Alcotest.test_case "comparison before its binders" `Quick test_cmp_before_binders;
          Alcotest.test_case "!= between function terms" `Quick test_ne_function_terms;
          Alcotest.test_case "repeated variable" `Quick test_repeated_variable;
          Alcotest.test_case "bound literals in a window" `Quick test_bound_literals_in_window;
          Alcotest.test_case "partly bound condition" `Quick test_partly_bound_condition;
          Alcotest.test_case "arithmetic before its binder" `Quick test_arith_before_binder;
        ] );
      ( "tightness",
        [
          Alcotest.test_case "random programs" `Quick test_tight_random;
          Alcotest.test_case "self-loops and choice heads" `Quick test_tight_shapes;
          Alcotest.test_case "spack and cudf programs" `Quick test_tight_pipelines;
        ] );
      ( "solver lists",
        [
          Alcotest.test_case "clauses after a solve" `Quick test_clauses_after_solve;
          Alcotest.test_case "pb constraints after a solve" `Quick test_pb_after_solve;
          Alcotest.test_case "learnt reduction" `Quick test_reduce_db_lists;
          Alcotest.test_case "portfolio on other domains" `Quick test_portfolio_lists;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "fact positive literal" `Quick test_constraint_fact_pos;
          Alcotest.test_case "negated fact" `Quick test_constraint_negated_fact;
          Alcotest.test_case "unsupported positive atom" `Quick
            test_constraint_unsupported_atom;
          Alcotest.test_case "all-fact body" `Quick test_constraint_all_facts;
          Alcotest.test_case "selectors name rules" `Quick test_constraint_selectors;
          Alcotest.test_case "selectors name choice bounds" `Quick test_choice_bound_selector;
        ] );
      ( "aliases",
        [
          Alcotest.test_case "one literal" `Quick test_alias_literal;
          Alcotest.test_case "shared body" `Quick test_alias_shared_body;
          Alcotest.test_case "two rules keep a variable" `Quick test_alias_keeps_variable;
          Alcotest.test_case "positive cycle" `Quick test_alias_positive_cycle;
          Alcotest.test_case "negative pair" `Quick test_alias_negative_pair;
          Alcotest.test_case "promoted fact" `Quick test_alias_promoted_fact;
          Alcotest.test_case "fact body" `Quick test_alias_fact_body;
          Alcotest.test_case "selectors" `Quick test_alias_selectors;
        ] );
      ("properties", qsuite);
    ]
