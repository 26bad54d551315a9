(* Domain pool, portfolio racing and the answer index.

   The portfolio contract under test (DESIGN.md "Parallel architecture"):
   racing N diverse configurations never changes the *cost vector* — the
   lexicographic optimum is unique, so every racer that completes proves the
   same one — and losers stop through cancellation, not by running to
   completion on their own. *)

module B = Asp.Budget

(* the weighted vertex cover of test_budget: two optimization levels, a
   unique optimal cost vector, small enough for Asp.Naive *)
let cover_src =
  {|node(1..5).
    edge(1,2). edge(2,3). edge(3,4). edge(4,5). edge(5,1). edge(1,3).
    { in(X) : node(X) }.
    :- edge(X,Y), not in(X), not in(Y).
    w(1,3). w(2,1). w(3,4). w(4,1). w(5,5).
    #minimize { W@2,X : in(X), w(X,W) }.
    #minimize { 1@1,X : in(X) }.|}

let cover = Asp.Parser.parse cover_src

let naive_models =
  List.map (List.sort Asp.Gatom.compare) (Asp.Naive.stable_models cover)

let is_stable_model answer =
  List.mem (List.sort Asp.Gatom.compare answer) naive_models

let unsat_src = {|{ p }. :- p. :- not p.|}

let choice_src = {|{ a; b; c }.|}

(* a sweep of small programs with unique optimal cost vectors: portfolio
   and sequential solving must agree on every one *)
let example_srcs =
  [
    ("cover", cover_src);
    ( "coloring",
      {|vtx(1..4).
        e(1,2). e(2,3). e(3,4). e(4,1). e(1,3).
        col(r). col(g). col(b).
        1 { color(V,C) : col(C) } 1 :- vtx(V).
        :- e(X,Y), color(X,C), color(Y,C).
        pay(b,2). pay(g,1). pay(r,0).
        #minimize { P,V : color(V,C), pay(C,P) }.|} );
    ( "reach",
      {|arc(a,b). arc(b,c). arc(a,c). arc(c,d).
        start(a).
        reach(X) :- start(X).
        reach(Y) :- reach(X), arc(X,Y).
        { keep(X,Y) : arc(X,Y) }.
        kept(Y) :- start(Y).
        kept(Y) :- kept(X), keep(X,Y).
        :- reach(X), not kept(X).
        #minimize { 1,X,Y : keep(X,Y) }.|} );
  ]

let sequential_costs config =
  match Asp.Solve.solve_program ~config cover with
  | Asp.Solve.Sat o ->
    Alcotest.(check bool) "sequential baseline optimal" true
      (o.Asp.Solve.stats.Asp.Solve.quality = `Optimal);
    o.Asp.Solve.stats.Asp.Solve.costs
  | _ -> Alcotest.fail "sequential baseline did not return SAT"

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order () =
  Asp.Pool.with_pool ~domains:4 (fun p ->
      Alcotest.(check int) "size" 4 (Asp.Pool.size p);
      let xs = List.init 50 Fun.id in
      Alcotest.(check (list int))
        "results in input order"
        (List.map (fun x -> x * x) xs)
        (Asp.Pool.map_list p (fun x -> x * x) xs))

exception Boom of int

let test_pool_exception () =
  Asp.Pool.with_pool ~domains:3 (fun p ->
      (match Asp.Pool.map_list p (fun x -> if x = 7 then raise (Boom x) else x) (List.init 20 Fun.id) with
      | _ -> Alcotest.fail "expected the job's exception to propagate"
      | exception Boom 7 -> ());
      (* the pool survives an exceptional batch *)
      Alcotest.(check (list int)) "pool still usable" [ 2; 4 ]
        (Asp.Pool.map_list p (fun x -> 2 * x) [ 1; 2 ]))

let test_pool_stress () =
  Asp.Pool.with_pool ~domains:4 (fun p ->
      for _round = 1 to 5 do
        let xs = List.init 200 Fun.id in
        let total =
          List.fold_left ( + ) 0 (Asp.Pool.map_list p (fun x -> x + 1) xs)
        in
        Alcotest.(check int) "round sum" (200 * 201 / 2) total
      done)

let test_pool_shutdown () =
  let p = Asp.Pool.create ~domains:2 in
  let f = Asp.Pool.submit p (fun () -> 41 + 1) in
  Asp.Pool.shutdown p;
  Asp.Pool.shutdown p (* idempotent *);
  Alcotest.(check int) "queued job drained before join" 42 (Asp.Pool.await f);
  match Asp.Pool.submit p (fun () -> 0) with
  | _ -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Cancel tokens                                                       *)
(* ------------------------------------------------------------------ *)

let test_child_token () =
  let parent = B.token () in
  let child = B.child_token parent in
  Alcotest.(check bool) "fresh child clear" false (B.is_cancelled child);
  B.cancel child;
  Alcotest.(check bool) "child cancelled" true (B.is_cancelled child);
  Alcotest.(check bool) "parent untouched by child" false (B.is_cancelled parent);
  let parent2 = B.token () in
  let child2 = B.child_token parent2 in
  B.cancel parent2;
  Alcotest.(check bool) "parent cancellation reaches child" true
    (B.is_cancelled child2)

let test_sibling_budget () =
  let b = B.start { B.no_limits with B.conflicts = Some 3 } in
  let s = B.sibling b in
  (* exhaust the parent *)
  (match
     for _ = 1 to 10 do
       B.tick_conflict b
     done
   with
  | () -> Alcotest.fail "parent budget should exhaust"
  | exception B.Exhausted info ->
    Alcotest.(check bool) "parent reason" true (info.B.reason = B.Conflict_limit));
  (* the sibling has the same limit but fresh counters *)
  B.tick_conflict s;
  B.tick_conflict s;
  Alcotest.(check int) "sibling counts from zero" 2 (B.progress s).B.conflicts

(* ------------------------------------------------------------------ *)
(* Portfolio                                                           *)
(* ------------------------------------------------------------------ *)

let test_portfolio_matches_sequential () =
  Asp.Pool.with_pool ~domains:3 (fun pool ->
      List.iter
        (fun strategy ->
          let config = Asp.Config.make ~strategy () in
          List.iter
            (fun (name, src) ->
              let prog = Asp.Parser.parse src in
              let baseline =
                match Asp.Solve.solve_program ~config prog with
                | Asp.Solve.Sat o -> o.Asp.Solve.stats.Asp.Solve.costs
                | _ -> Alcotest.failf "%s: sequential solve not SAT" name
              in
              match Asp.Solve.solve_program ~pool ~config ~jobs:3 prog with
              | Asp.Solve.Sat o ->
                Alcotest.(check (list (pair int int)))
                  (name ^ ": portfolio cost vector equals sequential") baseline
                  o.Asp.Solve.stats.Asp.Solve.costs;
                Alcotest.(check bool) (name ^ ": portfolio quality optimal")
                  true
                  (o.Asp.Solve.stats.Asp.Solve.quality = `Optimal);
                if name = "cover" then
                  Alcotest.(check bool)
                    (name ^ ": portfolio answer is a stable model") true
                    (is_stable_model o.Asp.Solve.answer)
              | _ -> Alcotest.failf "%s: portfolio did not return SAT" name)
            example_srcs)
        [ Asp.Config.Bb; Asp.Config.Usc ])

let test_portfolio_unsat () =
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      match
        Asp.Solve.solve_program ~pool ~jobs:2 (Asp.Parser.parse unsat_src)
      with
      | Asp.Solve.Unsat _ -> ()
      | _ -> Alcotest.fail "portfolio should prove UNSAT")

(* every racer either completes with the same proof or is stopped by the
   winner's cancellation — no loser survives with a divergent result *)
let test_racers_agree_or_cancelled () =
  let ground, _ = Asp.Grounder.ground cover in
  let config = Asp.Config.default in
  let baseline = sequential_costs config in
  Asp.Pool.with_pool ~domains:3 (fun pool ->
      let budget = B.start B.no_limits in
      let outcome =
        Asp.Portfolio.race ~pool
          ~racers:(Asp.Portfolio.racers ~config 3)
          ~budget ground
      in
      Alcotest.(check int) "every racer reported" 3
        (List.length outcome.Asp.Portfolio.attempts);
      List.iter
        (fun (rname, attempt) ->
          match attempt with
          | Asp.Portfolio.Model { costs; quality; _ } ->
            if quality = `Optimal then
              Alcotest.(check (list (pair int int)))
                (rname ^ ": completed racer proves the same optimum") baseline
                costs
          | Asp.Portfolio.Proved_unsat ->
            Alcotest.failf "%s: SAT instance reported UNSAT" rname
          | Asp.Portfolio.Gave_up info ->
            (* no declarative limits: the only way to give up is the
               winner's cancellation *)
            Alcotest.(check bool)
              (rname ^ ": loser was cancelled, not exhausted")
              true
              (info.B.reason = B.Cancelled)
          | Asp.Portfolio.Quarantined { violations } ->
            Alcotest.failf "%s: model failed independent verification: %s"
              rname
              (String.concat "; " violations))
        outcome.Asp.Portfolio.attempts;
      match outcome.Asp.Portfolio.attempt with
      | Asp.Portfolio.Model { costs; _ } ->
        Alcotest.(check (list (pair int int))) "winner costs" baseline costs
      | _ -> Alcotest.fail "race on a SAT instance must produce a model")

let test_race_cancelled_promptly () =
  let ground, _ = Asp.Grounder.ground cover in
  let tok = B.token () in
  B.cancel tok;
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      let budget = B.start ~cancel:tok B.no_limits in
      let t0 = Unix.gettimeofday () in
      let outcome =
        Asp.Portfolio.race ~pool
          ~racers:(Asp.Portfolio.racers 2)
          ~budget ground
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      (match outcome.Asp.Portfolio.attempt with
      | Asp.Portfolio.Gave_up info ->
        Alcotest.(check bool) "reason is cancellation" true
          (info.B.reason = B.Cancelled)
      | _ -> Alcotest.fail "cancelled race must give up");
      Alcotest.(check bool) "cancelled race returns promptly" true
        (elapsed < 5.0))

(* ------------------------------------------------------------------ *)
(* Concretizer integration: portfolio and batch determinism            *)
(* ------------------------------------------------------------------ *)

let costs_of what = function
  | Concretize.Concretizer.Concrete s -> s.Concretize.Concretizer.stats.Asp.Solve.costs
  | Concretize.Concretizer.Unsatisfiable _ -> Alcotest.failf "%s: UNSAT" what
  | Concretize.Concretizer.Interrupted _ -> Alcotest.failf "%s: interrupted" what

let test_concretizer_portfolio_determinism () =
  let repo = Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled 60) in
  let roots =
    match Pkg.Repo.package_names repo with
    | a :: b :: c :: _ -> [ a; b; c ]
    | _ -> Alcotest.fail "synthetic repository too small"
  in
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      List.iter
        (fun name ->
          let root = [ Specs.Spec_parser.parse name ] in
          let seq =
            costs_of (name ^ " sequential")
              (Concretize.Concretizer.solve (Concretize.Concretizer.request ~repo root))
          in
          let par =
            costs_of (name ^ " portfolio")
              (Concretize.Concretizer.solve ~pool ~racers:2
                 (Concretize.Concretizer.request ~repo root))
          in
          Alcotest.(check (list (pair int int)))
            (name ^ ": portfolio concretization costs equal sequential") seq par)
        roots)

let test_solve_many () =
  let repo = Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled 60) in
  let names =
    List.filteri (fun i _ -> i < 6) (Pkg.Repo.package_names repo)
  in
  let jobs =
    List.map
      (fun n -> Concretize.Concretizer.request ~repo [ Specs.Spec_parser.parse n ])
      names
  in
  let sequential =
    List.map2
      (fun n job -> costs_of (n ^ " sequential") (Concretize.Concretizer.solve job))
      names jobs
  in
  Asp.Pool.with_pool ~domains:3 (fun pool ->
      let batch = Concretize.Concretizer.solve_many ~pool jobs in
      Alcotest.(check int) "one result per job" (List.length jobs)
        (List.length batch);
      List.iteri
        (fun i r ->
          let name = List.nth names i in
          Alcotest.(check (list (pair int int)))
            (name ^ ": batch result in input order, costs equal sequential")
            (List.nth sequential i)
            (costs_of (name ^ " batch") r))
        batch)

(* ------------------------------------------------------------------ *)
(* Satellites: budgeted enumeration and the answer index               *)
(* ------------------------------------------------------------------ *)

(* Up to [limit] optimal models of [prog], as one solve lists them; none
   when the solve finds no model. *)
let enumerate ?config ?(limit = max_int) prog =
  match Asp.Solve.solve_program ?config ~enumerate:limit prog with
  | Asp.Solve.Sat o -> o.Asp.Solve.models
  | Asp.Solve.Unsat _ | Asp.Solve.Interrupted _ -> []

let test_enumerate_limit () =
  let prog = Asp.Parser.parse choice_src in
  Alcotest.(check int) "all models" 8 (List.length (enumerate prog));
  Alcotest.(check int) "limit honoured" 3
    (List.length (enumerate ~limit:3 prog))

(* a weighted cover with two optimal models: pick(1) or pick(2), each of
   weight 3, with pick(3) and pick(5) *)
let two_optima_src =
  {|item(1..8). { pick(X) : item(X) }.
    :- not pick(1), not pick(2). :- not pick(3), not pick(4).
    :- not pick(5), not pick(6).
    w(1,3). w(2,3). w(3,2). w(4,5). w(5,1). w(6,4). w(7,1). w(8,1).
    #minimize { W@1,X : pick(X), w(X,W) }.|}

(* a weighted cover of 48 atoms: its descent takes far more than five
   conflicts *)
let hard_cover_src =
  let st = Random.State.make [| 5 |] in
  let atom () = 1 + Random.State.int st 48 in
  let b = Buffer.create 8192 in
  Buffer.add_string b "v(1..48). { in(X) : v(X) }.\n";
  for _ = 1 to 160 do
    Printf.bprintf b ":- not in(%d), not in(%d), not in(%d).\n" (atom ()) (atom ()) (atom ())
  done;
  for x = 1 to 48 do
    Printf.bprintf b "w(%d,%d).\n" x (1 + Random.State.int st 9)
  done;
  Buffer.add_string b "#minimize { W@1,X : in(X), w(X,W) }.";
  Buffer.contents b

let atom_strings m = List.sort compare (List.map (Format.asprintf "%a" Asp.Gatom.pp) m)
let model_strings models = List.sort compare (List.map atom_strings models)
let strategies = [ Asp.Config.Bb; Asp.Config.Usc ]

(* a raced round lists its models on the winner's own solver, under the
   round's budget (the winner's sibling budget is cancelled when it wins):
   the same optimal models as a sequential round and as the brute-force
   reference, under either strategy *)
let test_enumerate_raced () =
  List.iter
    (fun (name, src) ->
      let prog = Asp.Parser.parse src in
      let optima = model_strings (List.map fst (Asp.Naive.optimal_models prog)) in
      List.iter
        (fun strategy ->
          let config = Asp.Config.make ~strategy () in
          let listed jobs =
            let what =
              Printf.sprintf "%s, %s, %d job(s)" name (Asp.Config.strategy_name strategy) jobs
            in
            match Asp.Solve.solve_program ~config ~jobs ~enumerate:max_int prog with
            | Asp.Solve.Sat o ->
              Alcotest.(check (list (list string))) (what ^ ": the optimal models") optima
                (model_strings o.Asp.Solve.models)
            | _ -> Alcotest.failf "%s: no model" what
          in
          listed 1;
          listed 2)
        strategies)
    (("two optima", two_optima_src) :: example_srcs);
  (* each racer stops at its own conflict limit, with a model in hand: the
     round's budget is untouched, yet a degraded round, whose levels are
     not fixed, lists only its own model *)
  let limits = { B.no_limits with B.conflicts = Some 5 } in
  List.iter
    (fun strategy ->
      match
        Asp.Solve.solve_program ~config:(Asp.Config.make ~strategy ~limits ()) ~jobs:2
          ~enumerate:max_int (Asp.Parser.parse hard_cover_src)
      with
      | Asp.Solve.Sat { answer; models; stats = { quality = `Degraded _; _ }; _ } ->
        Alcotest.(check (list (list string))) "a degraded race lists its own model"
          [ atom_strings answer ] (model_strings models)
      | _ -> Alcotest.fail "a race cut by conflict limits did not degrade")
    strategies

(* a fault in the descent cuts the round, and the listing follows its
   verdict: an optimal round lists every optimal model, its own first, and
   a degraded round exactly its own model *)
let enumeration_fault_sweep () =
  let prog = Asp.Parser.parse two_optima_src in
  let optima = model_strings (List.map fst (Asp.Naive.optimal_models prog)) in
  Alcotest.(check int) "two optimal models" 2 (List.length optima);
  List.iter
    (fun strategy ->
      let optimal = ref 0 and degraded = ref 0 in
      for n = 1 to 8 do
        let fault _ b = Asp.Fault.arm b Asp.Fault.Opt_steps n in
        let what =
          Printf.sprintf "%s, listing after %d opt steps" (Asp.Config.strategy_name strategy) n
        in
        match
          Asp.Solve.solve_program ~config:(Asp.Config.make ~strategy ()) ~fault
            ~enumerate:max_int prog
        with
        | Asp.Solve.Sat { answer; models; stats = { quality = `Optimal; _ }; _ } ->
          incr optimal;
          Alcotest.(check (list (list string))) (what ^ ": every optimal model") optima
            (model_strings models);
          Alcotest.(check (list string)) (what ^ ": the round's model first")
            (atom_strings answer) (atom_strings (List.hd models))
        | Asp.Solve.Sat { answer; models; stats = { quality = `Degraded _; _ }; _ } ->
          incr degraded;
          Alcotest.(check (list (list string))) (what ^ ": the round's model only")
            [ atom_strings answer ] (model_strings models)
        | Asp.Solve.Interrupted { info; _ } ->
          Alcotest.(check bool) (what ^ ": interrupted by the fault") true
            (info.B.reason = B.Injected)
        | Asp.Solve.Unsat _ -> Alcotest.failf "%s: reported UNSAT" what
      done;
      Alcotest.(check bool) "the sweep cut a descent and let one finish" true
        (!optimal > 0 && !degraded > 0))
    strategies

let test_enumerate_budgeted () =
  (* an exhausted budget must yield the models found so far, not raise *)
  let prog = Asp.Parser.parse choice_src in
  let limited limits = Asp.Config.make ~limits () in
  let expired = limited { B.no_limits with B.wall = Some 0. } in
  let models = enumerate ~config:expired prog in
  Alcotest.(check bool) "anytime enumeration" true (List.length models <= 8);
  let tight = limited { B.no_limits with B.conflicts = Some 2 } in
  let some = enumerate ~config:tight cover in
  Alcotest.(check bool) "budgeted enumeration returns a prefix" true
    (List.length some <= List.length naive_models);
  List.iter
    (fun m ->
      Alcotest.(check bool) "every enumerated model is stable" true
        (is_stable_model m))
    some;
  enumeration_fault_sweep ()

let test_answer_index () =
  match Asp.Solve.solve_program cover with
  | Asp.Solve.Sat o ->
    let answer = o.Asp.Solve.answer in
    (* holds/atoms_of agree with a linear scan of the answer *)
    List.iter
      (fun (a : Asp.Gatom.t) ->
        Alcotest.(check bool)
          (Format.asprintf "holds %a" Asp.Gatom.pp a)
          true
          (Asp.Solve.holds o a.Asp.Gatom.pred a.Asp.Gatom.args))
      answer;
    Alcotest.(check bool) "absent atom" false
      (Asp.Solve.holds o "in" [ Asp.Term.int 99 ]);
    Alcotest.(check bool) "absent predicate" true
      (Asp.Solve.atoms_of o "nonexistent" = []);
    let scan pred =
      List.filter_map
        (fun (a : Asp.Gatom.t) ->
          if String.equal a.Asp.Gatom.pred pred then Some a.Asp.Gatom.args
          else None)
        answer
    in
    List.iter
      (fun pred ->
        let indexed = Asp.Solve.atoms_of o pred in
        Alcotest.(check int)
          (pred ^ ": same cardinality as a linear scan")
          (List.length (scan pred))
          (List.length indexed);
        List.iter
          (fun args ->
            Alcotest.(check bool) (pred ^ ": scan atom is indexed") true
              (List.exists (fun a -> List.for_all2 Asp.Term.equal a args) indexed))
          (scan pred))
      [ "in"; "node"; "edge"; "w" ]
  | _ -> Alcotest.fail "cover solve did not return SAT"

let test_answer_dedup () =
  let a = Asp.Gatom.make "p" [ Asp.Term.int 1 ] in
  let b = Asp.Gatom.make "p" [ Asp.Term.int 2 ] in
  let idx = Asp.Answer.of_list [ a; b; a; a; b ] in
  Alcotest.(check int) "duplicates collapsed" 2 (Asp.Answer.size idx);
  Alcotest.(check int) "find lists each atom once" 2
    (List.length (Asp.Answer.find idx "p"));
  Alcotest.(check bool) "mem" true (Asp.Answer.mem idx a);
  Alcotest.(check bool) "holds" true
    (Asp.Answer.holds idx "p" [ Asp.Term.int 2 ]);
  Alcotest.(check bool) "not holds" false
    (Asp.Answer.holds idx "p" [ Asp.Term.int 3 ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "portfolio"
    [
      ( "pool",
        [
          Alcotest.test_case "map_list order" `Quick test_pool_map_order;
          Alcotest.test_case "exception propagation" `Quick test_pool_exception;
          Alcotest.test_case "stress" `Quick test_pool_stress;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
        ] );
      ( "tokens",
        [
          Alcotest.test_case "child token" `Quick test_child_token;
          Alcotest.test_case "sibling budget" `Quick test_sibling_budget;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_portfolio_matches_sequential;
          Alcotest.test_case "proves unsat" `Quick test_portfolio_unsat;
          Alcotest.test_case "racers agree or cancelled" `Quick
            test_racers_agree_or_cancelled;
          Alcotest.test_case "cancelled race returns promptly" `Quick
            test_race_cancelled_promptly;
        ] );
      ( "concretizer",
        [
          Alcotest.test_case "portfolio determinism" `Quick
            test_concretizer_portfolio_determinism;
          Alcotest.test_case "solve_many" `Quick test_solve_many;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "enumerate limit" `Quick test_enumerate_limit;
          Alcotest.test_case "enumerate budgeted" `Quick test_enumerate_budgeted;
          Alcotest.test_case "enumerate raced" `Quick test_enumerate_raced;
          Alcotest.test_case "answer index" `Quick test_answer_index;
          Alcotest.test_case "answer dedup" `Quick test_answer_dedup;
        ] );
    ]
