(* Direct tests of the CDCL core: clauses, pseudo-Boolean constraints,
   assumptions and unsatisfiable cores, model hooks. *)

module S = Asp.Sat

let mk n =
  let s = S.create () in
  let vars = Array.init n (fun _ -> S.new_var s) in
  (s, vars)

let pos = S.Lit.pos
let neg = S.Lit.neg

(* ------------------------------------------------------------------ *)

let test_trivial () =
  let s, v = mk 2 in
  S.add_clause s [ pos v.(0) ];
  S.add_clause s [ neg v.(0); pos v.(1) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "v0" true (S.value s (pos v.(0)));
  Alcotest.(check bool) "v1" true (S.value s (pos v.(1)))

let test_unsat () =
  let s, v = mk 1 in
  S.add_clause s [ pos v.(0) ];
  S.add_clause s [ neg v.(0) ];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  (* unsat is sticky *)
  Alcotest.(check bool) "still unsat" true (S.solve s = S.Unsat)

let test_empty_clause () =
  let s, _ = mk 1 in
  S.add_clause s [];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat)

let test_tautology_ignored () =
  let s, v = mk 2 in
  S.add_clause s [ pos v.(0); neg v.(0) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat)

let test_pigeonhole_unsat () =
  (* 4 pigeons, 3 holes: classic small UNSAT requiring real search *)
  let np = 4 and nh = 3 in
  let s = S.create () in
  let x = Array.init np (fun _ -> Array.init nh (fun _ -> S.new_var s)) in
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
  Alcotest.(check bool) "php(4,3) unsat" true (S.solve s = S.Unsat)

(* ------------------------------------------------------------------ *)
(* Pseudo-Boolean constraints                                          *)
(* ------------------------------------------------------------------ *)

let test_pb_at_most () =
  let s, v = mk 4 in
  S.add_pb_le s (List.init 4 (fun i -> (1, pos v.(i)))) 2;
  S.add_clause s [ pos v.(0) ];
  S.add_clause s [ pos v.(1) ];
  Alcotest.(check bool) "sat at bound" true (S.solve s = S.Sat);
  (* the two remaining must have been forced false *)
  Alcotest.(check bool) "v2 false" false (S.value s (pos v.(2)));
  Alcotest.(check bool) "v3 false" false (S.value s (pos v.(3)));
  S.add_clause s [ pos v.(2) ];
  Alcotest.(check bool) "over bound unsat" true (S.solve s = S.Unsat)

let test_pb_weighted () =
  let s, v = mk 3 in
  (* 3a + 2b + 1c <= 3 *)
  S.add_pb_le s [ (3, pos v.(0)); (2, pos v.(1)); (1, pos v.(2)) ] 3;
  S.add_clause s [ pos v.(0) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "b forced false" false (S.value s (pos v.(1)));
  Alcotest.(check bool) "c forced false" false (S.value s (pos v.(2)))

let test_pb_duplicate_lits () =
  let s, v = mk 1 in
  (* x + x <= 1 means x must be false *)
  S.add_pb_le s [ (1, pos v.(0)); (1, pos v.(0)) ] 1;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "x false" false (S.value s (pos v.(0)))

let test_pb_complementary_lits () =
  let s, v = mk 2 in
  (* x + (not x) + y <= 1: the pair always contributes 1, so y false *)
  S.add_pb_le s [ (1, pos v.(0)); (1, neg v.(0)); (1, pos v.(1)) ] 1;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "y forced false" false (S.value s (pos v.(1)))

let test_pb_at_least_via_negation () =
  let s, v = mk 3 in
  (* at least 2 of 3: sum(not x) <= 1 *)
  S.add_pb_le s (List.init 3 (fun i -> (1, neg v.(i)))) 1;
  S.add_clause s [ neg v.(0) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "v1 forced" true (S.value s (pos v.(1)));
  Alcotest.(check bool) "v2 forced" true (S.value s (pos v.(2)))

(* ------------------------------------------------------------------ *)
(* Assumptions and cores                                               *)
(* ------------------------------------------------------------------ *)

let test_assumptions () =
  let s, v = mk 2 in
  S.add_clause s [ neg v.(0); neg v.(1) ];
  Alcotest.(check bool) "sat (a)" true (S.solve ~assumptions:[ pos v.(0) ] s = S.Sat);
  Alcotest.(check bool) "a true" true (S.value s (pos v.(0)));
  Alcotest.(check bool) "b forced false" false (S.value s (pos v.(1)));
  Alcotest.(check bool) "a,b unsat" true
    (S.solve ~assumptions:[ pos v.(0); pos v.(1) ] s = S.Unsat);
  (* the instance itself is still satisfiable afterwards *)
  Alcotest.(check bool) "recoverable" true (S.solve s = S.Sat)

let test_core_subset () =
  let s, v = mk 4 in
  (* only v0 and v1 conflict; v2, v3 are irrelevant *)
  S.add_clause s [ neg v.(0); neg v.(1) ];
  let assumptions = [ pos v.(2); pos v.(0); pos v.(3); pos v.(1) ] in
  Alcotest.(check bool) "unsat" true (S.solve ~assumptions s = S.Unsat);
  let core = S.last_core s in
  Alcotest.(check bool) "core subset of assumptions" true
    (List.for_all (fun l -> List.mem l assumptions) core);
  Alcotest.(check bool) "core mentions v0 or v1" true
    (List.exists (fun l -> l = pos v.(0) || l = pos v.(1)) core);
  Alcotest.(check bool) "core excludes irrelevant v2" false (List.mem (pos v.(2)) core);
  (* the core alone must be unsatisfiable *)
  Alcotest.(check bool) "core refutes" true (S.solve ~assumptions:core s = S.Unsat)

let test_core_propagated_assumption () =
  let s, v = mk 2 in
  S.add_clause s [ neg v.(0); neg v.(1) ];
  (* assuming v0 propagates not v1; then assuming v1 fails immediately *)
  Alcotest.(check bool) "unsat" true
    (S.solve ~assumptions:[ pos v.(0); pos v.(1) ] s = S.Unsat);
  let core = S.last_core s in
  Alcotest.(check bool) "nonempty core" true (core <> []);
  Alcotest.(check bool) "core refutes" true (S.solve ~assumptions:core s = S.Unsat)

let test_core_minimal_pair () =
  let s, v = mk 4 in
  (* only the {v0, v1} pair conflicts: the core must not mention v2/v3, and
     dropping either core member makes the assumptions satisfiable *)
  S.add_clause s [ neg v.(0); neg v.(1) ];
  let assumptions = [ pos v.(0); pos v.(1); pos v.(2); pos v.(3) ] in
  Alcotest.(check bool) "unsat" true (S.solve ~assumptions s = S.Unsat);
  let core = S.last_core s in
  Alcotest.(check bool) "core within {v0,v1}" true
    (List.for_all (fun l -> l = pos v.(0) || l = pos v.(1)) core);
  List.iter
    (fun dropped ->
      let weakened = List.filter (fun l -> l <> dropped) core in
      Alcotest.(check bool) "core minus one member is satisfiable" true
        (S.solve ~assumptions:weakened s = S.Sat))
    core

(* ------------------------------------------------------------------ *)
(* Typed errors and budgets                                            *)
(* ------------------------------------------------------------------ *)

let is_no_model f =
  match f () with
  | exception Asp.Solver_error.Error Asp.Solver_error.No_model -> true
  | _ -> false

let test_no_model_before_solve () =
  let s, v = mk 2 in
  S.add_clause s [ pos v.(0) ];
  Alcotest.(check bool) "value before solve raises" true
    (is_no_model (fun () -> S.value s (pos v.(0))));
  Alcotest.(check bool) "model_true_vars before solve raises" true
    (is_no_model (fun () -> S.model_true_vars s))

let test_no_model_fresh_var () =
  let s, v = mk 1 in
  S.add_clause s [ pos v.(0) ];
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  (* a variable created after the stored model has no value in it *)
  let fresh = S.new_var s in
  Alcotest.(check bool) "fresh var raises" true
    (is_no_model (fun () -> S.value s (pos fresh)));
  (* the stored model itself remains readable *)
  Alcotest.(check bool) "old var readable" true (S.value s (pos v.(0)))

let test_conflict_budget_then_reuse () =
  (* php(5,4) needs far more than 3 conflicts: a tiny conflict budget must
     interrupt the solve, and the solver must stay usable afterwards *)
  let np = 5 and nh = 4 in
  let s = S.create () in
  let x = Array.init np (fun _ -> Array.init nh (fun _ -> S.new_var s)) in
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
  let budget =
    Asp.Budget.start
      { Asp.Budget.no_limits with Asp.Budget.conflicts = Some 3 }
  in
  (match S.solve ~budget s with
  | exception Asp.Budget.Exhausted i ->
    Alcotest.(check bool) "reason is the conflict limit" true
      (i.Asp.Budget.reason = Asp.Budget.Conflict_limit)
  | _ -> Alcotest.fail "php(5,4) finished within 3 conflicts");
  (* the interrupted solver concludes correctly without a budget *)
  Alcotest.(check bool) "unsat after interruption" true (S.solve s = S.Unsat)

let test_cancelled_budget () =
  let s, v = mk 2 in
  S.add_clause s [ pos v.(0); pos v.(1) ];
  let tok = Asp.Budget.token () in
  Asp.Budget.cancel tok;
  let budget = Asp.Budget.start ~cancel:tok Asp.Budget.no_limits in
  match S.solve ~budget s with
  | exception Asp.Budget.Exhausted i ->
    Alcotest.(check bool) "reason cancelled" true
      (i.Asp.Budget.reason = Asp.Budget.Cancelled)
  | _ -> Alcotest.fail "pre-cancelled budget did not interrupt"

(* ------------------------------------------------------------------ *)
(* Model hook (the stable-semantics driver)                            *)
(* ------------------------------------------------------------------ *)

let test_on_model_refine () =
  let s, v = mk 2 in
  (* enumerate: reject models until only one remains *)
  let rejected = ref 0 in
  let hook s' =
    if S.current_lit_value s' (pos v.(0)) = 1 then begin
      incr rejected;
      `Refine [ [ neg v.(0) ] ]
    end
    else `Accept
  in
  Alcotest.(check bool) "sat" true (S.solve ~on_model:hook s = S.Sat);
  Alcotest.(check bool) "v0 excluded" false (S.value s (pos v.(0)));
  Alcotest.(check bool) "at most one rejection" true (!rejected <= 1)

let test_on_model_refine_to_unsat () =
  let s, v = mk 1 in
  let hook _ = `Refine [ [ pos v.(0) ]; [ neg v.(0) ] ] in
  Alcotest.(check bool) "refined to unsat" true (S.solve ~on_model:hook s = S.Unsat)

(* ------------------------------------------------------------------ *)
(* Properties: random 3-SAT cross-checked with brute force             *)
(* ------------------------------------------------------------------ *)

let gen_cnf =
  let open QCheck in
  let lit = Gen.map2 (fun v s -> if s then pos v else neg v) (Gen.int_range 0 7) Gen.bool in
  let clause = Gen.list_size (Gen.int_range 1 3) lit in
  make
    ~print:(fun cnf ->
      String.concat " & "
        (List.map
           (fun c -> "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
           cnf))
    (Gen.list_size (Gen.int_range 1 20) clause)

let brute_force_sat ?(nvars = 8) cnf =
  let rec try_mask mask =
    if mask >= 1 lsl nvars then false
    else
      let value l =
        let v = S.Lit.var l in
        let bit = mask land (1 lsl v) <> 0 in
        if S.Lit.sign l then not bit else bit
      in
      if List.for_all (fun c -> List.exists value c) cnf then true
      else try_mask (mask + 1)
  in
  try_mask 0

let prop_cdcl_matches_brute_force =
  QCheck.Test.make ~count:500 ~name:"CDCL agrees with brute force on random CNF" gen_cnf
    (fun cnf ->
      let s, _ = mk 8 in
      List.iter (S.add_clause s) cnf;
      let sat = S.solve s = S.Sat in
      let expected = brute_force_sat cnf in
      (* when SAT, the model must satisfy every clause *)
      (not sat)
      || List.for_all (fun c -> List.exists (fun l -> S.value s l) c) cnf
         && sat = expected)

let prop_pb_bound_respected =
  let open QCheck in
  let gen =
    make
      ~print:(fun (ws, k) ->
        Printf.sprintf "weights=[%s] k=%d" (String.concat ";" (List.map string_of_int ws)) k)
      Gen.(pair (list_size (int_range 1 6) (int_range 1 5)) (int_range 0 10))
  in
  Test.make ~count:300 ~name:"PB <= bound holds in every model" gen (fun (ws, k) ->
      let s = S.create () in
      let vars = List.map (fun _ -> S.new_var s) ws in
      let entries = List.map2 (fun w v -> (w, pos v)) ws vars in
      S.add_pb_le s entries k;
      (* maximize the number of true vars: decide every one true first *)
      S.set_preferred s (List.map pos vars);
      match S.solve s with
      | S.Unsat -> k < 0
      | S.Sat ->
        let total =
          List.fold_left (fun acc (w, l) -> if S.value s l then acc + w else acc) 0 entries
        in
        total <= k)

(* The decision heap stays a max-heap on activity, with positions in sync,
   across repeated solves: conflicts bump activities (sifting variables up),
   decisions pop (sifting down), backtracking re-inserts, and variables
   created after a solve push the heap past its initial capacity.  A
   completed search pops every variable and rebuilds the heap by inserts,
   so most solves here run under a small conflict budget: an interrupted
   search leaves the heap partly popped.  Each instance runs twice, the
   second time with a preferred list (whose decisions pop nothing). *)
let prop_heap_invariant =
  let open QCheck in
  let clause nv =
    Gen.(
      list_size (int_range 2 3)
        (map2 (fun v s -> if s then pos v else neg v) (int_range 0 (nv - 1)) bool))
  in
  let gen =
    make
      ~print:(fun (c1, c2, runs) ->
        Printf.sprintf "%d initial clauses, %d later clauses, budgets [%s]"
          (List.length c1) (List.length c2)
          (String.concat ";" (List.map (fun (k, _) -> string_of_int k) runs)))
      Gen.(
        triple
          (list_size (int_range 1 30) (clause 8))
          (list_size (int_range 50 220) (clause 48))
          (list_size (int_range 1 8)
             (pair (int_range 1 6) (list_size (int_range 0 3) (clause 48 >|= List.hd)))))
  in
  Test.make ~count:200 ~name:"decision heap invariant holds after every solve" gen
    (fun (c1, c2, runs) ->
      let run preferred =
        let s, _ = mk 8 in
        List.iter (S.add_clause s) c1;
        let models_ok clauses = function
          | S.Unsat -> true
          | S.Sat -> List.for_all (fun c -> List.exists (S.value s) c) clauses
        in
        let ok = ref (models_ok c1 (S.solve s) && S.heap_ok s) in
        (* 40 variables created after the first solve *)
        ignore (Array.init 40 (fun _ -> S.new_var s));
        List.iter (S.add_clause s) c2;
        S.set_preferred s preferred;
        List.iter
          (fun (k, assumptions) ->
            let budget =
              Asp.Budget.start { Asp.Budget.no_limits with Asp.Budget.conflicts = Some k }
            in
            (match S.solve ~assumptions ~budget s with
            | r -> ok := !ok && models_ok (c1 @ c2) r
            | exception Asp.Budget.Exhausted _ -> ());
            ok := !ok && S.heap_ok s)
          runs;
        !ok && models_ok (c1 @ c2) (S.solve s) && S.heap_ok s
      in
      run [] && run (List.map List.hd c2))

(* A preferred list changes which model a search finds, never its answer:
   with a random list (which may repeat variables or name both signs of
   one), [solve ~assumptions] is Sat exactly when brute force finds a
   model of the CNF and the assumptions, every model satisfies both, and an
   Unsat core is a subset of the assumptions that is Unsat on its own.
   Three assumption sets run in turn on one solver, so later solves see
   the list after earlier conflicts, and some past its 16-conflict
   cutoff. *)
let prop_preferred_sound =
  let open QCheck in
  let lit = Gen.map2 (fun v s -> if s then pos v else neg v) (Gen.int_range 0 7) Gen.bool in
  let gen =
    make
      ~print:(fun (cnf, preferred, assumption_sets) ->
        let ls l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]" in
        Printf.sprintf "%s preferring %s assuming %s"
          (String.concat " & " (List.map ls cnf))
          (ls preferred)
          (String.concat ", " (List.map ls assumption_sets)))
      Gen.(
        triple
          (list_size (int_range 1 40) (list_size (int_range 1 3) lit))
          (list_size (int_range 0 10) lit)
          (list_repeat 3 (list_size (int_range 0 4) lit)))
  in
  Test.make ~count:500 ~name:"preferred list keeps answers, models and cores" gen
    (fun (cnf, preferred, assumption_sets) ->
      let s, _ = mk 8 in
      List.iter (S.add_clause s) cnf;
      S.set_preferred s preferred;
      let units = List.map (fun l -> [ l ]) in
      List.for_all
        (fun assumptions ->
          let expected = brute_force_sat (cnf @ units assumptions) in
          match S.solve ~assumptions s with
          | S.Sat ->
            expected
            && List.for_all (fun c -> List.exists (S.value s) c) (cnf @ units assumptions)
          | S.Unsat ->
            let core = S.last_core s in
            (not expected)
            && List.for_all (fun l -> List.mem l assumptions) core
            && (not (brute_force_sat (cnf @ units core)))
            && S.solve ~assumptions:core s = S.Unsat)
        assumption_sets)

(* Unit propagation over [cnf] from [assumptions], on [nvars] variables:
   [true] when it either refutes the assumptions or assigns every
   variable. *)
let propagation_decides nvars cnf assumptions =
  let value = Array.make nvars (-1) in
  let lit_value l =
    let v = value.(S.Lit.var l) in
    if v < 0 then -1 else if S.Lit.sign l then 1 - v else v
  in
  let assign l = value.(S.Lit.var l) <- (if S.Lit.sign l then 0 else 1) in
  let conflict = ref false in
  List.iter (fun l -> if lit_value l = 0 then conflict := true else assign l) assumptions;
  let changed = ref true in
  while !changed && not !conflict do
    changed := false;
    List.iter
      (fun c ->
        if not (List.exists (fun l -> lit_value l = 1) c) then
          match List.filter (fun l -> lit_value l < 0) c with
          | [] -> conflict := true
          | [ l ] ->
            assign l;
            changed := true
          | _ -> ())
      cnf
  done;
  !conflict || Array.for_all (fun v -> v >= 0) value

(* Binary clauses live in per-literal partner lists, not clause records:
   they propagate, explain conflicts and name assumptions in cores through
   their own reason case.  The instances are 3-colourings of a random
   4-node graph holding the path 0-1-2-3, plus a few random two-literal
   clauses: at least 84% of the clauses have two literals, and about half
   of the instances learn a two-literal clause.  Answers, cores and
   models are checked against [brute_force_sat]; propagation strength
   through the decision count: when unit propagation alone settles the
   assumptions, the solve makes no decision. *)
let prop_binary_heavy =
  let open QCheck in
  let nvars = 12 in
  let x u c = (3 * u) + c in
  let colouring edges =
    List.concat_map
      (fun u ->
        List.init 3 (fun c -> pos (x u c))
        :: List.map (fun (c, d) -> [ neg (x u c); neg (x u d) ]) [ (0, 1); (0, 2); (1, 2) ])
      [ 0; 1; 2; 3 ]
    @ List.concat_map
        (fun (u, v) -> List.init 3 (fun c -> [ neg (x u c); neg (x v c) ]))
        edges
  in
  let lit = Gen.map2 (fun v s -> if s then pos v else neg v) (Gen.int_bound (nvars - 1)) Gen.bool in
  let gen =
    make
      ~print:(fun (cnf, assumptions) ->
        let cl c = "(" ^ String.concat "|" (List.map string_of_int c) ^ ")" in
        Printf.sprintf "%s assuming [%s]"
          (String.concat " & " (List.map cl cnf))
          (String.concat ";" (List.map string_of_int assumptions)))
      Gen.(
        pair
          (map2
             (fun chords extra ->
               colouring ([ (0, 1); (1, 2); (2, 3) ] @ List.filter_map Fun.id chords) @ extra)
             (flatten_l
                (List.map
                   (fun e -> map (fun k -> if k < 4 then Some e else None) (int_bound 4))
                   [ (0, 2); (0, 3); (1, 3) ]))
             (list_size (int_range 0 3) (list_repeat 2 lit)))
          (list_size (int_range 1 4) lit))
  in
  Test.make ~count:300 ~name:"binary-heavy CNF: answers, cores and shared lists" gen
    (fun (cnf, assumptions) ->
      let s, _ = mk nvars in
      List.iter (S.add_clause s) cnf;
      let sat cnf = brute_force_sat ~nvars cnf in
      let satisfies c = List.for_all (fun c -> List.exists (S.value s) c) c in
      let units = List.map (fun l -> [ l ]) in
      let ok = ref true in
      let check b = ok := !ok && b && S.shared_lists_empty () in
      (* plain solve against the oracle, twice: the second run reuses what
         the first learnt *)
      for _ = 1 to 2 do
        match S.solve s with
        | S.Sat -> check (sat cnf && satisfies cnf)
        | S.Unsat -> check (not (sat cnf))
      done;
      (if sat cnf then
         let decisions = (S.stats s).S.decisions in
         let result = S.solve ~assumptions s in
         if propagation_decides nvars cnf assumptions then
           check ((S.stats s).S.decisions = decisions);
         match result with
         | S.Sat -> check (sat (cnf @ units assumptions) && satisfies (cnf @ units assumptions))
         | S.Unsat ->
           let core = S.last_core s in
           check (not (sat (cnf @ units assumptions)));
           check (List.for_all (fun l -> List.mem l assumptions) core);
           check (not (sat (cnf @ units core)));
           check (S.solve ~assumptions:core s = S.Unsat);
           (* the shrunk core is minimal: dropping any member satisfies *)
           let small, minimal = S.shrink_core s core in
           check minimal;
           check (not (sat (cnf @ units small)));
           List.iter (fun l -> check (sat (cnf @ units (List.filter (( <> ) l) small)))) small);
      !ok)

(* A solver created with a capacity takes the same steps as one that grows
   from the default size: the same answer, model, conflicts, decisions and
   propagations, before and after variables are added past the capacity
   (some capacities are below the instance's variable count, some above).
   The shared per-literal lists stay empty throughout. *)
let prop_capacity =
  let open QCheck in
  let nvars = 20 in
  let lit = Gen.map2 (fun v s -> if s then pos v else neg v) (Gen.int_bound (nvars - 1)) Gen.bool in
  let clause = Gen.list_size (Gen.int_range 1 4) lit in
  let gen =
    make
      ~print:(fun (capacity, cnf, extra) ->
        let cl c = "(" ^ String.concat "|" (List.map string_of_int c) ^ ")" in
        Printf.sprintf "capacity %d: %s, then %s" capacity
          (String.concat " & " (List.map cl cnf))
          (String.concat " & " (List.map cl extra)))
      Gen.(
        triple (int_bound (2 * nvars)) (list_size (int_range 1 90) clause)
          (list_size (int_range 1 10) clause))
  in
  Test.make ~count:300 ~name:"capacity changes no answer or step" gen
    (fun (capacity, cnf, extra) ->
      let run s =
        let vars = Array.init nvars (fun _ -> S.new_var s) in
        List.iter (S.add_clause s) cnf;
        let steps () =
          let st = S.stats s in
          let model = match S.solve s with S.Sat -> Some (S.model_true_vars s) | S.Unsat -> None in
          (model, st.S.conflicts, st.S.decisions, st.S.propagations)
        in
        let first = steps () in
        (* the extra clauses are over fresh variables, numbered past the
           first ones, each tied to an old variable *)
        let fresh = Array.init nvars (fun _ -> S.new_var s) in
        Array.iteri (fun i v -> S.add_clause s [ neg v; pos vars.(i) ]) fresh;
        List.iter (fun c -> S.add_clause s (List.map (fun l -> l + (2 * nvars)) c)) extra;
        (first, steps (), S.num_vars s, S.heap_ok s)
      in
      let grown = run (S.create ()) in
      let sized = run (S.create ~capacity ()) in
      grown = sized && S.shared_lists_empty ())

let test_capacity_growth () =
  let s = S.create ~capacity:4 () in
  let vars = Array.init 100 (fun _ -> S.new_var s) in
  (* a chain forcing every variable true, and the last one false *)
  S.add_clause s [ pos vars.(0) ];
  for i = 1 to 99 do
    S.add_clause s [ neg vars.(i - 1); pos vars.(i) ]
  done;
  Alcotest.(check bool) "sat" true (S.solve s = S.Sat);
  Alcotest.(check bool) "all true" true (Array.for_all (fun v -> S.value s (pos v)) vars);
  S.add_clause s [ neg vars.(99) ];
  Alcotest.(check bool) "unsat" true (S.solve s = S.Unsat);
  Alcotest.(check bool) "shared lists untouched" true (S.shared_lists_empty ())

let test_binary_portfolio_lists () =
  (* a ground program of mostly two-literal clauses, raced on other
     domains: the shared binary list stays empty throughout *)
  let src =
    {|n(1..12).
      { on(X) : n(X) }.
      :- on(X), on(X + 1).
      :- not on(X), not on(X + 1), n(X), n(X + 1).
      #minimize { 1,X : on(X) }.|}
  in
  let ground, _ = Asp.Grounder.ground (Asp.Parser.parse src) in
  Asp.Pool.with_pool ~domains:2 (fun pool ->
      let outcome =
        Asp.Portfolio.race ~pool
          ~racers:(Asp.Portfolio.racers ~config:Asp.Config.default 3)
          ~budget:(Asp.Budget.start Asp.Budget.no_limits)
          ground
      in
      match outcome.Asp.Portfolio.attempt with
      | Asp.Portfolio.Model { costs; quality; _ } ->
        Alcotest.(check bool) "optimal" true (quality = `Optimal);
        (* an independent vertex cover of the path 1..12 *)
        Alcotest.(check (list (pair int int))) "six on" [ (0, 6) ] costs
      | _ -> Alcotest.fail "portfolio found no model");
  Alcotest.(check bool) "shared lists untouched" true (S.shared_lists_empty ())

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_cdcl_matches_brute_force;
        prop_pb_bound_respected;
        prop_heap_invariant;
        prop_preferred_sound;
        prop_binary_heavy;
        prop_capacity;
      ]
  in
  Alcotest.run "sat"
    [
      ( "clauses",
        [
          Alcotest.test_case "trivial" `Quick test_trivial;
          Alcotest.test_case "unsat" `Quick test_unsat;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "tautology" `Quick test_tautology_ignored;
          Alcotest.test_case "pigeonhole" `Quick test_pigeonhole_unsat;
          Alcotest.test_case "growth past capacity" `Quick test_capacity_growth;
        ] );
      ( "pseudo-boolean",
        [
          Alcotest.test_case "at-most-k" `Quick test_pb_at_most;
          Alcotest.test_case "weighted" `Quick test_pb_weighted;
          Alcotest.test_case "duplicate lits" `Quick test_pb_duplicate_lits;
          Alcotest.test_case "complementary lits" `Quick test_pb_complementary_lits;
          Alcotest.test_case "at-least via negation" `Quick test_pb_at_least_via_negation;
        ] );
      ( "assumptions",
        [
          Alcotest.test_case "basic" `Quick test_assumptions;
          Alcotest.test_case "core subset" `Quick test_core_subset;
          Alcotest.test_case "propagated assumption core" `Quick
            test_core_propagated_assumption;
          Alcotest.test_case "minimal pair core" `Quick test_core_minimal_pair;
        ] );
      ( "errors and budgets",
        [
          Alcotest.test_case "no model before solve" `Quick test_no_model_before_solve;
          Alcotest.test_case "no model for fresh var" `Quick test_no_model_fresh_var;
          Alcotest.test_case "conflict budget then reuse" `Quick
            test_conflict_budget_then_reuse;
          Alcotest.test_case "cancelled budget" `Quick test_cancelled_budget;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "refine" `Quick test_on_model_refine;
          Alcotest.test_case "refine to unsat" `Quick test_on_model_refine_to_unsat;
        ] );
      ( "binary clauses",
        [ Alcotest.test_case "portfolio race" `Quick test_binary_portfolio_lists ] );
      ("properties", props);
    ]
