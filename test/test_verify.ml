(* Fuzz harness for the independent model verifier (Asp.Verify): on random
   small ground programs the verifier must agree exactly with the naive
   reference semantics — it accepts every naive stable model and rejects
   every corrupted assignment that is not one.  Also checks that the
   self-checking pipeline (Solve with config.verify on) only ever reports
   verified models. *)

module V = Asp.Verify
module N = Asp.Naive

(* --- random program generator ------------------------------------------ *)

let atom i = Printf.sprintf "a%d" i

let gen_lit st n =
  let neg = Random.State.bool st in
  (if neg then "not " else "") ^ atom (Random.State.int st n)

(* Normal rules, constraints, choices and facts over a0..a(n-1); no
   #minimize so that "stable models of the program" and "models enumerate
   reports" coincide. *)
let gen_program st =
  let n = 3 + Random.State.int st 4 in
  let b = Buffer.create 256 in
  for i = 0 to n - 1 do
    if Random.State.int st 4 = 0 then Buffer.add_string b (atom i ^ ".\n")
  done;
  let nrules = 2 + Random.State.int st 6 in
  for _ = 1 to nrules do
    let body =
      List.init (Random.State.int st 3) (fun _ -> gen_lit st n)
    in
    let body_str =
      if body = [] then "" else " :- " ^ String.concat ", " body
    in
    match Random.State.int st 5 with
    | 0 when body <> [] ->
      Buffer.add_string b
        (Printf.sprintf ":- %s.\n" (String.concat ", " body))
    | 1 ->
      Buffer.add_string b
        (Printf.sprintf "{ %s }%s.\n" (atom (Random.State.int st n)) body_str)
    | _ ->
      Buffer.add_string b
        (Printf.sprintf "%s%s.\n" (atom (Random.State.int st n)) body_str)
  done;
  Buffer.contents b

let ground_of src = fst (Asp.Grounder.ground (Asp.Parser.parse src))

let check_truth g truth =
  V.check g ~is_true:(fun id -> truth.(id)) ~costs:(N.cost_vector g truth)

(* --- the fuzz loops ----------------------------------------------------- *)

let iterations = 300

(* every naive stable model passes verification, cost vector included *)
let test_accepts_stable_models () =
  let st = Random.State.make [| 0xbee5 |] in
  for i = 1 to iterations do
    let src = gen_program st in
    let g = ground_of src in
    let _, models = N.stable_models_ground g in
    List.iter
      (fun truth ->
        match check_truth g truth with
        | Ok () -> ()
        | Error vs ->
          Alcotest.failf "iteration %d: stable model rejected:\n%s\n%s" i src
            (String.concat "\n" (V.describe_all g vs)))
      models
  done

(* flipping one candidate atom of a stable model either lands on another
   stable model or must be rejected *)
let test_rejects_corrupted_models () =
  let st = Random.State.make [| 0xfeed |] in
  for i = 1 to iterations do
    let src = gen_program st in
    let g = ground_of src in
    let ids, models = N.stable_models_ground g in
    if ids <> [||] then
      List.iter
        (fun truth ->
          let flipped = Array.copy truth in
          let v = ids.(Random.State.int st (Array.length ids)) in
          flipped.(v) <- not flipped.(v);
          let is_stable = List.exists (fun m -> m = flipped) models in
          match check_truth g flipped with
          | Ok () when not is_stable ->
            Alcotest.failf
              "iteration %d: corrupted model accepted (flipped %s):\n%s" i
              (Format.asprintf "%a" Asp.Gatom.pp
                 (Asp.Gatom.Store.atom g.Asp.Ground.store v))
              src
          | Error _ when is_stable ->
            Alcotest.failf
              "iteration %d: flip landed on a stable model yet was rejected:\n%s"
              i src
          | _ -> ())
        models
  done

(* the full self-checking pipeline: SAT iff the naive semantics has a model,
   every reported model is verified, and enumeration agrees on the count *)
let test_solve_agrees_and_verifies () =
  let st = Random.State.make [| 0xcafe |] in
  for i = 1 to iterations do
    let src = gen_program st in
    let g = ground_of src in
    let _, models = N.stable_models_ground g in
    let enumerated =
      match Asp.Solve.solve_program ~enumerate:max_int (Asp.Parser.parse src) with
      | Asp.Solve.Sat o ->
        if models = [] then
          Alcotest.failf "iteration %d: solver SAT, naive UNSAT:\n%s" i src;
        Alcotest.(check bool)
          (Printf.sprintf "iteration %d: model is verified" i)
          true o.Asp.Solve.stats.Asp.Solve.verified;
        o.Asp.Solve.models
      | Asp.Solve.Unsat _ ->
        if models <> [] then
          Alcotest.failf "iteration %d: solver UNSAT, naive SAT:\n%s" i src;
        []
      | Asp.Solve.Interrupted _ ->
        Alcotest.failf "iteration %d: unlimited solve interrupted" i
    in
    Alcotest.(check int)
      (Printf.sprintf "iteration %d: enumerate count" i)
      (List.length models) (List.length enumerated)
  done

(* --- deterministic violation coverage ----------------------------------- *)

let id_of (g : Asp.Ground.t) name =
  match Asp.Gatom.Store.find g.Asp.Ground.store (Asp.Gatom.make name []) with
  | Some id -> id
  | None -> Alcotest.failf "atom %s not in the ground store" name

(* a and b only justify each other once the enabling choice c is false: a
   supported model that is not stable *)
let test_detects_unfounded () =
  let g = ground_of "{ c }.\na :- b.\nb :- a.\na :- c.\n" in
  let c = id_of g "c" in
  match V.check g ~is_true:(fun id -> id <> c) with
  | Ok () -> Alcotest.fail "circular {a, b} accepted as stable"
  | Error vs ->
    Alcotest.(check bool) "unfounded reported" true
      (List.exists (function V.Unfounded _ -> true | _ -> false) vs)

let test_detects_unsupported () =
  let g = ground_of "{ c }.\na :- c.\n" in
  (* {a}: a is true but its only deriving body (c) is false *)
  let c = id_of g "c" in
  match V.check g ~is_true:(fun id -> id <> c) with
  | Ok () -> Alcotest.fail "unsupported atom accepted"
  | Error vs ->
    Alcotest.(check bool) "unsupported reported" true
      (List.exists (function V.Unsupported _ -> true | _ -> false) vs)

let test_detects_rule_violation () =
  let g = ground_of "a.\n:- a.\n" in
  match V.check g ~is_true:(fun _ -> true) with
  | Ok () -> Alcotest.fail "violated constraint accepted"
  | Error _ -> ()

let test_detects_cost_mismatch () =
  let g = ground_of "a.\n" in
  match V.check g ~is_true:(fun _ -> true) ~costs:[ (1, 42) ] with
  | Ok () -> Alcotest.fail "bogus cost vector accepted"
  | Error vs ->
    Alcotest.(check bool) "cost mismatch reported" true
      (List.exists (function V.Cost_mismatch _ -> true | _ -> false) vs)

(* optimization: the verifier re-computes the cost vector the solver claims *)
let test_verifies_optimum_costs () =
  let src =
    "{ a0 }.\n{ a1 }.\n:- not a0, not a1.\n#minimize{ 2@1,x : a0 }.\n#minimize{ 1@1,y : a1 }.\n"
  in
  match Asp.Solve.solve_program (Asp.Parser.parse src) with
  | Asp.Solve.Sat o ->
    Alcotest.(check bool) "verified" true o.Asp.Solve.stats.Asp.Solve.verified;
    Alcotest.(check (list (pair int int))) "optimal costs" [ (1, 1) ]
      o.Asp.Solve.stats.Asp.Solve.costs
  | _ -> Alcotest.fail "expected SAT"

(* --- the one-pass founded set ------------------------------------------- *)

module G = Asp.Ground

(* A random ground program over atoms a0..a(n-1), built directly on
   [Ground.t] (so heads may be facts, bodies may repeat atoms and nothing is
   simplified away), with some atoms marked facts and a random candidate
   set. *)
type founded_case = { n : int; facts : int list; rules : G.rule list; truth : bool array }

let gen_founded_case =
  let open QCheck.Gen in
  int_range 1 8 >>= fun n ->
  let atom = int_bound (n - 1) in
  let body =
    map2
      (fun pos neg -> { G.pos = Array.of_list pos; neg = Array.of_list neg })
      (list_size (int_bound 3) atom)
      (list_size (int_bound 2) atom)
  in
  let rule =
    frequency
      [
        (5, map2 (fun h b -> G.Rnormal (h, b)) atom body);
        ( 2,
          map2
            (fun hs b -> G.Rchoice { lb = None; ub = None; heads = Array.of_list hs; cbody = b })
            (list_size (int_range 1 3) atom)
            body );
        (1, map (fun b -> G.Rconstraint b) body);
      ]
  in
  map3
    (fun facts rules truth -> { n; facts; rules; truth = Array.of_list truth })
    (list_size (int_bound n) atom)
    (list_size (int_bound 12) rule)
    (list_repeat n bool)

(* the atoms are interned first, so atom i has id i *)
let ground_of_case c =
  let store = Asp.Gatom.Store.create () in
  for i = 0 to c.n - 1 do
    assert (Asp.Gatom.Store.intern store (Asp.Gatom.make (atom i) []) = i)
  done;
  List.iter (Asp.Gatom.Store.mark_fact store) c.facts;
  let g = G.create store in
  List.iter (fun r -> G.push_rule g r { G.o_line = 0; o_text = ""; o_pos = [||] }) c.rules;
  g

let print_founded_case c =
  Format.asprintf "%afacts %s\ntrue %s" G.pp (ground_of_case c)
    (String.concat " " (List.map atom c.facts))
    (String.concat " "
       (List.filter_map
          (fun i -> if c.truth.(i) then Some (atom i) else None)
          (List.init c.n Fun.id)))

let prop_founded_set_matches_naive =
  QCheck.Test.make ~count:1000 ~name:"one-pass founded set = naive founded set"
    (QCheck.make ~print:print_founded_case gen_founded_case)
    (fun c ->
      let g = ground_of_case c in
      let is_true i = c.truth.(i) in
      V.founded_set g c.n is_true = N.founded_set g c.n is_true)

let () =
  Alcotest.run "verify"
    [
      ( "fuzz",
        [
          Alcotest.test_case "accepts stable models" `Quick
            test_accepts_stable_models;
          Alcotest.test_case "rejects corrupted models" `Quick
            test_rejects_corrupted_models;
          Alcotest.test_case "solve agrees and verifies" `Quick
            test_solve_agrees_and_verifies;
          QCheck_alcotest.to_alcotest prop_founded_set_matches_naive;
        ] );
      ( "violations",
        [
          Alcotest.test_case "unfounded loop" `Quick test_detects_unfounded;
          Alcotest.test_case "unsupported atom" `Quick test_detects_unsupported;
          Alcotest.test_case "violated constraint" `Quick
            test_detects_rule_violation;
          Alcotest.test_case "cost mismatch" `Quick test_detects_cost_mismatch;
          Alcotest.test_case "optimum cost recomputation" `Quick
            test_verifies_optimum_costs;
        ] );
    ]
