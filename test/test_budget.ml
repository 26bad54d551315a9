(* Fault-injection sweeps for the budget layer.

   The harness arms a deterministic fault at each interruption point of the
   pipeline (grounding instances, search conflicts, optimization steps) and
   fires it after exactly N events, for every N up to the unbudgeted event
   count.  Every run must either complete identically to the unbudgeted
   solve or return a well-formed degraded/interrupted outcome whose cost
   vector is lexicographically >= the optimum — the anytime-optimality
   contract of DESIGN.md. *)

module B = Asp.Budget

(* a weighted vertex cover with two optimization levels: small enough for
   Asp.Naive to enumerate, hard enough to generate conflicts and several
   descent steps *)
let src =
  {|node(1..5).
    edge(1,2). edge(2,3). edge(3,4). edge(4,5). edge(5,1). edge(1,3).
    { in(X) : node(X) }.
    :- edge(X,Y), not in(X), not in(Y).
    w(1,3). w(2,1). w(3,4). w(4,1). w(5,5).
    #minimize { W@2,X : in(X), w(X,W) }.
    #minimize { 1@1,X : in(X) }.|}

let prog = Asp.Parser.parse src

(* ground truth from the brute-force reference solver *)
let naive_models =
  List.map (List.sort Asp.Gatom.compare) (Asp.Naive.stable_models prog)

let is_stable_model answer =
  List.mem (List.sort Asp.Gatom.compare answer) naive_models

(* first differing level decides; equal vectors are also >= *)
let rec lex_ge a b =
  match (a, b) with
  | [], [] -> true
  | (pa, va) :: ta, (pb, vb) :: tb when pa = pb ->
    va > vb || (va = vb && lex_ge ta tb)
  | _ -> false

let config strategy = Asp.Config.make ~strategy ()

let unbudgeted strategy =
  match Asp.Solve.solve_program ~config:(config strategy) prog with
  | Asp.Solve.Sat o ->
    Alcotest.(check bool) "baseline quality optimal" true
      (o.Asp.Solve.stats.Asp.Solve.quality = `Optimal);
    o
  | _ -> Alcotest.fail "baseline solve did not return SAT"

(* count the events an unbudgeted run generates, to size the sweep *)
let event_counts strategy =
  let budget = ref B.unlimited in
  match
    Asp.Solve.solve_program ~config:(config strategy)
      ~fault:(fun _ b -> budget := b)
      prog
  with
  | Asp.Solve.Sat _ -> B.progress !budget
  | _ -> Alcotest.fail "counting solve did not return SAT"

let check_run ~baseline ~what = function
  | Asp.Solve.Unsat _ -> Alcotest.failf "%s: faulted run reported UNSAT" what
  | Asp.Solve.Interrupted { info; _ } ->
    Alcotest.(check bool) (what ^ ": interruption reason is the fault") true
      (info.B.reason = B.Injected);
    Alcotest.(check bool) (what ^ ": progress counters are sane") true
      (info.B.progress.B.conflicts >= 0
      && info.B.progress.B.instances >= 0
      && info.B.progress.B.opt_steps >= 0)
  | Asp.Solve.Sat o -> (
    Alcotest.(check bool) (what ^ ": answer is a stable model") true
      (is_stable_model o.Asp.Solve.answer);
    Alcotest.(check bool) (what ^ ": costs lexicographically >= optimum") true
      (lex_ge o.Asp.Solve.stats.Asp.Solve.costs baseline.Asp.Solve.stats.Asp.Solve.costs);
    match o.Asp.Solve.stats.Asp.Solve.quality with
    | `Optimal ->
      Alcotest.(check (list (pair int int)))
        (what ^ ": complete run matches the unbudgeted optimum")
        baseline.Asp.Solve.stats.Asp.Solve.costs o.Asp.Solve.stats.Asp.Solve.costs
    | `Degraded bounds ->
      (* each proved lower bound must not exceed the reported model value *)
      List.iter
        (fun (prio, bound) ->
          match List.assoc_opt prio o.Asp.Solve.stats.Asp.Solve.costs with
          | None -> Alcotest.failf "%s: bound for unknown priority %d" what prio
          | Some v ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: bound %d@%d <= value %d" what bound prio v)
              true (bound <= v))
        bounds)

let sweep strategy point count =
  let baseline = unbudgeted strategy in
  for n = 1 to count do
    let fault _ b = Asp.Fault.arm b point n in
    let what =
      Printf.sprintf "%s after %d %s"
        (match strategy with Asp.Config.Bb -> "bb" | Asp.Config.Usc -> "usc")
        n
        (match point with
        | Asp.Fault.Conflicts -> "conflicts"
        | Asp.Fault.Instances -> "instances"
        | Asp.Fault.Opt_steps -> "opt steps"
        | Asp.Fault.Verify_steps -> "verify steps")
    in
    check_run ~baseline ~what
      (Asp.Solve.solve_program ~config:(config strategy) ~fault prog)
  done

let test_sweep_conflicts strategy () =
  let c = (event_counts strategy).B.conflicts in
  (* usc's conflicts surface as assumption cores, which conclude the solve
     rather than tick the budget — only bb is guaranteed to tick here *)
  if strategy = Asp.Config.Bb then
    Alcotest.(check bool) "program generates conflicts" true (c > 0);
  sweep strategy Asp.Fault.Conflicts (min c 50)

let test_sweep_instances strategy () =
  let c = (event_counts strategy).B.instances in
  Alcotest.(check bool) "program generates instances" true (c > 0);
  (* instances number in the hundreds; probe a spread, not every value *)
  let baseline = unbudgeted strategy in
  List.iter
    (fun n ->
      if n <= c then begin
        let fault _ b = Asp.Fault.arm b Asp.Fault.Instances n in
        check_run ~baseline
          ~what:(Printf.sprintf "after %d instances" n)
          (Asp.Solve.solve_program ~config:(config strategy) ~fault prog)
      end)
    [ 1; 2; 3; 5; 10; 20; 50; 100; c / 2; c - 1; c ]

let test_sweep_opt_steps strategy () =
  let c = (event_counts strategy).B.opt_steps in
  Alcotest.(check bool) "descent takes optimization steps" true (c > 0);
  sweep strategy Asp.Fault.Opt_steps c

(* an injected fault during grounding interrupts in the Ground phase *)
let test_ground_phase_attribution () =
  let fault _ b = Asp.Fault.arm b Asp.Fault.Instances 1 in
  match Asp.Solve.solve_program ~fault prog with
  | Asp.Solve.Interrupted { info; _ } ->
    Alcotest.(check bool) "phase is grounding" true (info.B.phase = B.Ground)
  | _ -> Alcotest.fail "fault at the first instance did not interrupt"

(* once tripped, the same budget keeps re-raising the original info *)
let test_budget_stays_tripped () =
  let budget = ref B.unlimited in
  let fault _ b =
    Asp.Fault.arm b Asp.Fault.Instances 1;
    budget := b
  in
  (match Asp.Solve.solve_program ~fault prog with
  | Asp.Solve.Interrupted _ -> ()
  | _ -> Alcotest.fail "expected interruption");
  match Asp.Grounder.ground ~budget:!budget prog with
  | exception B.Exhausted info ->
    Alcotest.(check bool) "same reason on reuse" true (info.B.reason = B.Injected)
  | _ -> Alcotest.fail "tripped budget allowed another solve"

(* ------------------------------------------------------------------ *)
(* Concretizer-level faults                                            *)
(* ------------------------------------------------------------------ *)

let repo = Pkg.Repo_core.repo

let concretizer_fault point n =
  Concretize.Concretizer.solve
    ~fault:(fun _ b -> Asp.Fault.arm b point n)
    (Concretize.Concretizer.request ~repo [ Specs.Spec_parser.parse "hdf5" ])

let test_concretizer_sweep () =
  List.iter
    (fun (point, n) ->
      match concretizer_fault point n with
      | Concretize.Concretizer.Unsatisfiable _ ->
        Alcotest.fail "faulted concretization reported UNSAT"
      | Concretize.Concretizer.Interrupted { info; _ } ->
        Alcotest.(check bool) "reason is the fault" true
          (info.B.reason = B.Injected)
      | Concretize.Concretizer.Concrete s ->
        (* degraded or not, the spec must pass the validity audit *)
        Alcotest.(check (list string)) "degraded spec still validates" []
          (List.map
             (Format.asprintf "%a" Concretize.Validate.pp_violation)
             (Concretize.Validate.check ~repo s.Concretize.Concretizer.spec)))
    [
      (Asp.Fault.Instances, 1);
      (Asp.Fault.Instances, 100);
      (Asp.Fault.Instances, 10_000);
      (Asp.Fault.Conflicts, 1);
      (Asp.Fault.Conflicts, 5);
      (Asp.Fault.Opt_steps, 1);
      (Asp.Fault.Opt_steps, 3);
      (Asp.Fault.Opt_steps, 8);
    ]

(* a tight wall-clock deadline on a large synthetic problem must come back
   quickly with a degraded or interrupted outcome, never hang or raise *)
let test_wall_deadline_large_solve () =
  let sr = Pkg.Repo_synth.repo (Pkg.Repo_synth.scaled 800) in
  let roots =
    List.filter
      (fun p -> String.length p > 3 && String.sub p 0 3 = "app")
      (Pkg.Repo.package_names sr)
    |> List.map Specs.Spec_parser.parse
  in
  let limits = { B.no_limits with B.wall = Some 0.05 } in
  let t0 = Unix.gettimeofday () in
  let result =
    Concretize.Concretizer.solve ~config:(Asp.Config.make ~limits ())
      (Concretize.Concretizer.request ~repo:sr roots)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  (* generous overshoot allowance: the deadline is only probed at ticks *)
  Alcotest.(check bool) "returns promptly" true (elapsed < 10.);
  match result with
  | Concretize.Concretizer.Interrupted { info; _ } ->
    Alcotest.(check bool) "reason is the deadline" true
      (info.B.reason = B.Deadline)
  | Concretize.Concretizer.Concrete _ ->
    (* a fast machine may finish; any completed result is acceptable *)
    ()
  | Concretize.Concretizer.Unsatisfiable _ ->
    Alcotest.fail "satisfiable stack reported UNSAT"

(* ------------------------------------------------------------------ *)
(* Escalation                                                          *)
(* ------------------------------------------------------------------ *)

let test_escalation_recovers () =
  (* inject a fault on the first two attempts; the third runs clean *)
  let seen = ref [] in
  let fault k b =
    seen := k :: !seen;
    if k < 2 then Asp.Fault.arm b Asp.Fault.Instances 1
  in
  match
    Concretize.Concretizer.solve ~attempts:3 ~fault
      (Concretize.Concretizer.request ~repo [ Specs.Spec_parser.parse "zlib" ])
  with
  | Concretize.Concretizer.Concrete _ ->
    Alcotest.(check (list int)) "three attempts, in order" [ 0; 1; 2 ]
      (List.rev !seen)
  | _ -> Alcotest.fail "escalation did not recover from injected faults"

let test_escalation_gives_up () =
  (* an instance limit of 1 still trips after doubling: both attempts fail *)
  let config =
    Asp.Config.make
      ~limits:{ B.no_limits with B.instances = Some 1 }
      ()
  in
  let seen = ref 0 in
  let fault _ _ = incr seen in
  match
    Concretize.Concretizer.solve ~attempts:2 ~config ~fault
      (Concretize.Concretizer.request ~repo [ Specs.Spec_parser.parse "zlib" ])
  with
  | Concretize.Concretizer.Interrupted { info; _ } ->
    Alcotest.(check int) "both attempts consumed" 2 !seen;
    Alcotest.(check bool) "reason is the instance limit" true
      (info.B.reason = B.Instance_limit)
  | _ -> Alcotest.fail "expected the escalation to give up"

let test_escalation_honours_cancel () =
  let cancel = B.token () in
  B.cancel cancel;
  let seen = ref 0 in
  let fault _ _ = incr seen in
  match
    Concretize.Concretizer.solve ~attempts:3 ~cancel ~fault
      (Concretize.Concretizer.request ~repo [ Specs.Spec_parser.parse "zlib" ])
  with
  | Concretize.Concretizer.Interrupted { info; _ } ->
    Alcotest.(check int) "cancellation is never retried" 1 !seen;
    Alcotest.(check bool) "reason is cancellation" true
      (info.B.reason = B.Cancelled)
  | _ -> Alcotest.fail "cancelled escalation did not report Interrupted"

(* ------------------------------------------------------------------ *)
(* Verification and core-shrinking under faults                        *)
(* ------------------------------------------------------------------ *)

(* sweep a countdown fault through the independent verifier: every run
   either completes (fault landed beyond the last verify event) or raises
   the typed injection in the Verify phase — never a wrong verdict *)
let test_verify_fault_sweep () =
  let g, _ = Asp.Grounder.ground prog in
  let _, models = Asp.Naive.stable_models_ground g in
  let truth = List.hd models in
  let injected = ref 0 and completed = ref 0 in
  for n = 1 to 120 do
    let b = B.start B.no_limits in
    Asp.Fault.arm b Asp.Fault.Verify_steps n;
    match Asp.Verify.check ~budget:b g ~is_true:(fun id -> truth.(id)) with
    | exception B.Exhausted info ->
      incr injected;
      Alcotest.(check bool)
        (Printf.sprintf "verify fault %d: reason is the injection" n)
        true
        (info.B.reason = B.Injected);
      Alcotest.(check bool)
        (Printf.sprintf "verify fault %d: phase is verification" n)
        true
        (info.B.phase = B.Verify)
    | Ok () -> incr completed
    | Error _ ->
      Alcotest.failf "verify fault %d: stable model rejected" n
  done;
  Alcotest.(check bool) "sweep hit the checker" true (!injected > 0);
  Alcotest.(check bool) "sweep outlived the checker" true (!completed > 0)

(* sweep a countdown fault through core shrinking (which ticks the
   optimization counter): the core stays sound — at worst non-minimal —
   and a fault before unsatisfiability is even established surfaces as a
   typed Exhausted result, never an exception *)
let unsat_core_src = "{ a }.\n{ b }.\n{ e }.\n:- not a.\n:- a, not b.\n:- b.\n:- e.\n"

let test_shrink_fault_sweep () =
  let parse_ground () =
    fst (Asp.Grounder.ground (Asp.Parser.parse unsat_core_src))
  in
  let lines_of causes =
    List.sort_uniq compare
      (List.map
         (fun (c : Asp.Explain.cause) -> c.Asp.Explain.origin.Asp.Ground.o_line)
         causes)
  in
  let non_minimal = ref 0 and minimal = ref 0 in
  for n = 1 to 20 do
    let b = B.start B.no_limits in
    Asp.Fault.arm b Asp.Fault.Opt_steps n;
    match Asp.Explain.explain ~budget:b (parse_ground ()) with
    | Asp.Explain.Satisfiable ->
      Alcotest.failf "shrink fault %d: UNSAT program reported satisfiable" n
    | Asp.Explain.Exhausted info ->
      Alcotest.(check bool)
        (Printf.sprintf "shrink fault %d: typed injection" n)
        true
        (info.B.reason = B.Injected)
    | Asp.Explain.Unsat_core { causes; minimal = m } ->
      if m then incr minimal else incr non_minimal;
      Alcotest.(check bool)
        (Printf.sprintf "shrink fault %d: causes are constraints of the program" n)
        true
        (causes <> []
        && List.for_all (fun l -> l >= 4 && l <= 7) (lines_of causes));
      if m then
        Alcotest.(check (list int))
          (Printf.sprintf "shrink fault %d: completed shrink is the true MUS" n)
          [ 4; 5; 6 ] (lines_of causes)
  done;
  Alcotest.(check bool) "sweep interrupted shrinking at least once" true
    (!non_minimal > 0);
  Alcotest.(check bool) "sweep let shrinking finish at least once" true
    (!minimal > 0)

(* a faulted solve budget must not veto verification: the degraded model is
   still independently checked (verification runs on its own budget) *)
let test_degraded_models_still_verified () =
  let c = (event_counts Asp.Config.Bb).B.opt_steps in
  for n = 1 to c do
    let fault _ b = Asp.Fault.arm b Asp.Fault.Opt_steps n in
    match Asp.Solve.solve_program ~config:(config Asp.Config.Bb) ~fault prog with
    | Asp.Solve.Sat o ->
      Alcotest.(check bool)
        (Printf.sprintf "opt fault %d: degraded model verified" n)
        true o.Asp.Solve.stats.Asp.Solve.verified
    | Asp.Solve.Interrupted _ -> ()
    | Asp.Solve.Unsat _ ->
      Alcotest.failf "opt fault %d: SAT program reported UNSAT" n
  done

let test_double_limits () =
  let l = { B.wall = Some 0.5; conflicts = Some 10; instances = None } in
  let d = B.double l in
  Alcotest.(check (option int)) "conflicts doubled" (Some 20) d.B.conflicts;
  Alcotest.(check bool) "wall doubled" true (d.B.wall = Some 1.0);
  Alcotest.(check (option int)) "unbounded stays unbounded" None d.B.instances

let () =
  let case = Alcotest.test_case in
  Alcotest.run "budget"
    [
      ( "fault sweeps (usc)",
        [
          case "conflicts" `Quick (test_sweep_conflicts Asp.Config.Usc);
          case "instances" `Quick (test_sweep_instances Asp.Config.Usc);
          case "opt steps" `Quick (test_sweep_opt_steps Asp.Config.Usc);
        ] );
      ( "fault sweeps (bb)",
        [
          case "conflicts" `Quick (test_sweep_conflicts Asp.Config.Bb);
          case "instances" `Quick (test_sweep_instances Asp.Config.Bb);
          case "opt steps" `Quick (test_sweep_opt_steps Asp.Config.Bb);
        ] );
      ( "budget mechanics",
        [
          case "ground phase attribution" `Quick test_ground_phase_attribution;
          case "stays tripped" `Quick test_budget_stays_tripped;
          case "double limits" `Quick test_double_limits;
        ] );
      ( "concretizer",
        [
          case "fault sweep" `Quick test_concretizer_sweep;
          case "wall deadline, large solve" `Slow test_wall_deadline_large_solve;
        ] );
      ( "escalation",
        [
          case "recovers" `Quick test_escalation_recovers;
          case "gives up" `Quick test_escalation_gives_up;
          case "honours cancel" `Quick test_escalation_honours_cancel;
        ] );
      ( "self-checking",
        [
          case "verify fault sweep" `Quick test_verify_fault_sweep;
          case "shrink fault sweep" `Quick test_shrink_fault_sweep;
          case "degraded models still verified" `Quick
            test_degraded_models_still_verified;
        ] );
    ]
