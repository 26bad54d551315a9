type stats = {
  phases : Phases.t;
  ground_stats : Grounder.stats;
  sat_stats : Sat.stats;
  solve_steps : Phases.steps;
  descent_searches : int;
  costs : (int * int) list;
  quality : Optimize.quality;
  verified : bool;
}

let print_stats ?(vector = false) s =
  let g = s.ground_stats and st = s.sat_stats in
  Printf.printf "Ground: %d atoms, %d rules\n" g.Grounder.possible_atoms
    g.Grounder.ground_rules;
  Printf.printf "Search: %d conflicts, %d decisions, %d restarts\n"
    st.Sat.conflicts st.Sat.decisions st.Sat.restarts;
  if vector then begin
    Printf.printf "Optimization vector (priority, value):";
    List.iter (fun (p, v) -> Printf.printf " (%d,%d)" p v)
      (List.filter (fun (_, v) -> v <> 0) s.costs);
    print_newline ()
  end;
  print_endline (Phases.to_line s.phases);
  print_endline (Grounder.steps_line g);
  print_endline (Phases.steps_line s.solve_steps);
  print_endline
    (Optimize.descent_line ~costs:s.costs ~descent_searches:s.descent_searches);
  print_endline (Sat.instance_line st)

type outcome = {
  answer : Gatom.t list;
  index : Answer.t Lazy.t;
  models_enumerated : int;
  stats : stats;
  models : Gatom.t list list;
}

type result =
  | Sat of outcome
  | Unsat of { phases : Phases.t; core : Explain.result Lazy.t }
  | Interrupted of { info : Budget.info; phases : Phases.t }

(* Apply #show statements: when any are present, only atoms whose
   (predicate, arity) is explicitly shown are reported. *)
let apply_show prog answer =
  let shows = List.filter_map (function Ast.Show s -> Some s | _ -> None) prog in
  if shows = [] then answer
  else
    let shown = List.filter_map Fun.id shows in
    List.filter
      (fun (a : Gatom.t) ->
        List.mem (a.Gatom.pred, List.length a.Gatom.args) shown)
      answer

(* The verified sequential runner.  A model that fails verification is
   retried once from a reseeded search (a different EVSIDS tie-breaking
   order steers CDCL away from whatever state triggered the bug); after a
   rejected model, a reseeded UNSAT proof means the rejected model was bogus
   and the independent verdict stands. *)
let solve_ground_verified ~verify ~params ~strategy ~budget g =
  let once params =
    Portfolio.solve_once ~verify ~params ~strategy ~budget g
  in
  match once params with
  | Portfolio.Quarantined _ ->
    once { params with Sat.seed = params.Sat.seed + 7919 }
  | first -> first

(* The solve stage: translate, optimize with [config.strategy], then
   re-check the model with [Verify] on a fresh unlimited budget, so a
   budget that expired mid-descent cannot veto checking the degraded model.
   With a [pool] and [racers > 1], [Portfolio.race] runs [racers] diverse
   configurations instead, each on its own translation; when every racer's
   model failed verification, the sequential runner rescues the solve from
   a seed shifted away from [params]. *)
let solve_ground ~config ~params ?pool ?(racers = 1) ~budget g =
  let { Config.strategy; verify; _ } = config in
  match
    match pool with
    | Some pool when racers > 1 -> (
      match
        Portfolio.race ~pool ~verify
          ~racers:(Portfolio.racers ~config racers)
          ~budget g
      with
      | { Portfolio.attempt = Portfolio.Quarantined _; _ } ->
        (* every racer's model failed verification: a sequential
           reseeded re-solve of last resort *)
        solve_ground_verified ~verify
          ~params:{ params with Sat.seed = params.Sat.seed + 104729 }
          ~strategy ~budget g
      | { attempt; _ } -> attempt)
    | _ -> solve_ground_verified ~verify ~params ~strategy ~budget g
  with
  | exception Budget.Exhausted info -> Portfolio.Gave_up info
  | attempt -> attempt

(* Up to [limit] optimal models of the round, its own model first: the
   round's solver searches on, each found model blocked, under the round's
   budget.  An optimal round has fixed every level at its optimum, so the
   solver's further models are exactly the other optimal ones; a degraded
   round has not (and carries no translation), so it lists only its own
   model: a raced round's budget is intact when its racers stopped at
   their own conflict limits. *)
let enumerate_models ~verify ~budget ~limit (m : Portfolio.model) =
  match m.Portfolio.translation with
  | _ when limit <= 0 -> []
  | None -> [ m.answer ]
  | Some _ when limit = 1 -> [ m.answer ]
  | Some t ->
    let sat = t.Translate.sat in
    (* block each found model on the variables of its atoms' literals (an
       atom may share its literal with its body or another atom) *)
    let atom_vars =
      Array.fold_left
        (fun acc l -> if l >= 0 then Sat.Lit.var l :: acc else acc)
        [] t.Translate.lit_of_atom
      |> List.sort_uniq Int.compare
    in
    let block () =
      Sat.add_clause sat
        (List.map
           (fun v ->
             let l = Sat.Lit.pos v in
             if Sat.value sat l then Sat.Lit.negate l else l)
           atom_vars)
    in
    (* stability/support re-check per enumerated model (no cost check:
       enumeration reports every optimal model, not a claimed vector) *)
    let checks_out () =
      (not verify) || Result.is_ok (Verify.check_translation t)
    in
    let rec search found acc =
      if found >= limit then acc
      else begin
        block ();
        match Sat.solve ~on_model:(Stable.hook t) ~budget sat with
        | exception Budget.Exhausted _ -> acc
        | Sat.Unsat -> acc
        | Sat.Sat when checks_out () -> search (found + 1) (Translate.answer t :: acc)
        | Sat.Sat -> search found acc
      end
    in
    List.rev (search 1 [ m.answer ])

type ('f, 'e) frontend = {
  setup : unit -> 'f * Grounder.facts;
  load : unit -> Ast.program;
  explain : 'f -> params:Sat.params -> budget:Budget.t -> Ground.t -> 'e;
}

type ('f, 'e) staged =
  | Solved of {
      facts : 'f;
      answer : Gatom.t list;
      models_enumerated : int;
      stats : stats;
      models : Gatom.t list list;
    }
  | Refuted of { facts : 'f; phases : Phases.t; reasons : 'e }
  | Stopped of { facts : 'f; phases : Phases.t; info : Budget.info }

(* One round: setup, load, a budgeted ground of the logic program and the
   frontend's fact atoms, then the solve stage, each timed.  The
   explanation and the enumeration run after the solve phase's clock
   stopped. *)
let stage ~config ?pool ?racers ?enumerate ~params ~budget fe =
  let (facts, atoms), setup_time = Phases.time fe.setup in
  let lp, load_time = Phases.time fe.load in
  let grounded, ground_time =
    Phases.time (fun () ->
        match Grounder.ground ~budget ~facts:atoms lp with
        | exception Budget.Exhausted info -> Error info
        | g -> Ok g)
  in
  let phases = { Phases.zero with setup_time; load_time; ground_time } in
  match grounded with
  | Error info -> Stopped { facts; phases; info }
  | Ok (ground, ground_stats) -> (
    let verdict, solve_time =
      Phases.time (fun () ->
          solve_ground ~config ~params ?pool ?racers ~budget ground)
    in
    let phases = { phases with solve_time } in
    match verdict with
    | Portfolio.Gave_up info -> Stopped { facts; phases; info }
    | Portfolio.Quarantined { violations } ->
      (* never a wrong answer: the typed error surfaces instead *)
      raise (Solver_error.Error (Solver_error.Verification_failed { violations }))
    | Portfolio.Proved_unsat ->
      Refuted { facts; phases; reasons = fe.explain facts ~params ~budget ground }
    | Portfolio.Model m ->
      Solved
        {
          facts;
          answer = m.answer;
          models_enumerated = m.models_enumerated;
          stats =
            {
              phases;
              ground_stats;
              sat_stats = m.sat_stats;
              solve_steps = m.steps;
              descent_searches = m.descent_searches;
              costs = m.costs;
              quality = m.quality;
              verified = m.verified;
            };
          models =
            (match enumerate with
            | Some limit -> enumerate_models ~verify:config.Config.verify ~budget ~limit m
            | None -> []);
        })

let escalate ?(config = Config.default) ?(attempts = 1) ?cancel ?fault ?pool
    ?racers ?enumerate fe =
  let base = Config.params config.Config.preset in
  let rec go k limits =
    let budget = Budget.start ?cancel limits in
    Option.iter (fun f -> f k budget) fault;
    let params = { base with Sat.seed = base.Sat.seed + (k * 7919) } in
    match stage ~config ?pool ?racers ?enumerate ~params ~budget fe with
    | Stopped { info = { Budget.reason; _ }; _ }
      when reason <> Budget.Cancelled && k + 1 < attempts ->
      go (k + 1) (Budget.double limits)
    | r -> r
  in
  go 0 config.Config.limits

let solve_program ?config ?cancel ?fault ?pool ?(jobs = 1) ?enumerate prog =
  let fe =
    {
      setup = (fun () -> ((), Grounder.no_facts));
      load = (fun () -> prog);
      explain =
        (fun () ~params ~budget g -> lazy (Explain.explain ~params ~budget g));
    }
  in
  let run pool = escalate ?config ?cancel ?fault ?pool ~racers:jobs ?enumerate fe in
  match
    match pool with
    | None when jobs > 1 ->
      Pool.with_pool ~domains:(min jobs (Pool.default_size ())) (fun p ->
          run (Some p))
    | pool -> run pool
  with
  | Stopped { info; phases; _ } -> Interrupted { info; phases }
  | Refuted { phases; reasons; _ } -> Unsat { phases; core = reasons }
  | Solved { answer; models_enumerated; stats; models; _ } ->
    let answer = apply_show prog answer in
    let models = List.map (apply_show prog) models in
    Sat
      { answer; index = lazy (Answer.of_list answer); models_enumerated; stats; models }

let index o = Lazy.force o.index
let holds o p args = Answer.holds (index o) p args
let atoms_of o p = Answer.atoms_of (index o) p
