type outcome = {
  answer : Gatom.t list;
  index : Answer.t Lazy.t;
  costs : (int * int) list;
  quality : Optimize.quality;
  ground_stats : Grounder.stats;
  sat_stats : Sat.stats;
  models_enumerated : int;
  descent_searches : int;
  ground_time : float;
  solve_time : float;
  solve_steps : Phases.steps;
  verified : bool;
}

type result =
  | Sat of outcome
  | Unsat of { ground_time : float; solve_time : float }
  | Interrupted of {
      info : Budget.info;
      ground_time : float;
      solve_time : float;
    }

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

type verdict =
  | Model of Portfolio.model
  | Proved_unsat
  | Gave_up of Budget.info

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

let solve_ground ~config ?params ?pool ?(racers = 1) ~budget g =
  let { Config.strategy; verify; _ } = config in
  let params =
    match params with Some p -> p | None -> Config.params config.Config.preset
  in
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
  | exception Budget.Exhausted info -> Gave_up info
  | Portfolio.Model m -> Model m
  | Portfolio.Proved_unsat -> Proved_unsat
  | Portfolio.Gave_up info -> Gave_up info
  | Portfolio.Quarantined { violations } ->
    (* never a wrong answer: the typed error surfaces instead *)
    raise (Solver_error.Error (Solver_error.Verification_failed { violations }))

let escalate ?(attempts = 3) ?(config = Config.default) ?cancel ?fault
    ~interrupted solve =
  let base = Config.params config.Config.preset in
  let rec go k limits =
    let budget = Budget.start ?cancel limits in
    Option.iter (fun f -> f k budget) fault;
    let r =
      solve ~params:{ base with Sat.seed = base.Sat.seed + (k * 7919) } ~budget
    in
    match interrupted r with
    | Some { Budget.reason; _ }
      when reason <> Budget.Cancelled && k + 1 < attempts ->
      go (k + 1) (Budget.double limits)
    | _ -> r
  in
  go 0 config.Config.limits

let solve_program ?(config = Config.default) ?budget ?pool ?(jobs = 1) prog =
  let budget =
    match budget with Some b -> b | None -> Budget.start config.Config.limits
  in
  match
    Phases.time (fun () ->
        match Grounder.ground ~budget prog with
        | exception Budget.Exhausted info -> Error info
        | r -> Ok r)
  with
  | Error info, ground_time -> Interrupted { info; ground_time; solve_time = 0. }
  | Ok (g, ground_stats), ground_time -> (
    let solve pool = solve_ground ~config ?pool ~racers:jobs ~budget g in
    let verdict, solve_time =
      Phases.time (fun () ->
          match pool with
          | None when jobs > 1 ->
            Pool.with_pool ~domains:(min jobs (Pool.default_size ())) (fun p ->
                solve (Some p))
          | pool -> solve pool)
    in
    match verdict with
    | Gave_up info -> Interrupted { info; ground_time; solve_time }
    | Proved_unsat -> Unsat { ground_time; solve_time }
    | Model m ->
      let answer = apply_show prog m.answer in
      Sat
        {
          answer;
          index = lazy (Answer.of_list answer);
          costs = m.costs;
          quality = m.quality;
          ground_stats;
          sat_stats = m.sat_stats;
          models_enumerated = m.models_enumerated;
          descent_searches = m.descent_searches;
          ground_time;
          solve_time;
          solve_steps = m.steps;
          verified = m.verified;
        })

let solve_text ?config ?budget src = solve_program ?config ?budget (Parser.parse src)

let index o = Lazy.force o.index
let holds o p args = Answer.holds (index o) p args
let atoms_of o p = Answer.atoms_of (index o) p

let enumerate ?(config = Config.default) ?budget ?(limit = max_int) prog =
  let budget =
    match budget with Some b -> b | None -> Budget.start config.Config.limits
  in
  match Grounder.ground ~budget prog with
  | exception Budget.Exhausted _ -> []
  | g, _ -> (
    let params = Config.params config.Config.preset in
    let t = Translate.translate ~params g in
    let on_model = Stable.hook t in
    match Optimize.run ~strategy:config.Config.strategy ~budget t ~on_model with
    | exception Budget.Exhausted _ -> []
    | None -> []
    | Some _ ->
      (* block each found model on the variables of its atoms' literals and
         continue (an atom may share its literal with its body or another
         atom) *)
      let atom_vars =
        Array.fold_left
          (fun acc l -> if l >= 0 then Sat.Lit.var l :: acc else acc)
          [] t.Translate.lit_of_atom
        |> List.sort_uniq Int.compare
      in
      let results = ref [] in
      let found = ref 0 in
      (* stability/support re-check per enumerated model (no cost check:
         enumeration reports every optimal model, not a claimed vector) *)
      let model_checks_out () =
        (not config.Config.verify)
        || match Verify.check_translation t with Ok () -> true | Error _ -> false
      in
      (try
         let continue_ = ref true in
         while !continue_ && !found < limit do
           if model_checks_out () then begin
             incr found;
             results := apply_show prog (Translate.answer t) :: !results
           end;
           let blocking =
             List.map
               (fun v ->
                 let l = Sat.Lit.pos v in
                 if Sat.value t.Translate.sat l then Sat.Lit.negate l else l)
               atom_vars
           in
           Sat.add_clause t.Translate.sat blocking;
           match Sat.solve ~on_model ~budget t.Translate.sat with
           | Sat.Sat -> ()
           | Sat.Unsat -> continue_ := false
         done
       with Budget.Exhausted _ -> ());
      List.rev !results)
