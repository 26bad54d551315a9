type racer = {
  rname : string;
  rpreset : Config.preset;
  rstrategy : Config.strategy;
  rseed_offset : int;
}

let flip = function Config.Bb -> Config.Usc | Config.Usc -> Config.Bb

let racers ?(config = Config.default) n =
  let base = config.Config.preset in
  let presets =
    base :: List.filter (fun p -> p <> base) Config.all_presets
  in
  let np = List.length presets in
  List.init n (fun i ->
      let rpreset = List.nth presets (i / 2 mod np) in
      let rstrategy =
        if i mod 2 = 0 then config.Config.strategy else flip config.Config.strategy
      in
      let round = i / (2 * np) in
      let rseed_offset = round * 7919 in
      let rname =
        Printf.sprintf "%s/%s%s"
          (Config.strategy_name rstrategy)
          (Config.preset_name rpreset)
          (if round = 0 then "" else Printf.sprintf "+%d" round)
      in
      { rname; rpreset; rstrategy; rseed_offset })

type model = {
  answer : Gatom.t list;
  costs : (int * int) list;
  quality : Optimize.quality;
  sat_stats : Sat.stats;
  models_enumerated : int;
  descent_searches : int;
  verified : bool;
  phases : Phases.t;
  translation : Translate.t option;
}

type attempt =
  | Model of model
  | Proved_unsat
  | Gave_up of Budget.info
  | Quarantined of { violations : string list }

type outcome = { attempt : attempt; attempts : (string * attempt) list }

(* A racer that never started because the race was already over. *)
let cancelled_info =
  {
    Budget.phase = Budget.Search;
    reason = Budget.Cancelled;
    progress = { Budget.conflicts = 0; instances = 0; opt_steps = 0 };
  }

(* One configuration on the calling domain: translate, optimize, then
   verify on a fresh unlimited budget — [budget] may have
   expired producing a degraded (but checkable) model.  An optimal model
   carries the solved translation, on which the round's enumeration
   continues; a degraded one drops it, so a racer that stops early frees
   its solver while the race runs on. *)
let solve_once ~verify ~params ~strategy ~budget ground =
  Budget.enter budget Phases.Translate;
  let t = Translate.translate ~params ground in
  match Optimize.run ~strategy ~budget t ~on_model:(Stable.hook t) with
  | None -> Proved_unsat
  | Some o -> (
    Budget.enter budget Phases.Verify;
    let checked =
      if verify then Some (Verify.check_translation ~costs:o.costs t) else None
    in
    let model verified =
      (* a copy of the counters: the round's enumeration searches on this
         solver *)
      let st = Sat.stats t.Translate.sat in
      let answer = Translate.answer t in
      Model
        {
          answer;
          costs = o.costs;
          quality = o.quality;
          sat_stats = { st with Sat.conflicts = st.Sat.conflicts };
          models_enumerated = o.models_enumerated;
          descent_searches = o.descent_searches;
          verified;
          phases = Budget.phases budget;
          translation = (match o.quality with `Optimal -> Some t | `Degraded _ -> None);
        }
    in
    match checked with
    | None -> model false
    | Some (Ok ()) -> model true
    | Some (Error vs) -> Quarantined { violations = Verify.describe_all ground vs })

let run_racer ~verify ~race_token ~budget ground racer =
  (* a racer that starts after the race is decided must not pay for a
     translation: losing promptly is the point of the cancel protocol *)
  if Budget.is_cancelled race_token then Gave_up cancelled_info
  else
    let params = Config.params racer.rpreset in
    let params = { params with Sat.seed = params.Sat.seed + racer.rseed_offset } in
    (* [solve_once] verifies BEFORE the cancel below: a bogus model must
       never end the race *)
    match
      solve_once ~verify ~params ~strategy:racer.rstrategy
        ~budget:(Budget.sibling ~cancel:race_token budget)
        ground
    with
    | exception Budget.Exhausted info -> Gave_up info
    | attempt ->
      (* self-service cancellation: a (verified) proof ends the race for
         everyone; quarantined racers keep the race alive so the next-best
         candidate can win *)
      (match attempt with
      | Model { quality = `Optimal; _ } | Proved_unsat ->
        Budget.cancel race_token
      | Model _ | Gave_up _ | Quarantined _ -> ());
      attempt

(* first differing level decides; vectors over the same priorities *)
let rec lex_lt a b =
  match (a, b) with
  | (_, va) :: ta, (_, vb) :: tb ->
    va < vb || (va = vb && lex_lt ta tb)
  | _ -> false

let bounds_of = function
  | Model { quality = `Degraded bounds; _ } -> bounds
  | _ -> []

(* tighter = lexicographically greater proved lower bounds *)
let rec lex_gt a b =
  match (a, b) with
  | (_, va) :: ta, (_, vb) :: tb ->
    va > vb || (va = vb && lex_gt ta tb)
  | (_ :: _, []) -> true
  | _ -> false

let progress_total (i : Budget.info) =
  i.Budget.progress.Budget.conflicts + i.Budget.progress.Budget.instances
  + i.Budget.progress.Budget.opt_steps

(* Deterministic combination given the per-racer attempts (racer order):
   a proof wins outright; else the lexicographically best incumbent, ties
   broken by tightest proved bounds, then racer order; else the give-up
   that got furthest.  Quarantined attempts (failed verification) are never
   proofs or incumbents — one is returned only when no racer produced
   anything usable, signalling the caller to run the sequential rescue. *)
let combine attempts =
  let find_proof =
    List.find_opt
      (function Proved_unsat | Model { quality = `Optimal; _ } -> true | _ -> false)
      attempts
  in
  match find_proof with
  | Some a -> a
  | None -> (
    match List.filter (function Model _ -> true | _ -> false) attempts with
    | best :: rest ->
      List.fold_left
        (fun ba a ->
          let bc = match ba with Model m -> m.costs | _ -> [] in
          let c = match a with Model m -> m.costs | _ -> [] in
          if lex_lt c bc then a
          else if (not (lex_lt bc c)) && lex_gt (bounds_of a) (bounds_of ba) then a
          else ba)
        best rest
    | [] -> (
      match List.find_opt (function Quarantined _ -> true | _ -> false) attempts with
      | Some qa -> qa
      | None ->
        List.fold_left
          (fun ba a ->
            match (ba, a) with
            | Gave_up bi, Gave_up i when progress_total i > progress_total bi -> a
            | _ -> ba)
          (List.hd attempts) (List.tl attempts)))

let race ~pool ?(verify = true) ~racers ~budget ground =
  if racers = [] then invalid_arg "Portfolio.race: no racers";
  let race_token =
    match Budget.cancel_token_of budget with
    | Some parent -> Budget.child_token parent
    | None -> Budget.token ()
  in
  let results =
    Pool.map_list pool
      (fun racer ->
        (racer.rname, run_racer ~verify ~race_token ~budget ground racer))
      racers
  in
  { attempt = combine (List.map snd results); attempts = results }
