type phases = {
  setup_time : float;
  load_time : float;
  ground_time : float;
  solve_time : float;
}

let total p = p.setup_time +. p.load_time +. p.ground_time +. p.solve_time

type solution = {
  state : (string * int) list;
  removed : string list;
  installed_new : string list;
  changed : string list;
  costs : (int * int) list;
  quality : Asp.Optimize.quality;
  verified : bool;
  phases : phases;
  n_facts : int;
  n_packages : int;
  n_sets : int;
  ground_stats : Asp.Grounder.stats;
  sat_stats : Asp.Sat.stats;
}

type result =
  | Solution of solution
  | Unsatisfiable of { reasons : string list; phases : phases; n_facts : int }
  | Interrupted of { info : Asp.Budget.info; phases : phases; n_facts : int }

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Cheap syntactic diagnosis — the fallback when unsat-core extraction is
   off or out of budget (mirrors Diagnose.explain for Spack). *)
let heuristic_reasons (doc : Doc.t) =
  let reasons = ref [] in
  let say fmt = Printf.ksprintf (fun s -> reasons := s :: !reasons) fmt in
  let satisfiable vp = List.exists (fun p -> Doc.satisfies p vp) doc.Doc.packages in
  let check_known what vp =
    if not (satisfiable vp) then
      if
        List.exists
          (fun (p : Doc.package) ->
            String.equal p.Doc.name vp.Doc.vname
            || List.exists (fun (f, _) -> String.equal f vp.Doc.vname) p.Doc.provides)
          doc.Doc.packages
      then
        say "no version in the universe satisfies the request to %s %s" what
          (Doc.vpkg_to_string vp)
      else say "the request asks to %s unknown package %s" what vp.Doc.vname
  in
  List.iter (check_known "install") doc.Doc.request.Doc.install;
  List.iter (check_known "upgrade") doc.Doc.request.Doc.upgrade;
  (* a removal that tears out a kept stanza can never be satisfied *)
  List.iter
    (fun rm ->
      List.iter
        (fun (p : Doc.package) ->
          if
            p.Doc.installed
            && p.Doc.keep <> Doc.Knone
            && Doc.satisfies p rm
          then
            say "the request removes %s but %s=%d is installed with keep: %s"
              (Doc.vpkg_to_string rm) p.Doc.name p.Doc.version
              (match p.Doc.keep with
              | Doc.Kversion -> "version"
              | Doc.Kpackage -> "package"
              | Doc.Kfeature -> "feature"
              | Doc.Knone -> "none"))
        doc.Doc.packages)
    doc.Doc.request.Doc.remove;
  (* unsatisfiable dependencies of stanzas the request plainly needs *)
  List.iter
    (fun vp ->
      List.iter
        (fun (p : Doc.package) ->
          if Doc.satisfies p vp then
            List.iter
              (fun cl ->
                if cl = [] then
                  say "%s=%d (a satisfier of %s) depends on false!" p.Doc.name
                    p.Doc.version (Doc.vpkg_to_string vp))
              p.Doc.depends)
        doc.Doc.packages)
    doc.Doc.request.Doc.install;
  List.rev !reasons

(* Seed the search's polarity toward a near-optimal initial model:
   paranoid wants yesterday's state back, trendy wants the newest version
   of everything that was installed.  Like the Spack hints this only
   shapes the first descent — optimality is proved regardless. *)
let apply_phase_hints stack (t : Asp.Translate.t) =
  let store = t.Asp.Translate.ground.Asp.Ground.store in
  let fact_holds pred args =
    match Asp.Gatom.Store.find store (Asp.Gatom.make pred args) with
    | Some id -> Asp.Gatom.Store.is_fact store id
    | None -> false
  in
  for id = 0 to Asp.Gatom.Store.count store - 1 do
    let a = Asp.Gatom.Store.atom store id in
    let preferred =
      match (a.Asp.Gatom.pred, a.Asp.Gatom.args) with
      | "attr", [ { Asp.Term.node = Asp.Term.Str "in"; _ }; p; v ] -> (
        match stack with
        | Criteria.Paranoid -> fact_holds "was_installed" [ p; v ]
        | Criteria.Trendy ->
          fact_holds "newest" [ p; v ] && fact_holds "was_installed_name" [ p ])
      | _ -> false
    in
    if preferred then
      match Asp.Translate.atom_lit t id with
      | Some l -> Asp.Sat.suggest_phase t.Asp.Translate.sat l
      | None -> ()
  done

let decode_state answer =
  List.filter_map
    (fun (a : Asp.Gatom.t) ->
      match (a.Asp.Gatom.pred, a.Asp.Gatom.args) with
      | ( "attr",
          [
            { Asp.Term.node = Asp.Term.Str "in"; _ };
            { Asp.Term.node = Asp.Term.Str p; _ };
            { Asp.Term.node = Asp.Term.Int v; _ };
          ] ) ->
        Some (p, v)
      | _ -> None)
    answer
  |> List.sort compare

let diff_state (doc : Doc.t) state =
  let installed = Doc.installed_pairs doc in
  let set xs =
    let t = Hashtbl.create (List.length xs) in
    List.iter (fun x -> Hashtbl.replace t x ()) xs;
    Hashtbl.mem t
  in
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
  let in_installed_names = set installed_names and in_state_names = set state_names in
  let in_installed = set installed and in_state = set state in
  let removed = List.filter (fun n -> not (in_state_names n)) installed_names in
  let installed_new = List.filter (fun n -> not (in_installed_names n)) state_names in
  let changed =
    uniq
      (List.filter_map (fun (n, v) -> if in_installed (n, v) then None else Some n) state
      @ List.filter_map (fun (n, v) -> if in_state (n, v) then None else Some n) installed)
  in
  (removed, installed_new, changed)

let solve ?(config = Asp.Config.default) ?params ?budget ?pool ?(racers = 1)
    ?(explain = false) ?(stack = Criteria.Paranoid) ?installed_mode (doc : Doc.t) =
  let budget =
    match budget with
    | Some b -> b
    | None -> Asp.Budget.start config.Asp.Config.limits
  in
  let enc, setup_time = time (fun () -> Encode.generate ?installed_mode doc) in
  let n_facts = enc.Encode.n_facts in
  (* load: parse the logic program (timed, like the Spack pipeline) *)
  let lp, load_time = time (fun () -> Asp.Parser.parse (Logic.text stack)) in
  let t0 = Unix.gettimeofday () in
  match
    Asp.Grounder.ground ~budget ?facts_stream:enc.Encode.installed_stream
      (lp @ enc.Encode.statements)
  with
  | exception Asp.Budget.Exhausted info ->
    let phases =
      {
        setup_time;
        load_time;
        ground_time = Unix.gettimeofday () -. t0;
        solve_time = 0.;
      }
    in
    Interrupted { info; phases; n_facts }
  | ground, ground_stats -> (
    let ground_time = Unix.gettimeofday () -. t0 in
    let params =
      match params with
      | Some p -> p
      | None -> Asp.Config.params config.Asp.Config.preset
    in
    let strategy =
      match config.Asp.Config.strategy with
      | Asp.Config.Bb -> `Bb
      | Asp.Config.Usc -> `Usc
    in
    let hints = apply_phase_hints stack in
    let t1 = Unix.gettimeofday () in
    let run_sequential params =
      match
        Asp.Solve.solve_ground_verified ~hints ~verify:config.Asp.Config.verify
          ~params ~strategy ~budget ground
      with
      | None -> None
      | Some (t, costs, quality, _models, verified) ->
        Some
          ( Asp.Translate.answer t,
            costs,
            quality,
            Asp.Sat.stats t.Asp.Translate.sat,
            verified )
    in
    let solved =
      match pool with
      | Some p when racers > 1 -> (
        let rs = Asp.Portfolio.racers ~config racers in
        match
          Asp.Portfolio.race ~pool:p ~hints ~verify:config.Asp.Config.verify
            ~racers:rs ~budget ground
        with
        | { Asp.Portfolio.attempt = Asp.Portfolio.Proved_unsat; _ } -> Ok None
        | { attempt = Asp.Portfolio.Gave_up info; _ } -> Error info
        | {
            attempt =
              Asp.Portfolio.Model { answer; costs; quality; sat_stats; verified; _ };
            _;
          } ->
          Ok (Some (answer, costs, quality, sat_stats, verified))
        | { attempt = Asp.Portfolio.Quarantined _; _ } -> (
          match
            run_sequential
              { params with Asp.Sat.seed = params.Asp.Sat.seed + 104729 }
          with
          | exception Asp.Budget.Exhausted info -> Error info
          | r -> Ok r))
      | _ -> (
        match run_sequential params with
        | exception Asp.Budget.Exhausted info -> Error info
        | r -> Ok r)
    in
    let phases =
      {
        setup_time;
        load_time;
        ground_time;
        solve_time = Unix.gettimeofday () -. t1;
      }
    in
    match solved with
    | Error info -> Interrupted { info; phases; n_facts }
    | Ok None ->
      let reasons =
        if explain then
          Concretize.Diagnose.explain_core_origins ~params ~budget
            ~cond_origins:enc.Encode.cond_origins
            ~fallback:(fun () -> heuristic_reasons doc)
            ~ground ()
        else heuristic_reasons doc
      in
      Unsatisfiable { reasons; phases; n_facts }
    | Ok (Some (answer, costs, quality, sat_stats, verified)) ->
      let state = decode_state answer in
      let removed, installed_new, changed = diff_state doc state in
      Solution
        {
          state;
          removed;
          installed_new;
          changed;
          costs;
          quality;
          verified;
          phases;
          n_facts;
          n_packages = enc.Encode.n_packages;
          n_sets = enc.Encode.n_sets;
          ground_stats;
          sat_stats;
        })

(* Escalating retries, the Concretizer idiom: double every finite limit and
   reseed; never retry a cancellation. *)
let solve_escalating ?(attempts = 3) ?(config = Asp.Config.default) ?cancel
    ?pool ?racers ?explain ?stack ?installed_mode doc =
  let base = Asp.Config.params config.Asp.Config.preset in
  let rec go k limits =
    let budget = Asp.Budget.start ?cancel limits in
    let params =
      if k = 0 then base
      else { base with Asp.Sat.seed = base.Asp.Sat.seed + (k * 7919) }
    in
    match
      solve ~config ~params ~budget ?pool ?racers ?explain ?stack
        ?installed_mode doc
    with
    | Interrupted { info; _ } as r ->
      if info.Asp.Budget.reason = Asp.Budget.Cancelled || k + 1 >= attempts
      then r
      else go (k + 1) (Asp.Budget.double limits)
    | r -> r
  in
  go 0 config.Asp.Config.limits
