type success = {
  spec : Specs.Spec.concrete;
  reused : (string * string) list;
  built : string list;
  costs : (int * int) list;
  quality : Asp.Optimize.quality;
  phases : Asp.Phases.t;
  n_facts : int;
  n_possible : int;
  ground_stats : Asp.Grounder.stats;
  sat_stats : Asp.Sat.stats;
  solve_steps : Asp.Phases.steps;
  descent_searches : int;
  verified : bool;
}

type result =
  | Concrete of success
  | Unsatisfiable of {
      phases : Asp.Phases.t;
      n_facts : int;
      n_possible : int;
      reasons : string list;
    }
  | Interrupted of {
      info : Asp.Budget.info;
      phases : Asp.Phases.t;
      n_facts : int;
      n_possible : int;
    }

(* ------------------------------------------------------------------ *)
(* Content-addressed solve caching.

   The key digests everything the answer depends on: the normalized request
   (order-insensitive per-spec constraint digests, root order preserved —
   extraction roots the DAG at the first spec), the repository fingerprint,
   the installed-database fingerprint, the solver configuration that can
   change the answer (preset, strategy, verify — budgets are excluded
   because only [`Optimal] results are stored, and those are
   limit-independent), the environment roster and the preferences.  The
   cache itself lives outside this library ([Server.Cache] provides an LRU +
   on-disk implementation); here it is just a pair of closures. *)
(* ------------------------------------------------------------------ *)

type cache = {
  lookup : string -> result option;
  store : string -> result -> unit;
}

let request_key ?(config = Asp.Config.default) ?(env = Facts.default_env)
    ?(prefs = Preferences.empty) ?installed ~repo roots =
  let b = Buffer.create 512 in
  let add s =
    Buffer.add_string b s;
    Buffer.add_char b '\x00'
  in
  add "request.v2";
  List.iter (fun r -> add (Specs.Spec.abstract_digest r)) roots;
  add (Pkg.Repo.fingerprint repo);
  (match installed with
  | Some db -> (
    (* narrowed install invalidation: key on the reuse-visible slice of the
       DB, not the whole DB — installing a package outside the request's
       closure leaves the key intact.  Unknown packages fall back to the
       whole-DB fingerprint (the solve itself will raise on them anyway). *)
    match Facts.reuse_digest ~installed:db ~repo roots with
    | d -> add d
    | exception Facts.Unknown_package _ -> add (Pkg.Database.fingerprint db))
  | None -> add "no-db");
  add (Asp.Config.preset_name config.Asp.Config.preset);
  add (Asp.Config.strategy_name config.Asp.Config.strategy);
  add (string_of_bool config.Asp.Config.verify);
  List.iter (fun c -> add (Specs.Compiler.to_string c)) env.Facts.compilers;
  List.iter add env.Facts.oses;
  add env.Facts.target_family;
  List.iter
    (fun (name, (p : Preferences.package_prefs)) ->
      add name;
      (match p.Preferences.pref_version with
      | Some r -> add (Specs.Vrange.canonical r)
      | None -> add "");
      List.iter (fun (k, v) -> add (k ^ "=" ^ v)) (List.sort compare p.Preferences.pref_variants))
    (List.sort compare prefs.Preferences.packages);
  List.iter
    (fun (v, ps) -> add (v ^ "->" ^ String.concat "," ps))
    (List.sort compare prefs.Preferences.providers);
  (match prefs.Preferences.compilers with
  | Some cs -> List.iter (fun c -> add ("pc:" ^ Specs.Compiler.to_string c)) cs
  | None -> add "no-pref-compilers");
  Specs.Spec.digest_strings [ Buffer.contents b ]

(* Only proven-optimal concrete results enter the cache: degraded or
   interrupted outcomes depend on the budget that produced them, and UNSAT
   diagnoses depend on [explain]. *)
let cacheable = function
  | Concrete { quality = `Optimal; _ } -> true
  | Concrete { quality = `Degraded _; _ } | Unsatisfiable _ | Interrupted _ -> false

let solve_uncached ?(config = Asp.Config.default) ?params ?(env = Facts.default_env)
    ?(prefs = Preferences.empty) ?installed ?reuse_mode ?budget ?pool ?racers
    ?(explain = false) ~repo roots =
  let budget =
    match budget with
    | Some b -> b
    | None -> Asp.Budget.start config.Asp.Config.limits
  in
  (* setup: generate the problem-instance facts *)
  let facts, setup_time =
    Asp.Phases.time (fun () ->
        Facts.generate ~env ~prefs ?installed ?reuse_mode ~repo roots)
  in
  let n_facts = facts.Facts.n_facts in
  let n_possible = List.length facts.Facts.possible in
  (* load: parse the logic program (not memoized: the paper times this) *)
  let lp, load_time =
    Asp.Phases.time (fun () -> Asp.Parser.parse Logic_program.text)
  in
  let grounded, ground_time =
    Asp.Phases.time (fun () ->
        match
          Asp.Grounder.ground ~budget ?facts_stream:facts.Facts.reuse_stream
            (lp @ facts.Facts.statements)
        with
        | exception Asp.Budget.Exhausted info -> Error info
        | g -> Ok g)
  in
  let phases = { Asp.Phases.zero with setup_time; load_time; ground_time } in
  match grounded with
  | Error info -> Interrupted { info; phases; n_facts; n_possible }
  | Ok (ground, ground_stats) -> (
    let params =
      match params with
      | Some p -> p
      | None -> Asp.Config.params config.Asp.Config.preset
    in
    let verdict, solve_time =
      Asp.Phases.time (fun () ->
          Asp.Solve.solve_ground ~config ~params ?pool ?racers ~budget ground)
    in
    let phases = { phases with solve_time } in
    match verdict with
    | Asp.Solve.Gave_up info -> Interrupted { info; phases; n_facts; n_possible }
    | Asp.Solve.Proved_unsat ->
      let reasons =
        (* provenance-mapped unsat core on demand: re-solves the ground
           program with selector guards, so it is opt-in *)
        if explain then
          Diagnose.explain_core ~params ~budget ~env ~repo ~facts ~ground roots
        else Diagnose.explain ~env ~repo roots
      in
      Unsatisfiable { phases; n_facts; n_possible; reasons }
    | Asp.Solve.Model
        { answer; costs; quality; sat_stats; descent_searches; verified; steps; _ } ->
      let info = Extract.of_index (Asp.Answer.of_list answer) in
      Concrete
        {
          spec = info.Extract.spec;
          reused = info.Extract.reused;
          built = info.Extract.built;
          costs;
          quality;
          phases;
          n_facts;
          n_possible;
          ground_stats;
          sat_stats;
          solve_steps = steps;
          descent_searches;
          verified;
        })

let solve_with ?params ?config ?env ?prefs ?installed ?reuse_mode ?budget ?pool
    ?racers ?explain ?cache ~repo roots =
  let run () =
    solve_uncached ?config ?params ?env ?prefs ?installed ?reuse_mode ?budget
      ?pool ?racers ?explain ~repo roots
  in
  match cache with
  | None -> run ()
  | Some c -> (
    let key = request_key ?config ?env ?prefs ?installed ~repo roots in
    match c.lookup key with
    | Some r -> r
    | None ->
      let r = run () in
      if cacheable r then c.store key r;
      r)

let solve = solve_with ?params:None

let solve_spec ?config ?env ?prefs ?installed ?reuse_mode ?budget ?explain
    ?cache ~repo text =
  solve ?config ?env ?prefs ?installed ?reuse_mode ?budget ?explain ?cache
    ~repo
    [ Specs.Spec_parser.parse text ]

(* Retry with escalation ({!Asp.Solve.escalate}): each interrupted attempt
   doubles every finite limit and reseeds the search; a cancellation is
   never retried. *)
let solve_escalating ?attempts ?config ?env ?prefs ?installed ?reuse_mode
    ?cancel ?fault ?pool ?racers ?explain ?cache ~repo roots =
  Asp.Solve.escalate ?attempts ?config ?cancel ?fault
    ~interrupted:(function Interrupted { info; _ } -> Some info | _ -> None)
    (fun ~params ~budget ->
      solve_with ~params ?config ?env ?prefs ?installed ?reuse_mode ~budget
        ?pool ?racers ?explain ?cache ~repo roots)

(* Batch-level parallelism: independent root sets concretized across the
   pool, one full pipeline (setup, load, ground, solve) per job.  Jobs are
   sequential inside — batch parallelism and portfolio racing compose only
   by over-subscribing, so [solve_many] keeps each job single-domain.
   Results are in input order. *)
let solve_many ?pool ?(attempts = 1) ?config ?env ?prefs ?installed ?reuse_mode
    ?cancel ?fault ?explain ?cache ~repo jobs =
  let one roots =
    solve_escalating ~attempts ?config ?env ?prefs ?installed ?reuse_mode
      ?cancel ?fault ?explain ?cache ~repo roots
  in
  (* Dedupe identical requests within the batch before dispatch: duplicate-
     heavy batches (environment refreshes, CI matrices) pay for each unique
     request once and the single result fans back out in input order.  The
     key is the same normalized constraint digest the solve cache uses, so
     two spellings of one spec dedupe too. *)
  let key roots =
    String.concat "\x00" (List.map Specs.Spec.abstract_digest roots)
  in
  let seen = Hashtbl.create 16 in
  let uniques = ref [] in
  let slots =
    List.map
      (fun roots ->
        let k = key roots in
        match Hashtbl.find_opt seen k with
        | Some idx -> idx
        | None ->
          let idx = Hashtbl.length seen in
          Hashtbl.add seen k idx;
          uniques := roots :: !uniques;
          idx)
      jobs
  in
  let uniques = List.rev !uniques in
  let results =
    match pool with
    | Some p when Asp.Pool.size p > 1 -> Asp.Pool.map_list p one uniques
    | _ -> List.map one uniques
  in
  let arr = Array.of_list results in
  List.map (fun idx -> arr.(idx)) slots
