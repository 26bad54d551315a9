type success = {
  spec : Specs.Spec.concrete;
  reused : (string * string) list;
  built : string list;
  n_facts : int;
  n_possible : int;
  stats : Asp.Solve.stats;
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

type request = {
  repo : Pkg.Repo.t;
  roots : Specs.Spec.abstract list;
  env : Facts.env;
  prefs : Preferences.t;
  installed : Pkg.Database.t option;
}

let request ?(env = Facts.default_env) ?(prefs = Preferences.empty) ?installed ~repo
    roots =
  { repo; roots; env; prefs; installed }

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

let request_key ?(config = Asp.Config.default)
    { repo; roots; env; prefs; installed } =
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
  | Concrete { stats = { quality = `Optimal; _ }; _ } -> true
  | Concrete { stats = { quality = `Degraded _; _ }; _ }
  | Unsatisfiable _ | Interrupted _ -> false

let solve ?(config = Asp.Config.default) ?attempts ?cancel ?fault ?pool ?racers
    ?(explain = false) ?cache ({ repo; roots; env; prefs; installed } as req) =
  let setup () =
    let facts = Facts.generate ~env ~prefs ?installed ~repo roots in
    (facts, facts.Facts.atoms)
  in
  (* load: parse the logic program (not memoized: the paper times this) *)
  let load () = Asp.Parser.parse Logic_program.text in
  let explain facts ~params ~budget ground =
    (* provenance-mapped unsat core on demand: re-solves the ground program
       with selector guards, so it is opt-in *)
    if explain then
      Diagnose.explain_core ~params ~budget ~cond_origins:facts.Facts.cond_origins
        ~fallback:(fun () -> Diagnose.explain ~env ~repo roots)
        ground
    else Diagnose.explain ~env ~repo roots
  in
  let counts (f : Facts.t) =
    (f.Facts.atoms.Asp.Grounder.count, List.length f.Facts.possible)
  in
  let run () =
    match
      Asp.Solve.escalate ~config ?attempts ?cancel ?fault ?pool ?racers
        { Asp.Solve.setup; load; explain }
    with
    | Asp.Solve.Stopped { facts; phases; info } ->
      let n_facts, n_possible = counts facts in
      Interrupted { info; phases; n_facts; n_possible }
    | Asp.Solve.Refuted { facts; phases; reasons } ->
      let n_facts, n_possible = counts facts in
      Unsatisfiable { phases; n_facts; n_possible; reasons }
    | Asp.Solve.Solved { facts; answer; stats; _ } ->
      let n_facts, n_possible = counts facts in
      let info = Extract.extract answer in
      Concrete
        {
          spec = info.Extract.spec;
          reused = info.Extract.reused;
          built = info.Extract.built;
          n_facts;
          n_possible;
          stats;
        }
  in
  match cache with
  | None -> run ()
  | Some c -> (
    let key = request_key ~config req in
    match c.lookup key with
    | Some r -> r
    | None ->
      let r = run () in
      if cacheable r then c.store key r;
      r)

(* Batch-level parallelism: independent root sets concretized across the
   pool, one full pipeline (setup, load, ground, solve) per job.  Jobs are
   sequential inside — batch parallelism and portfolio racing compose only
   by over-subscribing, so [solve_many] keeps each job single-domain.
   Results are in input order. *)
let solve_many ?pool ?config ?attempts ?cancel ?fault ?explain ?cache jobs =
  let one req = solve ?config ?attempts ?cancel ?fault ?explain ?cache req in
  (* Dedupe identical requests within the batch before dispatch: duplicate-
     heavy batches (environment refreshes, CI matrices) pay for each unique
     request once and the single result fans back out in input order.  The
     key is the solve cache's, so two spellings of one spec dedupe too. *)
  let seen = Hashtbl.create 16 in
  let uniques = ref [] in
  let slots =
    List.map
      (fun req ->
        let k = request_key ?config req in
        match Hashtbl.find_opt seen k with
        | Some idx -> idx
        | None ->
          let idx = Hashtbl.length seen in
          Hashtbl.add seen k idx;
          uniques := req :: !uniques;
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
