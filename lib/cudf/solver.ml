type solution = {
  state : (string * int) list;
  removed : string list;
  installed_new : string list;
  changed : string list;
  n_facts : int;
  n_packages : int;
  n_sets : int;
  stats : Asp.Solve.stats;
}

type result =
  | Solution of solution
  | Unsatisfiable of { reasons : string list; phases : Asp.Phases.t; n_facts : int }
  | Interrupted of { info : Asp.Budget.info; phases : Asp.Phases.t; n_facts : int }

(* Cheap syntactic diagnosis of an unsatisfiable document — unknown request
   targets, unsatisfiable request constraints, removes that contradict keep
   flags, [false!] dependencies of requested stanzas — the fallback when
   unsat-core extraction is off or out of budget (mirrors Diagnose.explain
   for Spack). *)
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

let solve ?config ?attempts ?cancel ?fault ?pool ?racers ?(explain = false)
    ?(stack = Criteria.Paranoid) (doc : Doc.t) =
  let setup () =
    let enc = Encode.generate doc in
    (enc, enc.Encode.atoms)
  in
  (* load: parse the logic program (timed, like the Spack pipeline) *)
  let load () = Asp.Parser.parse (Logic.text stack) in
  let explain (enc : Encode.t) ~params ~budget ground =
    if explain then
      Concretize.Diagnose.explain_core ~params ~budget
        ~cond_origins:enc.Encode.cond_origins
        ~fallback:(fun () -> heuristic_reasons doc)
        ground
    else heuristic_reasons doc
  in
  match
    Asp.Solve.escalate ?config ?attempts ?cancel ?fault ?pool ?racers
      { Asp.Solve.setup; load; explain }
  with
  | Asp.Solve.Stopped { facts; phases; info } ->
    Interrupted { info; phases; n_facts = facts.Encode.atoms.Asp.Grounder.count }
  | Asp.Solve.Refuted { facts; phases; reasons } ->
    Unsatisfiable { reasons; phases; n_facts = facts.Encode.atoms.Asp.Grounder.count }
  | Asp.Solve.Solved { facts; answer; stats; _ } ->
    let state = decode_state answer in
    let removed, installed_new, changed = diff_state doc state in
    Solution
      {
        state;
        removed;
        installed_new;
        changed;
        n_facts = facts.Encode.atoms.Asp.Grounder.count;
        n_packages = facts.Encode.n_packages;
        n_sets = facts.Encode.n_sets;
        stats;
      }
