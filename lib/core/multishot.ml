type shot = { shot_root : string; shot_result : Concretizer.result }

type t = {
  shots : shot list;
  db : Pkg.Database.t;
  distinct_configs : (string * int) list;
  total_time : float;
}

let solve_stack ?config ?pool ?racers (req : Concretizer.request) =
  let t0 = Unix.gettimeofday () in
  let db = Pkg.Database.create () in
  let seeded = Hashtbl.create 64 in
  (match req.Concretizer.installed with
  | Some seed ->
    List.iter
      (fun (r : Pkg.Database.record) ->
        Hashtbl.replace seeded r.Pkg.Database.hash ();
        Pkg.Database.add_record db r)
      (Pkg.Database.records seed)
  | None -> ());
  let shots =
    List.map
      (fun (a : Specs.Spec.abstract) ->
        let result =
          Concretizer.solve ?config ?pool ?racers
            { req with Concretizer.roots = [ a ]; installed = Some db }
        in
        (match result with
        | Concretizer.Concrete s -> Pkg.Database.add_concrete db s.Concretizer.spec
        | Concretizer.Unsatisfiable _ | Concretizer.Interrupted _ -> ());
        { shot_root = a.Specs.Spec.aroot.Specs.Spec.cname; shot_result = result })
      req.Concretizer.roots
  in
  (* count packages with several distinct configurations across the shots *)
  let configs = Hashtbl.create 64 in
  List.iter
    (fun (r : Pkg.Database.record) ->
      if not (Hashtbl.mem seeded r.Pkg.Database.hash) then begin
        let existing =
          Option.value ~default:[] (Hashtbl.find_opt configs r.Pkg.Database.name)
        in
        if not (List.mem r.Pkg.Database.hash existing) then
          Hashtbl.replace configs r.Pkg.Database.name (r.Pkg.Database.hash :: existing)
      end)
    (Pkg.Database.records db);
  let distinct_configs =
    Hashtbl.fold
      (fun name hashes acc ->
        if List.length hashes > 1 then (name, List.length hashes) :: acc else acc)
      configs []
    |> List.sort compare
  in
  { shots; db; distinct_configs; total_time = Unix.gettimeofday () -. t0 }
