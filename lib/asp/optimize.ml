(* Lexicographic optimization over the ground [#minimize] entries.  [run]
   builds every level's indicators first, has the first search decide them
   toward zero cost, searches once for a first stable model, and then
   descends level by level from that model, skipping each level the model
   already has at cost 0. *)

type level = { priority : int; entries : (int * Sat.lit) list; offset : int }

type group_key = { gprio : int; gweight : int; gtuple : Term.t list }

(* Group keys hash and compare through interned term ids: no structural
   recursion into (possibly nested) tuple terms. *)
module G = Hashtbl.Make (struct
  type t = group_key

  let equal a b =
    a.gprio = b.gprio && a.gweight = b.gweight
    && List.equal Term.equal a.gtuple b.gtuple

  let hash k =
    List.fold_left
      (fun acc t -> (acc * 31) + Term.id t)
      ((k.gprio * 31) + k.gweight)
      k.gtuple
end)

let levels (t : Translate.t) =
  let sat = t.Translate.sat in
  (* Groups are walked in the order first seen over [Ground.minimize], never
     in [G]'s hash order: that order follows term ids, which depend on what
     the process interned before, and it decides the order in which
     indicator variables and each level's literals are created. *)
  let groups : Ground.body list ref G.t = G.create 64 in
  let order = ref [] in
  Vec.iter
    (fun (m : Ground.min_entry) ->
      let key = { gprio = m.mpriority; gweight = m.mweight; gtuple = m.mtuple } in
      match G.find_opt groups key with
      | Some r -> r := m.mbody :: !r
      | None ->
        let r = ref [ m.mbody ] in
        G.add groups key r;
        order := (key, r) :: !order)
    t.Translate.ground.Ground.minimize;
  (* indicator literal per group: true iff one of the bodies holds *)
  let by_priority : (int, (int * Sat.lit) list ref * int ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let level_slot prio =
    match Hashtbl.find_opt by_priority prio with
    | Some slot -> slot
    | None ->
      let slot = (ref [], ref 0) in
      Hashtbl.add by_priority prio slot;
      slot
  in
  List.iter
    (fun (key, bodies) ->
      let entries, offset = level_slot key.gprio in
      let inds = List.map (Translate.body_indicator t) !bodies in
      if List.exists (fun i -> i = None) inds then
        (* some condition is unconditionally true: constant contribution *)
        offset := !offset + key.gweight
      else begin
        let inds = List.filter_map Fun.id inds in
        let ind =
          match inds with
          | [ l ] -> l
          | _ ->
            let y = Sat.Lit.pos (Sat.new_var sat) in
            List.iter (fun b -> Sat.add_clause sat [ Sat.Lit.negate b; y ]) inds;
            Sat.add_clause sat (Sat.Lit.negate y :: inds);
            y
        in
        if key.gweight > 0 then entries := (key.gweight, ind) :: !entries
        else if key.gweight < 0 then begin
          (* w*x = w + |w|*(1-x): minimize |w| * (not x), constant w *)
          offset := !offset + key.gweight;
          entries := (-key.gweight, Sat.Lit.negate ind) :: !entries
        end
      end)
    (List.rev !order);
  Hashtbl.fold
    (fun priority (entries, offset) acc ->
      { priority; entries = !entries; offset = !offset } :: acc)
    by_priority []
  |> List.sort (fun a b -> Int.compare b.priority a.priority)

let eval_raw sat level =
  List.fold_left
    (fun acc (w, l) -> if Sat.value sat l then acc + w else acc)
    0 level.entries

let eval_level sat level = level.offset + eval_raw sat level

type quality = [ `Optimal | `Degraded of (int * int) list ]

type outcome = {
  costs : (int * int) list;
  models_enumerated : int;
  descent_searches : int;
  quality : quality;
  search_time : float;
  optimize_time : float;
}

(* Each level's descent returns [(value, lower, complete)]: the stored
   model's value on the level, the lower bound proved so far, and whether
   the optimum was reached.  [complete = false] means the budget expired
   mid-level; the stored model is still a valid stable model satisfying
   every bound fixed for earlier levels, so its cost vector is
   lexicographically >= the true optimum (the anytime invariant). *)

(* --- model-guided branch and bound (clasp's "bb") -------------------- *)

(* Tighten sum <= best-1 under a fresh selector until unsatisfiable; the
   stored model always satisfies all bounds fixed so far. *)
let bb_level sat ~(solve : ?assumptions:Sat.lit list -> unit -> Sat.result) ~budget lvl =
  let w_total = List.fold_left (fun acc (w, _) -> acc + w) 0 lvl.entries in
  let best = ref (eval_raw sat lvl) in
  let improving = ref true in
  let complete = ref true in
  while !improving && !best > 0 do
    match Budget.tick_opt_step budget with
    | exception Budget.Exhausted _ ->
      improving := false;
      complete := false
    | () -> (
      let sel = Sat.Lit.pos (Sat.new_var sat) in
      Sat.add_pb_le sat ((w_total - !best + 1, sel) :: lvl.entries) w_total;
      match solve ~assumptions:[ sel ] () with
      | Sat.Sat ->
        Sat.add_clause sat [ Sat.Lit.negate sel ];
        let v = eval_raw sat lvl in
        assert (v < !best);
        best := v
      | Sat.Unsat ->
        Sat.add_clause sat [ Sat.Lit.negate sel ];
        improving := false
      | exception Budget.Exhausted _ ->
        (* neutralize the tightening constraint before bailing out: the
           solver is back at level 0, so the selector can be fixed false *)
        Sat.add_clause sat [ Sat.Lit.negate sel ];
        improving := false;
        complete := false)
  done;
  (* bb proves optimality only through its final Unsat: an interrupted
     descent has established nothing below the incumbent *)
  (!best, 0, !complete)

(* --- unsatisfiable-core-guided (clasp's "usc,one", OLL-style) -------- *)

(* Assume every objective indicator false; each core raises the lower bound
   by its minimum weight and is relaxed with one cardinality ladder (soft
   literals "at most j of this core violated"). *)
let usc_level sat ~(solve : ?assumptions:Sat.lit list -> unit -> Sat.result) ~budget lvl =
  let weights : (Sat.lit, int) Hashtbl.t = Hashtbl.create 16 in
  let add_soft l w =
    Hashtbl.replace weights l (w + Option.value ~default:0 (Hashtbl.find_opt weights l))
  in
  List.iter (fun (w, y) -> add_soft (Sat.Lit.negate y) w) lvl.entries;
  let lower = ref 0 in
  let complete = ref true in
  let continue_ = ref true in
  while !continue_ do
    match Budget.tick_opt_step budget with
    | exception Budget.Exhausted _ ->
      continue_ := false;
      complete := false
    | () ->
    let assumptions =
      Hashtbl.fold (fun l w acc -> if w > 0 then l :: acc else acc) weights []
    in
    if assumptions = [] then continue_ := false
    else
      match solve ~assumptions () with
      | exception Budget.Exhausted _ ->
        (* relaxation ladders added so far are sound (implied) constraints;
           nothing to retract *)
        continue_ := false;
        complete := false
      | Sat.Sat -> continue_ := false
      | Sat.Unsat -> (
        (* keep only genuine soft assumptions (defensive) *)
        match List.filter (Hashtbl.mem weights) (Sat.last_core sat) with
        | [] ->
          (* hard conflict: cannot happen after an initial model exists *)
          continue_ := false
        | core ->
          let wmin =
            List.fold_left
              (fun m l -> min m (Option.value ~default:max_int (Hashtbl.find_opt weights l)))
              max_int core
          in
          lower := !lower + wmin;
          List.iter
            (fun l ->
              match Hashtbl.find_opt weights l with
              | Some w -> Hashtbl.replace weights l (w - wmin)
              | None -> ())
            core;
          let n = List.length core in
          if n > 1 then begin
            (* cardinality ladder: soft "at most j violated" for j=1..n-1 *)
            let violations = List.map (fun l -> (1, Sat.Lit.negate l)) core in
            for j = 1 to n - 1 do
              let r = Sat.Lit.pos (Sat.new_var sat) in
              (* not r -> (violations <= j):  sum + (n-j)*(not r) <= n *)
              Sat.add_pb_le sat ((n - j, Sat.Lit.negate r) :: violations) n;
              add_soft (Sat.Lit.negate r) wmin
            done
          end)
  done;
  (* the stored model realizes at least the proved lower bound (the bound
     is a property of the constraints, interruption does not weaken it) *)
  let v = eval_raw sat lvl in
  assert (v >= !lower);
  (v, !lower, !complete)

let run ?(strategy = Config.Bb) ?(budget = Budget.unlimited) (t : Translate.t) ~on_model =
  let sat = t.Translate.sat in
  let models = ref 0 and searches = ref 0 in
  let solve ?assumptions () =
    incr searches;
    let r = Sat.solve ?assumptions ~on_model ~budget sat in
    if r = Sat.Sat then incr models;
    r
  in
  (* the levels' indicators exist before the first search, which decides
     them false first, highest priority first (the objective-driven sign
     and level heuristic of clasp): where every level's optimum is 0 the
     first model already meets it and the descent runs no search *)
  let lvls, levels_time =
    Phases.time (fun () ->
        let lvls = levels t in
        Sat.set_preferred sat
          (List.concat_map (fun l -> List.map (fun (_, y) -> Sat.Lit.negate y) l.entries) lvls);
        lvls)
  in
  Budget.enter budget Budget.Search;
  match Phases.time (fun () -> solve ()) with
  | Sat.Unsat, _ -> None
  | Sat.Sat, search_time ->
    let t0 = Unix.gettimeofday () in
    Budget.enter budget Budget.Optimize;
    let interrupted = ref false in
    (* proved lower bounds (priority, bound) for the interrupted level and
       every level after it; earlier levels are exact *)
    let bounds = ref [] in
    let costs =
      List.map
        (fun lvl ->
          if !interrupted then begin
            (* budget already gone: report the incumbent's value on this
               level; nothing beyond the constant offset is proved *)
            bounds := (lvl.priority, lvl.offset) :: !bounds;
            (lvl.priority, eval_level sat lvl)
          end
          else begin
            let w_total = List.fold_left (fun acc (w, _) -> acc + w) 0 lvl.entries in
            let best, lower, complete =
              (* the stored model already realizes 0: no search needed *)
              if eval_raw sat lvl = 0 then (0, 0, true)
              else
                match strategy with
                | Config.Bb -> bb_level sat ~solve ~budget lvl
                | Config.Usc -> usc_level sat ~solve ~budget lvl
            in
            if complete then begin
              (* fix the optimum for the remaining levels; the stored model
                 already satisfies this bound *)
              if lvl.entries <> [] && best < w_total then
                Sat.add_pb_le sat lvl.entries best
            end
            else begin
              interrupted := true;
              bounds := (lvl.priority, lvl.offset + lower) :: !bounds
            end;
            (lvl.priority, lvl.offset + best)
          end)
        lvls
    in
    let quality = if !interrupted then `Degraded (List.rev !bounds) else `Optimal in
    Some
      {
        costs;
        models_enumerated = !models;
        descent_searches = !searches - 1;
        quality;
        search_time;
        optimize_time = levels_time +. (Unix.gettimeofday () -. t0);
      }

let descent_line ~costs ~descent_searches =
  Printf.sprintf "Optimize: %d levels, %d descent searches" (List.length costs)
    descent_searches
