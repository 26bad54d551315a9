(* Independent verification of claimed answers.

   The CDCL pipeline (Sat propagation, Stable's lazy loop formulas,
   Optimize's bound bookkeeping) is the fast path; this module is the slow,
   obviously-correct path that re-checks its results using only the naive
   reference semantics of {!Naive}.  A model that passes here satisfies every
   ground rule, is supported, is unfounded-free (i.e. a stable model), and
   realizes exactly the cost vector the solver claimed — so a silent solver
   bug is caught before the answer ships. *)

type violation =
  | Inconsistent_program
  | Rule_violated of int
  | Unsupported of int
  | Unfounded of int
  | Cost_mismatch of { claimed : (int * int) list; actual : (int * int) list }

let pp_costs ppf costs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ' ')
    (fun ppf (p, v) -> Format.fprintf ppf "%d@%d" v p)
    ppf costs

let describe (g : Ground.t) = function
  | Inconsistent_program ->
    "a constraint grounded to an empty body: the program has no model at all"
  | Rule_violated i ->
    Format.asprintf "ground rule not satisfied: %a"
      (Ground.pp_rule g.Ground.store)
      (Vec.get g.Ground.rules i)
  | Unsupported id ->
    Format.asprintf "atom %a is true but no rule with a satisfied body derives it"
      Gatom.pp
      (Gatom.Store.atom g.Ground.store id)
  | Unfounded id ->
    Format.asprintf "atom %a is true but unfounded (only circular justification)"
      Gatom.pp
      (Gatom.Store.atom g.Ground.store id)
  | Cost_mismatch { claimed; actual } ->
    Format.asprintf "claimed cost vector [%a] but the model's recomputed costs are [%a]"
      pp_costs claimed pp_costs actual

(* The founded atoms under [is_true], as {!Naive.founded_set} defines them,
   in one sweep over the rules and a worklist, instead of sweeping until
   nothing changes.  A rule can found something when its body holds and
   one of its heads is true and not founded yet.  The sweep fires such a
   rule at once when its positive body atoms are all founded; otherwise
   the rule waits, counting the atoms it misses, and each of those atoms
   lists it (a linked list through [edge_rule] and [edge_next], from
   [first]).  Every atom founded is pushed on the worklist, and popping an
   atom counts down the rules it lists: a rule at zero fires. *)
let founded_set (g : Ground.t) natoms is_true =
  let store = g.Ground.store in
  let rules = g.Ground.rules in
  let founded = Array.make natoms false in
  for id = 0 to natoms - 1 do
    if Gatom.Store.is_fact store id then founded.(id) <- true
  done;
  let unfounded_true h = is_true h && not founded.(h) in
  let rec some_unfounded heads i =
    i < Array.length heads && (unfounded_true heads.(i) || some_unfounded heads (i + 1))
  in
  let work = Array.make natoms 0 and nwork = ref 0 in
  let found h =
    if unfounded_true h then begin
      founded.(h) <- true;
      work.(!nwork) <- h;
      incr nwork
    end
  in
  let fire = function
    | Ground.Rnormal (h, _) -> found h
    | Ground.Rchoice c ->
      for i = 0 to Array.length c.heads - 1 do
        found c.heads.(i)
      done
    | Ground.Rconstraint _ -> ()
  in
  let missing = Array.make (Vec.length rules) 0 in
  let first = Array.make natoms (-1) in
  let edge_rule = Ivec.create () and edge_next = Ivec.create () in
  let sweep r rule (b : Ground.body) =
    for k = 0 to Array.length b.pos - 1 do
      let p = b.pos.(k) in
      if not founded.(p) then begin
        missing.(r) <- missing.(r) + 1;
        Ivec.push edge_next first.(p);
        first.(p) <- Ivec.length edge_rule;
        Ivec.push edge_rule r
      end
    done;
    if missing.(r) = 0 then fire rule
  in
  Vec.iteri
    (fun r rule ->
      match rule with
      | Ground.Rnormal (h, b) -> if unfounded_true h && Naive.body_holds is_true b then sweep r rule b
      | Ground.Rchoice c ->
        if some_unfounded c.heads 0 && Naive.body_holds is_true c.cbody then sweep r rule c.cbody
      | Ground.Rconstraint _ -> ())
    rules;
  while !nwork > 0 do
    decr nwork;
    let e = ref first.(work.(!nwork)) in
    while !e >= 0 do
      let r = Ivec.get edge_rule !e in
      missing.(r) <- missing.(r) - 1;
      if missing.(r) = 0 then fire (Vec.get rules r);
      e := Ivec.get edge_next !e
    done
  done;
  founded

(* cap the report: one violation proves the answer wrong, a handful helps
   debugging, thousands help nobody *)
let max_reported = 20

let check ?(budget = Budget.unlimited) ?costs (g : Ground.t) ~is_true =
  Budget.enter budget Phases.Verify;
  let store = g.Ground.store in
  let natoms = Gatom.Store.count store in
  let violations = ref [] in
  let reported = ref 0 in
  let add v =
    if !reported < max_reported then violations := v :: !violations;
    incr reported
  in
  if g.Ground.inconsistent then add Inconsistent_program;
  (* 1. every ground rule is satisfied *)
  let count_true heads =
    Array.fold_left (fun acc h -> if is_true h then acc + 1 else acc) 0 heads
  in
  Vec.iteri
    (fun i rule ->
      Budget.tick_verify_step budget;
      let ok =
        match rule with
        | Ground.Rnormal (h, b) -> (not (Naive.body_holds is_true b)) || is_true h
        | Ground.Rconstraint b -> not (Naive.body_holds is_true b)
        | Ground.Rchoice { lb; ub; heads; cbody } ->
          (not (Naive.body_holds is_true cbody))
          || begin
               let n = count_true heads in
               (match lb with Some l -> n >= l | None -> true)
               && match ub with Some u -> n <= u | None -> true
             end
      in
      if not ok then add (Rule_violated i))
    g.Ground.rules;
  (* 2. Clark-completion support: every true non-fact atom is the head of
     some rule whose body holds *)
  let supports = Array.make natoms [] in
  Vec.iter
    (fun rule ->
      match rule with
      | Ground.Rnormal (h, b) -> supports.(h) <- b :: supports.(h)
      | Ground.Rchoice { heads; cbody; _ } ->
        Array.iter (fun h -> supports.(h) <- cbody :: supports.(h)) heads
      | Ground.Rconstraint _ -> ())
    g.Ground.rules;
  for id = 0 to natoms - 1 do
    Budget.tick_verify_step budget;
    if
      is_true id
      && (not (Gatom.Store.is_fact store id))
      && not (List.exists (Naive.body_holds is_true) supports.(id))
    then add (Unsupported id)
  done;
  (* 3. unfounded-freeness: the true atoms are exactly their own least
     fixpoint under the reduct — supported but circular justifications
     (which Clark completion admits and {!Stable} exists to exclude) fail
     here *)
  let founded = founded_set g natoms is_true in
  for id = 0 to natoms - 1 do
    Budget.tick_verify_step budget;
    if is_true id && not founded.(id) then
      if Gatom.Store.is_fact store id then () else add (Unfounded id)
  done;
  (* 4. the claimed cost vector matches a from-scratch recomputation *)
  (match costs with
  | None -> ()
  | Some claimed ->
    Budget.tick_verify_step budget;
    let truth = Array.init natoms is_true in
    let actual = Naive.cost_vector g truth in
    if claimed <> actual then add (Cost_mismatch { claimed; actual }));
  match !violations with [] -> Ok () | vs -> Error (List.rev vs)

let check_translation ?budget ?costs (t : Translate.t) =
  check ?budget ?costs t.Translate.ground ~is_true:(Translate.atom_is_true t)

let describe_all g vs = List.map (describe g) vs
