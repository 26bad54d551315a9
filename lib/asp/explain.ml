(* UNSAT explanation via assumption-based unsat cores.

   Following the aspcud/Spack pattern: re-translate the ground program with
   every integrity constraint and choice upper bound guarded by a selector
   literal, solve with all
   selectors assumed, and on UNSAT extract (then shrink) the final-conflict
   core — a small set of constraint instances that are jointly
   unsatisfiable.  Each core member carries its {!Ground.origin}, so callers
   can map it back to the input rule and, for concretizer programs, to the
   package recipe or request constraint that produced it.

   Constraints whose body grounded entirely to facts never reach the solver
   (the grounder just flags the program inconsistent); those are reported
   directly from [conflicts0] — each one is independently sufficient, so the
   "core" is trivially minimal and no solving happens at all. *)

type cause = {
  rule_index : int option;
      (* index into [ground.rules]; [None] for grounding-time conflicts *)
  origin : Ground.origin;
  ground_text : string;
}

type result =
  | Unsat_core of { causes : cause list; minimal : bool }
  | Satisfiable
  | Exhausted of Budget.info

(* a conflict instance whose body simplified away entirely: re-render it
   from the pre-simplification matched atoms *)
let conflict0_text (g : Ground.t) (o : Ground.origin) =
  Format.asprintf ":- %a."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf id -> Gatom.pp ppf (Gatom.Store.atom g.Ground.store id)))
    (Array.to_list o.Ground.o_pos)

let explain ?params ?(budget = Budget.unlimited) (g : Ground.t) =
  if Vec.length g.Ground.conflicts0 > 0 then
    Unsat_core
      {
        causes =
          List.map
            (fun o ->
              { rule_index = None; origin = o; ground_text = conflict0_text g o })
            (Vec.to_list g.Ground.conflicts0);
        minimal = true;
      }
  else
    let t, selectors = Translate.translate_with_selectors ?params g in
    (* the stability hook keeps cores sound for non-tight programs: a
       completion model that is not stable is refined away with loop
       formulas instead of being reported as Satisfiable *)
    let on_model = Stable.hook t in
    match
      Sat.solve_with_assumptions ~on_model ~budget t.Translate.sat
        (List.map fst selectors)
    with
    | exception Budget.Exhausted info -> Exhausted info
    | Sat.Sat -> Satisfiable
    | Sat.Unsat ->
      let core = Sat.last_core t.Translate.sat in
      (* anytime minimization: on budget exhaustion the current (still
         unsatisfiable, possibly non-minimal) core is kept *)
      let core, minimal = Sat.shrink_core ~on_model ~budget t.Translate.sat core in
      let causes =
        List.filter_map
          (fun sel ->
            match List.assoc_opt sel selectors with
            | None -> None
            | Some i ->
              Some
                {
                  rule_index = Some i;
                  origin = Ground.origin g i;
                  ground_text =
                    Format.asprintf "%a"
                      (Ground.pp_rule g.Ground.store)
                      (Vec.get g.Ground.rules i);
                })
          core
        |> List.sort (fun a b -> compare a.rule_index b.rule_index)
      in
      Unsat_core { causes; minimal }

let pp_cause ppf c =
  if c.origin.Ground.o_line > 0 then
    Format.fprintf ppf "%s (line %d): %s" c.origin.Ground.o_text
      c.origin.Ground.o_line c.ground_text
  else Format.fprintf ppf "%s: %s" c.origin.Ground.o_text c.ground_text
