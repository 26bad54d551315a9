(* The statement reference the frontends' fact-atom path is checked
   against: the same atoms rendered as [Asp.Ast.fact] statements after the
   logic program and grounded through the grounder's statement seeding,
   the path a program's own facts take.  Both must intern the same atoms
   in the same order, so ground programs and answers are identical. *)

let statements (f : Asp.Grounder.facts) =
  let acc = ref [] in
  f.Asp.Grounder.replay (fun (a : Asp.Gatom.t) ->
      acc := Asp.Ast.fact a.Asp.Gatom.pred a.Asp.Gatom.args :: !acc);
  List.rev !acc

let ground ?budget lp facts = Asp.Grounder.ground ?budget (lp @ statements facts)

(* One pipeline round whose facts take the statement path. *)
let escalate ~setup ~load =
  let stmts = ref [] in
  Asp.Solve.escalate
    {
      Asp.Solve.setup =
        (fun () ->
          let f, atoms = setup () in
          stmts := statements atoms;
          (f, Asp.Grounder.no_facts));
      load = (fun () -> load () @ !stmts);
      explain = (fun _ ~params:_ ~budget:_ _ -> ());
    }

module C = Concretize.Concretizer

(* [Concretizer.solve] of [req] over the statement reference, with the
   result's fact count; UNSAT carries no reasons. *)
let spack_solve (req : C.request) =
  let setup () =
    let f =
      Concretize.Facts.generate ~env:req.C.env ~prefs:req.C.prefs
        ?installed:req.C.installed ~repo:req.C.repo req.C.roots
    in
    (f, f.Concretize.Facts.atoms)
  in
  let load () = Asp.Parser.parse Concretize.Logic_program.text in
  let counts (f : Concretize.Facts.t) =
    (f.Concretize.Facts.atoms.Asp.Grounder.count, List.length f.Concretize.Facts.possible)
  in
  match escalate ~setup ~load with
  | Asp.Solve.Stopped { facts; phases; info } ->
    let n_facts, n_possible = counts facts in
    C.Interrupted { info; phases; n_facts; n_possible }
  | Asp.Solve.Refuted { facts; phases; _ } ->
    let n_facts, n_possible = counts facts in
    C.Unsatisfiable { phases; n_facts; n_possible; reasons = [] }
  | Asp.Solve.Solved { facts; answer; stats; _ } ->
    let n_facts, n_possible = counts facts in
    let info = Concretize.Extract.extract answer in
    C.Concrete
      {
        spec = info.Concretize.Extract.spec;
        reused = info.Concretize.Extract.reused;
        built = info.Concretize.Extract.built;
        n_facts;
        n_possible;
        stats;
      }

(* A CUDF solve over the statement reference: its cost vector and fact
   count, [None] when no model was found. *)
let cudf_solve ~stack doc =
  let setup () =
    let enc = Cudf.Encode.generate doc in
    (enc, enc.Cudf.Encode.atoms)
  in
  let load () = Asp.Parser.parse (Cudf.Logic.text stack) in
  match escalate ~setup ~load with
  | Asp.Solve.Solved { facts; stats; _ } ->
    Some (stats.Asp.Solve.costs, facts.Cudf.Encode.atoms.Asp.Grounder.count)
  | Asp.Solve.Refuted _ | Asp.Solve.Stopped _ -> None
