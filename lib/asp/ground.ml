type body = { pos : int array; neg : int array }

type rule =
  | Rnormal of int * body
  | Rchoice of choice
  | Rconstraint of body

and choice = { lb : int option; ub : int option; heads : int array; cbody : body }

type min_entry = {
  mweight : int;
  mpriority : int;
  mtuple : Term.t list;
  mbody : body;
}

(* Where a ground rule came from: the source rule's line and pretty-printed
   text, and the atom ids matched by the positive body {e before} the
   fact-stripping simplification — pins imposed as facts (version
   constraints, compiler requests) vanish from simplified bodies, and UNSAT
   explanations need them back. *)
type origin = { o_line : int; o_text : string; o_pos : int array }

type t = {
  store : Gatom.Store.t;
  rules : rule Vec.t;
  origins : origin Vec.t;  (* parallel to [rules] *)
  conflicts0 : origin Vec.t;
      (* constraint instances whose body simplified to the empty body: each
         is independently sufficient for unsatisfiability (see
         [inconsistent]) *)
  minimize : min_entry Vec.t;
  mutable inconsistent : bool;
}

let empty_body = { pos = [||]; neg = [||] }

let dummy_rule = Rconstraint empty_body

let dummy_origin = { o_line = 0; o_text = ""; o_pos = [||] }

let create store =
  {
    store;
    rules = Vec.create ~dummy:dummy_rule ();
    origins = Vec.create ~dummy:dummy_origin ();
    conflicts0 = Vec.create ~dummy:dummy_origin ();
    minimize =
      Vec.create ~dummy:{ mweight = 0; mpriority = 0; mtuple = []; mbody = empty_body } ();
    inconsistent = false;
  }

let push_rule t rule origin =
  Vec.push t.rules rule;
  Vec.push t.origins origin

let origin t i = Vec.get t.origins i

let body_size b = Array.length b.pos + Array.length b.neg
let num_rules t = Vec.length t.rules
let num_atoms t = Gatom.Store.count t.store

let pp_body store ppf b =
  let first = ref true in
  let sep () =
    if !first then first := false else Format.pp_print_string ppf ", "
  in
  Array.iter
    (fun id ->
      sep ();
      Gatom.pp ppf (Gatom.Store.atom store id))
    b.pos;
  Array.iter
    (fun id ->
      sep ();
      Format.fprintf ppf "not %a" Gatom.pp (Gatom.Store.atom store id))
    b.neg

let pp_rule store ppf = function
  | Rnormal (h, b) when body_size b = 0 ->
    Format.fprintf ppf "%a." Gatom.pp (Gatom.Store.atom store h)
  | Rnormal (h, b) ->
    Format.fprintf ppf "%a :- %a." Gatom.pp (Gatom.Store.atom store h) (pp_body store) b
  | Rconstraint b -> Format.fprintf ppf ":- %a." (pp_body store) b
  | Rchoice { lb; ub; heads; cbody } ->
    let pp_b ppf = function None -> () | Some n -> Format.fprintf ppf "%d" n in
    Format.fprintf ppf "%a { " pp_b lb;
    Array.iteri
      (fun i h ->
        if i > 0 then Format.pp_print_string ppf "; ";
        Gatom.pp ppf (Gatom.Store.atom store h))
      heads;
    Format.fprintf ppf " } %a" pp_b ub;
    if body_size cbody > 0 then Format.fprintf ppf " :- %a" (pp_body store) cbody;
    Format.pp_print_string ppf "."

let pp ppf t =
  Vec.iter (fun r -> Format.fprintf ppf "%a@." (pp_rule t.store) r) t.rules;
  Vec.iter
    (fun { mweight; mpriority; mtuple; mbody } ->
      Format.fprintf ppf "#minimize{ %d@%d,%a : %a }.@." mweight mpriority
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
           Term.pp)
        mtuple (pp_body t.store) mbody)
    t.minimize
