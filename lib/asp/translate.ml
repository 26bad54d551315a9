type support = {
  s_lit : Sat.lit option;
  s_pos : int array;
  s_neg : int array;
  s_choice : bool;
}

(* Bodies are deduplicated by their atom-id tuples: plain int-array hashing,
   no tuple allocation per probe and no polymorphic hash. *)
module Body_tbl = Hashtbl.Make (struct
  type t = Ground.body

  let arr_eq (a : int array) (b : int array) =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (Array.unsafe_get a i = Array.unsafe_get b i && go (i - 1)) in
    go (Array.length a - 1)

  let equal (x : Ground.body) (y : Ground.body) =
    arr_eq x.Ground.pos y.Ground.pos && arr_eq x.Ground.neg y.Ground.neg

  let arr_hash h a = Array.fold_left (fun acc x -> (acc * 31) + x) h a

  let hash (b : Ground.body) = arr_hash (arr_hash 17 b.Ground.pos) b.Ground.neg
end)

type t = {
  sat : Sat.t;
  ground : Ground.t;
  var_of_atom : int array;
  supports : support list array;
  tight : bool;
  mutable false_lit : Sat.lit option;  (** lazily created constant-false literal *)
  body_cache : Sat.lit option Body_tbl.t;
}

let fact t id = Gatom.Store.is_fact t.ground.Ground.store id

let atom_lit t id =
  let v = t.var_of_atom.(id) in
  if v < 0 then None else Some (Sat.Lit.pos v)

let constant_false t =
  match t.false_lit with
  | Some l -> l
  | None ->
    let v = Sat.new_var t.sat in
    Sat.add_clause t.sat [ Sat.Lit.neg v ];
    let l = Sat.Lit.pos v in
    t.false_lit <- Some l;
    l

(* literal for a body atom occurrence: None = unconditionally satisfied *)
let pos_occurrence t id =
  if fact t id then `True
  else match atom_lit t id with Some l -> `Lit l | None -> `False

let neg_occurrence t id =
  if fact t id then `False
  else match atom_lit t id with Some l -> `Lit (Sat.Lit.negate l) | None -> `True

(* Build (or fetch) the indicator literal of a body, with full equivalence. *)
let body_indicator t (b : Ground.body) =
  match Body_tbl.find_opt t.body_cache b with
  | Some r -> r
  | None ->
    let lits = ref [] and impossible = ref false in
    Array.iter
      (fun id ->
        match pos_occurrence t id with
        | `True -> ()
        | `False -> impossible := true
        | `Lit l -> lits := l :: !lits)
      b.pos;
    Array.iter
      (fun id ->
        match neg_occurrence t id with
        | `True -> ()
        | `False -> impossible := true
        | `Lit l -> lits := l :: !lits)
      b.neg;
    let result =
      if !impossible then Some (constant_false t)
      else
        match !lits with
        | [] -> None
        | [ l ] -> Some l
        | lits ->
          let beta = Sat.Lit.pos (Sat.new_var t.sat) in
          List.iter
            (fun l -> Sat.add_clause t.sat [ Sat.Lit.negate beta; l ])
            lits;
          Sat.add_clause t.sat (beta :: List.map Sat.Lit.negate lits);
          Some beta
    in
    Body_tbl.add t.body_cache b result;
    result

let add_support t id s = t.supports.(id) <- s :: t.supports.(id)

(* Add the clause [guard \/ not body] of an integrity constraint: the negated
   body literals, with no auxiliary variable.  A fact literal is dropped; an
   impossible one means the body can never hold, so no clause is needed.
   With no guard and an all-fact body the clause is empty: UNSAT. *)
let add_constraint_clause t ?guard (b : Ground.body) =
  let lits = ref (Option.to_list guard) and impossible = ref false in
  let add = function
    | `True -> ()
    | `False -> impossible := true
    | `Lit l -> lits := Sat.Lit.negate l :: !lits
  in
  Array.iter (fun id -> add (pos_occurrence t id)) b.pos;
  Array.iter (fun id -> add (neg_occurrence t id)) b.neg;
  if not !impossible then Sat.add_clause t.sat !lits

let process_rule t = function
  | Ground.Rconstraint b -> add_constraint_clause t b
  | Ground.Rnormal (h, b) ->
    if not (fact t h) then begin
      let hlit = Option.get (atom_lit t h) in
      let slit = body_indicator t b in
      (match slit with
      | None -> Sat.add_clause t.sat [ hlit ] (* should not happen: grounder makes facts *)
      | Some l -> Sat.add_clause t.sat [ Sat.Lit.negate l; hlit ]);
      add_support t h { s_lit = slit; s_pos = b.pos; s_neg = b.neg; s_choice = false }
    end
  | Ground.Rchoice { lb; ub; heads; cbody } ->
    let slit = body_indicator t cbody in
    let var_heads = ref [] and nfacts = ref 0 in
    Array.iter
      (fun h ->
        if fact t h then incr nfacts
        else begin
          let hl = Option.get (atom_lit t h) in
          var_heads := hl :: !var_heads;
          add_support t h
            { s_lit = slit; s_pos = cbody.pos; s_neg = cbody.neg; s_choice = true }
        end)
      heads;
    let hs = Array.of_list !var_heads in
    let m = Array.length hs in
    let body_false () =
      match slit with
      | None -> Sat.add_clause t.sat []
      | Some l -> Sat.add_clause t.sat [ Sat.Lit.negate l ]
    in
    (match lb with
    | Some lb ->
      let lb = lb - !nfacts in
      if lb > m then body_false ()
      else if lb > 0 then begin
        (* body -> at least lb of hs:  sum(not h) + lb*body <= m *)
        let entries = Array.to_list (Array.map (fun h -> (1, Sat.Lit.negate h)) hs) in
        match slit with
        | None -> Sat.add_pb_le t.sat entries (m - lb)
        | Some l -> Sat.add_pb_le t.sat ((lb, l) :: entries) m
      end
    | None -> ());
    match ub with
    | Some ub ->
      let ub = ub - !nfacts in
      if ub < 0 then body_false ()
      else if ub < m then begin
        (* body -> at most ub of hs:  sum(h) + (m-ub)*body <= m *)
        let entries = Array.to_list (Array.map (fun h -> (1, h)) hs) in
        match slit with
        | None -> Sat.add_pb_le t.sat entries ub
        | Some l -> Sat.add_pb_le t.sat ((m - ub, l) :: entries) m
      end
    | None -> ()

(* Does the positive dependency graph (head -> positive body atoms) have a
   cycle?  The graph is built in compressed sparse rows: [offs.(h)] to
   [offs.(h + 1) - 1] index the targets of [h]'s edges, counted by a first
   pass over the rules and filled by a second.  The depth-first search keeps
   its path in an explicit stack, with each node's next edge in [cur]: a
   node is on the path while its colour is 1, so an edge to such a node
   closes a cycle. *)
let has_positive_cycle (g : Ground.t) natoms =
  let offs = Array.make (natoms + 1) 0 in
  let each_edge_list f =
    Vec.iter
      (function
        | Ground.Rnormal (h, b) -> if Array.length b.pos > 0 then f h b.pos
        | Ground.Rchoice { heads; cbody; _ } ->
          if Array.length cbody.pos > 0 then Array.iter (fun h -> f h cbody.pos) heads
        | Ground.Rconstraint _ -> ())
      g.Ground.rules
  in
  each_edge_list (fun h pos -> offs.(h + 1) <- offs.(h + 1) + Array.length pos);
  for v = 1 to natoms do
    offs.(v) <- offs.(v) + offs.(v - 1)
  done;
  let targets = Array.make offs.(natoms) 0 in
  let cur = Array.sub offs 0 natoms in
  each_edge_list (fun h pos ->
      Array.blit pos 0 targets cur.(h) (Array.length pos);
      cur.(h) <- cur.(h) + Array.length pos);
  Array.blit offs 0 cur 0 natoms;
  let color = Bytes.make natoms '\000' in
  let stack = Array.make natoms 0 and sp = ref 0 in
  let cyclic = ref false and root = ref 0 in
  while (not !cyclic) && !root < natoms do
    if Bytes.get color !root = '\000' then begin
      Bytes.set color !root '\001';
      stack.(0) <- !root;
      sp := 1;
      while (not !cyclic) && !sp > 0 do
        let v = stack.(!sp - 1) in
        let i = cur.(v) in
        if i < offs.(v + 1) then begin
          cur.(v) <- i + 1;
          let w = targets.(i) in
          match Bytes.get color w with
          | '\000' ->
            Bytes.set color w '\001';
            stack.(!sp) <- w;
            incr sp
          | '\001' -> cyclic := true
          | _ -> ()
        end
        else begin
          Bytes.set color v '\002';
          decr sp
        end
      done
    end;
    incr root
  done;
  !cyclic

let build ~guard_constraints params (g : Ground.t) =
  let natoms = Gatom.Store.count g.Ground.store in
  let sat = Sat.create ~params () in
  let var_of_atom = Array.make natoms (-1) in
  (* allocate variables for every non-fact atom mentioned in the program *)
  let touch id =
    if var_of_atom.(id) < 0 && not (Gatom.Store.is_fact g.Ground.store id) then
      var_of_atom.(id) <- Sat.new_var sat
  in
  let touch_body (b : Ground.body) =
    Array.iter touch b.pos;
    Array.iter touch b.neg
  in
  Vec.iter
    (function
      | Ground.Rnormal (h, b) ->
        touch h;
        touch_body b
      | Ground.Rchoice { heads; cbody; _ } ->
        Array.iter touch heads;
        touch_body cbody
      | Ground.Rconstraint b -> touch_body b)
    g.Ground.rules;
  Vec.iter (fun (m : Ground.min_entry) -> touch_body m.mbody) g.Ground.minimize;
  let t =
    {
      sat;
      ground = g;
      var_of_atom;
      supports = Array.make natoms [];
      tight = true;
      false_lit = None;
      body_cache = Body_tbl.create 256;
    }
  in
  if g.Ground.inconsistent then Sat.add_clause sat [];
  let selectors = ref [] in
  Vec.iteri
    (fun i r ->
      match r with
      | Ground.Rconstraint b when guard_constraints ->
        (* assumable selector: the constraint is enforced only while its
           selector is assumed, so a final conflict under the assumption set
           names the responsible constraint instances *)
        let sel = Sat.Lit.pos (Sat.new_var sat) in
        add_constraint_clause t ~guard:(Sat.Lit.negate sel) b;
        selectors := (sel, i) :: !selectors
      | r -> process_rule t r)
    g.Ground.rules;
  (* completion: an atom needs at least one support *)
  Array.iteri
    (fun id v ->
      if v >= 0 then begin
        let hlit = Sat.Lit.pos v in
        let unconditional =
          List.exists (fun s -> s.s_lit = None) t.supports.(id)
        in
        if not unconditional then begin
          let slits = List.filter_map (fun s -> s.s_lit) t.supports.(id) in
          Sat.add_clause sat (Sat.Lit.negate hlit :: slits)
        end
      end)
    var_of_atom;
  let tight = not (has_positive_cycle g natoms) in
  ({ t with tight }, List.rev !selectors)

let translate ?(params = Sat.default_params) (g : Ground.t) =
  fst (build ~guard_constraints:false params g)

let translate_with_selectors ?(params = Sat.default_params) (g : Ground.t) =
  build ~guard_constraints:true params g

let atom_is_true t id =
  if fact t id then true
  else match atom_lit t id with None -> false | Some l -> Sat.value t.sat l

let answer t =
  let acc = ref [] in
  for id = Gatom.Store.count t.ground.Ground.store - 1 downto 0 do
    if atom_is_true t id then acc := Gatom.Store.atom t.ground.Ground.store id :: !acc
  done;
  !acc

let suggest_phases preferred t =
  let store = t.ground.Ground.store in
  let fact pred args =
    match Gatom.Store.find store (Gatom.make pred args) with
    | Some id -> Gatom.Store.is_fact store id
    | None -> false
  in
  for id = 0 to Gatom.Store.count store - 1 do
    if preferred ~fact (Gatom.Store.atom store id) then
      match atom_lit t id with
      | Some l -> Sat.suggest_phase t.sat l
      | None -> ()
  done
