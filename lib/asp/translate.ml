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

type aux = {
  mutable false_lit : Sat.lit option;  (* lazily created constant-false literal *)
  body_cache : Sat.lit Body_tbl.t;  (* shared auxiliaries of multi-literal bodies *)
  buf : Ivec.t;  (* the literals of the clause being built *)
  rule_lit : int array;
      (* rule index -> its body's indicator ([always] when the body always
         holds); set for the rules with a head *)
  mark : Bytes.t;
      (* atom id -> ['\002'] when the atom is its rule's body (see
         [build]) *)
}

type t = {
  sat : Sat.t;
  ground : Ground.t;
  lit_of_atom : int array;
  supports : int list array;
  tight : bool;
  aux : aux;
}

(* The markers of [lit_of_atom] and of a body occurrence that are no
   literal: [always] for a truth fixed true (a fact, a body that always
   holds), [never] for one fixed false (an atom no rule can derive, a body
   that never holds). *)
let always = -1
and never = -2

let fact t id = Gatom.Store.is_fact t.ground.Ground.store id

let atom_lit t id =
  let l = t.lit_of_atom.(id) in
  if l < 0 then None else Some l

let constant_false t =
  match t.aux.false_lit with
  | Some l -> l
  | None ->
    let v = Sat.new_var t.sat in
    Sat.add_clause t.sat [ Sat.Lit.neg v ];
    let l = Sat.Lit.pos v in
    t.aux.false_lit <- Some l;
    l

let to_option l = if l = always then None else Some l

(* The literal of a body occurrence of atom [id], negated when [neg], or a
   marker. *)
let occurrence t ~neg id =
  let l = t.lit_of_atom.(id) in
  if not neg then l
  else if l = always then never
  else if l = never then always
  else Sat.Lit.negate l

(* Push the literals of [b]'s occurrences onto [t.aux.buf] (cleared first),
   each negated when [negate]; [false] when some occurrence can never
   hold. *)
let body_lits t ~negate (b : Ground.body) =
  let buf = t.aux.buf in
  Ivec.clear buf;
  let possible = ref true in
  let np = Array.length b.pos in
  for i = 0 to np + Array.length b.neg - 1 do
    let l =
      if i < np then occurrence t ~neg:false b.pos.(i)
      else occurrence t ~neg:true b.neg.(i - np)
    in
    if l = never then possible := false
    else if l <> always then Ivec.push buf (if negate then Sat.Lit.negate l else l)
  done;
  !possible

(* The body's literal, [always] for a body that always holds and [never]
   for one that never does.  A body of two or more literals gets a shared
   auxiliary [beta] with [beta <-> body]: a binary clause [not beta \/ l] per
   literal, added last literal first, and the long clause
   [beta \/ not body], both from [t.aux.buf]. *)
let body_lit t (b : Ground.body) =
  if not (body_lits t ~negate:false b) then never
  else
    match Ivec.length t.aux.buf with
    | 0 -> always
    | 1 -> Ivec.get t.aux.buf 0
    | n -> (
      match Body_tbl.find_opt t.aux.body_cache b with
      | Some beta -> beta
      | None ->
        let beta = Sat.Lit.pos (Sat.new_var t.sat) in
        for i = n - 1 downto 0 do
          Sat.add_clause t.sat [ Sat.Lit.negate beta; Ivec.get t.aux.buf i ]
        done;
        for i = 0 to n - 1 do
          Ivec.set t.aux.buf i (Sat.Lit.negate (Ivec.get t.aux.buf i))
        done;
        Ivec.push t.aux.buf beta;
        Sat.add_clause_buf t.sat t.aux.buf;
        Body_tbl.add t.aux.body_cache b beta;
        beta)

(* [body_lit] with a literal fixed false for [never]. *)
let indicator t b =
  let l = body_lit t b in
  if l = never then constant_false t else l

let body_indicator t b = to_option (indicator t b)

let add_support t id r = t.supports.(id) <- r :: t.supports.(id)

let support_lit t r = to_option t.aux.rule_lit.(r)

let support_pos t r =
  match Vec.get t.ground.Ground.rules r with
  | Ground.Rnormal (_, b) | Ground.Rconstraint b -> b.pos
  | Ground.Rchoice c -> c.cbody.pos

(* Add the clause [guard \/ not body] of an integrity constraint: the negated
   body literals, with no auxiliary variable.  A fact literal is dropped; an
   impossible one means the body can never hold, so no clause is needed.
   With no guard and an all-fact body the clause is empty: UNSAT. *)
let add_constraint_clause t ?guard (b : Ground.body) =
  if body_lits t ~negate:true b then begin
    Option.iter (Ivec.push t.aux.buf) guard;
    Sat.add_clause_buf t.sat t.aux.buf
  end

(* Translate rule [i] of the ground program.  [sel], when given, guards a
   choice rule's upper bound as a selector guards an integrity constraint:
   the bound holds only while [sel] does. *)
let process_rule ?(sel = always) t i = function
  | Ground.Rconstraint b -> add_constraint_clause t b
  | Ground.Rnormal (h, b) ->
    if fact t h then ()
    else if Bytes.get t.aux.mark h <> '\002' then begin
      let hlit = t.lit_of_atom.(h) in
      let l = indicator t b in
      (* [always]: a body that holds by facts alone, left by the grounder
         when its atoms became facts after the rule was emitted; an atom
         defined by this rule only is its body, so [h] has other rules *)
      if l = always then Sat.add_clause t.sat [ hlit ]
      else Sat.add_clause t.sat [ Sat.Lit.negate l; hlit ];
      t.aux.rule_lit.(i) <- l;
      add_support t h i
    end
    else begin
      (* [h] is this rule's body: no clause; an [h] that never holds needs
         no support *)
      let l = t.lit_of_atom.(h) in
      if l <> never then begin
        t.aux.rule_lit.(i) <- l;
        add_support t h i
      end
    end
  | Ground.Rchoice { lb; ub; heads; cbody } ->
    let l = indicator t cbody in
    t.aux.rule_lit.(i) <- l;
    let m = ref 0 in
    Array.iter
      (fun h ->
        if not (fact t h) then begin
          incr m;
          add_support t h i
        end)
      heads;
    let m = !m and nfacts = Array.length heads - !m in
    (* a bound's guards are the body's indicator and, for the upper bound,
       [sel]; [always] stands for an absent guard *)
    let body_false sel =
      Sat.add_clause t.sat
        (List.filter_map
           (fun g -> if g = always then None else Some (Sat.Lit.negate g))
           [ l; sel ])
    in
    (* [sum lits <= cap] over the head literals, each negated when [negate],
       conditioned on the guards with weight [w] each:
       [w*guard + ... + sum <= cap + w*guards] *)
    let add_bound ~sel ~negate ~w cap =
      let ng = Bool.to_int (l <> always) + Bool.to_int (sel <> always) in
      let ws = Array.make (m + ng) 1 and ls = Array.make (m + ng) 0 in
      if l <> always then begin
        ws.(0) <- w;
        ls.(0) <- l
      end;
      if sel <> always then begin
        ws.(ng - 1) <- w;
        ls.(ng - 1) <- sel
      end;
      let k = ref ng in
      Array.iter
        (fun h ->
          if not (fact t h) then begin
            let hl = t.lit_of_atom.(h) in
            ls.(!k) <- (if negate then Sat.Lit.negate hl else hl);
            incr k
          end)
        heads;
      Sat.add_pb_le_arrays t.sat ws ls (cap + (ng * w))
    in
    (match lb with
    | Some lb ->
      let lb = lb - nfacts in
      if lb > m then body_false always
      else if lb > 0 then
        (* body -> at least lb of the heads:  sum(not h) + lb*body <= m *)
        add_bound ~sel:always ~negate:true ~w:lb (m - lb)
    | None -> ());
    match ub with
    | Some ub ->
      let ub = ub - nfacts in
      if ub < 0 then body_false sel
      else if ub < m then
        (* body -> at most ub of the heads:  sum(h) + (m-ub)*body <= m *)
        add_bound ~sel ~negate:false ~w:(m - ub) ub
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

(* The solver is created once, with room for every variable the
   translation and {!Optimize.levels} can create.

   A first pass lists the non-fact atoms the rules and minimize bodies
   mention, in the order they are met, and finds each one's defining rule:
   an atom whose only rule is a normal rule (a choice head counts as a rule)
   is that rule's body and gets no variable.  A depth-first walk over
   these atoms, from each to those of its body, orders them so that every
   atom comes after the atoms of its body; an atom met again while its own
   body is being walked closes a cycle (positive or through [not]) and
   gets a variable of its own, its rule translated as any other.  The
   other atoms are numbered in the order they were met.  The
   bound counts the rest: an auxiliary per body of two or more literals, a
   selector per guarded constraint or choice upper bound, the constant-false
   literal and a group indicator per two minimize entries (only a group of
   two or more bodies gets one).

   Then the aliased atoms get their body's literal, in walk order, which is
   all of their translation: atom <-> body holds by construction, so their
   rule adds no clause and they add no completion clause. *)
let build ~guard_constraints params (g : Ground.t) =
  let store = g.Ground.store in
  let natoms = Gatom.Store.count store in
  (* [defn.(id)]: the one normal rule with head [id] while there is one, or
     [-1] before any, [-2] for an atom with its own variable (several rules,
     a choice head) *)
  let defn = Array.make natoms (-1) in
  let met = Ivec.create () and is_met = Bytes.make natoms '\000' in
  let extra = ref 1 in
  let touch id =
    if Bytes.get is_met id = '\000' && not (Gatom.Store.is_fact store id) then begin
      Bytes.set is_met id '\001';
      Ivec.push met id
    end
  in
  let touch_body (b : Ground.body) =
    Array.iter touch b.pos;
    Array.iter touch b.neg;
    if Array.length b.pos + Array.length b.neg >= 2 then incr extra
  in
  Vec.iteri
    (fun i r ->
      match r with
      | Ground.Rnormal (h, b) ->
        touch h;
        defn.(h) <- (if defn.(h) = -1 then i else -2);
        touch_body b
      | Ground.Rchoice { heads; cbody; ub; _ } ->
        Array.iter
          (fun h ->
            touch h;
            defn.(h) <- -2)
          heads;
        touch_body cbody;
        if guard_constraints && ub <> None then incr extra
      | Ground.Rconstraint b ->
        Array.iter touch b.pos;
        Array.iter touch b.neg;
        if guard_constraints then incr extra)
    g.Ground.rules;
  Vec.iter (fun (m : Ground.min_entry) -> touch_body m.mbody) g.Ground.minimize;
  extra := !extra + (Vec.length g.Ground.minimize / 2);
  let body_of id =
    match Vec.get g.Ground.rules defn.(id) with
    | Ground.Rnormal (_, b) -> b
    | _ -> assert false
  in
  (* the walk: [mark] is 1 while an atom's body is walked, 2 once it is
     aliased, 3 when it closed a cycle; [stack] holds the path and [next]
     each one's next body position *)
  let mark = Bytes.make natoms '\000' in
  let order = Ivec.create () and stack = Ivec.create () and next = Ivec.create () in
  let aliasable id = defn.(id) >= 0 && not (Gatom.Store.is_fact store id) in
  let enter id =
    Bytes.set mark id '\001';
    Ivec.push stack id;
    Ivec.push next 0
  in
  for k = 0 to Ivec.length met - 1 do
    let root = Ivec.get met k in
    if aliasable root && Bytes.get mark root = '\000' then begin
      enter root;
      while Ivec.length stack > 0 do
        let top = Ivec.length stack - 1 in
        let a = Ivec.get stack top and j = Ivec.get next top in
        let b = body_of a in
        let np = Array.length b.pos in
        if j < np + Array.length b.neg then begin
          Ivec.set next top (j + 1);
          let x = if j < np then b.pos.(j) else b.neg.(j - np) in
          if aliasable x then
            match Bytes.get mark x with
            | '\000' -> enter x
            | '\001' -> Bytes.set mark x '\003'
            | _ -> ()
        end
        else begin
          ignore (Ivec.pop stack);
          ignore (Ivec.pop next);
          if Bytes.get mark a = '\001' then begin
            Bytes.set mark a '\002';
            Ivec.push order a
          end
        end
      done
    end
  done;
  let lit_of_atom =
    Array.init natoms (fun id -> if Gatom.Store.is_fact store id then always else never)
  in
  let nvars = ref 0 in
  Ivec.iter
    (fun id ->
      if Bytes.get mark id <> '\002' then begin
        lit_of_atom.(id) <- Sat.Lit.pos !nvars;
        incr nvars
      end)
    met;
  let sat = Sat.create ~params ~capacity:(!nvars + !extra) () in
  for _ = 1 to !nvars do
    ignore (Sat.new_var sat)
  done;
  let t =
    {
      sat;
      ground = g;
      lit_of_atom;
      supports = Array.make natoms [];
      tight = not (has_positive_cycle g natoms);
      aux =
        {
          false_lit = None;
          body_cache = Body_tbl.create 256;
          buf = Ivec.create ();
          rule_lit = Array.make (Vec.length g.Ground.rules) always;
          mark;
        };
    }
  in
  if g.Ground.inconsistent then Sat.add_clause sat [];
  Ivec.iter (fun id -> lit_of_atom.(id) <- body_lit t (body_of id)) order;
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
      | Ground.Rchoice { ub = Some _; _ } as r when guard_constraints ->
        let sel = Sat.Lit.pos (Sat.new_var sat) in
        process_rule ~sel t i r;
        selectors := (sel, i) :: !selectors
      | r -> process_rule t i r)
    g.Ground.rules;
  (* completion: an atom with its own variable needs at least one support *)
  Ivec.iter
    (fun id ->
      if Bytes.get mark id <> '\002' then begin
        let supports = t.supports.(id) in
        if not (List.exists (fun r -> t.aux.rule_lit.(r) = always) supports) then begin
          Ivec.clear t.aux.buf;
          Ivec.push t.aux.buf (Sat.Lit.negate lit_of_atom.(id));
          List.iter (fun r -> Ivec.push t.aux.buf t.aux.rule_lit.(r)) supports;
          Sat.add_clause_buf sat t.aux.buf
        end
      end)
    met;
  (t, List.rev !selectors)

let translate ?(params = Sat.default_params) (g : Ground.t) =
  fst (build ~guard_constraints:false params g)

let translate_with_selectors ?(params = Sat.default_params) (g : Ground.t) =
  build ~guard_constraints:true params g

let atom_is_true t id =
  let l = t.lit_of_atom.(id) in
  l = always || (l <> never && Sat.value t.sat l)

let answer t =
  let acc = ref [] in
  for id = Gatom.Store.count t.ground.Ground.store - 1 downto 0 do
    if atom_is_true t id then acc := Gatom.Store.atom t.ground.Ground.store id :: !acc
  done;
  !acc
