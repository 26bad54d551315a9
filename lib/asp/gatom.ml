type t = { pred : string; args : Term.t list }

(* Terms are hash-consed, so argument comparison is pointer equality and
   [Term.hash] is a field read: both operations are O(arity) with no
   recursion into term structure. *)
let equal a b =
  a == b || (String.equal a.pred b.pred && List.equal Term.equal a.args b.args)

let hash a =
  List.fold_left (fun acc t -> (acc * 31) + Term.hash t) (Hashtbl.hash a.pred) a.args

let compare a b =
  let c = String.compare a.pred b.pred in
  if c <> 0 then c else List.compare Term.compare a.args b.args

let pp ppf a =
  match a.args with
  | [] -> Format.pp_print_string ppf a.pred
  | _ ->
    Format.fprintf ppf "%s(%a)" a.pred
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         Term.pp)
      a.args

let make pred args = { pred; args }

module Store = struct
  type atom = t

  module S = Hashtbl.Make (struct
    type t = string

    let equal = String.equal
    let hash = Hashtbl.hash
  end)

  (* Keyed by [Term.id]: non-allocating, and ids are dense. *)
  module I = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash x = x land max_int
  end)

  (* One relation (predicate and arity): the ids of its atoms and, for each
     argument position, the ids of its atoms by that argument's term id.
     A position's index is built on its first probe and kept up to date
     from then on; most positions are never probed.  Ids are appended as
     atoms are interned, so every vector is in ascending id order. *)
  type rel = { r_arity : int; r_ids : Ivec.t; r_args : Ivec.t I.t option array }

  (* Shared, never written: the answer to every probe that misses. *)
  let no_ids = Ivec.create ~capacity:1 ()
  let no_rel = { r_arity = 0; r_ids = no_ids; r_args = [||] }

  (* A store is either a root (parent = None) or a single extension layer
     over a frozen root: ids below [offset] resolve in the parent, ids at or
     above it in the layer's own tables.  Layers never nest (the substrate
     clones roots instead of chaining), so every lookup is at most two
     probes.  A frozen root is immutable and safe to share across domains;
     fact marks a layer places on parent atoms live in [overlay].

     The atom table is a chained hash table over the layer's own atoms,
     indexed by local position ([id - offset]): [buckets] holds the first
     position of each chain and [chain] the next, [-1] ending a chain.  The
     hash of each atom is kept, so a lookup computes one hash, compares
     hashes before atoms, and a resize recomputes none. *)
  type t = {
    parent : t option;
    offset : int;  (** ids below this live in [parent] *)
    atoms : atom Vec.t;
    hashes : Ivec.t;
    chain : Ivec.t;
    mutable buckets : int array;  (** length a power of two *)
    facts : Ivec.t;  (** 1 for a fact, 0 otherwise *)
    overlay : (int, unit) Hashtbl.t;  (** parent ids fact-marked by this layer *)
    rels : rel list S.t;  (** by predicate name, one per arity *)
    mutable frozen : bool;
  }

  let make ~parent ~offset ~size =
    let nb = ref 16 in
    while !nb < size do
      nb := 2 * !nb
    done;
    {
      parent;
      offset;
      atoms = Vec.create ~capacity:size ~dummy:{ pred = ""; args = [] } ();
      hashes = Ivec.create ~capacity:size ();
      chain = Ivec.create ~capacity:size ();
      buckets = Array.make !nb (-1);
      facts = Ivec.create ~capacity:size ();
      overlay = Hashtbl.create 16;
      rels = S.create 64;
      frozen = false;
    }

  let create ?(size = 4096) () = make ~parent:None ~offset:0 ~size
  let count st = st.offset + Vec.length st.atoms

  (* Id of [a] (of hash [h]) among this layer's own atoms, or [-1]. *)
  let find_local st a h =
    let rec walk i =
      if i < 0 then -1
      else if Ivec.get st.hashes i = h && equal (Vec.get st.atoms i) a then st.offset + i
      else walk (Ivec.get st.chain i)
    in
    walk st.buckets.(h land (Array.length st.buckets - 1))

  let find_id st a h =
    match st.parent with
    | None -> find_local st a h
    | Some p ->
      let id = find_local p a h in
      if id >= 0 then id else find_local st a h

  let find st a =
    let id = find_id st a (hash a) in
    if id >= 0 then Some id else None

  let resize st =
    let nb = 2 * Array.length st.buckets in
    let buckets = Array.make nb (-1) in
    for i = 0 to Vec.length st.atoms - 1 do
      let b = Ivec.get st.hashes i land (nb - 1) in
      Ivec.set st.chain i buckets.(b);
      buckets.(b) <- i
    done;
    st.buckets <- buckets

  let rec find_rel_in arity = function
    | [] -> no_rel
    | r :: rest -> if r.r_arity = arity then r else find_rel_in arity rest

  let local_rel st pred arity =
    match S.find_opt st.rels pred with Some l -> find_rel_in arity l | None -> no_rel

  let rel_for_add st pred arity =
    let l = Option.value ~default:[] (S.find_opt st.rels pred) in
    match find_rel_in arity l with
    | r when r != no_rel -> r
    | _ ->
      let r = { r_arity = arity; r_ids = Ivec.create (); r_args = Array.make arity None } in
      S.replace st.rels pred (r :: l);
      r

  let index_add tbl value id =
    match I.find_opt tbl (Term.id value) with
    | Some v -> Ivec.push v id
    | None ->
      (* most (position, value) keys hold one or two ids *)
      let v = Ivec.create ~capacity:2 () in
      Ivec.push v id;
      I.add tbl (Term.id value) v

  (* Append a new atom of hash [h] to this layer (the caller has probed for
     it). *)
  let add st a h =
    if st.frozen then invalid_arg "Gatom.Store.intern: store is frozen";
    let i = Vec.length st.atoms in
    if i >= Array.length st.buckets then resize st;
    let b = h land (Array.length st.buckets - 1) in
    Vec.push st.atoms a;
    Ivec.push st.hashes h;
    Ivec.push st.chain st.buckets.(b);
    st.buckets.(b) <- i;
    Ivec.push st.facts 0;
    let id = st.offset + i in
    let r = rel_for_add st a.pred (List.length a.args) in
    Ivec.push r.r_ids id;
    List.iteri
      (fun pos value ->
        match r.r_args.(pos) with Some tbl -> index_add tbl value id | None -> ())
      a.args;
    id

  let intern st a =
    let h = hash a in
    let id = find_id st a h in
    if id >= 0 then id else add st a h

  let rec atom st id =
    if id < st.offset then atom (Option.get st.parent) id
    else Vec.get st.atoms (id - st.offset)

  let mark_fact st id =
    if id < st.offset then begin
      let p = Option.get st.parent in
      if Ivec.get p.facts id = 0 then Hashtbl.replace st.overlay id ()
    end
    else begin
      if st.frozen then invalid_arg "Gatom.Store.mark_fact: store is frozen";
      Ivec.set st.facts (id - st.offset) 1
    end

  let is_fact st id =
    if id < st.offset then
      let p = Option.get st.parent in
      Ivec.get p.facts id = 1 || Hashtbl.mem st.overlay id
    else Ivec.get st.facts (id - st.offset) = 1

  let intern_fact st a =
    let h = hash a in
    let id = find_id st a h in
    if id < 0 then begin
      mark_fact st (add st a h);
      true
    end
    else if is_fact st id then false
    else begin
      mark_fact st id;
      true
    end

  (* The index of [r]'s argument position [pos], built from the relation's
     atoms on first use. *)
  let arg_index st r pos =
    match r.r_args.(pos) with
    | Some tbl -> tbl
    | None ->
      let tbl = I.create 64 in
      Ivec.iter (fun id -> index_add tbl (List.nth (atom st id).args pos) id) r.r_ids;
      r.r_args.(pos) <- Some tbl;
      tbl

  (* A frozen store is shared read-only, so every index is built first. *)
  let freeze st =
    if st.parent <> None then invalid_arg "Gatom.Store.freeze: not a root store";
    S.iter
      (fun _ l ->
        List.iter (fun r -> for pos = 0 to r.r_arity - 1 do ignore (arg_index st r pos) done) l)
      st.rels;
    st.frozen <- true

  let extend st =
    if st.parent <> None then invalid_arg "Gatom.Store.extend: layers do not nest";
    if not st.frozen then invalid_arg "Gatom.Store.extend: freeze the base first";
    make ~parent:(Some st) ~offset:(count st) ~size:256

  (* Deep copy of a root store (atoms and terms shared; all tables fresh).
     The install-delta path clones the frozen base and mutates the clone,
     so substrates never chain layers. *)
  let clone st =
    if st.parent <> None then invalid_arg "Gatom.Store.clone: not a root store";
    let copy_index tbl =
      let tbl' = I.create (I.length tbl) in
      I.iter (fun k v -> I.add tbl' k (Ivec.copy v)) tbl;
      tbl'
    in
    let copy_rel r =
      { r with r_ids = Ivec.copy r.r_ids; r_args = Array.map (Option.map copy_index) r.r_args }
    in
    let rels = S.create (S.length st.rels) in
    S.iter (fun k l -> S.add rels k (List.map copy_rel l)) st.rels;
    {
      parent = None;
      offset = 0;
      atoms = Vec.copy st.atoms;
      hashes = Ivec.copy st.hashes;
      chain = Ivec.copy st.chain;
      buckets = Array.copy st.buckets;
      facts = Ivec.copy st.facts;
      overlay = Hashtbl.create 1;
      rels;
      frozen = false;
    }

  (* A relation as seen from a store: the parent's part and this layer's. *)
  type relation = { v_st : t; v_a : rel; v_b : rel }

  let relation st pred arity =
    match st.parent with
    | None -> { v_st = st; v_a = local_rel st pred arity; v_b = no_rel }
    | Some p -> { v_st = st; v_a = local_rel p pred arity; v_b = local_rel st pred arity }

  (* Candidate ids of a probe: at most two backing vectors (parent layer +
     local layer), exposed as one ascending sequence. *)
  type cands = { c_a : Ivec.t; c_b : Ivec.t }

  let all v = { c_a = v.v_a.r_ids; c_b = v.v_b.r_ids }

  (* A frozen parent's indexes are all built, so only [st]'s own relations
     are ever indexed here. *)
  let arg_ids st r ~pos ~value =
    if r == no_rel then no_ids
    else
      match I.find_opt (arg_index st r pos) (Term.id value) with
      | Some v -> v
      | None -> no_ids

  let with_arg v ~pos ~value =
    { c_a = arg_ids v.v_st v.v_a ~pos ~value; c_b = arg_ids v.v_st v.v_b ~pos ~value }

  let cands_length c = Ivec.length c.c_a + Ivec.length c.c_b

  let cands_iter f c =
    Ivec.iter f c.c_a;
    Ivec.iter f c.c_b

  (* First index of ascending [v] holding an id >= [lo]. *)
  let lower_bound v lo =
    let l = ref 0 and r = ref (Ivec.length v) in
    while !l < !r do
      let m = (!l + !r) lsr 1 in
      if Ivec.get v m < lo then l := m + 1 else r := m
    done;
    !l

  let iter_between v f ~lo ~hi =
    let i = ref (lower_bound v lo) in
    (* [f] may append to [v], but only ids >= [hi] *)
    while !i < Ivec.length v && Ivec.get v !i < hi do
      f (Ivec.get v !i);
      incr i
    done

  let cands_iter_between f c ~lo ~hi =
    iter_between c.c_a f ~lo ~hi;
    iter_between c.c_b f ~lo ~hi
end
