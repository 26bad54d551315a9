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

  module H = Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  type key = { kpred : string; karity : int; kpos : int; kvalue : Term.t }

  module K = Hashtbl.Make (struct
    type t = key

    let equal a b =
      a.karity = b.karity && a.kpos = b.kpos
      && Term.equal a.kvalue b.kvalue
      && String.equal a.kpred b.kpred

    (* id-based, non-allocating: the interned term id discriminates values *)
    let hash k =
      (((((Hashtbl.hash k.kpred * 31) + k.karity) * 31) + k.kpos) * 31)
      + Term.id k.kvalue
  end)

  (* A store is either a root (parent = None) or a single extension layer
     over a frozen root: ids below [offset] resolve in the parent, ids at or
     above it in the layer's own tables.  Layers never nest (the substrate
     clones roots instead of chaining), so every lookup is at most two
     probes.  A frozen root is immutable and safe to share across domains;
     fact marks a layer places on parent atoms live in [overlay]. *)
  type t = {
    parent : t option;
    offset : int;  (** ids below this live in [parent] *)
    ids : int H.t;
    atoms : atom Vec.t;
    facts : Ivec.t;  (** 1 for a fact, 0 otherwise *)
    overlay : (int, unit) Hashtbl.t;  (** parent ids fact-marked by this layer *)
    preds : (string * int, Ivec.t) Hashtbl.t;
    index : Ivec.t K.t;
    mutable frozen : bool;
    empty : Ivec.t;  (** shared empty vector for misses *)
  }

  let create () =
    {
      parent = None;
      offset = 0;
      ids = H.create 4096;
      atoms = Vec.create ~dummy:{ pred = ""; args = [] } ();
      facts = Ivec.create ();
      overlay = Hashtbl.create 1;
      preds = Hashtbl.create 256;
      index = K.create 4096;
      frozen = false;
      empty = Ivec.create ~capacity:1 ();
    }

  let count st = st.offset + Vec.length st.atoms

  let local_intern st a =
    match H.find_opt st.ids a with
    | Some id -> id
    | None ->
      if st.frozen then invalid_arg "Gatom.Store.intern: store is frozen";
      let id = st.offset + Vec.length st.atoms in
      H.add st.ids a id;
      Vec.push st.atoms a;
      Ivec.push st.facts 0;
      let arity = List.length a.args in
      let pk = (a.pred, arity) in
      (match Hashtbl.find_opt st.preds pk with
      | Some v -> Ivec.push v id
      | None ->
        let v = Ivec.create () in
        Ivec.push v id;
        Hashtbl.add st.preds pk v);
      List.iteri
        (fun kpos value ->
          let k = { kpred = a.pred; karity = arity; kpos; kvalue = value } in
          match K.find_opt st.index k with
          | Some v -> Ivec.push v id
          | None ->
            (* most (pred, pos, value) keys hold one or two ids *)
            let v = Ivec.create ~capacity:2 () in
            Ivec.push v id;
            K.add st.index k v)
        a.args;
      id

  let intern st a =
    match st.parent with
    | None -> local_intern st a
    | Some p -> ( match H.find_opt p.ids a with Some id -> id | None -> local_intern st a)

  let find st a =
    match st.parent with
    | None -> H.find_opt st.ids a
    | Some p -> (
      match H.find_opt p.ids a with Some id -> Some id | None -> H.find_opt st.ids a)

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

  let freeze st =
    if st.parent <> None then invalid_arg "Gatom.Store.freeze: not a root store";
    st.frozen <- true

  let extend st =
    if st.parent <> None then invalid_arg "Gatom.Store.extend: layers do not nest";
    if not st.frozen then invalid_arg "Gatom.Store.extend: freeze the base first";
    {
      parent = Some st;
      offset = count st;
      ids = H.create 256;
      atoms = Vec.create ~dummy:{ pred = ""; args = [] } ();
      facts = Ivec.create ();
      overlay = Hashtbl.create 16;
      preds = Hashtbl.create 64;
      index = K.create 256;
      frozen = false;
      empty = st.empty;
    }

  (* Deep copy of a root store (atoms and terms shared; all tables fresh).
     The install-delta path clones the frozen base and mutates the clone,
     so substrates never chain layers. *)
  let clone st =
    if st.parent <> None then invalid_arg "Gatom.Store.clone: not a root store";
    let preds = Hashtbl.create (Hashtbl.length st.preds) in
    Hashtbl.iter (fun k v -> Hashtbl.add preds k (Ivec.copy v)) st.preds;
    let index = K.create (K.length st.index) in
    K.iter (fun k v -> K.add index k (Ivec.copy v)) st.index;
    {
      parent = None;
      offset = 0;
      ids = H.copy st.ids;
      atoms = Vec.copy st.atoms;
      facts = Ivec.copy st.facts;
      overlay = Hashtbl.create 1;
      preds;
      index;
      frozen = false;
      empty = Ivec.create ~capacity:1 ();
    }

  (* Candidate ids for a (pred, arity[, arg]) probe: at most two backing
     vectors (parent layer + local layer), exposed as one sequence. *)
  type cands = { c_n : int; c_a : Ivec.t; c_b : Ivec.t }

  let cands_length c = c.c_n
  let cands_iter f c =
    Ivec.iter f c.c_a;
    Ivec.iter f c.c_b

  let pred_vec st p a =
    match Hashtbl.find_opt st.preds (p, a) with Some v -> v | None -> st.empty

  let by_pred st p a =
    match st.parent with
    | None ->
      let v = pred_vec st p a in
      { c_n = Ivec.length v; c_a = v; c_b = st.empty }
    | Some par ->
      let v1 = pred_vec par p a and v2 = pred_vec st p a in
      { c_n = Ivec.length v1 + Ivec.length v2; c_a = v1; c_b = v2 }

  let arg_vec st p a ~pos ~value =
    match K.find_opt st.index { kpred = p; karity = a; kpos = pos; kvalue = value } with
    | Some v -> v
    | None -> st.empty

  let by_pred_arg st p a ~pos ~value =
    match st.parent with
    | None ->
      let v = arg_vec st p a ~pos ~value in
      { c_n = Ivec.length v; c_a = v; c_b = st.empty }
    | Some par ->
      let v1 = arg_vec par p a ~pos ~value and v2 = arg_vec st p a ~pos ~value in
      { c_n = Ivec.length v1 + Ivec.length v2; c_a = v1; c_b = v2 }

  let fold_pred_names st f acc =
    let acc =
      match st.parent with
      | Some p -> Hashtbl.fold (fun k _ acc -> f k acc) p.preds acc
      | None -> acc
    in
    Hashtbl.fold (fun k _ acc -> f k acc) st.preds acc
end
