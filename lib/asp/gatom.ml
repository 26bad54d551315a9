type t = { pred : string; args : Term.t list }

(* Terms are hash-consed, so argument comparison is pointer equality and
   [Term.hash] is a field read: both operations are O(arity) with no
   recursion into term structure. *)
let equal a b =
  a == b || (String.equal a.pred b.pred && List.equal Term.equal a.args b.args)

let hash a =
  List.fold_left (fun acc t -> (acc * 31) + Term.hash t) (Hashtbl.hash a.pred) a.args

(* [hash] of the atom whose predicate hashes to [hpred] and whose arguments
   are the first [n] terms of [args]. *)
let hash_args hpred (args : Term.t array) n =
  let h = ref hpred in
  for j = 0 to n - 1 do
    h := (!h * 31) + (Array.unsafe_get args j).Term.hkey
  done;
  !h

(* Whether [a] is that atom: its arguments are compared in place.  The
   helpers of the in-place lookup are closed functions, so that a lookup
   allocates nothing. *)
let rec same_args (args : Term.t array) n j = function
  | [] -> j = n
  | t :: rest -> j < n && t == Array.unsafe_get args j && same_args args n (j + 1) rest

let equal_args a pred args n = String.equal a.pred pred && same_args args n 0 a.args

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

  (* The atom table is a chained hash table indexed by id: [buckets] holds
     the first id of each chain and [chain] the next, [-1] ending a chain.
     The hash of each atom is kept, so a lookup computes one hash, compares
     hashes before atoms, and a resize recomputes none. *)
  type t = {
    atoms : atom Vec.t;
    hashes : Ivec.t;
    chain : Ivec.t;
    mutable buckets : int array;  (** length a power of two *)
    facts : Ivec.t;  (** 1 for a fact, 0 otherwise *)
    rels : rel list S.t;  (** by predicate name, one per arity *)
    mutable last : rel;  (** the relation an atom was last added to *)
    mutable last_pred : string;  (** its predicate *)
  }

  let create ?(size = 4096) () =
    let nb = ref 16 in
    while !nb < size do
      nb := 2 * !nb
    done;
    {
      atoms = Vec.create ~capacity:size ~dummy:{ pred = ""; args = [] } ();
      hashes = Ivec.create ~capacity:size ();
      chain = Ivec.create ~capacity:size ();
      buckets = Array.make !nb (-1);
      facts = Ivec.create ~capacity:size ();
      rels = S.create 64;
      last = no_rel;
      last_pred = "";
    }

  let count st = Vec.length st.atoms

  (* Id of [a] (of hash [h]), or [-1]. *)
  let rec walk st a h i =
    if i < 0 then -1
    else if st.hashes.Ivec.data.(i) = h && equal st.atoms.Vec.data.(i) a then i
    else walk st a h st.chain.Ivec.data.(i)

  let find_id st a h = walk st a h st.buckets.(h land (Array.length st.buckets - 1))

  let find st a =
    let id = find_id st a (hash a) in
    if id >= 0 then Some id else None

  (* [find_id] over an atom given by its parts. *)
  let rec walk_args st pred args n h i =
    if i < 0 then -1
    else if st.hashes.Ivec.data.(i) = h && equal_args st.atoms.Vec.data.(i) pred args n then i
    else walk_args st pred args n h st.chain.Ivec.data.(i)

  let find_args_h st pred args n h =
    walk_args st pred args n h st.buckets.(h land (Array.length st.buckets - 1))

  let find_args st pred ~hpred args n = find_args_h st pred args n (hash_args hpred args n)

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

  (* Atoms are added in runs of one relation (a predicate's facts, a rule's
     heads), so the last relation is tried before the table. *)
  let rel_for_add st pred arity =
    if st.last.r_arity = arity && st.last != no_rel && String.equal st.last_pred pred then st.last
    else begin
      let l = Option.value ~default:[] (S.find_opt st.rels pred) in
      let r =
        match find_rel_in arity l with
        | r when r != no_rel -> r
        | _ ->
          let r = { r_arity = arity; r_ids = Ivec.create (); r_args = Array.make arity None } in
          S.replace st.rels pred (r :: l);
          r
      in
      st.last <- r;
      st.last_pred <- pred;
      r
    end

  let index_add tbl value id =
    match I.find tbl value.Term.id with
    | v -> Ivec.push v id
    | exception Not_found ->
      (* most (position, value) keys hold one or two ids *)
      let v = Ivec.create ~capacity:2 () in
      Ivec.push v id;
      I.add tbl value.Term.id v

  (* Add [id] to the built indexes of [r] for its arguments [args], the
     first at position [pos]. *)
  let rec index_args r id pos = function
    | [] -> ()
    | value :: rest ->
      (match r.r_args.(pos) with Some tbl -> index_add tbl value id | None -> ());
      index_args r id (pos + 1) rest

  (* Append a new atom of hash [h] (the caller has probed for it). *)
  let add st a h =
    let id = Vec.length st.atoms in
    if id >= Array.length st.buckets then resize st;
    let b = h land (Array.length st.buckets - 1) in
    Vec.push st.atoms a;
    Ivec.push st.hashes h;
    Ivec.push st.chain st.buckets.(b);
    st.buckets.(b) <- id;
    Ivec.push st.facts 0;
    let r = rel_for_add st a.pred (List.length a.args) in
    Ivec.push r.r_ids id;
    index_args r id 0 a.args;
    id

  let intern st a =
    let h = hash a in
    let id = find_id st a h in
    if id >= 0 then id else add st a h

  let intern_args st pred ~hpred args n =
    let h = hash_args hpred args n in
    let id = find_args_h st pred args n h in
    if id >= 0 then id
    else add st { pred; args = List.init n (Array.get args) } h

  let atom st id = st.atoms.Vec.data.(id)
  let mark_fact st id = Ivec.set st.facts id 1
  let is_fact st id = st.facts.Ivec.data.(id) = 1

  let intern_fact st a = mark_fact st (intern st a)

  type relation = rel

  let relation st pred arity =
    match S.find_opt st.rels pred with Some l -> find_rel_in arity l | None -> no_rel

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

  let ids r = r.r_ids

  (* [Hashtbl.find] rather than [find_opt]: a probe allocates nothing. *)
  let ids_with_arg st r ~pos ~value =
    if r == no_rel then no_ids
    else match I.find (arg_index st r pos) value.Term.id with v -> v | exception Not_found -> no_ids
end
