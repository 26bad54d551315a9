type t = { node : node; id : int; hkey : int }
and node = Int of int | Str of string | Fun of string * t list

let node t = t.node
let id t = t.id
let hash t = t.hkey
let equal (a : t) (b : t) = a == b

(* Non-allocating structural hash over a single node level: children are
   already interned, so they contribute their precomputed hashes.  (The
   previous implementation hashed [(tag, payload)] tuples, allocating one
   tuple per call in the grounder's innermost loops.) *)
let[@inline] mix h x = ((h * 0x01000193) lxor x) land max_int

let node_hash = function
  | Int i -> mix 0x2f i
  | Str s -> mix 0x3d (Hashtbl.hash s)
  | Fun (f, args) ->
    List.fold_left (fun acc a -> mix acc a.hkey) (mix 0x53 (Hashtbl.hash f)) args

(* Shallow equality: sub-terms compare by physical identity, which is sound
   because every [t] is produced by the interning constructors below. *)
let rec args_eq xs ys =
  match (xs, ys) with
  | [], [] -> true
  | x :: xs, y :: ys -> x == y && args_eq xs ys
  | _ -> false

let node_equal a b =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Fun (f, xs), Fun (g, ys) -> String.equal f g && args_eq xs ys
  | _ -> false

module H = Hashtbl.Make (struct
  type t = node

  let equal = node_equal
  let hash = node_hash
end)

(* The global hash-cons table.  Terms live for the whole process; ids are
   dense, start at 0, and never change once assigned.

   The table is shared by every domain (physical equality of equal terms
   must hold across domains: answers computed by a portfolio racer are
   compared against terms interned by the caller), so it is sharded by hash
   with one mutex per shard.  Ids come from one atomic counter and are
   therefore dense but not allocation-ordered under parallelism. *)
let shard_count = 64 (* power of two *)

let tables : t H.t array = Array.init shard_count (fun _ -> H.create 1024)
let locks : Mutex.t array = Array.init shard_count (fun _ -> Mutex.create ())
let next_id = Atomic.make 0

let hashcons node =
  let h = node_hash node in
  let s = h land (shard_count - 1) in
  let tbl = tables.(s) and lock = locks.(s) in
  Mutex.lock lock;
  match H.find_opt tbl node with
  | Some t ->
    Mutex.unlock lock;
    t
  | None ->
    let t = { node; id = Atomic.fetch_and_add next_id 1; hkey = h } in
    H.add tbl node t;
    Mutex.unlock lock;
    t

(* Non-negative ints below [small_ints] are answered from an array: the
   fact generators build one per condition id, version and weight, and each
   would otherwise take a shard lock, a hash and a table probe.  A slot is
   filled from [hashcons] on first use, so the cached term is the interned
   one (same id, physically equal on every domain); a racing domain at
   worst writes the same term again. *)
let small_ints = 16384
let unset = { node = Int (-1); id = -1; hkey = 0 }
let small = Array.make small_ints unset

let int i =
  if i >= 0 && i < small_ints then begin
    let t = Array.unsafe_get small i in
    if t != unset then t
    else begin
      let t = hashcons (Int i) in
      Array.unsafe_set small i t;
      t
    end
  end
  else hashcons (Int i)

let str s = hashcons (Str s)
let fun_ f args = hashcons (Fun (f, args))
let interned () = Atomic.get next_id

let rec compare a b =
  if a == b then 0
  else
    match (a.node, b.node) with
    | Int x, Int y -> Int.compare x y
    | Int _, _ -> -1
    | _, Int _ -> 1
    | Str x, Str y -> String.compare x y
    | Str _, _ -> -1
    | _, Str _ -> 1
    | Fun (f, xs), Fun (g, ys) ->
      let c = String.compare f g in
      if c <> 0 then c else List.compare compare xs ys

let to_int t = match t.node with Int i -> Some i | _ -> None

let is_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let rec pp ppf t =
  match t.node with
  | Int i -> Format.pp_print_int ppf i
  | Str s ->
    if is_ident s then Format.pp_print_string ppf s
    else Format.fprintf ppf "%S" s
  | Fun (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',') pp)
      args

let to_string t =
  match t.node with
  | Int i -> string_of_int i
  | Str s -> s
  | Fun _ -> Format.asprintf "%a" pp t
