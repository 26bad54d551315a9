type constraint_node = {
  cname : string;
  cversion : Vrange.t option;
  cvariants : (string * string) list;
  ccompiler : string option;
  ccompiler_version : Vrange.t option;
  cflags : (string * string) list;
  cos : string option;
  ctarget : string option;
}

type abstract = { aroot : constraint_node; adeps : constraint_node list }

let empty_node cname =
  {
    cname;
    cversion = None;
    cvariants = [];
    ccompiler = None;
    ccompiler_version = None;
    cflags = [];
    cos = None;
    ctarget = None;
  }

let abstract_of_name name = { aroot = empty_node name; adeps = [] }

let merge_nodes a b =
  let scalar x y = match y with Some _ -> y | None -> x in
  let variants =
    List.fold_left
      (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc)
      a.cvariants b.cvariants
  in
  let flags =
    List.fold_left (fun acc (k, v) -> (k, v) :: List.remove_assoc k acc) a.cflags b.cflags
  in
  {
    cname = a.cname;
    cversion = scalar a.cversion b.cversion;
    cvariants = List.sort compare variants;
    ccompiler = scalar a.ccompiler b.ccompiler;
    ccompiler_version = scalar a.ccompiler_version b.ccompiler_version;
    cflags = List.sort compare flags;
    cos = scalar a.cos b.cos;
    ctarget = scalar a.ctarget b.ctarget;
  }

let variant_to_string (name, value) =
  match value with
  | "true" -> "+" ^ name
  | "false" -> "~" ^ name
  | v -> Printf.sprintf " %s=%s" name v

(* Renders to spec syntax that {!Spec_parser} parses back to the same
   constraints: version ranges are re-rendered canonically (the raw form may
   contain spaces, which do not survive reparsing) and flag values are quoted
   verbatim (the parser reads quoted values without unescaping, so [%S]-style
   escaping would not round-trip). *)
let node_to_string n =
  let buf = Buffer.create 32 in
  Buffer.add_string buf n.cname;
  (match n.cversion with
  | Some v -> Buffer.add_string buf ("@" ^ Vrange.canonical v)
  | None -> ());
  List.iter (fun kv -> Buffer.add_string buf (variant_to_string kv)) n.cvariants;
  (match n.ccompiler with
  | Some c ->
    Buffer.add_string buf ("%" ^ c);
    (match n.ccompiler_version with
    | Some v -> Buffer.add_string buf ("@" ^ Vrange.canonical v)
    | None -> ())
  | None -> ());
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=\"%s\"" k v))
    n.cflags;
  (match n.cos with Some o -> Buffer.add_string buf (" os=" ^ o) | None -> ());
  (match n.ctarget with Some t -> Buffer.add_string buf (" target=" ^ t) | None -> ());
  Buffer.contents buf

let abstract_to_string a =
  String.concat " "
    (node_to_string a.aroot :: List.map (fun d -> "^" ^ node_to_string d) a.adeps)

(* ------------------------------------------------------------------ *)
(* Canonical digest of an abstract spec.  Forward declaration of the    *)
(* digest helper defined with the concrete-spec hashing below.          *)
(* ------------------------------------------------------------------ *)

let fnv_fold (h : int64) (s : string) =
  let prime = 0x100000001b3L in
  let h = ref h in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) prime)
    s;
  !h

let digest strings =
  let h1 = List.fold_left fnv_fold 0xcbf29ce484222325L strings in
  let h2 = List.fold_left fnv_fold 0x9e3779b97f4a7c15L (List.rev strings) in
  Printf.sprintf "%016Lx%016Lx" h1 h2

let digest_strings = digest

(* A rendering of a constraint node in which every choice the parser or the
   caller could have made differently (variant order, flag order, range
   spelling) is normalized away.  Fields are joined with control characters
   so adjacent fields cannot alias ("ab"+"c" vs "a"+"bc"). *)
let canonical_node n =
  let opt f = function Some x -> f x | None -> "" in
  let kvs l =
    String.concat "\x02"
      (List.map (fun (k, v) -> k ^ "=" ^ v) (List.sort compare l))
  in
  String.concat "\x01"
    [
      n.cname;
      opt Vrange.canonical n.cversion;
      kvs n.cvariants;
      opt Fun.id n.ccompiler;
      opt Vrange.canonical n.ccompiler_version;
      kvs n.cflags;
      opt Fun.id n.cos;
      opt Fun.id n.ctarget;
    ]

let abstract_digest a =
  (* duplicate ^dep constraints on one package all apply: merge them (later
     spellings win scalar conflicts, as in [merge_nodes]) so "a ^b+x ^b~y"
     and "a ^b+x~y" digest identically; then order-insensitivity across
     distinct dependencies comes from sorting by name *)
  let merged =
    List.fold_left
      (fun acc d ->
        match List.assoc_opt d.cname acc with
        | Some prev -> (d.cname, merge_nodes prev d) :: List.remove_assoc d.cname acc
        | None -> (d.cname, d) :: acc)
      [] a.adeps
    |> List.map snd
    |> List.sort (fun x y -> String.compare x.cname y.cname)
  in
  digest ("abstract.v1" :: canonical_node a.aroot :: List.map canonical_node merged)

(* ------------------------------------------------------------------ *)

type concrete_node = {
  name : string;
  version : Version.t;
  variants : (string * string) list;
  compiler : Compiler.t;
  flags : (string * string) list;
  os : Os.t;
  target : string;
  depends : string list;
}

module Node_map = Map.Make (String)

type concrete = { root : string; nodes : concrete_node Node_map.t }

let make_concrete ~root nodes =
  let map =
    List.fold_left
      (fun acc n ->
        {
          n with
          variants = List.sort compare n.variants;
          flags = List.sort compare n.flags;
          depends = List.sort_uniq String.compare n.depends;
        }
        |> fun n -> Node_map.add n.name n acc)
      Node_map.empty nodes
  in
  if not (Node_map.mem root map) then invalid_arg "make_concrete: missing root node";
  Node_map.iter
    (fun _ n ->
      List.iter
        (fun d ->
          if not (Node_map.mem d map) then
            invalid_arg (Printf.sprintf "make_concrete: dangling edge %s -> %s" n.name d))
        n.depends)
    map;
  (* cycle check via DFS *)
  let state = Hashtbl.create 16 in
  let rec visit name =
    match Hashtbl.find_opt state name with
    | Some `Active -> invalid_arg "make_concrete: dependency cycle"
    | Some `Done -> ()
    | None ->
      Hashtbl.replace state name `Active;
      List.iter visit (Node_map.find name map).depends;
      Hashtbl.replace state name `Done
  in
  Node_map.iter (fun name _ -> visit name) map;
  (* rebuilt in key order, so that equal node sets give equal values
     whatever order the nodes came in *)
  { root; nodes = Node_map.of_seq (Node_map.to_seq map) }

let concrete_root c = Node_map.find c.root c.nodes

let concrete_nodes c =
  (* topological order, root first *)
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      let n = Node_map.find name c.nodes in
      List.iter visit n.depends;
      order := n :: !order
    end
  in
  visit c.root;
  let reachable = !order in
  (* nodes unreachable from the root (multi-root solves) go last *)
  order := [];
  Node_map.iter (fun name _ -> visit name) c.nodes;
  reachable @ !order

let target_constraint_ok actual = function
  | None -> true
  | Some c ->
    if String.length c > 0 && c.[String.length c - 1] = ':' then
      let family = String.sub c 0 (String.length c - 1) in
      match Target.find actual with
      | Some t -> Target.is_descendant_of t family
      | None -> false
    else String.equal actual c

let node_satisfies (n : concrete_node) (c : constraint_node) =
  String.equal n.name c.cname
  && (match c.cversion with Some r -> Vrange.satisfies r n.version | None -> true)
  && List.for_all
       (fun (k, v) ->
         match List.assoc_opt k n.variants with
         | Some v' -> String.equal v v'
         | None -> false)
       c.cvariants
  && (match c.ccompiler with
     | Some cc -> String.equal n.compiler.Compiler.name cc
     | None -> true)
  && (match c.ccompiler_version with
     | Some r -> Vrange.satisfies r n.compiler.Compiler.version
     | None -> true)
  && List.for_all
       (fun (k, v) ->
         match List.assoc_opt k n.flags with
         | Some v' -> String.equal v v'
         | None -> false)
       c.cflags
  && (match c.cos with Some o -> String.equal n.os o | None -> true)
  && target_constraint_ok n.target c.ctarget

let concrete_satisfies (c : concrete) (a : abstract) =
  node_satisfies (concrete_root c) a.aroot
  && List.for_all
       (fun dep ->
         Node_map.exists (fun _ n -> node_satisfies n dep) c.nodes)
       a.adeps

(* ------------------------------------------------------------------ *)
(* DAG hashing: a 128-bit FNV-style digest over a canonical rendering   *)
(* of the node plus the hashes of its dependencies.                     *)
(* ------------------------------------------------------------------ *)

let concrete_node_to_string n =
  let buf = Buffer.create 48 in
  Buffer.add_string buf n.name;
  Buffer.add_string buf ("@" ^ Version.to_string n.version);
  List.iter (fun kv -> Buffer.add_string buf (variant_to_string kv)) n.variants;
  Buffer.add_string buf ("%" ^ Compiler.to_string n.compiler);
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf " %s=%S" k v))
    n.flags;
  Buffer.add_string buf (Printf.sprintf " os=%s target=%s" n.os n.target);
  Buffer.contents buf

let node_hash c name =
  let memo = Hashtbl.create 16 in
  let rec go name =
    match Hashtbl.find_opt memo name with
    | Some h -> h
    | None ->
      let n = Node_map.find name c.nodes in
      let h = digest (concrete_node_to_string n :: List.map go n.depends) in
      Hashtbl.replace memo name h;
      h
  in
  go name

let pp_concrete ppf c =
  let nodes = concrete_nodes c in
  List.iteri
    (fun i n ->
      if i > 0 then Format.fprintf ppf "@\n    ^%s" (concrete_node_to_string n)
      else Format.fprintf ppf "%s" (concrete_node_to_string n))
    nodes
