(* The installed database as a packed record arena.

   At E4S scale (§VII-C: 63,099 installed specs) the database dominates
   resident memory if every record is a boxed OCaml record of strings and
   lists.  Instead, all record fields live in flat int arrays indexed by a
   dense {e slot}; the ints are ids into a string pool that interns every
   distinct name/hash/version/os/target/variant string once.  A 63k-spec
   cache has only a few thousand distinct strings, so the arena is a few
   hundred bytes per record and field access is an array read.

   Slices ({!filter}) are *views*: a selection of slots sharing the parent's
   arena, no copying.  The arena is append-only and existing slots are never
   mutated, so a view is a consistent snapshot even if the parent keeps
   installing; mutating through a view is rejected.

   The boxed {!record} type survives as a materialized view for callers
   that want one; the fact pipeline ({!Concretize.Facts}) uses the packed
   accessors and never materializes. *)

type record = {
  hash : string;
  name : string;
  version : Specs.Version.t;
  variants : (string * string) list;
  compiler : Specs.Compiler.t;
  os : Specs.Os.t;
  target : string;
  deps : (string * string) list;
}

(* ------------------------------------------------------------------ *)
(* String pool: dense ids, memoized version parses                     *)
(* ------------------------------------------------------------------ *)

module Pool = struct
  type t = {
    tbl : (string, int) Hashtbl.t;
    mutable strs : string array;
    mutable vers : Specs.Version.t option array;  (** memoized [of_string strs.(i)] *)
    mutable n : int;
  }

  let create () =
    { tbl = Hashtbl.create 512; strs = Array.make 512 ""; vers = Array.make 512 None; n = 0 }

  let intern p s =
    match Hashtbl.find_opt p.tbl s with
    | Some i -> i
    | None ->
      if p.n = Array.length p.strs then begin
        let grow a dummy =
          let a' = Array.make (2 * Array.length a) dummy in
          Array.blit a 0 a' 0 p.n;
          a'
        in
        p.strs <- grow p.strs "";
        p.vers <- grow p.vers None
      end;
      let i = p.n in
      p.strs.(i) <- s;
      Hashtbl.add p.tbl s i;
      p.n <- i + 1;
      i

  let str p i = p.strs.(i)

  let version p i =
    match p.vers.(i) with
    | Some v -> v
    | None ->
      let v = Specs.Version.of_string p.strs.(i) in
      p.vers.(i) <- Some v;
      v

  let copy p =
    {
      tbl = Hashtbl.copy p.tbl;
      strs = Array.copy p.strs;
      vers = Array.copy p.vers;
      n = p.n;
    }
end

(* ------------------------------------------------------------------ *)
(* The arena                                                           *)
(* ------------------------------------------------------------------ *)

type arena = {
  pool : Pool.t;
  mutable n : int;  (** records, in insertion order *)
  (* per-record pool ids *)
  mutable f_hash : int array;
  mutable f_name : int array;
  mutable f_version : int array;
  mutable f_cname : int array;
  mutable f_cversion : int array;
  mutable f_os : int array;
  mutable f_target : int array;
  (* per-record ranges into the flat kv / dep arrays *)
  mutable f_voff : int array;
  mutable f_vlen : int array;
  mutable f_doff : int array;
  mutable f_dlen : int array;
  mutable kv_key : int array;
  mutable kv_val : int array;
  mutable n_kv : int;
  mutable dp_name : int array;
  mutable dp_hash : int array;
  mutable n_dp : int;
  by_hash : (string, int) Hashtbl.t;  (** hash string -> slot *)
}

type t = {
  arena : arena;
  sel : int array option;  (** visible slots, insertion order; [None] = whole arena *)
  mask : Bytes.t option;  (** visibility bitset over slots; paired with [sel] *)
}

let mask_get m i = Char.code (Bytes.get m (i lsr 3)) land (1 lsl (i land 7)) <> 0

let mask_set m i =
  Bytes.set m (i lsr 3) (Char.chr (Char.code (Bytes.get m (i lsr 3)) lor (1 lsl (i land 7))))

let create_arena () =
  {
    pool = Pool.create ();
    n = 0;
    f_hash = Array.make 256 0;
    f_name = Array.make 256 0;
    f_version = Array.make 256 0;
    f_cname = Array.make 256 0;
    f_cversion = Array.make 256 0;
    f_os = Array.make 256 0;
    f_target = Array.make 256 0;
    f_voff = Array.make 256 0;
    f_vlen = Array.make 256 0;
    f_doff = Array.make 256 0;
    f_dlen = Array.make 256 0;
    kv_key = Array.make 512 0;
    kv_val = Array.make 512 0;
    n_kv = 0;
    dp_name = Array.make 512 0;
    dp_hash = Array.make 512 0;
    n_dp = 0;
    by_hash = Hashtbl.create 256;
  }

let create () = { arena = create_arena (); sel = None; mask = None }
let is_view t = t.sel <> None

let grow_to a n dummy =
  if n <= Array.length a then a
  else begin
    let a' = Array.make (max n (2 * Array.length a)) dummy in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let ensure_records ar n =
  if n > Array.length ar.f_hash then begin
    ar.f_hash <- grow_to ar.f_hash n 0;
    ar.f_name <- grow_to ar.f_name n 0;
    ar.f_version <- grow_to ar.f_version n 0;
    ar.f_cname <- grow_to ar.f_cname n 0;
    ar.f_cversion <- grow_to ar.f_cversion n 0;
    ar.f_os <- grow_to ar.f_os n 0;
    ar.f_target <- grow_to ar.f_target n 0;
    ar.f_voff <- grow_to ar.f_voff n 0;
    ar.f_vlen <- grow_to ar.f_vlen n 0;
    ar.f_doff <- grow_to ar.f_doff n 0;
    ar.f_dlen <- grow_to ar.f_dlen n 0
  end

let add_record t r =
  if is_view t then
    invalid_arg "Pkg.Database.add_record: cannot mutate a filtered slice";
  let ar = t.arena in
  if not (Hashtbl.mem ar.by_hash r.hash) then begin
    let slot = ar.n in
    ensure_records ar (slot + 1);
    let it = Pool.intern ar.pool in
    ar.f_hash.(slot) <- it r.hash;
    ar.f_name.(slot) <- it r.name;
    ar.f_version.(slot) <- it (Specs.Version.to_string r.version);
    ar.f_cname.(slot) <- it r.compiler.Specs.Compiler.name;
    ar.f_cversion.(slot) <- it (Specs.Version.to_string r.compiler.Specs.Compiler.version);
    ar.f_os.(slot) <- it r.os;
    ar.f_target.(slot) <- it r.target;
    let nv = List.length r.variants in
    ar.kv_key <- grow_to ar.kv_key (ar.n_kv + nv) 0;
    ar.kv_val <- grow_to ar.kv_val (ar.n_kv + nv) 0;
    ar.f_voff.(slot) <- ar.n_kv;
    ar.f_vlen.(slot) <- nv;
    List.iter
      (fun (k, v) ->
        ar.kv_key.(ar.n_kv) <- it k;
        ar.kv_val.(ar.n_kv) <- it v;
        ar.n_kv <- ar.n_kv + 1)
      r.variants;
    let nd = List.length r.deps in
    ar.dp_name <- grow_to ar.dp_name (ar.n_dp + nd) 0;
    ar.dp_hash <- grow_to ar.dp_hash (ar.n_dp + nd) 0;
    ar.f_doff.(slot) <- ar.n_dp;
    ar.f_dlen.(slot) <- nd;
    List.iter
      (fun (p, h) ->
        ar.dp_name.(ar.n_dp) <- it p;
        ar.dp_hash.(ar.n_dp) <- it h;
        ar.n_dp <- ar.n_dp + 1)
      r.deps;
    Hashtbl.add ar.by_hash r.hash slot;
    ar.n <- slot + 1
  end

let add_concrete t (c : Specs.Spec.concrete) =
  List.iter
    (fun (n : Specs.Spec.concrete_node) ->
      add_record t
        {
          hash = Specs.Spec.node_hash c n.Specs.Spec.name;
          name = n.Specs.Spec.name;
          version = n.Specs.Spec.version;
          variants = n.Specs.Spec.variants;
          compiler = n.Specs.Spec.compiler;
          os = n.Specs.Spec.os;
          target = n.Specs.Spec.target;
          deps =
            List.map (fun d -> (d, Specs.Spec.node_hash c d)) n.Specs.Spec.depends;
        })
    (Specs.Spec.concrete_nodes c)

(* ------------------------------------------------------------------ *)
(* Packed access                                                       *)
(* ------------------------------------------------------------------ *)

let size t = match t.sel with Some s -> Array.length s | None -> t.arena.n
let is_empty t = size t = 0

let iter_slots t f =
  match t.sel with
  | Some s -> Array.iter f s
  | None ->
    for i = 0 to t.arena.n - 1 do
      f i
    done

let visible t slot =
  match t.mask with
  | Some m -> slot < 8 * Bytes.length m && mask_get m slot
  | None -> true

let slot_of_hash t h =
  match Hashtbl.find_opt t.arena.by_hash h with
  | Some slot when visible t slot -> Some slot
  | _ -> None

let pool_size t = t.arena.pool.Pool.n
let str_of_id t i = Pool.str t.arena.pool i
let version_of_id t i = Pool.version t.arena.pool i
let p_hash t slot = t.arena.f_hash.(slot)
let p_name t slot = t.arena.f_name.(slot)
let p_version t slot = t.arena.f_version.(slot)
let p_compiler_name t slot = t.arena.f_cname.(slot)
let p_compiler_version t slot = t.arena.f_cversion.(slot)
let p_os t slot = t.arena.f_os.(slot)
let p_target t slot = t.arena.f_target.(slot)
let n_variants t slot = t.arena.f_vlen.(slot)
let n_deps t slot = t.arena.f_dlen.(slot)

let iter_variants t slot f =
  let ar = t.arena in
  let off = ar.f_voff.(slot) in
  for k = 0 to ar.f_vlen.(slot) - 1 do
    f ar.kv_key.(off + k) ar.kv_val.(off + k)
  done

let iter_deps t slot f =
  let ar = t.arena in
  let off = ar.f_doff.(slot) in
  for k = 0 to ar.f_dlen.(slot) - 1 do
    f ar.dp_name.(off + k) ar.dp_hash.(off + k)
  done

(* ------------------------------------------------------------------ *)
(* Record views                                                        *)
(* ------------------------------------------------------------------ *)

let record_of_slot t slot =
  let ar = t.arena in
  let s = Pool.str ar.pool in
  let variants = ref [] and deps = ref [] in
  iter_variants t slot (fun k v -> variants := (s k, s v) :: !variants);
  iter_deps t slot (fun p h -> deps := (s p, s h) :: !deps);
  {
    hash = s ar.f_hash.(slot);
    name = s ar.f_name.(slot);
    version = Pool.version ar.pool ar.f_version.(slot);
    variants = List.rev !variants;
    compiler =
      {
        Specs.Compiler.name = s ar.f_cname.(slot);
        version = Pool.version ar.pool ar.f_cversion.(slot);
      };
    os = s ar.f_os.(slot);
    target = s ar.f_target.(slot);
    deps = List.rev !deps;
  }

let find t hash = Option.map (record_of_slot t) (slot_of_hash t hash)

let records t =
  let acc = ref [] in
  iter_slots t (fun slot -> acc := record_of_slot t slot :: !acc);
  List.rev !acc

let by_package t name =
  (* newest first, matching the historical insertion-list order *)
  let acc = ref [] in
  iter_slots t (fun slot ->
      if String.equal (Pool.str t.arena.pool t.arena.f_name.(slot)) name then
        acc := record_of_slot t slot :: !acc);
  !acc

let rec dag_complete t slot =
  let ok = ref true in
  iter_deps t slot (fun _ dh ->
      if !ok then
        match slot_of_hash t (Pool.str t.arena.pool dh) with
        | Some d -> if not (dag_complete t d) then ok := false
        | None -> ok := false);
  !ok

let mem_dag t hash =
  match slot_of_hash t hash with Some slot -> dag_complete t slot | None -> false

(* ------------------------------------------------------------------ *)
(* Copy (the server's install path builds a fresh db and swaps it in)  *)
(* ------------------------------------------------------------------ *)

let copy_arena ar =
  {
    pool = Pool.copy ar.pool;
    n = ar.n;
    f_hash = Array.copy ar.f_hash;
    f_name = Array.copy ar.f_name;
    f_version = Array.copy ar.f_version;
    f_cname = Array.copy ar.f_cname;
    f_cversion = Array.copy ar.f_cversion;
    f_os = Array.copy ar.f_os;
    f_target = Array.copy ar.f_target;
    f_voff = Array.copy ar.f_voff;
    f_vlen = Array.copy ar.f_vlen;
    f_doff = Array.copy ar.f_doff;
    f_dlen = Array.copy ar.f_dlen;
    kv_key = Array.copy ar.kv_key;
    kv_val = Array.copy ar.kv_val;
    n_kv = ar.n_kv;
    dp_name = Array.copy ar.dp_name;
    dp_hash = Array.copy ar.dp_hash;
    n_dp = ar.n_dp;
    by_hash = Hashtbl.copy ar.by_hash;
  }

let copy t =
  match t.sel with
  | None -> { arena = copy_arena t.arena; sel = None; mask = None }
  | Some _ ->
    (* a slice copies record by record into a compact fresh arena *)
    let out = create () in
    iter_slots t (fun slot -> add_record out (record_of_slot t slot));
    out

(* ------------------------------------------------------------------ *)
(* Persistence: a stable line-oriented text format with a digest footer.

   header:   spack-installed-db v1
   records:  record <hash> <name> <version> <os> <target> <cname> <cversion>
             variant <name> <value>          (0+ lines, this record's)
             dep <package> <hash>            (0+ lines, this record's)
   footer:   digest <hex over every preceding line>

   Fields are tab-separated; none of them can contain a tab (they come from
   recipe names, version strings and variant values).  Records are written
   in insertion order so a load-save cycle is byte-identical and reuse-fact
   generation (which walks records in insertion order) is unchanged after a
   reload. *)
(* ------------------------------------------------------------------ *)

let format_header = "spack-installed-db v1"

type load_error =
  | No_such_file of string
  | Bad_header of string  (** first line (stale or foreign format) *)
  | Bad_digest  (** footer digest does not match the content (corruption) *)
  | Truncated  (** no digest footer: the file was cut short *)
  | Malformed of { line : int; reason : string }

let load_error_to_string = function
  | No_such_file p -> Printf.sprintf "no such database file: %s" p
  | Bad_header h -> Printf.sprintf "not a spack-installed-db file (header %S)" h
  | Bad_digest -> "digest mismatch: the database file is corrupt"
  | Truncated -> "truncated database file (missing digest footer)"
  | Malformed { line; reason } -> Printf.sprintf "malformed database file, line %d: %s" line reason

let render_lines t =
  let buf = ref [ format_header ] in
  let add l = buf := l :: !buf in
  let s = Pool.str t.arena.pool in
  iter_slots t (fun slot ->
      let ar = t.arena in
      add
        (String.concat "\t"
           [
             "record";
             s ar.f_hash.(slot);
             s ar.f_name.(slot);
             s ar.f_version.(slot);
             s ar.f_os.(slot);
             s ar.f_target.(slot);
             s ar.f_cname.(slot);
             s ar.f_cversion.(slot);
           ]);
      iter_variants t slot (fun k v -> add (String.concat "\t" [ "variant"; s k; s v ]));
      iter_deps t slot (fun p h -> add (String.concat "\t" [ "dep"; s p; s h ])));
  List.rev !buf

let render_string t =
  let lines = render_lines t in
  let digest = Specs.Spec.digest_strings lines in
  let buf = Buffer.create 4096 in
  List.iter
    (fun l ->
      Buffer.add_string buf l;
      Buffer.add_char buf '\n')
    lines;
  Buffer.add_string buf ("digest\t" ^ digest ^ "\n");
  Buffer.contents buf

let save t path =
  let lines = render_lines t in
  let digest = Specs.Spec.digest_strings lines in
  let tmp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        lines;
      output_string oc ("digest\t" ^ digest ^ "\n"));
  (* atomic publish: readers see either the old or the new complete file *)
  Sys.rename tmp path

let parse_lines lines =
  match lines with
    | [] -> Error (Bad_header "")
    | header :: _ when not (String.equal header format_header) -> Error (Bad_header header)
    | _ :: rest -> (
      (* split off the digest footer, then verify it over everything else *)
      match List.rev rest with
      | [] -> Error Truncated
      | footer :: body_rev -> (
        let body = List.rev body_rev in
        match String.split_on_char '\t' footer with
        | [ "digest"; d ] ->
          if not (String.equal d (Specs.Spec.digest_strings (format_header :: body)))
          then Error Bad_digest
          else begin
            let t = create () in
            let current = ref None in
            let flush_current () =
              match !current with
              | None -> ()
              | Some r ->
                add_record t { r with variants = List.rev r.variants; deps = List.rev r.deps };
                current := None
            in
            let err = ref None in
            List.iteri
              (fun i line ->
                if !err = None then
                  let lineno = i + 2 (* 1-based, after the header *) in
                  match String.split_on_char '\t' line with
                  | [ "record"; hash; name; version; os; target; cname; cversion ] ->
                    flush_current ();
                    (match
                       ( Specs.Version.of_string version,
                         Specs.Version.of_string cversion )
                     with
                    | v, cv ->
                      current :=
                        Some
                          {
                            hash;
                            name;
                            version = v;
                            variants = [];
                            compiler = { Specs.Compiler.name = cname; version = cv };
                            os;
                            target;
                            deps = [];
                          }
                    | exception _ ->
                      err := Some (Malformed { line = lineno; reason = "bad version" }))
                  | [ "variant"; k; v ] -> (
                    match !current with
                    | Some r -> current := Some { r with variants = (k, v) :: r.variants }
                    | None ->
                      err := Some (Malformed { line = lineno; reason = "variant before record" }))
                  | [ "dep"; p; h ] -> (
                    match !current with
                    | Some r -> current := Some { r with deps = (p, h) :: r.deps }
                    | None ->
                      err := Some (Malformed { line = lineno; reason = "dep before record" }))
                  | _ ->
                    err := Some (Malformed { line = lineno; reason = "unrecognized line " ^ line }))
              body;
            match !err with
            | Some e -> Error e
            | None ->
              flush_current ();
              Ok t
          end
        | _ -> Error Truncated))

let load path =
  if not (Sys.file_exists path) then Error (No_such_file path)
  else begin
    let ic = open_in path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let acc = ref [] in
          (try
             while true do
               acc := input_line ic :: !acc
             done
           with End_of_file -> ());
          List.rev !acc)
    in
    parse_lines lines
  end

(* The in-memory mirror of [load]/[save]: replication ships database
   snapshots as the exact bytes [save] would have written, footer digest
   included, so the receiving side gets the same corruption detection a
   file read does. *)
let load_string s =
  let lines = String.split_on_char '\n' s in
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  parse_lines lines

let fingerprint t =
  (* cheap content address: the record hashes already digest each node's
     full parameter set and dependency closure, so hashing them (in
     insertion order) fingerprints the whole database *)
  let hashes = ref [] in
  iter_slots t (fun slot -> hashes := Pool.str t.arena.pool t.arena.f_hash.(slot) :: !hashes);
  Specs.Spec.digest_strings ("db.v1" :: List.rev !hashes)

(* ------------------------------------------------------------------ *)
(* Slices                                                              *)
(* ------------------------------------------------------------------ *)

let filter t ~f =
  let ar = t.arena in
  let snap = ar.n in
  let keep = Bytes.make ((snap + 7) / 8) '\000' in
  iter_slots t (fun slot -> if f (record_of_slot t slot) then mask_set keep slot);
  (* drop records whose dependency closure is not fully kept *)
  let kept slot = mask_get keep slot in
  let changed = ref true in
  while !changed do
    changed := false;
    for slot = 0 to snap - 1 do
      if kept slot then begin
        let ok = ref true in
        iter_deps t slot (fun _ dh ->
            if !ok then
              match Hashtbl.find_opt ar.by_hash (Pool.str ar.pool dh) with
              | Some d when d < snap && kept d -> ()
              | _ -> ok := false);
        if not !ok then begin
          (* clear the bit *)
          Bytes.set keep (slot lsr 3)
            (Char.chr (Char.code (Bytes.get keep (slot lsr 3)) land lnot (1 lsl (slot land 7))));
          changed := true
        end
      end
    done
  done;
  let sel = ref [] and n = ref 0 in
  iter_slots t (fun slot ->
      if kept slot then begin
        sel := slot :: !sel;
        incr n
      end);
  let sel_arr = Array.make !n 0 in
  List.iteri (fun i slot -> sel_arr.(!n - 1 - i) <- slot) !sel;
  { arena = ar; sel = Some sel_arr; mask = Some keep }
