(* File format (one file per key, [<dir>/<key>.solve]):

     spack-solve-cache v2
     <key>
     <result as one JSON line>
     digest <hex over the three preceding lines>

   The version lives in the header line: bumping the format makes every
   old file unreadable (a miss), which is exactly the invalidation rule —
   stale formats are ignored, never misparsed.  v2 results carry the
   round's eleven spans, its descent count and its instance size. *)

let format_header = "spack-solve-cache v2"

type entry = { value : Concretize.Concretizer.result; mutable used : int }

type t = {
  mutex : Mutex.t;
  mem : (string, entry) Hashtbl.t;
  capacity : int;
  dir : string option;
  mutable tick : int;  (* LRU clock: bumped on every touch *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable stores : int;
  mutable disk_hits : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  stores : int;
  mem_entries : int;
  disk_hits : int;
}

let create ?(mem_capacity = 256) ?dir () =
  (match dir with
  | Some d when not (Sys.file_exists d) -> (
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  | _ -> ());
  {
    mutex = Mutex.create ();
    mem = Hashtbl.create 64;
    capacity = max 1 mem_capacity;
    dir;
    tick = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    stores = 0;
    disk_hits = 0;
  }

let stats t =
  Mutex.lock t.mutex;
  let s =
    {
      hits = t.hits;
      misses = t.misses;
      evictions = t.evictions;
      stores = t.stores;
      mem_entries = Hashtbl.length t.mem;
      disk_hits = t.disk_hits;
    }
  in
  Mutex.unlock t.mutex;
  s

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ---- the LRU (call with the lock held) ---------------------------- *)

let touch t e =
  t.tick <- t.tick + 1;
  e.used <- t.tick

let evict_over_capacity t =
  while Hashtbl.length t.mem > t.capacity do
    (* linear scan for the LRU victim: capacities are small (hundreds) and
       eviction is rare next to solve times *)
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        match !victim with
        | Some (_, u) when u <= e.used -> ()
        | _ -> victim := Some (k, e.used))
      t.mem;
    match !victim with
    | Some (k, _) ->
      Hashtbl.remove t.mem k;
      t.evictions <- t.evictions + 1
    | None -> ()
  done

let insert_mem t key value =
  match Hashtbl.find_opt t.mem key with
  | Some e -> touch t e
  | None ->
    let e = { value; used = 0 } in
    touch t e;
    Hashtbl.replace t.mem key e;
    evict_over_capacity t

(* ---- the disk layer ----------------------------------------------- *)

let file_of t key = Option.map (fun d -> Filename.concat d (key ^ ".solve")) t.dir

let disk_read path key =
  match open_in path with
  | exception Sys_error _ -> None
  | ic -> (
    let read_line () = try Some (input_line ic) with End_of_file -> None in
    let r =
      match (read_line (), read_line (), read_line (), read_line ()) with
      | Some header, Some k, Some body, Some footer
        when String.equal header format_header && String.equal k key -> (
        match String.split_on_char '\t' footer with
        | [ "digest"; d ]
          when String.equal d (Specs.Spec.digest_strings [ header; k; body ]) -> (
          match Json.of_string body with
          | Ok j -> (
            match Codec.result_of_json j with Ok v -> Some v | Error _ -> None)
          | Error _ -> None)
        | _ -> None (* corrupt or truncated footer *))
      | _ -> None (* stale format version, foreign file, or truncation *)
    in
    close_in_noerr ic;
    r)

let disk_write path key value =
  let body = Json.to_string (Codec.result_to_json value) in
  let digest = Specs.Spec.digest_strings [ format_header; key; body ] in
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) (Domain.self () :> int)
  in
  match open_out tmp with
  | exception Sys_error _ -> ()  (* cache dir vanished: caching is best-effort *)
  | oc ->
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (format_header ^ "\n");
        output_string oc (key ^ "\n");
        output_string oc (body ^ "\n");
        output_string oc ("digest\t" ^ digest ^ "\n"));
    (try Sys.rename tmp path with Sys_error _ -> ())

(* ---- public api ---------------------------------------------------- *)

let lookup t key =
  let from_mem =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.mem key with
        | Some e ->
          touch t e;
          t.hits <- t.hits + 1;
          Some e.value
        | None -> None)
  in
  match from_mem with
  | Some v -> Some v
  | None -> (
    (* the file, once fully written, is immutable (atomic rename), so the
       read happens outside the lock *)
    match file_of t key with
    | None ->
      with_lock t (fun () -> t.misses <- t.misses + 1);
      None
    | Some path -> (
      match disk_read path key with
      | Some v ->
        with_lock t (fun () ->
            t.hits <- t.hits + 1;
            t.disk_hits <- t.disk_hits + 1;
            insert_mem t key v);
        Some v
      | None ->
        with_lock t (fun () -> t.misses <- t.misses + 1);
        None))

let mem t key =
  let in_mem = with_lock t (fun () -> Hashtbl.mem t.mem key) in
  in_mem
  ||
  match file_of t key with
  | None -> false
  | Some path -> disk_read path key <> None

let store t key value =
  with_lock t (fun () ->
      t.stores <- t.stores + 1;
      insert_mem t key value);
  match file_of t key with None -> () | Some path -> disk_write path key value

let hook t =
  { Concretize.Concretizer.lookup = lookup t; store = store t }
