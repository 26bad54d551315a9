module Gen = Concretize.Facts.Gen

type t = {
  atoms : Asp.Grounder.facts;
  n_packages : int;
  n_sets : int;
  cond_origins : (int * (unit -> string)) list;
}

let str = Asp.Term.str
let int = Asp.Term.int

let pv (p : Doc.package) = Printf.sprintf "%s=%d" p.Doc.name p.Doc.version

(* Satisfier-set keys.  [Vp] is the general constraint (provides included);
   [Exact]/[Name] are the narrower sets keep flags need — keep is about the
   stanza itself staying installed, not about its name staying satisfiable
   through some provider. *)
type skey =
  | Vp of string * (Doc.relop * int) option
  | Exact of string * int
  | Name of string
  | Others of string * string * (Doc.relop * int) option
      (* the members of [Vp] not named after a conflict's owner (first) *)

let generate (doc : Doc.t) : t =
  let g = Gen.create () in
  (* name / feature indexes *)
  let by_name : (string, Doc.package list ref) Hashtbl.t = Hashtbl.create 256 in
  let by_feature : (string, Doc.package list ref) Hashtbl.t = Hashtbl.create 64 in
  let push tbl k v =
    match Hashtbl.find_opt tbl k with
    | Some r -> r := v :: !r
    | None -> Hashtbl.add tbl k (ref [ v ])
  in
  List.iter
    (fun (p : Doc.package) ->
      push by_name p.Doc.name p;
      List.iter (fun (f, _) -> push by_feature f p) p.Doc.provides)
    doc.Doc.packages;
  let versions_of n =
    match Hashtbl.find_opt by_name n with Some r -> !r | None -> []
  in
  let offers_of n =
    versions_of n
    @ (match Hashtbl.find_opt by_feature n with Some r -> !r | None -> [])
  in
  (* the universe *)
  List.iter
    (fun (p : Doc.package) ->
      Gen.fact g "cudf_package" [ str p.Doc.name; int p.Doc.version ])
    doc.Doc.packages;
  Hashtbl.iter
    (fun n versions ->
      let newest =
        List.fold_left (fun m (q : Doc.package) -> max m q.Doc.version) 0 !versions
      in
      Gen.fact g "newest" [ str n; int newest ])
    by_name;
  (* the stanzas satisfying a constraint, each once (a stanza that provides
     its own name is offered twice) *)
  let vp_members : (string * (Doc.relop * int) option, Doc.package list) Hashtbl.t =
    Hashtbl.create 256
  in
  let members_of_vp (vp : Doc.vpkg) =
    let key = (vp.Doc.vname, vp.Doc.vconstr) in
    match Hashtbl.find_opt vp_members key with
    | Some m -> m
    | None ->
      let seen = Hashtbl.create 8 in
      let first (q : Doc.package) =
        let k = (q.Doc.name, q.Doc.version) in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end
      in
      let m =
        List.filter (fun q -> Doc.satisfies q vp && first q) (offers_of vp.Doc.vname)
      in
      Hashtbl.add vp_members key m;
      m
  in
  (* interned satisfier sets *)
  let sets : (skey, int) Hashtbl.t = Hashtbl.create 256 in
  let n_sets = ref 0 in
  let intern key =
    match Hashtbl.find_opt sets key with
    | Some s -> s
    | None ->
      let s = !n_sets in
      incr n_sets;
      Hashtbl.add sets key s;
      let members =
        match key with
        | Exact (n, v) ->
          List.filter (fun (q : Doc.package) -> q.Doc.version = v) (versions_of n)
        | Name n -> versions_of n
        | Vp (n, c) -> members_of_vp { Doc.vname = n; Doc.vconstr = c }
        | Others (owner, n, c) ->
          List.filter
            (fun (q : Doc.package) -> q.Doc.name <> owner)
            (members_of_vp { Doc.vname = n; Doc.vconstr = c })
      in
      List.iter
        (fun (q : Doc.package) ->
          Gen.fact g "sat" [ int s; str q.Doc.name; int q.Doc.version ])
        members;
      s
  in
  let intern_vp (vp : Doc.vpkg) = intern (Vp (vp.Doc.vname, vp.Doc.vconstr)) in
  (* clause ids are shared between depends and recommends (clause_hit) *)
  let next_clause = ref 0 in
  let emit_clause cl =
    let c = !next_clause in
    incr next_clause;
    List.iter (fun vp -> Gen.fact g "clause_lit" [ int c; int (intern_vp vp) ]) cl;
    c
  in
  (* a condition triggered by the stanza being installed *)
  let stanza_condition (p : Doc.package) desc =
    let id = Gen.new_condition g in
    Gen.require g id "in" [ str p.Doc.name; int p.Doc.version ];
    Gen.describe g id desc;
    id
  in
  (* an unconditional (request/keep) condition *)
  let free_condition desc =
    let id = Gen.new_condition g in
    Gen.describe g id desc;
    id
  in
  (* "one version per name": every version of a name of two or more
     versions says "conflicts: <its own name>" unconstrained *)
  let single_names = Hashtbl.create 64 in
  Hashtbl.iter
    (fun n versions ->
      match !versions with
      | _ :: _ :: _ as vs
        when List.for_all
               (fun (q : Doc.package) ->
                 List.exists
                   (fun (c : Doc.vpkg) -> c.Doc.vname = n && c.Doc.vconstr = None)
                   q.Doc.conflicts)
               vs ->
        Hashtbl.replace single_names n ()
      | _ -> ())
    by_name;
  let single_stated = Hashtbl.create 64 in
  List.iter
    (fun (p : Doc.package) ->
      List.iter
        (fun cl ->
          let id =
            stanza_condition p (fun () ->
                Printf.sprintf "%s depends on %s" (pv p) (Doc.clause_to_string cl))
          in
          Gen.fact g "depends_clause" [ int id; int (emit_clause cl) ])
        p.Doc.depends;
      let single = Hashtbl.mem single_names p.Doc.name in
      if single && not (Hashtbl.mem single_stated p.Doc.name) then begin
        Hashtbl.add single_stated p.Doc.name ();
        let id =
          free_condition (fun () ->
              Printf.sprintf
                "package %s conflicts with %s, as does every other version of %s"
                (pv p) p.Doc.name p.Doc.name)
        in
        Gen.fact g "single_version" [ int id; str p.Doc.name ]
      end;
      List.iter
        (fun vp ->
          (* split the members: other names are one set shared by every
             version of the owner; the owner's other versions are listed
             one by one, unless single_version already excludes them *)
          let own, others =
            List.partition
              (fun (q : Doc.package) -> q.Doc.name = p.Doc.name)
              (members_of_vp vp)
          in
          let same =
            if single then []
            else List.filter (fun (q : Doc.package) -> q.Doc.version <> p.Doc.version) own
          in
          if others <> [] || same <> [] then begin
            let id =
              stanza_condition p (fun () ->
                  Printf.sprintf "package %s conflicts with %s" (pv p)
                    (Doc.vpkg_to_string vp))
            in
            if others <> [] then
              Gen.fact g "conflict_set"
                [ int id; int (intern (Others (p.Doc.name, vp.Doc.vname, vp.Doc.vconstr))) ];
            List.iter
              (fun (q : Doc.package) ->
                Gen.fact g "conflict_stanza" [ int id; str q.Doc.name; int q.Doc.version ])
              same
          end)
        p.Doc.conflicts;
      List.iter
        (fun cl ->
          let c = emit_clause cl in
          Gen.fact g "rec_owner" [ int c; str p.Doc.name; int p.Doc.version ])
        p.Doc.recommends;
      if p.Doc.installed then begin
        match p.Doc.keep with
        | Doc.Knone -> ()
        | Doc.Kversion ->
          let id =
            free_condition (fun () ->
                Printf.sprintf "%s is installed with keep: version" (pv p))
          in
          Gen.fact g "require_set"
            [ int id; int (intern (Exact (p.Doc.name, p.Doc.version))) ]
        | Doc.Kpackage ->
          let id =
            free_condition (fun () ->
                Printf.sprintf "%s is installed with keep: package" (pv p))
          in
          Gen.fact g "require_set" [ int id; int (intern (Name p.Doc.name)) ]
        | Doc.Kfeature ->
          List.iter
            (fun (f, _) ->
              let id =
                free_condition (fun () ->
                    Printf.sprintf "%s is installed with keep: feature (provides %s)"
                      (pv p) f)
              in
              Gen.fact g "require_set" [ int id; int (intern (Vp (f, None))) ])
            p.Doc.provides
      end)
    doc.Doc.packages;
  (* the request *)
  let r = doc.Doc.request in
  List.iter
    (fun vp ->
      let id =
        free_condition (fun () ->
            Printf.sprintf "the request asks to install %s" (Doc.vpkg_to_string vp))
      in
      Gen.fact g "require_set" [ int id; int (intern_vp vp) ])
    r.Doc.install;
  List.iter
    (fun vp ->
      let id =
        free_condition (fun () ->
            Printf.sprintf "the request asks to upgrade %s" (Doc.vpkg_to_string vp))
      in
      Gen.fact g "require_set" [ int id; int (intern_vp vp) ];
      Gen.fact g "upgrade_name" [ str vp.Doc.vname ];
      let max_installed =
        List.fold_left
          (fun m (q : Doc.package) ->
            if q.Doc.installed then max m q.Doc.version else m)
          0
          (versions_of vp.Doc.vname)
      in
      List.iter
        (fun (q : Doc.package) ->
          if q.Doc.version < max_installed then
            Gen.fact g "upgrade_forbidden" [ str q.Doc.name; int q.Doc.version ])
        (versions_of vp.Doc.vname))
    r.Doc.upgrade;
  List.iter
    (fun vp ->
      let id =
        free_condition (fun () ->
            Printf.sprintf "the request asks to remove %s" (Doc.vpkg_to_string vp))
      in
      Gen.fact g "forbid_set" [ int id; int (intern_vp vp) ])
    r.Doc.remove;
  (* Installed-state facts come last, built on demand on each replay. *)
  let installed = Doc.installed_pairs doc in
  let names =
    let seen = Hashtbl.create 64 in
    List.filter_map
      (fun (n, _) ->
        if Hashtbl.mem seen n then None
        else begin
          Hashtbl.add seen n ();
          Some n
        end)
      installed
  in
  let tail =
    {
      Asp.Grounder.count = List.length installed + List.length names;
      replay =
        (fun sink ->
          List.iter
            (fun (n, v) -> sink (Asp.Gatom.make "was_installed" [ str n; int v ]))
            installed;
          List.iter (fun n -> sink (Asp.Gatom.make "was_installed_name" [ str n ])) names);
    }
  in
  {
    atoms = Gen.facts ~tail g;
    n_packages = List.length doc.Doc.packages;
    n_sets = !n_sets;
    cond_origins = Gen.origins g;
  }
