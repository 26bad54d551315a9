(* Order-preserving dedupe: a node repeated across roots and ^deps would
   otherwise repeat its diagnosis verbatim. *)
let dedup xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let explain ~env ~repo (roots : Specs.Spec.abstract list) =
  let reasons = ref [] in
  let say fmt = Format.kasprintf (fun s -> reasons := s :: !reasons) fmt in
  let check_node (cn : Specs.Spec.constraint_node) =
    let name = cn.Specs.Spec.cname in
    let pkg = Pkg.Repo.find repo name in
    (* version requirement vs declared versions *)
    (match (cn.Specs.Spec.cversion, pkg) with
    | Some r, Some p ->
      if Pkg.Package.versions_satisfying p r = [] then
        say "no declared version of %s satisfies @%s (declared: %s)" name
          (Specs.Vrange.to_string r)
          (String.concat ", "
             (List.map
                (fun (d : Pkg.Package.version_decl) ->
                  Specs.Version.to_string d.Pkg.Package.vversion)
                (Pkg.Package.declared_versions p)))
    | _ -> ());
    (* variants must exist and admit the requested value *)
    (match pkg with
    | Some p ->
      List.iter
        (fun (var, value) ->
          match Pkg.Package.find_variant p var with
          | None -> say "package %s has no variant %S" name var
          | Some v ->
            if not (List.mem value v.Pkg.Package.var_values) then
              say "variant %s of %s admits {%s}, not %S" var name
                (String.concat ", " v.Pkg.Package.var_values)
                value)
        cn.Specs.Spec.cvariants
    | None -> ());
    (* compiler must be in the roster, with a satisfying version *)
    (match cn.Specs.Spec.ccompiler with
    | Some c ->
      let candidates =
        List.filter
          (fun (k : Specs.Compiler.t) -> String.equal k.Specs.Compiler.name c)
          env.Facts.compilers
      in
      if candidates = [] then say "no compiler %s is available" c
      else (
        match cn.Specs.Spec.ccompiler_version with
        | Some r
          when not
                 (List.exists
                    (fun (k : Specs.Compiler.t) ->
                      Specs.Vrange.satisfies r k.Specs.Compiler.version)
                    candidates) ->
          say "no available %s satisfies %%%s@%s" c c (Specs.Vrange.to_string r)
        | _ -> ())
    | None -> ());
    (* target must exist and be reachable by some compiler *)
    (match cn.Specs.Spec.ctarget with
    | Some t when not (String.length t > 0 && t.[String.length t - 1] = ':') -> (
      match Specs.Target.find t with
      | None -> say "unknown target %s" t
      | Some tt ->
        if
          not
            (List.exists
               (fun c -> Specs.Compiler.supports_target c tt)
               env.Facts.compilers)
        then say "no available compiler can generate code for target %s" t)
    | _ -> ());
    (* conflicts declared by the package that plainly match the request *)
    match pkg with
    | Some p ->
      List.iter
        (fun (c : Pkg.Package.conflict_decl) ->
          let spec = c.Pkg.Package.conflict_spec in
          let compiler_matches =
            match (spec.Specs.Spec.ccompiler, cn.Specs.Spec.ccompiler) with
            | Some a, Some b -> String.equal a b
            | Some _, None | None, _ -> false
          in
          let target_matches =
            match (spec.Specs.Spec.ctarget, cn.Specs.Spec.ctarget) with
            | Some a, Some b ->
              String.equal a b
              || (String.length a > 0
                 && a.[String.length a - 1] = ':'
                 &&
                 match Specs.Target.find b with
                 | Some t ->
                   Specs.Target.is_descendant_of t (String.sub a 0 (String.length a - 1))
                 | None -> false)
            | _ -> false
          in
          if compiler_matches || target_matches then
            say "%s conflicts with %s%s" name
              (Specs.Spec.node_to_string spec)
              (if c.Pkg.Package.conflict_msg = "" then ""
               else ": " ^ c.Pkg.Package.conflict_msg))
        p.Pkg.Package.conflicts
    | None -> ()
  in
  List.iter
    (fun (a : Specs.Spec.abstract) ->
      check_node a.Specs.Spec.aroot;
      List.iter check_node a.Specs.Spec.adeps;
      (* virtuals named in the request must have providers *)
      List.iter
        (fun (d : Specs.Spec.constraint_node) ->
          let n = d.Specs.Spec.cname in
          if Pkg.Repo.is_virtual repo n && Pkg.Repo.providers repo n = [] then
            say "virtual package %s has no providers" n)
        (a.Specs.Spec.aroot :: a.Specs.Spec.adeps))
    roots;
  dedup (List.rev !reasons)

(* --- provenance-mapped unsat cores ------------------------------------- *)

(* Condition ids an atom carries explicitly (always the first argument of
   the condition-shaped predicates emitted by {!Facts}). *)
let atom_condition_ids (a : Asp.Gatom.t) =
  match (a.Asp.Gatom.pred, a.Asp.Gatom.args) with
  | ( ( "condition" | "condition_holds" | "conflict" | "dependency_condition"
      | "provider_condition" | "condition_requirement" | "imposed_constraint" ),
      { Asp.Term.node = Asp.Term.Int id; _ } :: _ ) ->
    [ id ]
  | _ -> []

(* Conditions that require or impose a derived [attr(...)] atom: the link
   from "version_satisfies(hdf5, 99.9) is violated" back to "the request
   asks for hdf5@99.9" (or "foo depends on hdf5@99.9"). *)
let attr_condition_ids store cond_ids (a : Asp.Gatom.t) =
  match (a.Asp.Gatom.pred, a.Asp.Gatom.args) with
  | "attr", args ->
    List.filter
      (fun id ->
        let carries pred =
          match
            Asp.Gatom.Store.find store
              (Asp.Gatom.make pred (Asp.Term.int id :: args))
          with
          | Some aid -> Asp.Gatom.Store.is_fact store aid
          | None -> false
        in
        carries "imposed_constraint" || carries "condition_requirement")
      cond_ids
  | _ -> []

(* Frontend-neutral core mapping: everything here keys off the
   generalized-condition predicates (Logic_program.conditions_fragment), so
   any frontend that emits them — Spack's [Facts], the CUDF encoder — gets
   its own [cond_origins] provenance printed; only the [fallback] heuristics
   are per-frontend. *)
let explain_core ~params ~budget ~cond_origins ~fallback ground =
  match Asp.Explain.explain ~params ~budget ground with
  | Asp.Explain.Satisfiable ->
    (* should not happen when the caller just proved UNSAT; trust the
       syntactic heuristics instead of reporting nothing *)
    fallback ()
  | Asp.Explain.Exhausted _ ->
    "unsat-core extraction exhausted its budget; heuristic diagnosis follows"
    :: fallback ()
  | Asp.Explain.Unsat_core { causes; minimal } ->
    let store = ground.Asp.Ground.store in
    let cond_ids = List.map fst cond_origins in
    (* group the core's ground instances by source constraint, keeping the
       order of first appearance (causes arrive sorted by rule index) *)
    let groups = ref [] in
    let group_of key =
      match List.assoc_opt key !groups with
      | Some g -> g
      | None ->
        let g = (ref 0, ref "", ref []) in
        groups := !groups @ [ (key, g) ];
        g
    in
    List.iter
      (fun (c : Asp.Explain.cause) ->
        let o = c.Asp.Explain.origin in
        let count, example, conds =
          group_of (o.Asp.Ground.o_line, o.Asp.Ground.o_text)
        in
        incr count;
        if !count = 1 then example := c.Asp.Explain.ground_text;
        Array.iter
          (fun aid ->
            let a = Asp.Gatom.Store.atom store aid in
            List.iter
              (fun id -> if not (List.mem id !conds) then conds := !conds @ [ id ])
              (atom_condition_ids a @ attr_condition_ids store cond_ids a))
          o.Asp.Ground.o_pos)
      causes;
    let render ((line, text), (count, example, conds)) =
      let b = Buffer.create 128 in
      Buffer.add_string b
        (Printf.sprintf "violated constraint: %s%s" (String.trim text)
           (if line > 0 then Printf.sprintf " (solver rule, line %d)" line
            else ""));
      if !example <> "" then
        Buffer.add_string b (Printf.sprintf "\n    instance: %s" !example);
      if !count > 1 then
        Buffer.add_string b
          (Printf.sprintf "\n    (+%d more ground instances)" (!count - 1));
      List.iter
        (fun id ->
          match List.assoc_opt id cond_origins with
          | Some d -> Buffer.add_string b (Printf.sprintf "\n    because %s" (d ()))
          | None -> ())
        !conds;
      Buffer.contents b
    in
    let n = List.length !groups in
    let header =
      if minimal then
        Printf.sprintf "minimal unsatisfiable core (%d conflicting constraint%s):"
          n
          (if n = 1 then "" else "s")
      else
        Printf.sprintf
          "unsatisfiable core, %d constraint%s (budget expired before full \
           minimization):"
          n
          (if n = 1 then "" else "s")
    in
    header :: List.map render !groups
