module C = Concretize.Concretizer

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let pairs_to_json l =
  Json.List (List.map (fun (a, b) -> Json.List [ Json.Str a; Json.Str b ]) l)

let int_pairs_to_json l =
  Json.List (List.map (fun (a, b) -> Json.List [ Json.Int a; Json.Int b ]) l)

let concrete_to_json (c : Specs.Spec.concrete) =
  let node (n : Specs.Spec.concrete_node) =
    Json.Obj
      [
        ("name", Json.Str n.Specs.Spec.name);
        ("version", Json.Str (Specs.Version.to_string n.Specs.Spec.version));
        ("variants", pairs_to_json n.Specs.Spec.variants);
        ("compiler", Json.Str n.Specs.Spec.compiler.Specs.Compiler.name);
        ( "compiler_version",
          Json.Str
            (Specs.Version.to_string n.Specs.Spec.compiler.Specs.Compiler.version) );
        ("flags", pairs_to_json n.Specs.Spec.flags);
        ("os", Json.Str n.Specs.Spec.os);
        ("target", Json.Str n.Specs.Spec.target);
        ("depends", Json.List (List.map (fun d -> Json.Str d) n.Specs.Spec.depends));
      ]
  in
  Json.Obj
    [
      ("root", Json.Str c.Specs.Spec.root);
      ("nodes", Json.List (List.map node (Specs.Spec.concrete_nodes c)));
    ]

let phases_to_json (p : Asp.Phases.t) =
  Json.Obj
    [
      ("setup", Json.Float p.Asp.Phases.setup_time);
      ("load", Json.Float p.Asp.Phases.load_time);
      ("ground", Json.Float p.Asp.Phases.ground_time);
      ("solve", Json.Float p.Asp.Phases.solve_time);
    ]

let quality_to_json = function
  | `Optimal -> Json.Str "optimal"
  | `Degraded bounds -> int_pairs_to_json bounds

let budget_info_to_json (info : Asp.Budget.info) =
  Json.Obj
    [
      ("phase", Json.Str (Asp.Budget.phase_name info.Asp.Budget.phase));
      ("reason", Json.Str (Asp.Budget.reason_name info.Asp.Budget.reason));
      ("conflicts", Json.Int info.Asp.Budget.progress.Asp.Budget.conflicts);
      ("instances", Json.Int info.Asp.Budget.progress.Asp.Budget.instances);
      ("opt_steps", Json.Int info.Asp.Budget.progress.Asp.Budget.opt_steps);
    ]

let result_to_json = function
  | C.Concrete s ->
    let st = s.C.stats in
    let g = st.Asp.Solve.ground_stats and ss = st.Asp.Solve.sat_stats in
    Json.Obj
      [
        ("outcome", Json.Str "concrete");
        ("spec", concrete_to_json s.C.spec);
        ("reused", pairs_to_json s.C.reused);
        ("built", Json.List (List.map (fun b -> Json.Str b) s.C.built));
        ("costs", int_pairs_to_json st.Asp.Solve.costs);
        ("quality", quality_to_json st.Asp.Solve.quality);
        ("phases", phases_to_json st.Asp.Solve.phases);
        ("n_facts", Json.Int s.C.n_facts);
        ("n_possible", Json.Int s.C.n_possible);
        ( "ground_stats",
          Json.List
            [
              Json.Int g.Asp.Grounder.possible_atoms;
              Json.Int g.Asp.Grounder.ground_rules;
              Json.Int g.Asp.Grounder.fixpoint_rounds;
            ] );
        ( "sat_stats",
          Json.List
            [
              Json.Int ss.Asp.Sat.conflicts;
              Json.Int ss.Asp.Sat.decisions;
              Json.Int ss.Asp.Sat.propagations;
              Json.Int ss.Asp.Sat.restarts;
              Json.Int ss.Asp.Sat.learnt_literals;
              Json.Int ss.Asp.Sat.pb_propagations;
            ] );
        ("verified", Json.Bool st.Asp.Solve.verified);
      ]
  | C.Unsatisfiable { phases; n_facts; n_possible; reasons } ->
    Json.Obj
      [
        ("outcome", Json.Str "unsatisfiable");
        ("phases", phases_to_json phases);
        ("n_facts", Json.Int n_facts);
        ("n_possible", Json.Int n_possible);
        ("reasons", Json.List (List.map (fun r -> Json.Str r) reasons));
      ]
  | C.Interrupted { info; phases; n_facts; n_possible } ->
    Json.Obj
      [
        ("outcome", Json.Str "interrupted");
        ("info", budget_info_to_json info);
        ("phases", phases_to_json phases);
        ("n_facts", Json.Int n_facts);
        ("n_possible", Json.Int n_possible);
      ]

(* ------------------------------------------------------------------ *)
(* Decoding — total; the [let*] on options collapses any shape error    *)
(* into a single [Error].                                               *)
(* ------------------------------------------------------------------ *)

let ( let* ) o f = match o with Some v -> f v | None -> None

let str_pairs_of_json j =
  let* l = Json.to_list j in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Json.List [ Json.Str a; Json.Str b ] :: rest -> go ((a, b) :: acc) rest
    | _ -> None
  in
  go [] l

let int_pairs_of_json j =
  let* l = Json.to_list j in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Json.List [ Json.Int a; Json.Int b ] :: rest -> go ((a, b) :: acc) rest
    | _ -> None
  in
  go [] l

let str_list_of_json j =
  let* l = Json.to_list j in
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | Json.Str s :: rest -> go (s :: acc) rest
    | _ -> None
  in
  go [] l

let field k conv j =
  let* v = Json.member k j in
  conv v

let concrete_of_json j =
  let node nj =
    let* name = field "name" Json.to_str nj in
    let* version = field "version" Json.to_str nj in
    let* variants = field "variants" str_pairs_of_json nj in
    let* cname = field "compiler" Json.to_str nj in
    let* cversion = field "compiler_version" Json.to_str nj in
    let* flags = field "flags" str_pairs_of_json nj in
    let* os = field "os" Json.to_str nj in
    let* target = field "target" Json.to_str nj in
    let* depends = field "depends" str_list_of_json nj in
    match (Specs.Version.of_string version, Specs.Version.of_string cversion) with
    | v, cv ->
      Some
        {
          Specs.Spec.name;
          version = v;
          variants;
          compiler = { Specs.Compiler.name = cname; version = cv };
          flags;
          os;
          target;
          depends;
        }
    | exception _ -> None
  in
  let* root = field "root" Json.to_str j in
  let* njs = field "nodes" Json.to_list j in
  let rec nodes acc = function
    | [] -> Some (List.rev acc)
    | nj :: rest ->
      let* n = node nj in
      nodes (n :: acc) rest
  in
  let* ns = nodes [] njs in
  match Specs.Spec.make_concrete ~root ns with
  | c -> Some c
  | exception Invalid_argument _ -> None

let phases_of_json j =
  let* setup_time = field "setup" Json.to_float j in
  let* load_time = field "load" Json.to_float j in
  let* ground_time = field "ground" Json.to_float j in
  let* solve_time = field "solve" Json.to_float j in
  (* entries persisted by older daemons also carry the split of the ground
     time into base build and extension, which is ignored *)
  Some { Asp.Phases.setup_time; load_time; ground_time; solve_time }

let quality_of_json = function
  | Json.Str "optimal" -> Some `Optimal
  | j ->
    let* bounds = int_pairs_of_json j in
    Some (`Degraded bounds)

(* inverses of Asp.Budget.phase_name / reason_name *)
let phase_of_name = function
  | "grounding" -> Some Asp.Budget.Ground
  | "search" -> Some Asp.Budget.Search
  | "optimization" -> Some Asp.Budget.Optimize
  | "verification" -> Some Asp.Budget.Verify
  | _ -> None

let reason_of_name = function
  | "deadline" -> Some Asp.Budget.Deadline
  | "conflict limit" -> Some Asp.Budget.Conflict_limit
  | "instance limit" -> Some Asp.Budget.Instance_limit
  | "cancelled" -> Some Asp.Budget.Cancelled
  | "injected fault" -> Some Asp.Budget.Injected
  | _ -> None

let budget_info_of_json j =
  let* phase = field "phase" Json.to_str j in
  let* phase = phase_of_name phase in
  let* reason = field "reason" Json.to_str j in
  let* reason = reason_of_name reason in
  let* conflicts = field "conflicts" Json.to_int j in
  let* instances = field "instances" Json.to_int j in
  let* opt_steps = field "opt_steps" Json.to_int j in
  Some
    {
      Asp.Budget.phase;
      reason;
      progress = { Asp.Budget.conflicts; instances; opt_steps };
    }

let success_of_json j =
  let* spec = field "spec" concrete_of_json j in
  let* reused = field "reused" str_pairs_of_json j in
  let* built = field "built" str_list_of_json j in
  let* costs = field "costs" int_pairs_of_json j in
  let* quality = field "quality" quality_of_json j in
  let* phases = field "phases" phases_of_json j in
  let* n_facts = field "n_facts" Json.to_int j in
  let* n_possible = field "n_possible" Json.to_int j in
  let* gs = field "ground_stats" Json.to_list j in
  let* ground_stats =
    match gs with
    | [ Json.Int possible_atoms; Json.Int ground_rules; Json.Int fixpoint_rounds ] ->
      (* the ground-step times describe the solve that produced the answer,
         not this reply: they are not carried *)
      Some
        {
          Asp.Grounder.possible_atoms;
          ground_rules;
          fixpoint_rounds;
          seed_time = 0.;
          close_time = 0.;
          emit_time = 0.;
        }
    | _ -> None
  in
  let* ss = field "sat_stats" Json.to_list j in
  let* sat_stats =
    match ss with
    | [
     Json.Int conflicts;
     Json.Int decisions;
     Json.Int propagations;
     Json.Int restarts;
     Json.Int learnt_literals;
     Json.Int pb_propagations;
    ] ->
      Some
        {
          Asp.Sat.conflicts;
          decisions;
          propagations;
          restarts;
          learnt_literals;
          pb_propagations;
          (* replies carry no instance size *)
          vars = 0;
          clauses = 0;
          pb_constraints = 0;
        }
    | _ -> None
  in
  let* verified = field "verified" Json.to_bool j in
  Some
    {
      C.spec;
      reused;
      built;
      n_facts;
      n_possible;
      stats =
        {
          Asp.Solve.phases;
          ground_stats;
          sat_stats;
          (* like the ground-step times, the solve-step times are not
             carried *)
          solve_steps = Asp.Phases.no_steps;
          descent_searches = 0;
          costs;
          quality;
          verified;
        };
    }

let result_of_json j =
  let decoded =
    let* outcome = field "outcome" Json.to_str j in
    match outcome with
    | "concrete" ->
      let* s = success_of_json j in
      Some (C.Concrete s)
    | "unsatisfiable" ->
      let* phases = field "phases" phases_of_json j in
      let* n_facts = field "n_facts" Json.to_int j in
      let* n_possible = field "n_possible" Json.to_int j in
      let* reasons = field "reasons" str_list_of_json j in
      Some (C.Unsatisfiable { phases; n_facts; n_possible; reasons })
    | "interrupted" ->
      let* info = field "info" budget_info_of_json j in
      let* phases = field "phases" phases_of_json j in
      let* n_facts = field "n_facts" Json.to_int j in
      let* n_possible = field "n_possible" Json.to_int j in
      Some (C.Interrupted { info; phases; n_facts; n_possible })
    | _ -> None
  in
  match decoded with
  | Some r -> Ok r
  | None -> Error "malformed concretizer result"
