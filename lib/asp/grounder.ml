type stats = {
  possible_atoms : int;
  ground_rules : int;
  fixpoint_rounds : int;
  seed_time : float;
  close_time : float;
  emit_time : float;
}

let steps_line s =
  Printf.sprintf "Ground steps: seed %.3fs, close %.3fs, emit %.3fs" s.seed_time s.close_time
    s.emit_time

let errf fmt = Solver_error.ground_error fmt

(* ------------------------------------------------------------------ *)
(* Compiled patterns: variables resolved to dense per-rule slots.       *)
(* ------------------------------------------------------------------ *)

(* Rules are compiled once before grounding: every variable becomes an
   integer slot into the substitution array, so the inner join loops never
   touch variable names (the source name is kept for error messages only). *)
type cterm =
  | C_cst of Term.t
  | C_var of int * string  (** slot, source name *)
  | C_binop of Ast.binop * cterm * cterm
  | C_interval of cterm * cterm
  | C_fn of string * cterm list

type catom = {
  cpred : string;
  carity : int;
  cargs : cterm list;
  cargv : cterm array;  (** [cargs], by position *)
  chpred : int;  (** [Hashtbl.hash cpred], the seed of {!Gatom.hash} *)
}

(* A rule's compilation context: its variable slots, and the counter that
   numbers the program's condition lists ({!cguard}). *)
type cx = { ctbl : (string, int) Hashtbl.t; mutable nvars : int; guards : int ref }

let new_cx ~guards = { ctbl = Hashtbl.create 16; nvars = 0; guards }

let slot cx v =
  match Hashtbl.find_opt cx.ctbl v with
  | Some i -> i
  | None ->
    let i = cx.nvars in
    cx.nvars <- i + 1;
    Hashtbl.add cx.ctbl v i;
    i

let rec compile_term cx = function
  | Ast.Cst c -> C_cst c
  | Ast.Var v -> C_var (slot cx v, v)
  | Ast.Binop (op, a, b) -> C_binop (op, compile_term cx a, compile_term cx b)
  | Ast.Interval (a, b) -> C_interval (compile_term cx a, compile_term cx b)
  | Ast.Fn (f, args) -> C_fn (f, List.map (compile_term cx) args)

let compile_atom cx (a : Ast.atom) =
  let cargs = List.map (compile_term cx) a.Ast.args in
  {
    cpred = a.Ast.pred;
    carity = List.length cargs;
    cargs;
    cargv = Array.of_list cargs;
    chpred = Hashtbl.hash a.Ast.pred;
  }

let rec pp_cterm ppf = function
  | C_cst c -> Term.pp ppf c
  | C_var (_, v) -> Format.pp_print_string ppf v
  | C_binop (op, a, b) ->
    let op =
      match op with
      | Ast.Add -> "+"
      | Ast.Sub -> "-"
      | Ast.Mul -> "*"
      | Ast.Div -> "/"
      | Ast.Mod -> "\\"
    in
    Format.fprintf ppf "(%a%s%a)" pp_cterm a op pp_cterm b
  | C_interval (a, b) -> Format.fprintf ppf "%a..%a" pp_cterm a pp_cterm b
  | C_fn (f, args) ->
    Format.fprintf ppf "%s(%a)" f
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         pp_cterm)
      args

let pp_catom ppf a =
  match a.cargs with
  | [] -> Format.pp_print_string ppf a.cpred
  | _ ->
    Format.fprintf ppf "%s(%a)" a.cpred
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
         pp_cterm)
      a.cargs

(* ------------------------------------------------------------------ *)
(* Substitution environments with trailing for cheap undo.             *)
(* ------------------------------------------------------------------ *)

module Env = struct
  (* A slot holds its term itself, with no [Some] box: binding allocates
     nothing.  [set] marks the bound slots; an unbound slot's term is
     stale.  The trail lists the bound slots, [tlen] of them, in binding
     order; it is kept here rather than in an {!Ivec} so that binding and
     undoing make no call to another module. *)
  type t = {
    mutable slots : Term.t array;
    mutable set : Bytes.t;
    mutable trail : int array;
    mutable tlen : int;
  }

  let unset = Term.int 0

  let create () =
    { slots = Array.make 64 unset; set = Bytes.make 64 '\000'; trail = Array.make 64 0; tlen = 0 }

  let ensure env n =
    let len = Array.length env.slots in
    if len < n then begin
      let n = max n (2 * len) in
      let slots = Array.make n unset and set = Bytes.make n '\000' in
      Array.blit env.slots 0 slots 0 len;
      Bytes.blit env.set 0 set 0 len;
      env.slots <- slots;
      env.set <- set;
      (* a slot is on the trail at most once *)
      let trail = Array.make n 0 in
      Array.blit env.trail 0 trail 0 env.tlen;
      env.trail <- trail
    end

  let mark env = env.tlen

  let undo env m =
    while env.tlen > m do
      env.tlen <- env.tlen - 1;
      Bytes.unsafe_set env.set (Array.unsafe_get env.trail env.tlen) '\000'
    done

  let is_bound env v = Bytes.unsafe_get env.set v <> '\000'
  let get env v = Array.unsafe_get env.slots v

  (* terms are interned, so the conflict check is pointer equality *)
  let bind env v t =
    if is_bound env v then t == get env v
    else begin
      Array.unsafe_set env.slots v t;
      Bytes.unsafe_set env.set v '\001';
      Array.unsafe_set env.trail env.tlen v;
      env.tlen <- env.tlen + 1;
      true
    end
end

let binop op (a : Term.t) (b : Term.t) =
  match (Term.node a, Term.node b) with
  | Term.Int x, Term.Int y ->
    Term.int
      (match op with
      | Ast.Add -> x + y
      | Ast.Sub -> x - y
      | Ast.Mul -> x * y
      | Ast.Div -> if y = 0 then errf "division by zero in grounding" else x / y
      | Ast.Mod -> if y = 0 then errf "modulo by zero in grounding" else x mod y)
  | _ -> errf "arithmetic on non-integer terms %a, %a" Term.pp a Term.pp b

(* Evaluate a term under an environment; [None] if a variable is unbound. *)
let rec eval env (t : cterm) : Term.t option =
  match t with
  | C_cst c -> Some c
  | C_var (v, _) -> if Env.is_bound env v then Some (Env.get env v) else None
  | C_interval _ -> errf "intervals are only supported in fact arguments"
  | C_fn (f, args) ->
    let rec all acc = function
      | [] -> Some (List.rev acc)
      | t :: rest -> ( match eval env t with Some v -> all (v :: acc) rest | None -> None)
    in
    Option.map (fun vs -> Term.fun_ f vs) (all [] args)
  | C_binop (op, a, b) -> (
    match (eval env a, eval env b) with
    | Some a', Some b' -> Some (binop op a' b')
    | _ -> None)

(* [eval] of a term whose variables are all bound, with no [Some] box. *)
let rec value env (t : cterm) : Term.t =
  match t with
  | C_cst c -> c
  | C_var (v, _) -> Env.get env v
  | C_interval _ -> errf "intervals are only supported in fact arguments"
  | C_fn (f, args) -> Term.fun_ f (List.map (value env) args)
  | C_binop (op, a, b) ->
    let x, y = (value env a, value env b) in
    binop op x y

let rec all_bound env (t : cterm) =
  match t with
  | C_cst _ | C_interval _ -> true
  | C_var (v, _) -> Env.is_bound env v
  | C_fn (_, args) -> List.for_all (all_bound env) args
  | C_binop (_, a, b) -> all_bound env a && all_bound env b

let eval_exn env ctx t =
  match eval env t with
  | Some v -> v
  | None -> errf "unsafe rule: unbound variable in %s (%a)" ctx pp_cterm t

(* [eval_exn] without a [Some] box, the common cases first. *)
let arg_value env ctx (t : cterm) =
  match t with
  | C_var (v, _) when Env.is_bound env v -> Env.get env v
  | C_cst c -> c
  | t -> if all_bound env t then value env t else eval_exn env ctx t

(* Match pattern term [p] against ground value [v], extending [env]. *)
let rec match_term env (p : cterm) (v : Term.t) =
  match p with
  | C_cst c -> c == v
  | C_var (x, _) -> Env.bind env x v
  | C_fn (f, args) -> (
    match v.Term.node with
    | Term.Fun (g, vals) -> String.equal f g && match_args env args vals
    | _ -> false)
  | C_binop _ | C_interval _ -> (
    match eval env p with Some pv -> pv == v | None -> false)

(* Patterns against values, left to right; false on a length mismatch. *)
and match_args env ps vs =
  match (ps, vs) with
  | [], [] -> true
  | p :: ps, v :: vs -> match_term env p v && match_args env ps vs
  | _ -> false

let rec match_from env (ps : cterm array) j = function
  | [] -> j = Array.length ps
  | v :: vs ->
    j < Array.length ps && match_term env (Array.unsafe_get ps j) v && match_from env ps (j + 1) vs

let match_atom env (pat : catom) (ga : Gatom.t) = match_from env pat.cargv 0 ga.Gatom.args

(* Bind the variables of pattern [p] to the parts of [v], which [p] is known
   to match: arithmetic is not evaluated. *)
let rec bind_term env (p : cterm) (v : Term.t) =
  match p with
  | C_var (x, _) -> ignore (Env.bind env x v)
  | C_fn (_, args) -> (
    match Term.node v with
    | Term.Fun (_, vals) -> List.iter2 (bind_term env) args vals
    | _ -> ())
  | C_cst _ | C_binop _ | C_interval _ -> ()

let rec bind_from env (ps : cterm array) j = function
  | [] -> ()
  | v :: vs ->
    bind_term env ps.(j) v;
    bind_from env ps (j + 1) vs

(* Terms are interned: equal terms are the same value. *)
let eval_cmp c (a : Term.t) (b : Term.t) =
  match c with
  | Ast.Eq -> a == b
  | Ast.Ne -> a != b
  | Ast.Lt -> Term.compare a b < 0
  | Ast.Le -> Term.compare a b <= 0
  | Ast.Gt -> Term.compare a b > 0
  | Ast.Ge -> Term.compare a b >= 0

(* ------------------------------------------------------------------ *)
(* Compiled rules: bodies split by literal kind, join steps per mask.   *)
(* ------------------------------------------------------------------ *)

(* How a positive literal stands at a step of a join.  [Bound]: every
   argument evaluates, so the literal matches at most one atom and binds
   nothing.  [Matchable keys]: matching it binds some variable; [keys] are
   the positions whose arguments already evaluate, the index keys of its
   candidates.  [Blocked]: some arithmetic uses a variable that nothing
   binds yet, so the literal matches no atom until another literal binds
   it. *)
type lit_state = Bound | Matchable of int array | Blocked

exception Unmatchable

(* The slots that matching [t] binds: its variables outside arithmetic. *)
let rec binds acc (t : cterm) =
  match t with
  | C_var (v, _) -> v :: acc
  | C_fn (_, args) -> List.fold_left binds acc args
  | C_cst _ | C_binop _ | C_interval _ -> acc

let binds_atom acc (a : catom) = List.fold_left binds acc a.cargs

(* Whether arithmetic [t] evaluates when the slots in [bound] are bound.  An
   interval never evaluates; it is left to [match_term] to report. *)
let rec evaluable bound (t : cterm) =
  match t with
  | C_cst _ | C_interval _ -> true
  | C_var (v, _) -> List.mem v bound
  | C_binop (_, x, y) -> evaluable bound x && evaluable bound y
  | C_fn (_, args) -> List.for_all (evaluable bound) args

(* Walk [t] left to right, as [match_term] binds it: [bound] plus the slots
   it binds, and whether it binds any (an interval counts, as it is never
   bound).
   @raise Unmatchable if arithmetic in [t] uses a slot that neither [bound]
   nor an earlier position binds. *)
let rec walk (bound, fresh) (t : cterm) =
  match t with
  | C_cst _ -> (bound, fresh)
  | C_var (v, _) -> if List.mem v bound then (bound, fresh) else (v :: bound, true)
  | C_fn (_, args) -> List.fold_left walk (bound, fresh) args
  | C_interval _ -> (bound, true)
  | C_binop _ -> if evaluable bound t then (bound, fresh) else raise Unmatchable

(* Arguments are walked left to right, so a variable bound by an earlier
   position of the same literal counts as bound for arithmetic further
   right ([r(X, X + 1)] can match). *)
let classify bound (a : catom) =
  match List.fold_left walk (bound, false) a.cargs with
  | _, false -> Bound
  | _, true ->
    Matchable
      (Array.of_list
         (List.filter (fun pos -> evaluable bound a.cargv.(pos)) (List.init a.carity Fun.id)))
  | exception Unmatchable -> Blocked

(* Comparisons.  Evaluating a pure one (no arithmetic, no interval) cannot
   raise. *)
let rec pure (t : cterm) =
  match t with
  | C_cst _ | C_var _ -> true
  | C_fn (_, args) -> List.for_all pure args
  | C_binop _ | C_interval _ -> false

let rec vars acc (t : cterm) =
  match t with
  | C_var (v, _) -> v :: acc
  | C_fn (_, args) -> List.fold_left vars acc args
  | C_binop (_, a, b) | C_interval (a, b) -> vars (vars acc a) b
  | C_cst _ -> acc

(* The comparisons a join evaluates at a step that binds the slots in [now],
   the ones in [before] being bound at the previous step ([None]: the step
   before any literal matched), in body order.  [c] checks comparison [c],
   which has just become evaluable: the join prunes when it fails.  [-c-1]
   only evaluates comparison [c], for the errors its arithmetic can raise
   while some of its slots are unbound; this happens at the steps that bind
   one of its slots, so errors come where and in the order they would if
   every pending comparison were evaluated at every step. *)
let schedule (cmps : (Ast.cmp * cterm * cterm) array) ~before ~now =
  let evaluable_in bound (_, x, y) = evaluable bound x && evaluable bound y in
  let out = ref [] in
  Array.iteri
    (fun c ((_, x, y) as cmp) ->
      let was = match before with Some b -> evaluable_in b cmp | None -> false in
      let fresh v = match before with Some b -> not (List.mem v b) | None -> true in
      if evaluable_in now cmp then (if not was then out := c :: !out)
      else if
        (not (pure x && pure y))
        && (before = None || List.exists (fun v -> List.mem v now && fresh v) (vars (vars [] x) y))
      then out := (-c - 1) :: !out)
    cmps;
  Array.of_list (List.rev !out)

(* Run a {!schedule}; false as soon as a checked comparison fails. *)
let check_cmps env (cmps : (Ast.cmp * cterm * cterm) array) (sched : int array) =
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length sched do
    let c = Array.unsafe_get sched !j in
    (if c >= 0 then begin
       let op, x, y = cmps.(c) in
       let a, b = (value env x, value env y) in
       ok := eval_cmp op a b
     end
     else
       let _, x, y = cmps.(-c - 1) in
       let _a, _b = (eval env x, eval env y) in
       ());
    incr j
  done;
  !ok

(* One step of a body's join, given the literals matched so far. *)
type step = {
  s_states : lit_state array;  (** per literal; meaningless for matched ones *)
  s_bound : int;  (** the first literal not matched whose arguments are all bound, or [-1] *)
  s_cmps : int array array;  (** per literal: the {!schedule} once it has matched *)
}

let no_step = { s_states = [||]; s_bound = -1; s_cmps = [||] }

(* What a match of a condition list does: look a conditional literal's
   target up, adding it to the body being resolved or dropping the
   instance, or intern a choice element into the heads being collected. *)
type guard_hit = Target of catom | Element of catom

(* A condition list (of a conditional literal or a choice element) compiled
   for the join over it, which matches the conditions in order. *)
type cguard = {
  g_id : int;  (** dense in the program: the slot of its relations in a state's cache *)
  g_hit : guard_hit;
  g_ctx : string;  (** for error messages *)
  g_conds : catom array;
  g_states : lit_state array;
      (** condition [j]'s state once the enclosing body and conditions
          [0 .. j-1] have matched *)
  mutable g_edb : bool;
      (** every condition was found to range over an EDB predicate, on the
          first enumeration.  A base's rules are shared by domains; every
          writer stores the same value, so the race is benign. *)
}

let compile_guard cx ~ctx ~bound g_hit (conds : catom list) =
  let g_id = !(cx.guards) in
  cx.guards := g_id + 1;
  let g_conds = Array.of_list conds in
  let bound = ref bound in
  let g_states =
    Array.map
      (fun c ->
        let s = classify !bound c in
        bound := binds_atom !bound c;
        s)
      g_conds
  in
  { g_id; g_hit; g_ctx = ctx; g_conds; g_states; g_edb = false }

type split_body = {
  b_pos : catom array;
  b_cmps : (Ast.cmp * cterm * cterm) array;
  b_foralls : cguard array;
  b_negs : catom array;
  b_bound : int list;  (** the slots the positive literals bind *)
  b_cmps0 : int array;  (** the {!schedule} before any literal matched *)
  b_unsafe : int;
      (** the first comparison that does not evaluate once every positive
          literal matched, or [-1] *)
  b_steps : step array;
      (** [step] memo, by the bitmask of matched literals; {!no_step} until
          computed.  Filled lazily and possibly by several domains at once
          (a base's rules are shared): every writer stores the same value,
          so the race is benign. *)
}

(* Steps are memoized for bodies of at most this many positive literals (a
   2^n array). *)
let memo_max = 10

(* The step once the literals in [done_pos] have matched. *)
let compute_step (b : split_body) (done_pos : bool array) =
  let bound = ref [] in
  Array.iteri (fun i a -> if done_pos.(i) then bound := binds_atom !bound a) b.b_pos;
  let bound = !bound in
  let s_states = Array.map (classify bound) b.b_pos in
  let s_bound = ref (-1) in
  for i = Array.length b.b_pos - 1 downto 0 do
    match s_states.(i) with
    | Bound when not done_pos.(i) -> s_bound := i
    | Bound | Matchable _ | Blocked -> ()
  done;
  {
    s_states;
    s_bound = !s_bound;
    s_cmps =
      Array.map
        (fun a -> schedule b.b_cmps ~before:(Some bound) ~now:(binds_atom bound a))
        b.b_pos;
  }

(* [compute_step], memoized: which variables are bound depends only on which
   literals matched.  [mask] has bit [i] set when [done_pos.(i)]. *)
let step (b : split_body) mask (done_pos : bool array) =
  if Array.length b.b_steps = 0 then compute_step b done_pos
  else
    let s = Array.unsafe_get b.b_steps mask in
    if s != no_step then s
    else begin
      let s = compute_step b done_pos in
      b.b_steps.(mask) <- s;
      s
    end

let split_body cx (body : Ast.body_lit list) =
  let pos = ref [] and cmps = ref [] and foralls = ref [] and negs = ref [] in
  List.iter
    (function
      | Ast.Pos a -> pos := compile_atom cx a :: !pos
      | Ast.Neg a -> negs := compile_atom cx a :: !negs
      | Ast.Cmp (c, x, y) -> cmps := (c, compile_term cx x, compile_term cx y) :: !cmps
      | Ast.Forall (a, conds) ->
        foralls := (compile_atom cx a, List.map (compile_atom cx) conds) :: !foralls)
    body;
  let b_pos = Array.of_list (List.rev !pos) in
  let npos = Array.length b_pos in
  let b_bound = Array.fold_left binds_atom [] b_pos in
  let b_cmps = Array.of_list (List.rev !cmps) in
  let b_unsafe = ref (-1) in
  for c = Array.length b_cmps - 1 downto 0 do
    let _, x, y = b_cmps.(c) in
    if not (evaluable b_bound x && evaluable b_bound y) then b_unsafe := c
  done;
  {
    b_pos;
    b_cmps;
    b_foralls =
      Array.of_list
        (List.rev_map
           (fun (t, conds) ->
             compile_guard cx ~ctx:"conditional literal" ~bound:b_bound (Target t) conds)
           !foralls);
    b_negs = Array.of_list (List.rev !negs);
    b_bound;
    b_cmps0 = schedule b_cmps ~before:None ~now:[];
    b_unsafe = !b_unsafe;
    b_steps = (if npos > 0 && npos <= memo_max then Array.make (1 lsl npos) no_step else [||]);
  }

(* Compiled choice element; [ce_bad] carries the rendering of a non-positive
   guard literal, reported (like the interpreter used to) only when the
   element is actually derived. *)
type celem = { ce_elem : catom; ce_guard : cguard; ce_bad : string option }

type chead =
  | C_none
  | C_atom of catom
  | C_choice of { c_lb : cterm option; c_ub : cterm option; c_elems : celem list }

type compiled = {
  c_head : chead;
  c_body : split_body;
  c_text : string;  (** for error messages and provenance *)
  c_line : int;  (** source line of the rule (0 when synthesized) *)
  c_nvars : int;
  c_gpreds : (string * int) list;
      (** predicates the instance's emission consults through guard
          enumeration (choice-element guards and Forall conditions): new
          facts of these predicates can change what an already-emitted
          instance should look like *)
  c_cgpreds : (string * int) list;
      (** choice-element guard predicates only: new facts here require
          re-deriving the rule's heads during an incremental closure *)
}

(* [bound]: the slots the rule's positive body binds, bound whenever a
   choice element's guard is enumerated; [text]: the rule's. *)
let compile_head cx ~text ~bound = function
  | Ast.Head_none -> C_none
  | Ast.Head_atom a -> C_atom (compile_atom cx a)
  | Ast.Head_choice { lb; ub; elems } ->
    let celems =
      List.map
        (fun { Ast.elem; guard } ->
          let bad =
            List.find_map
              (function Ast.Pos _ -> None | l -> Some (Format.asprintf "%a" Ast.pp_body_lit l))
              guard
          in
          let conds =
            List.filter_map
              (function Ast.Pos a -> Some (compile_atom cx a) | _ -> None)
              guard
          in
          let ce_elem = compile_atom cx elem in
          {
            ce_elem;
            ce_guard = compile_guard cx ~ctx:text ~bound (Element ce_elem) conds;
            ce_bad = bad;
          })
        elems
    in
    C_choice
      {
        c_lb = Option.map (compile_term cx) lb;
        c_ub = Option.map (compile_term cx) ub;
        c_elems = celems;
      }

let forall_pred_list (b : split_body) =
  Array.fold_left
    (fun acc g ->
      Array.fold_left (fun acc c -> (c.cpred, c.carity) :: acc) acc g.g_conds)
    [] b.b_foralls

let choice_guard_pred_list = function
  | C_choice { c_elems; _ } ->
    List.concat_map
      (fun e -> Array.to_list (Array.map (fun c -> (c.cpred, c.carity)) e.ce_guard.g_conds))
      c_elems
  | C_none | C_atom _ -> []

(* ------------------------------------------------------------------ *)
(* The grounding state.                                                *)
(* ------------------------------------------------------------------ *)

(* Per-instance emission record: the (pred, arity) pairs this instance's
   simplification treated as {e impossible} — erased negative literals and
   missing Forall targets.  If atoms of such a predicate later join the
   possible set (an incremental extension), the instance is stale and must
   be re-emitted. *)
type emitrec = { mutable er_absent : (string * int) list }

(* One grounding's state.  The scratch buffers live here, never in a
   compiled rule: a frozen base's rules are shared by the groundings that
   extend it, possibly on several domains at once. *)
type state = {
  store : Gatom.Store.t;
  env : Env.t;
  idb : (string * int, unit) Hashtbl.t;  (** predicates with rule-defined heads *)
  budget : Budget.t;
  mutable args : Term.t array;  (** arguments of the atom being looked up or interned *)
  mutable va : Ivec.t;
  mutable vb : Ivec.t;  (** the two parts of the candidates {!probe} chose *)
  pos_buf : Ivec.t;
  neg_buf : Ivec.t;  (** a body being resolved *)
  mutable er : emitrec option;  (** its emission record *)
  heads_buf : Ivec.t;  (** a choice's heads being collected *)
  grels : Gatom.Store.relation array array;
      (** by {!cguard} id: the relations of its conditions, [[||]] until
          first needed.  Condition predicates are EDB, whose atoms are all
          seeded before the first enumeration. *)
}

let new_state store ~idb ~budget ~nvars ~guards =
  let env = Env.create () in
  Env.ensure env nvars;
  let none = Ivec.create ~capacity:1 () in
  {
    store;
    env;
    idb;
    budget;
    args = Array.make 8 Env.unset;
    va = none;
    vb = none;
    pos_buf = Ivec.create ();
    neg_buf = Ivec.create ();
    er = None;
    heads_buf = Ivec.create ();
    grels = Array.make guards [||];
  }

let is_edb st (a : catom) = not (Hashtbl.mem st.idb (a.cpred, a.carity))

(* Evaluate [a]'s arguments into [st.args]. *)
let fill_args st ctx (a : catom) =
  if Array.length st.args < a.carity then
    st.args <- Array.make (max a.carity (2 * Array.length st.args)) Env.unset;
  for j = 0 to a.carity - 1 do
    st.args.(j) <- arg_value st.env ctx a.cargv.(j)
  done

(* The id of [a]'s atom under the environment, or [-1]; nothing is built. *)
let lookup st ctx (a : catom) =
  fill_args st ctx a;
  Gatom.Store.find_args st.store a.cpred ~hpred:a.chpred st.args a.carity

let intern_atom st ctx (a : catom) =
  fill_args st ctx a;
  Gatom.Store.intern_args st.store a.cpred ~hpred:a.chpred st.args a.carity

(* The candidates of matchable [a] over its relation [rel]: of the index
   probes at its [keys], whose arguments evaluate, the one with the fewest
   ids (the first on a tie), else the whole relation.  Leaves the two parts
   of the candidates in [st.va] and [st.vb] and returns their total
   length. *)
let probe st rel (a : catom) (keys : int array) =
  if Array.length keys = 0 then begin
    st.va <- Gatom.Store.ids rel 0;
    st.vb <- Gatom.Store.ids rel 1;
    st.va.Ivec.len + st.vb.Ivec.len
  end
  else begin
    let best = ref max_int in
    for j = 0 to Array.length keys - 1 do
      let pos = keys.(j) in
      let value = arg_value st.env "positive literal" a.cargv.(pos) in
      let va = Gatom.Store.ids_with_arg rel 0 ~pos ~value
      and vb = Gatom.Store.ids_with_arg rel 1 ~pos ~value in
      let n = va.Ivec.len + vb.Ivec.len in
      if n < !best then begin
        best := n;
        st.va <- va;
        st.vb <- vb
      end
    done;
    !best
  end

(* Enumerate all substitutions satisfying the positive atoms and comparisons
   of [body] over the possible-atom store, each positive literal restricted
   to a window of atom ids: literal [delta] to [[lo, hi)], the literals
   before it to [[0, lo)] and the ones after it to [[0, hi)] ([delta = -1]:
   every literal to [[0, hi)]).  Calls [k] for each complete substitution
   with the matched positive atom ids (in literal order), in an array that
   is reused: a caller that keeps it copies it.  Atoms interned during the
   enumeration get ids >= [hi], so the literals' relations are looked up
   once.

   Each step takes the literal the body's memoized {!step} and the index
   sizes pick, scans or looks up its atoms, and checks the comparisons its
   match makes evaluable.  Nothing is allocated per step or per instance
   (arithmetic and function terms aside, which intern their values). *)
let enumerate st (body : split_body) ~delta ~lo ~hi (k : int array -> unit) =
  let npos = Array.length body.b_pos in
  let rels =
    Array.map (fun (a : catom) -> Gatom.Store.relation st.store a.cpred a.carity) body.b_pos
  in
  let matched = Array.make npos (-1) in
  let done_pos = Array.make npos false in
  let env = st.env in
  let rec go mask remaining =
    if remaining = 0 then begin
      if body.b_unsafe >= 0 then begin
        let _, x, y = body.b_cmps.(body.b_unsafe) in
        ignore (eval_exn env "comparison" x);
        ignore (eval_exn env "comparison" y)
      end;
      k matched
    end
    else begin
      let s = step body mask done_pos in
      (* The next literal: the delta literal when it can match (semi-naive:
         only the atoms of its window pass, so it is the most selective join
         start); then the first literal whose arguments are all bound;
         otherwise the matchable literal with the fewest candidates, the
         first on a tie.  None when every literal left is blocked. *)
      let pick = ref (-1) and by_lookup = ref false in
      if delta >= 0 && not done_pos.(delta) then begin
        match s.s_states.(delta) with
        | Bound ->
          pick := delta;
          by_lookup := true
        | Matchable keys ->
          pick := delta;
          ignore (probe st rels.(delta) body.b_pos.(delta) keys)
        | Blocked -> ()
      end;
      if !pick < 0 && s.s_bound >= 0 then begin
        pick := s.s_bound;
        by_lookup := true
      end;
      if !pick < 0 then begin
        let best = ref max_int and va = ref st.va and vb = ref st.vb in
        for i = 0 to npos - 1 do
          if not done_pos.(i) then
            match s.s_states.(i) with
            | Matchable keys ->
              let n = probe st rels.(i) body.b_pos.(i) keys in
              if n < !best then begin
                pick := i;
                best := n;
                va := st.va;
                vb := st.vb
              end
            | Bound | Blocked -> ()
        done;
        st.va <- !va;
        st.vb <- !vb
      end;
      let i = !pick in
      if i >= 0 then begin
        let lo_i = if i = delta then lo else 0 and hi_i = if i < delta then lo else hi in
        let a = body.b_pos.(i) and mask = mask lor (1 lsl i) in
        if !by_lookup then begin
          (* A bound literal matches at most one atom and binds nothing, so
             looking that atom up yields what an index scan would, and no
             comparison becomes evaluable. *)
          let id = lookup st "positive literal" a in
          if id >= lo_i && id < hi_i then begin
            done_pos.(i) <- true;
            matched.(i) <- id;
            go mask (remaining - 1);
            done_pos.(i) <- false
          end
        end
        else begin
          let va = st.va and vb = st.vb and cmps = s.s_cmps.(i) in
          done_pos.(i) <- true;
          for part = 0 to 1 do
            let v = if part = 0 then va else vb in
            let j = ref (if lo_i = 0 then 0 else Ivec.lower_bound v lo_i) in
            (* [k] may append to [v] (and so replace its [data]), but only
               ids >= [hi] *)
            while !j < v.Ivec.len && v.Ivec.data.(!j) < hi_i do
              let id = v.Ivec.data.(!j) in
              let m = Env.mark env in
              if
                match_atom env a (Gatom.Store.atom st.store id)
                && (Array.length cmps = 0 || check_cmps env body.b_cmps cmps)
              then begin
                matched.(i) <- id;
                go mask (remaining - 1)
              end;
              Env.undo env m;
              incr j
            done
          done;
          done_pos.(i) <- false
        end
      end
    end
  in
  let m = Env.mark env in
  if check_cmps env body.b_cmps body.b_cmps0 then go 0 npos;
  Env.undo env m

(* Every instance of [body] whose matched ids all lie below [hi], at least
   one of them at or above [lo], each found exactly once: under the delta
   position of its first id at or above [lo].  [lo < 0] is the full join,
   which also finds the one instance of a body without positive literals. *)
let join_window st (body : split_body) ~lo ~hi k =
  if lo < 0 then enumerate st body ~delta:(-1) ~lo:0 ~hi k
  else
    for i = 0 to Array.length body.b_pos - 1 do
      enumerate st body ~delta:i ~lo ~hi k
    done

exception Drop_instance

let note_absent st (a : catom) =
  match st.er with
  | Some e -> e.er_absent <- (a.cpred, a.carity) :: e.er_absent
  | None -> ()

(* A match of [g]'s conditions: see {!guard_hit}.  The ids go to the
   state's buffers. *)
let guard_hit st (g : cguard) =
  match g.g_hit with
  | Target target ->
    let id = lookup st "conditional literal" target in
    if id < 0 then begin
      note_absent st target;
      raise Drop_instance
    end
    else if not (Gatom.Store.is_fact st.store id) then Ivec.push st.pos_buf id
  | Element elem -> Ivec.push st.heads_buf (intern_atom st g.g_ctx elem)

(* Conditions [j ..] of [g], in order, over the facts, their relations in
   [rels]; {!guard_hit} once per match. *)
let rec guard_from st (g : cguard) rels j =
  if j = Array.length g.g_conds then guard_hit st g
  else
    let c = g.g_conds.(j) in
    match g.g_states.(j) with
    | Blocked -> ()
    | Bound ->
      let id = lookup st "positive literal" c in
      if id >= 0 && Gatom.Store.is_fact st.store id then guard_from st g rels (j + 1)
    | Matchable keys ->
      ignore (probe st rels.(j) c keys);
      let va = st.va and vb = st.vb in
      for part = 0 to 1 do
        let v = if part = 0 then va else vb in
        for q = 0 to v.Ivec.len - 1 do
          let id = v.Ivec.data.(q) in
          if Gatom.Store.is_fact st.store id then begin
            let m = Env.mark st.env in
            if match_atom st.env c (Gatom.Store.atom st.store id) then
              guard_from st g rels (j + 1);
            Env.undo st.env m
          end
        done
      done

(* Enumerate EDB-guard matches: used for Forall conditions and choice-element
   guards.  The guard is a conjunction of atoms over EDB predicates; local
   variables are bound during enumeration.  Runs {!guard_hit} once per
   match. *)
let enumerate_guard st (g : cguard) =
  if not g.g_edb then begin
    Array.iter
      (fun c ->
        if not (is_edb st c) then
          errf "condition %a in %s must range over fact-only predicates" pp_catom c g.g_ctx)
      g.g_conds;
    g.g_edb <- true
  end;
  let rels =
    match st.grels.(g.g_id) with
    | [||] when Array.length g.g_conds > 0 ->
      let rels =
        Array.map (fun c -> Gatom.Store.relation st.store c.cpred c.carity) g.g_conds
      in
      st.grels.(g.g_id) <- rels;
      rels
    | rels -> rels
  in
  guard_from st g rels 0

(* Intern the atoms of a choice's elements into [st.heads_buf]. *)
let rec elements st text = function
  | [] -> ()
  | { ce_guard; ce_bad; _ } :: rest ->
    (match ce_bad with
    | Some l -> errf "choice guard %s in %s must be a positive atom" l text
    | None -> ());
    enumerate_guard st ce_guard;
    elements st text rest

(* ------------------------------------------------------------------ *)
(* Phase 1: possible-atom closure.                                     *)
(* ------------------------------------------------------------------ *)

(* Derive all head atoms of [rule] for the current substitution into the
   store (optimistic w.r.t. negation and Forall targets). *)
let derive_heads st (rule : compiled) =
  Budget.tick_instance st.budget;
  match rule.c_head with
  | C_none -> assert false
  | C_atom a -> ignore (intern_atom st rule.c_text a)
  | C_choice { c_elems; _ } ->
    Ivec.clear st.heads_buf;
    elements st rule.c_text c_elems

(* An integrity constraint derives nothing, so the closure skips it;
   emission instantiates it once. *)
let derives r = match r.c_head with C_none -> false | C_atom _ | C_choice _ -> true

(* The closure's state over a program's rules (in program order), shared by
   full grounding and extension.  Each deriving rule remembers the store
   count when its last join began, and a later round joins it only over the
   window of atoms added since ({!join_window}), so every instance is found,
   and its heads derived, exactly once.  The matched ids of the instances
   are kept per rule, in the order found: emission restores each one
   instead of joining the rule again. *)
type closure = {
  cl_rules : compiled array;
  cl_since : int array;
      (** store count when the rule's last join began: [-1] before its
          first, [max_int] for a constraint *)
  cl_found : Ivec.t array;
      (** matched ids of the instances found, one after the other *)
  cl_count : int array;  (** instances found *)
}

let new_closure (rules : compiled list) ~since =
  let cl_rules = Array.of_list rules in
  {
    cl_rules;
    cl_since = Array.map (fun r -> if derives r then since else max_int) cl_rules;
    cl_found = Array.map (fun _ -> Ivec.create ()) cl_rules;
    cl_count = Array.make (Array.length cl_rules) 0;
  }

(* Join rounds until every deriving rule has joined the whole store.  A
   rule without positive literals has one instance, found by its first
   join.  Returns the rounds that joined something. *)
let close st cl =
  let rounds = ref 0 and joined = ref true in
  while !joined do
    joined := false;
    Array.iteri
      (fun k r ->
        let lo = cl.cl_since.(k) and hi = Gatom.Store.count st.store in
        if lo < 0 || (lo < hi && Array.length r.c_body.b_pos > 0) then begin
          joined := true;
          cl.cl_since.(k) <- hi;
          let found = cl.cl_found.(k) in
          join_window st r.c_body ~lo ~hi (fun matched ->
              for j = 0 to Array.length matched - 1 do
                Ivec.push found matched.(j)
              done;
              cl.cl_count.(k) <- cl.cl_count.(k) + 1;
              derive_heads st r)
        end)
      cl.cl_rules;
    if !joined then incr rounds
  done;
  !rounds

(* ------------------------------------------------------------------ *)
(* Phase 2: emitting simplified ground rules.                          *)
(* ------------------------------------------------------------------ *)


(* Resolve the full body of a rule instance to (pos, neg) atom-id arrays.
   [matched] are the ids matched for positive literals.  Facts are removed;
   impossible positive atoms (from Forall expansion) or negated facts drop
   the whole instance.  The ids are collected in the state's buffers; [er]
   records the impossible atoms assumed. *)
let resolve_body ~er st (body : split_body) (matched : int array) : Ground.body =
  let pos = st.pos_buf and neg = st.neg_buf in
  Ivec.clear pos;
  Ivec.clear neg;
  st.er <- er;
  for j = 0 to Array.length matched - 1 do
    if not (Gatom.Store.is_fact st.store matched.(j)) then Ivec.push pos matched.(j)
  done;
  for j = 0 to Array.length body.b_foralls - 1 do
    enumerate_guard st body.b_foralls.(j)
  done;
  for j = 0 to Array.length body.b_negs - 1 do
    let a = body.b_negs.(j) in
    let id = lookup st "negative literal" a in
    (* an impossible atom: [not a] is trivially true *)
    if id < 0 then note_absent st a
    else if Gatom.Store.is_fact st.store id then raise Drop_instance
    else Ivec.push neg id
  done;
  { Ground.pos = Ivec.sort_uniq pos; neg = Ivec.sort_uniq neg }

let bound_value st rule_text = function
  | None -> None
  | Some t -> (
    match eval_exn st.env ("cardinality bound of " ^ rule_text) t with
    | { Term.node = Term.Int n; _ } -> Some n
    | t -> errf "cardinality bound %a in %s is not an integer" Term.pp t rule_text)

(* Compiled minimize element: weight/priority/tuple plus its guard body. *)
type cmin = {
  cm_weight : cterm;
  cm_priority : cterm;
  cm_tuple : cterm list;
  cm_body : split_body;
  cm_nvars : int;
  cm_gpreds : (string * int) list;  (** Forall condition predicates *)
}

let compile_min_elem ~guards ({ Ast.weight; priority; tuple; guard } : Ast.min_elem) =
  let cx = new_cx ~guards in
  let cm_body = split_body cx guard in
  {
    cm_weight = compile_term cx weight;
    cm_priority = compile_term cx priority;
    cm_tuple = List.map (compile_term cx) tuple;
    cm_body;
    cm_nvars = cx.nvars;
    cm_gpreds = List.sort_uniq compare (forall_pred_list cm_body);
  }

(* ------------------------------------------------------------------ *)
(* Instance bookkeeping for incremental extension.                     *)
(* ------------------------------------------------------------------ *)

(* Where an instance's emitted form lives in the output program, so a
   re-emission can overwrite it in place. [S_none] means the instance
   currently emits nothing (dropped, head-is-fact, or empty choice). *)
type islot = S_rule of int | S_min of int | S_none

type inst = {
  i_src : isrc;
  i_matched : int array;  (** atom ids matched by the positive body *)
  i_uid : int;
  mutable i_slot : islot;
}

and isrc = I_rule of compiled | I_min of cmin

(* Staleness maps of a frozen base program.  An emitted (or dropped)
   instance is indexed under every (pred, arity) whose future growth could
   change its emitted form:
   - [m_absent]: predicates of erased negative literals and of missing
     Forall targets (the instance assumed these atoms impossible);
   - [m_guard]: predicates its guard enumerations range over (choice
     element guards, Forall conditions) — guards see only {e facts}, which
     are all seeded (guards are restricted to EDB predicates), so new
     seeded facts are the only way a guard's expansion can grow.
   Everything else an emitted instance depends on is either monotone or
   re-checked dynamically by {!Translate} (fact marks on body literals). *)
type maps = {
  mutable m_next : int;  (** instance uid counter *)
  m_absent : (string * int, inst list ref) Hashtbl.t;
  m_guard : (string * int, inst list ref) Hashtbl.t;
}

let multi_add tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some l -> l := v :: !l
  | None -> Hashtbl.add tbl k (ref [ v ])

(* Index an instance in the staleness maps when its emitted form can go
   stale: it assumed some atom impossible ([er]), or its guards range over
   [gpreds]. *)
let record m er src matched gpreds slot =
  let absent = match er with Some e -> List.sort_uniq compare e.er_absent | None -> [] in
  if absent <> [] || gpreds <> [] then begin
    let i = { i_src = src; i_matched = matched; i_uid = m.m_next; i_slot = slot } in
    m.m_next <- m.m_next + 1;
    List.iter (fun k -> multi_add m.m_absent k i) absent;
    List.iter (fun k -> multi_add m.m_guard k i) gpreds
  end

(* What an instance emits: a rule, nothing, or an empty-body conflict. *)
type emitted = Put of Ground.rule | Void | Conflict

(* Place a rule instance's [what] in [out]: appended, or over its previous
   slot [replace]. *)
let rec place_rule (out : Ground.t) replace origin what =
  match (what, replace) with
  | _, Some (S_min _) -> assert false
  | Put rule, Some (S_rule i) ->
    Vec.set out.Ground.rules i rule;
    Vec.set out.Ground.origins i origin;
    S_rule i
  | Put rule, (Some S_none | None) ->
    Ground.push_rule out rule origin;
    S_rule (Ground.num_rules out - 1)
  | Void, Some (S_rule i) ->
    Vec.set out.Ground.rules i Ground.noop_rule;
    S_rule i
  | Void, (Some S_none | None) -> S_none
  | Conflict, _ ->
    out.Ground.inconsistent <- true;
    Vec.push out.Ground.conflicts0 origin;
    place_rule out replace origin Void

(* Emit one rule instance.  The environment must hold the instance's
   substitution (a join callback provides it; emission from the closure
   and re-emission restore it with [rebind]).  With [maps], the instance is
   recorded in the staleness maps; with [replace], it overwrites its
   previous slot instead of appending ([Ground.noop_rule] fills slots whose
   instance no longer emits anything, keeping rule indices stable). *)
let emit_rule_instance st (out : Ground.t) ?maps ?replace (r : compiled)
    (matched : int array) : islot =
  Budget.tick_instance st.budget;
  (* [matched] is a fresh array per instance: retain it as the
     pre-simplification positive body for provenance *)
  let origin = { Ground.o_line = r.c_line; o_text = r.c_text; o_pos = matched } in
  let er = match maps with Some _ -> Some { er_absent = [] } | None -> None in
  let what =
    match resolve_body ~er st r.c_body matched with
    | exception Drop_instance -> Void
    | body -> (
      match r.c_head with
      | C_none -> if Ground.body_size body = 0 then Conflict else Put (Ground.Rconstraint body)
      | C_atom a ->
        let id = intern_atom st r.c_text a in
        if Gatom.Store.is_fact st.store id then Void
        else if Ground.body_size body = 0 then begin
          (* An empty body normally promotes the head to a fact — but a fact
             mark cannot be retracted by a later re-emission, so when the
             emptiness rests on retractable grounds (erased negation, missing
             Forall target, guard expansion) emit an unconditional rule
             instead. *)
          let retractable =
            match er with
            | Some e -> e.er_absent <> [] || r.c_gpreds <> []
            | None -> false
          in
          if retractable then Put (Ground.Rnormal (id, body))
          else begin
            Gatom.Store.mark_fact st.store id;
            Void
          end
        end
        else Put (Ground.Rnormal (id, body))
      | C_choice { c_lb; c_ub; c_elems } ->
        let lb = bound_value st r.c_text c_lb in
        let ub = bound_value st r.c_text c_ub in
        Ivec.clear st.heads_buf;
        elements st r.c_text c_elems;
        let heads = Ivec.sort_uniq st.heads_buf in
        if Array.length heads = 0 then begin
          match lb with
          | Some n when n > 0 ->
            if Ground.body_size body = 0 then Conflict else Put (Ground.Rconstraint body)
          | _ -> Void
        end
        else Put (Ground.Rchoice { lb; ub; heads; cbody = body }))
  in
  let slot = place_rule out replace origin what in
  (match maps with Some m -> record m er (I_rule r) matched r.c_gpreds slot | None -> ());
  slot

(* Place a minimize entry ([None]: nothing) in [out], as {!place_rule}
   does. *)
let place_min (out : Ground.t) replace entry =
  match (entry, replace) with
  | _, Some (S_rule _) -> assert false
  | Some entry, Some (S_min i) ->
    Vec.set out.Ground.minimize i entry;
    S_min i
  | Some entry, (Some S_none | None) ->
    Vec.push out.Ground.minimize entry;
    S_min (Vec.length out.Ground.minimize - 1)
  | None, Some (S_min i) ->
    (* keep the old priority: a zero-weight entry never changes the cost
       at a priority level that exists, whereas dropping the level
       entirely could change the cost vector's shape *)
    let old = Vec.get out.Ground.minimize i in
    Vec.set out.Ground.minimize i
      { old with Ground.mweight = 0; mtuple = []; mbody = Ground.empty_body };
    S_min i
  | None, (Some S_none | None) -> S_none

let emit_min_instance st (out : Ground.t) ?maps ?replace (mn : cmin)
    (matched : int array) : islot =
  Budget.tick_instance st.budget;
  let er = match maps with Some _ -> Some { er_absent = [] } | None -> None in
  let entry =
    match resolve_body ~er st mn.cm_body matched with
    | exception Drop_instance -> None
    | mbody ->
      let w =
        match eval_exn st.env "minimize weight" mn.cm_weight with
        | { Term.node = Term.Int n; _ } -> n
        | t -> errf "minimize weight %a is not an integer" Term.pp t
      in
      let p =
        match eval_exn st.env "minimize priority" mn.cm_priority with
        | { Term.node = Term.Int n; _ } -> n
        | t -> errf "minimize priority %a is not an integer" Term.pp t
      in
      let tup = List.map (fun t -> eval_exn st.env "minimize tuple" t) mn.cm_tuple in
      Some { Ground.mweight = w; mpriority = p; mtuple = tup; mbody }
  in
  let slot = place_min out replace entry in
  (match maps with Some m -> record m er (I_min mn) matched mn.cm_gpreds slot | None -> ());
  slot

(* Restore an instance's substitution from the atoms it matched, literal by
   literal.  The instance matched them once, so only variables are bound:
   arithmetic is not evaluated again, which in literal order could use a
   variable that a later literal binds. *)
let rebind st (b : split_body) nvars (matched : int array) =
  Env.ensure st.env nvars;
  for i = 0 to Array.length b.b_pos - 1 do
    bind_from st.env b.b_pos.(i).cargv 0 (Gatom.Store.atom st.store matched.(i)).Gatom.args
  done

(* Emit, in program order, every instance the closure [cl] found, and the
   instances of constraints and minimize elements that match at least one
   atom at or above [lo] ([lo < 0]: all of them), joined here once. *)
let emit_all st (out : Ground.t) ?maps cl (mins : cmin list list) ~lo =
  let hi = Gatom.Store.count st.store in
  Array.iteri
    (fun k r ->
      if derives r then begin
        let npos = Array.length r.c_body.b_pos in
        for j = 0 to cl.cl_count.(k) - 1 do
          let matched = Ivec.sub cl.cl_found.(k) (j * npos) npos in
          let m = Env.mark st.env in
          rebind st r.c_body r.c_nvars matched;
          ignore (emit_rule_instance st out ?maps r matched);
          Env.undo st.env m
        done
      end
      else
        join_window st r.c_body ~lo ~hi (fun matched ->
            ignore (emit_rule_instance st out ?maps r (Array.copy matched))))
    cl.cl_rules;
  List.iter
    (fun group ->
      List.iter
        (fun m ->
          Env.ensure st.env m.cm_nvars;
          join_window st m.cm_body ~lo ~hi (fun matched ->
              ignore (emit_min_instance st out ?maps m (Array.copy matched))))
        group)
    mins


(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

(* Safety runs on the source rule (variable names are needed for messages)
   before compilation to slots. *)
let check_safety text (head : Ast.head) (body : Ast.body_lit list) =
  let bound =
    List.concat_map
      (function Ast.Pos a -> Ast.atom_vars a | _ -> [])
      body
  in
  let bound = List.sort_uniq String.compare bound in
  let is_bound v = List.mem v bound in
  let check_vars ctx vars =
    List.iter
      (fun v ->
        if not (is_bound v) then
          errf "unsafe rule %s: variable %s in %s not bound by a positive body literal"
            text v ctx)
      vars
  in
  List.iter
    (function
      | Ast.Neg a -> check_vars "negative literal" (Ast.atom_vars a)
      | _ -> ())
    body;
  (* head variables must be bound, except choice-element locals bound by guards *)
  match head with
  | Ast.Head_none -> ()
  | Ast.Head_atom a -> check_vars "rule head" (Ast.atom_vars a)
  | Ast.Head_choice { elems; _ } ->
    List.iter
      (fun { Ast.elem; guard } ->
        let guard_vars =
          List.concat_map
            (function Ast.Pos a -> Ast.atom_vars a | _ -> [])
            guard
        in
        List.iter
          (fun v ->
            if not (is_bound v || List.mem v guard_vars) then
              errf
                "unsafe rule %s: choice variable %s bound neither by the body nor by \
                 its guard"
                text v)
          (Ast.atom_vars elem))
      elems

(* Evaluate a ground (variable-free) fact argument. *)
let eval_ground_arg t =
  let cx = new_cx ~guards:(ref 0) in
  let ct = compile_term cx t in
  eval (Env.create ()) ct

(* Seed one already-ground atom as a fact.  With [taint], records the
   (pred, arity) of atoms that are new or newly fact-marked — the guard
   taint set of an incremental extension.  This is the streaming fact
   fast path: producers (reuse-fact generation at E4S scale) hand atoms
   straight to the interned store, with no Ast statement or per-spec
   atom list in between, and re-seeding an existing fact is a no-op. *)
let seed_ground_atom store ?taint (ga : Gatom.t) =
  let changed = Gatom.Store.intern_fact store ga in
  match taint with
  | Some t when changed ->
    Hashtbl.replace t (ga.Gatom.pred, List.length ga.Gatom.args) ()
  | _ -> ()

(* Seed a ground fact statement into the store, expanding interval
   arguments into their cartesian product. *)
let seed_fact store ?taint (a : Ast.atom) =
  let rec arg_values = function
    | Ast.Cst c -> [ c ]
    | Ast.Interval (lo, hi) -> (
      let ev t =
        match t with
        | Ast.Cst { Term.node = Term.Int i; _ } -> i
        | Ast.Cst c -> errf "interval bound %a is not an integer" Term.pp c
        | t -> errf "interval bound %a is not ground" Ast.pp_term t
      in
      let lo = ev lo and hi = ev hi in
      if lo > hi then []
      else List.init (hi - lo + 1) (fun k -> Term.int (lo + k)))
    | (Ast.Binop _ | Ast.Fn _) as t -> (
      match eval_ground_arg t with
      | Some c -> [ c ]
      | None -> errf "non-ground fact argument %a" Ast.pp_term t)
    | Ast.Var _ as t -> errf "non-ground fact argument %a" Ast.pp_term t
  and expand = function
    | [] -> [ [] ]
    | t :: rest ->
      let tails = expand rest in
      List.concat_map (fun v -> List.map (fun tl -> v :: tl) tails) (arg_values t)
  in
  List.iter
    (fun args -> seed_ground_atom store ?taint (Gatom.make a.Ast.pred args))
    (expand a.Ast.args)

let ground_internal ~budget ~maps ?facts_stream (prog : Ast.program) =
  Budget.enter budget Budget.Ground;
  (* about one atom per statement, most of them facts, is derived again *)
  let t_seed = Unix.gettimeofday () in
  let store = Gatom.Store.create ~size:(2 * List.length prog) () in
  let idb = Hashtbl.create 64 in
  let guards = ref 0 in
  let rules = ref [] and minimizes = ref [] in
  (* Seed facts; collect rules and classify IDB predicates. *)
  List.iter
    (fun stmt ->
      match stmt with
      | Ast.Show _ -> ()
      | Ast.Minimize elems ->
        minimizes := List.map (compile_min_elem ~guards) elems :: !minimizes
      | Ast.Rule ({ head; body; _ } as r) ->
        if Ast.statement_is_fact stmt then begin
          match head with
          | Ast.Head_atom a -> seed_fact store a
          | _ -> assert false
        end
        else begin
          List.iter
            (fun (a : Ast.atom) ->
              Hashtbl.replace idb (a.Ast.pred, List.length a.Ast.args) ())
            (Ast.head_atoms head);
          let text = Format.asprintf "%a" Ast.pp_statement (Ast.Rule r) in
          check_safety text head body;
          let cx = new_cx ~guards in
          let c_body = split_body cx body in
          let c_head = compile_head cx ~text ~bound:c_body.b_bound head in
          let cgpreds = List.sort_uniq compare (choice_guard_pred_list c_head) in
          let c =
            {
              c_head;
              c_body;
              c_text = text;
              c_line = r.Ast.line;
              c_nvars = cx.nvars;
              c_gpreds =
                List.sort_uniq compare (choice_guard_pred_list c_head @ forall_pred_list c_body);
              c_cgpreds = cgpreds;
            }
          in
          rules := c :: !rules
        end)
    prog;
  (* Streamed facts are seeded after the statement facts, which is where
     a materialized producer appends them — atom interning order (and so
     every downstream id) is identical on both paths. *)
  (match facts_stream with
  | Some stream -> stream (fun ga -> seed_ground_atom store ga)
  | None -> ());
  let rules = List.rev !rules in
  let mins = List.rev !minimizes in
  let max_nvars = List.fold_left (fun m r -> max m r.c_nvars) 0 rules in
  let st = new_state store ~idb ~budget ~nvars:max_nvars ~guards:!guards in
  let t_close = Unix.gettimeofday () in
  let cl = new_closure rules ~since:(-1) in
  let rounds = close st cl in
  let t_emit = Unix.gettimeofday () in
  let out = Ground.create store in
  emit_all st out ?maps cl mins ~lo:(-1);
  let stats =
    {
      possible_atoms = Gatom.Store.count store;
      ground_rules = Ground.num_rules out;
      fixpoint_rounds = rounds;
      seed_time = t_close -. t_seed;
      close_time = t_emit -. t_close;
      emit_time = Unix.gettimeofday () -. t_emit;
    }
  in
  (st, out, rules, mins, max_nvars, stats)

let ground ?(budget = Budget.unlimited) ?facts_stream (prog : Ast.program) :
    Ground.t * stats =
  let _, out, _, _, _, stats =
    ground_internal ~budget ~maps:None ?facts_stream prog
  in
  (out, stats)

(* ------------------------------------------------------------------ *)
(* Incremental bases: ground once, extend per request, rebase on       *)
(* install deltas.                                                     *)
(* ------------------------------------------------------------------ *)

type base = {
  b_store : Gatom.Store.t;  (** frozen *)
  b_ground : Ground.t;
  b_rules : compiled list;
  b_mins : cmin list list;
  b_idb : (string * int, unit) Hashtbl.t;
  b_nvars : int;
  b_guards : int;  (** condition lists compiled ({!cguard}) *)
  b_maps : maps;
  b_stats : stats;
}

let base_ground b = b.b_ground
let base_stats b = b.b_stats

let ground_base ?(budget = Budget.unlimited) ?facts_stream (prog : Ast.program) :
    base * stats =
  let maps =
    { m_next = 0; m_absent = Hashtbl.create 256; m_guard = Hashtbl.create 64 }
  in
  let st, out, rules, mins, nvars, stats =
    ground_internal ~budget ~maps:(Some maps) ?facts_stream prog
  in
  Gatom.Store.freeze st.store;
  ( {
      b_store = st.store;
      b_ground = out;
      b_rules = rules;
      b_mins = mins;
      b_idb = st.idb;
      b_nvars = nvars;
      b_guards = Array.length st.grels;
      b_maps = maps;
      b_stats = stats;
    },
    stats )

let clone_maps (m : maps) =
  let copies = Hashtbl.create 256 in
  let copy_inst i =
    match Hashtbl.find_opt copies i.i_uid with
    | Some c -> c
    | None ->
      let c = { i with i_slot = i.i_slot } in
      Hashtbl.add copies i.i_uid c;
      c
  in
  let copy_tbl t =
    let t' = Hashtbl.create (max 16 (Hashtbl.length t)) in
    Hashtbl.iter (fun k l -> Hashtbl.add t' k (ref (List.map copy_inst !l))) t;
    t'
  in
  { m_next = m.m_next; m_absent = copy_tbl m.m_absent; m_guard = copy_tbl m.m_guard }

(* Seed the delta's fact statements; returns the guard taint set. *)
let seed_delta st (added : Ast.statement list) =
  let tainted = Hashtbl.create 16 in
  List.iter
    (fun stmt ->
      match stmt with
      | Ast.Show _ -> ()
      | Ast.Rule { head = Ast.Head_atom a; _ } when Ast.statement_is_fact stmt ->
        seed_fact st.store ~taint:tainted a
      | stmt ->
        errf "substrate delta must contain only facts, got %a" Ast.pp_statement stmt)
    added;
  tainted

(* The incremental core: seed [added] facts over a base, continue the
   possible-atom closure, re-emit the base instances the growth made
   stale, and emit the brand-new instances.  [src_maps] is consulted for
   staleness; [maps]/[update_slots] control whether the result's
   bookkeeping is maintained (rebase) or discarded (per-request
   extension).  Returns the totals (base and extension) and the delta
   rounds. *)
let extend_onto st (out : Ground.t) (base : base) ~src_maps ~maps ~update_slots
    ?facts_stream (added : Ast.statement list) =
  let t_seed = Unix.gettimeofday () in
  let pre_count = Gatom.Store.count st.store in
  let guard_taint = seed_delta st added in
  (* A streamed fact that already exists is a no-op (no taint); only the
     genuinely new atoms taint guards, so re-streaming the full reuse set
     over a rebased base dedups for free. *)
  (match facts_stream with
  | Some stream ->
    stream (fun ga -> seed_ground_atom st.store ~taint:guard_taint ga)
  | None -> ());
  (* The base's closure covered every instance over its own atoms, so the
     continuation starts each rule at the base's count.  Rules whose
     choice-element guards range over a tainted predicate first re-derive
     the heads of their base instances: the guard (not the body) changed,
     which the body's window cannot see. *)
  let t_close = Unix.gettimeofday () in
  let cl = new_closure base.b_rules ~since:pre_count in
  Array.iter
    (fun r ->
      if derives r && List.exists (fun k -> Hashtbl.mem guard_taint k) r.c_cgpreds then
        join_window st r.c_body ~lo:(-1) ~hi:pre_count (fun _ -> derive_heads st r))
    cl.cl_rules;
  let rounds = close st cl in
  let t_emit = Unix.gettimeofday () in
  (* Predicates that gained possible atoms: any base instance that treated
     them as impossible (erased negs, missing Forall targets) is stale. *)
  let absent_taint = Hashtbl.create 32 in
  for id = pre_count to Gatom.Store.count st.store - 1 do
    let a = Gatom.Store.atom st.store id in
    Hashtbl.replace absent_taint (a.Gatom.pred, List.length a.Gatom.args) ()
  done;
  (* Snapshot the stale instances first: re-emission may append to the very
     map lists being traversed when [maps] is set. *)
  let to_reemit = Hashtbl.create 64 in
  let gather tbl key =
    match Hashtbl.find_opt tbl key with
    | Some l ->
      List.iter
        (fun i ->
          if not (Hashtbl.mem to_reemit i.i_uid) then Hashtbl.add to_reemit i.i_uid i)
        !l
    | None -> ()
  in
  Hashtbl.iter (fun k () -> gather src_maps.m_guard k) guard_taint;
  Hashtbl.iter (fun k () -> gather src_maps.m_absent k) absent_taint;
  Hashtbl.iter
    (fun _ i ->
      let m = Env.mark st.env in
      let slot =
        match i.i_src with
        | I_rule r ->
          rebind st r.c_body r.c_nvars i.i_matched;
          emit_rule_instance st out ?maps ~replace:i.i_slot r i.i_matched
        | I_min mn ->
          rebind st mn.cm_body mn.cm_nvars i.i_matched;
          emit_min_instance st out ?maps ~replace:i.i_slot mn i.i_matched
      in
      if update_slots then i.i_slot <- slot;
      Env.undo st.env m)
    to_reemit;
  (* New instances: every one the continuation found, and those of
     constraints and minimize elements matching a new atom.  Base instances
     match only old atoms, so none is emitted twice. *)
  emit_all st out ?maps cl base.b_mins ~lo:pre_count;
  {
    possible_atoms = Gatom.Store.count st.store;
    ground_rules = Ground.num_rules out;
    fixpoint_rounds = rounds;
    seed_time = t_close -. t_seed;
    close_time = t_emit -. t_close;
    emit_time = Unix.gettimeofday () -. t_emit;
  }

let check_extendable (base : base) =
  (* A base with an empty-body conflict is already UNSAT; extension could
     in principle retract such a conflict (an erased negation becoming
     possible again), which the in-place re-emission cannot express.
     Callers build bases from relaxed programs, so this does not arise. *)
  if base.b_ground.Ground.inconsistent then
    errf "cannot extend an inconsistent base program"

let extend ?(budget = Budget.unlimited) (base : base) (added : Ast.statement list) :
    Ground.t * stats =
  check_extendable base;
  Budget.enter budget Budget.Ground;
  let store = Gatom.Store.extend base.b_store in
  let st = new_state store ~idb:base.b_idb ~budget ~nvars:base.b_nvars ~guards:base.b_guards in
  let out = Ground.fork base.b_ground store in
  let stats =
    extend_onto st out base ~src_maps:base.b_maps ~maps:None ~update_slots:false added
  in
  (out, stats)

let rebase ?(budget = Budget.unlimited) ?facts_stream (base : base)
    (added : Ast.statement list) : base * stats =
  check_extendable base;
  Budget.enter budget Budget.Ground;
  let store = Gatom.Store.clone base.b_store in
  let st = new_state store ~idb:base.b_idb ~budget ~nvars:base.b_nvars ~guards:base.b_guards in
  let out = Ground.fork base.b_ground store in
  let maps = clone_maps base.b_maps in
  let stats =
    extend_onto st out base ~src_maps:maps ~maps:(Some maps) ~update_slots:true
      ?facts_stream added
  in
  Gatom.Store.freeze store;
  ({ base with b_store = store; b_ground = out; b_maps = maps; b_stats = stats }, stats)
