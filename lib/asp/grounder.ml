type stats = {
  possible_atoms : int;
  ground_rules : int;
  fixpoint_rounds : int;
  seed_time : float;
  close_time : float;
  emit_time : float;
}

type facts = { count : int; replay : (Gatom.t -> unit) -> unit }

let no_facts = { count = 0; replay = ignore }

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

(* A rule's compilation context: its variable slots. *)
type cx = { ctbl : (string, int) Hashtbl.t; mutable nvars : int }

let new_cx () = { ctbl = Hashtbl.create 16; nvars = 0 }

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
  g_hit : guard_hit;
  g_ctx : string;  (** for error messages *)
  g_conds : catom array;
  g_states : lit_state array;
      (** condition [j]'s state once the enclosing body and conditions
          [0 .. j-1] have matched *)
  mutable g_rels : Gatom.Store.relation array option;
      (** the relations of the conditions, from the first enumeration on,
          which checks that each ranges over an EDB predicate (whose atoms
          are all seeded by then) *)
}

let compile_guard ~ctx ~bound g_hit (conds : catom list) =
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
  { g_hit; g_ctx = ctx; g_conds; g_states; g_rels = None }

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
          computed *)
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
             compile_guard ~ctx:"conditional literal" ~bound:b_bound (Target t) conds)
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
            ce_guard = compile_guard ~ctx:text ~bound (Element ce_elem) conds;
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

(* ------------------------------------------------------------------ *)
(* The grounding state.                                                *)
(* ------------------------------------------------------------------ *)

(* One grounding's state, with the join's scratch buffers. *)
type state = {
  store : Gatom.Store.t;
  env : Env.t;
  idb : (string * int, unit) Hashtbl.t;  (** predicates with rule-defined heads *)
  budget : Budget.t;
  mutable args : Term.t array;  (** arguments of the atom being looked up or interned *)
  mutable cands : Ivec.t;  (** the candidates {!probe} chose *)
  pos_buf : Ivec.t;
  neg_buf : Ivec.t;  (** a body being resolved *)
  heads_buf : Ivec.t;  (** a choice's heads being collected *)
}

let new_state store ~idb ~budget ~nvars =
  let env = Env.create () in
  Env.ensure env nvars;
  {
    store;
    env;
    idb;
    budget;
    args = Array.make 8 Env.unset;
    cands = Ivec.create ~capacity:1 ();
    pos_buf = Ivec.create ();
    neg_buf = Ivec.create ();
    heads_buf = Ivec.create ();
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
   ids (the first on a tie), else the whole relation.  Leaves the
   candidates in [st.cands] and returns their number. *)
let probe st rel (a : catom) (keys : int array) =
  if Array.length keys = 0 then begin
    st.cands <- Gatom.Store.ids rel;
    st.cands.Ivec.len
  end
  else begin
    let best = ref max_int in
    for j = 0 to Array.length keys - 1 do
      let pos = keys.(j) in
      let value = arg_value st.env "positive literal" a.cargv.(pos) in
      let v = Gatom.Store.ids_with_arg st.store rel ~pos ~value in
      if v.Ivec.len < !best then begin
        best := v.Ivec.len;
        st.cands <- v
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
        let best = ref max_int and cands = ref st.cands in
        for i = 0 to npos - 1 do
          if not done_pos.(i) then
            match s.s_states.(i) with
            | Matchable keys ->
              let n = probe st rels.(i) body.b_pos.(i) keys in
              if n < !best then begin
                pick := i;
                best := n;
                cands := st.cands
              end
            | Bound | Blocked -> ()
        done;
        st.cands <- !cands
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
          let v = st.cands and cmps = s.s_cmps.(i) in
          done_pos.(i) <- true;
          let j = ref (if lo_i = 0 then 0 else Ivec.lower_bound v lo_i) in
          (* [k] may append to [v] (and so replace its [data]), but only ids
             >= [hi] *)
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

(* A match of [g]'s conditions: see {!guard_hit}.  The ids go to the
   state's buffers. *)
let guard_hit st (g : cguard) =
  match g.g_hit with
  | Target target ->
    let id = lookup st "conditional literal" target in
    if id < 0 then raise Drop_instance
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
      let v = st.cands in
      for q = 0 to v.Ivec.len - 1 do
        let id = v.Ivec.data.(q) in
        if Gatom.Store.is_fact st.store id then begin
          let m = Env.mark st.env in
          if match_atom st.env c (Gatom.Store.atom st.store id) then
            guard_from st g rels (j + 1);
          Env.undo st.env m
        end
      done

(* Enumerate EDB-guard matches: used for Forall conditions and choice-element
   guards.  The guard is a conjunction of atoms over EDB predicates; local
   variables are bound during enumeration.  Runs {!guard_hit} once per
   match. *)
let enumerate_guard st (g : cguard) =
  let rels =
    match g.g_rels with
    | Some rels -> rels
    | None ->
      let rels =
        Array.map
          (fun c ->
            if not (is_edb st c) then
              errf "condition %a in %s must range over fact-only predicates" pp_catom c
                g.g_ctx;
            Gatom.Store.relation st.store c.cpred c.carity)
          g.g_conds
      in
      g.g_rels <- Some rels;
      rels
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

(* The closure's state over a program's rules (in program order).  Each
   deriving rule remembers the store count when its last join began, and a
   later round joins it only over the window of atoms added since
   ({!join_window}), so every instance is found, and its heads derived,
   exactly once.  The matched ids of the instances
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

let new_closure (rules : compiled list) =
  let cl_rules = Array.of_list rules in
  {
    cl_rules;
    cl_since = Array.map (fun r -> if derives r then -1 else max_int) cl_rules;
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
   the whole instance.  The ids are collected in the state's buffers. *)
let resolve_body st (body : split_body) (matched : int array) : Ground.body =
  let pos = st.pos_buf and neg = st.neg_buf in
  Ivec.clear pos;
  Ivec.clear neg;
  for j = 0 to Array.length matched - 1 do
    if not (Gatom.Store.is_fact st.store matched.(j)) then Ivec.push pos matched.(j)
  done;
  for j = 0 to Array.length body.b_foralls - 1 do
    enumerate_guard st body.b_foralls.(j)
  done;
  for j = 0 to Array.length body.b_negs - 1 do
    let a = body.b_negs.(j) in
    let id = lookup st "negative literal" a in
    (* an impossible atom ([id < 0]): [not a] is trivially true *)
    if id >= 0 then
      if Gatom.Store.is_fact st.store id then raise Drop_instance else Ivec.push neg id
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
}

let compile_min_elem ({ Ast.weight; priority; tuple; guard } : Ast.min_elem) =
  let cx = new_cx () in
  let cm_body = split_body cx guard in
  {
    cm_weight = compile_term cx weight;
    cm_priority = compile_term cx priority;
    cm_tuple = List.map (compile_term cx) tuple;
    cm_body;
    cm_nvars = cx.nvars;
  }

(* A constraint instance: an empty body makes the program inconsistent. *)
let emit_constraint (out : Ground.t) origin (body : Ground.body) =
  if Ground.body_size body > 0 then Ground.push_rule out (Ground.Rconstraint body) origin
  else begin
    out.Ground.inconsistent <- true;
    Vec.push out.Ground.conflicts0 origin
  end

(* Emit one rule instance.  The environment must hold the instance's
   substitution (a join callback provides it; emission from the closure
   restores it with [rebind]). *)
let emit_rule_instance st (out : Ground.t) (r : compiled) (matched : int array) =
  Budget.tick_instance st.budget;
  (* [matched] is a fresh array per instance: retain it as the
     pre-simplification positive body for provenance *)
  let origin = { Ground.o_line = r.c_line; o_text = r.c_text; o_pos = matched } in
  match resolve_body st r.c_body matched with
  | exception Drop_instance -> ()
  | body -> (
    match r.c_head with
    | C_none -> emit_constraint out origin body
    | C_atom a ->
      let id = intern_atom st r.c_text a in
      if not (Gatom.Store.is_fact st.store id) then
        if Ground.body_size body = 0 then
          (* an empty body promotes the head to a fact *)
          Gatom.Store.mark_fact st.store id
        else Ground.push_rule out (Ground.Rnormal (id, body)) origin
    | C_choice { c_lb; c_ub; c_elems } -> (
      let lb = bound_value st r.c_text c_lb in
      let ub = bound_value st r.c_text c_ub in
      Ivec.clear st.heads_buf;
      elements st r.c_text c_elems;
      let heads = Ivec.sort_uniq st.heads_buf in
      if Array.length heads > 0 then
        Ground.push_rule out (Ground.Rchoice { lb; ub; heads; cbody = body }) origin
      else match lb with Some n when n > 0 -> emit_constraint out origin body | _ -> ()))

let emit_min_instance st (out : Ground.t) (mn : cmin) (matched : int array) =
  Budget.tick_instance st.budget;
  match resolve_body st mn.cm_body matched with
  | exception Drop_instance -> ()
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
    Vec.push out.Ground.minimize { Ground.mweight = w; mpriority = p; mtuple = tup; mbody }

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
   instances of constraints and minimize elements, joined here once. *)
let emit_all st (out : Ground.t) cl (mins : cmin list list) =
  let hi = Gatom.Store.count st.store in
  Array.iteri
    (fun k r ->
      if derives r then begin
        let npos = Array.length r.c_body.b_pos in
        for j = 0 to cl.cl_count.(k) - 1 do
          let matched = Ivec.sub cl.cl_found.(k) (j * npos) npos in
          let m = Env.mark st.env in
          rebind st r.c_body r.c_nvars matched;
          emit_rule_instance st out r matched;
          Env.undo st.env m
        done
      end
      else
        enumerate st r.c_body ~delta:(-1) ~lo:0 ~hi (fun matched ->
            emit_rule_instance st out r (Array.copy matched)))
    cl.cl_rules;
  List.iter
    (fun group ->
      List.iter
        (fun m ->
          Env.ensure st.env m.cm_nvars;
          enumerate st m.cm_body ~delta:(-1) ~lo:0 ~hi (fun matched ->
              emit_min_instance st out m (Array.copy matched)))
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
  let cx = new_cx () in
  let ct = compile_term cx t in
  eval (Env.create ()) ct

(* Seed a ground fact statement into the store, expanding interval
   arguments into their cartesian product. *)
let seed_fact store (a : Ast.atom) =
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
    (fun args -> Gatom.Store.intern_fact store (Gatom.make a.Ast.pred args))
    (expand a.Ast.args)

let ground ?(budget = Budget.unlimited) ?(facts = no_facts) (prog : Ast.program) =
  Budget.enter budget Budget.Ground;
  (* about one atom per statement or fact, most of them facts, is derived
     again *)
  let t_seed = Unix.gettimeofday () in
  let store = Gatom.Store.create ~size:(2 * (List.length prog + facts.count)) () in
  let idb = Hashtbl.create 64 in
  let rules = ref [] and minimizes = ref [] in
  (* Seed facts; collect rules and classify IDB predicates. *)
  List.iter
    (fun stmt ->
      match stmt with
      | Ast.Show _ -> ()
      | Ast.Minimize elems ->
        minimizes := List.map compile_min_elem elems :: !minimizes
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
          let cx = new_cx () in
          let c_body = split_body cx body in
          let c_head = compile_head cx ~text ~bound:c_body.b_bound head in
          rules :=
            { c_head; c_body; c_text = text; c_line = r.Ast.line; c_nvars = cx.nvars } :: !rules
        end)
    prog;
  (* The frontend's facts come after the program's own: the store keeps
     each record it is given, with no Ast statement in between. *)
  facts.replay (Gatom.Store.intern_fact store);
  let rules = List.rev !rules in
  let mins = List.rev !minimizes in
  let max_nvars = List.fold_left (fun m r -> max m r.c_nvars) 0 rules in
  let st = new_state store ~idb ~budget ~nvars:max_nvars in
  let t_close = Unix.gettimeofday () in
  let cl = new_closure rules in
  let rounds = close st cl in
  let t_emit = Unix.gettimeofday () in
  let out = Ground.create store in
  emit_all st out cl mins;
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
  (out, stats)
