type stats = { possible_atoms : int; ground_rules : int; fixpoint_rounds : int }

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

type catom = { cpred : string; carity : int; cargs : cterm list }

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
  {
    cpred = a.Ast.pred;
    carity = List.length a.Ast.args;
    cargs = List.map (compile_term cx) a.Ast.args;
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
  type t = { mutable slots : Term.t option array; trail : Ivec.t }

  let create () = { slots = Array.make 64 None; trail = Ivec.create () }

  let ensure env n =
    if Array.length env.slots < n then begin
      let ns = Array.make (max n (2 * Array.length env.slots)) None in
      Array.blit env.slots 0 ns 0 (Array.length env.slots);
      env.slots <- ns
    end

  let mark env = Ivec.length env.trail

  let undo env m =
    while Ivec.length env.trail > m do
      env.slots.(Ivec.pop env.trail) <- None
    done

  (* terms are interned, so the conflict check is pointer equality *)
  let bind env v t =
    match Array.unsafe_get env.slots v with
    | Some t' -> Term.equal t t'
    | None ->
      Array.unsafe_set env.slots v (Some t);
      Ivec.push env.trail v;
      true

  let lookup env v = Array.unsafe_get env.slots v
end

(* Evaluate a term under an environment; [None] if a variable is unbound. *)
let rec eval env (t : cterm) : Term.t option =
  match t with
  | C_cst c -> Some c
  | C_var (v, _) -> Env.lookup env v
  | C_interval _ -> errf "intervals are only supported in fact arguments"
  | C_fn (f, args) ->
    let rec all acc = function
      | [] -> Some (List.rev acc)
      | t :: rest -> ( match eval env t with Some v -> all (v :: acc) rest | None -> None)
    in
    Option.map (fun vs -> Term.fun_ f vs) (all [] args)
  | C_binop (op, a, b) -> (
    match (eval env a, eval env b) with
    | Some { Term.node = Term.Int x; _ }, Some { Term.node = Term.Int y; _ } ->
      let r =
        match op with
        | Ast.Add -> x + y
        | Ast.Sub -> x - y
        | Ast.Mul -> x * y
        | Ast.Div ->
          if y = 0 then errf "division by zero in grounding" else x / y
        | Ast.Mod -> if y = 0 then errf "modulo by zero in grounding" else x mod y
      in
      Some (Term.int r)
    | Some a', Some b' ->
      errf "arithmetic on non-integer terms %a, %a" Term.pp a' Term.pp b'
    | _ -> None)

let eval_exn env ctx t =
  match eval env t with
  | Some v -> v
  | None -> errf "unsafe rule: unbound variable in %s (%a)" ctx pp_cterm t

(* Match pattern term [p] against ground value [v], extending [env]. *)
let rec match_term env (p : cterm) (v : Term.t) =
  match p with
  | C_cst c -> Term.equal c v
  | C_var (x, _) -> Env.bind env x v
  | C_fn (f, args) -> (
    match Term.node v with
    | Term.Fun (g, vals) -> String.equal f g && match_args env args vals
    | _ -> false)
  | C_binop _ | C_interval _ -> (
    match eval env p with Some pv -> Term.equal pv v | None -> false)

(* Patterns against values, left to right; false on a length mismatch. *)
and match_args env ps vs =
  match (ps, vs) with
  | [], [] -> true
  | p :: ps, v :: vs -> match_term env p v && match_args env ps vs
  | _ -> false

let match_atom env (pat : catom) (ga : Gatom.t) = match_args env pat.cargs ga.Gatom.args

let eval_cmp c (a : Term.t) (b : Term.t) =
  let k = Term.compare a b in
  match c with
  | Ast.Eq -> k = 0
  | Ast.Ne -> k <> 0
  | Ast.Lt -> k < 0
  | Ast.Le -> k <= 0
  | Ast.Gt -> k > 0
  | Ast.Ge -> k >= 0

(* ------------------------------------------------------------------ *)
(* Compiled rules: bodies split by literal kind.                       *)
(* ------------------------------------------------------------------ *)

(* How a positive literal stands at a step of a join.  [Bound]: every
   argument evaluates, so the literal matches at most one atom and binds
   nothing.  [Matchable keys]: matching it binds some variable; [keys] are
   the positions whose arguments already evaluate, the index keys of its
   candidates.  [Blocked]: some arithmetic uses a variable that nothing
   binds yet, so the literal matches no atom until another literal binds
   it. *)
type lit_state = Bound | Matchable of int list | Blocked

exception Unmatchable

(* The slots that matching [t] binds: its variables outside arithmetic. *)
let rec binds acc (t : cterm) =
  match t with
  | C_var (v, _) -> v :: acc
  | C_fn (_, args) -> List.fold_left binds acc args
  | C_cst _ | C_binop _ | C_interval _ -> acc

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
      (List.concat (List.mapi (fun pos t -> if evaluable bound t then [ pos ] else []) a.cargs))
  | exception Unmatchable -> Blocked

type split_body = {
  b_pos : catom array;
  b_cmps : (Ast.cmp * cterm * cterm) array;
  b_foralls : (catom * catom list) array;
  b_negs : catom array;
  b_states : lit_state array array;
      (** [states] memo, by the bitmask of matched literals; [[||]] until
          computed.  Filled lazily and possibly by several domains at once
          (a base's rules are shared): every writer stores the same value,
          so the race is benign. *)
}

(* Literal states are memoized for bodies of at most this many positive
   literals (a 2^n array). *)
let memo_max = 10

(* The state of every positive literal once the literals in [done_pos] have
   matched (entries of matched literals are meaningless). *)
let classify_all (b : split_body) (done_pos : bool array) =
  let bound = ref [] in
  Array.iteri
    (fun i a -> if done_pos.(i) then bound := List.fold_left binds !bound a.cargs)
    b.b_pos;
  Array.map (classify !bound) b.b_pos

(* [classify_all], memoized: which variables are bound depends only on
   which literals matched. *)
let states (b : split_body) (done_pos : bool array) =
  if Array.length b.b_states = 0 then classify_all b done_pos
  else begin
    let key = ref 0 in
    for i = 0 to Array.length done_pos - 1 do
      if done_pos.(i) then key := !key lor (1 lsl i)
    done;
    match b.b_states.(!key) with
    | [||] ->
      let s = classify_all b done_pos in
      b.b_states.(!key) <- s;
      s
    | s -> s
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
  {
    b_pos;
    b_cmps = Array.of_list (List.rev !cmps);
    b_foralls = Array.of_list (List.rev !foralls);
    b_negs = Array.of_list (List.rev !negs);
    b_states = (if npos > 0 && npos <= memo_max then Array.make (1 lsl npos) [||] else [||]);
  }

(* Compiled choice element; [ce_bad] carries the rendering of a non-positive
   guard literal, reported (like the interpreter used to) only when the
   element is actually derived. *)
type celem = { ce_elem : catom; ce_guard : catom list; ce_bad : string option }

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

let compile_head cx = function
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
          { ce_elem = compile_atom cx elem; ce_guard = conds; ce_bad = bad })
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
    (fun acc (_, conds) ->
      List.fold_left (fun acc c -> (c.cpred, c.carity) :: acc) acc conds)
    [] b.b_foralls

let choice_guard_pred_list = function
  | C_choice { c_elems; _ } ->
    List.concat_map
      (fun e -> List.map (fun c -> (c.cpred, c.carity)) e.ce_guard)
      c_elems
  | C_none | C_atom _ -> []

(* ------------------------------------------------------------------ *)
(* The grounding state.                                                *)
(* ------------------------------------------------------------------ *)

type state = {
  store : Gatom.Store.t;
  env : Env.t;
  idb : (string * int, unit) Hashtbl.t;  (** predicates with rule-defined heads *)
  budget : Budget.t;
}

let is_edb st (a : catom) = not (Hashtbl.mem st.idb (a.cpred, a.carity))

(* Candidates of a positive atom pattern over its relation [rel]: the most
   selective index among the argument positions [keys], whose arguments
   evaluate under the env (see {!lit_state}), else the whole relation. *)
let key_candidates st rel (pat : catom) keys : Gatom.Store.cands =
  let probe pos =
    let value = eval_exn st.env "positive literal" (List.nth pat.cargs pos) in
    Gatom.Store.with_arg rel ~pos ~value
  in
  match keys with
  | [] -> Gatom.Store.all rel
  | pos :: rest ->
    List.fold_left
      (fun best pos ->
        let c = probe pos in
        if Gatom.Store.cands_length c < Gatom.Store.cands_length best then c else best)
      (probe pos) rest

(* Candidates of a guard atom: its keys are the arguments bound now. *)
let candidates st (pat : catom) =
  let keys =
    List.concat (List.mapi (fun pos p -> if Option.is_some (eval st.env p) then [ pos ] else []) pat.cargs)
  in
  key_candidates st (Gatom.Store.relation st.store pat.cpred pat.carity) pat keys

let ground_atom st ctx (a : catom) : Gatom.t =
  Gatom.make a.cpred (List.map (fun t -> eval_exn st.env ctx t) a.cargs)

(* One step of the join in [enumerate]: look a bound literal's atom up, scan
   a literal's candidates, or stop because every literal left is blocked. *)
type join_step = Lookup of int | Scan of int * Gatom.Store.cands | Stuck

(* Enumerate all substitutions satisfying the positive atoms and comparisons
   of [body] over the possible-atom store, each positive literal restricted
   to a window of atom ids: literal [delta] to [[lo, hi)], the literals
   before it to [[0, lo)] and the ones after it to [[0, hi)] ([delta = -1]:
   every literal to [[0, hi)]).  Calls [k] for each complete substitution
   with the matched positive atom ids (in literal order), in an array that
   is reused: a caller that keeps it copies it.  Atoms interned during the
   enumeration get ids >= [hi], so the literals' relations are looked up
   once. *)
let enumerate st (body : split_body) ~delta ~lo ~hi (k : int array -> unit) =
  let npos = Array.length body.b_pos in
  let rels = Array.map (fun (a : catom) -> Gatom.Store.relation st.store a.cpred a.carity) body.b_pos in
  let lo_of i = if i = delta then lo else 0 in
  let hi_of i = if i < delta then lo else hi in
  let matched = Array.make npos (-1) in
  let done_pos = Array.make npos false in
  let cmps_left = ref (Array.to_list body.b_cmps) in
  (* Evaluate all comparisons that have become ground; false means prune. *)
  let rec check_cmps acc = function
    | [] ->
      cmps_left := List.rev acc;
      true
    | ((c, x, y) as cmp) :: rest -> (
      match (eval st.env x, eval st.env y) with
      | Some a, Some b ->
        if eval_cmp c a b then check_cmps acc rest else false
      | _ -> check_cmps (cmp :: acc) rest)
  in
  (* The next join step: the delta literal when it can match (semi-naive:
     only the atoms of its window pass, so it is the most selective join
     start); then the first literal whose arguments are all bound;
     otherwise the matchable literal with the fewest candidates.  [Stuck]
     when every literal left is blocked. *)
  let next () =
    let state = states body done_pos in
    let by_delta =
      if delta >= 0 && not done_pos.(delta) then
        match state.(delta) with
        | Bound -> Lookup delta
        | Matchable keys -> Scan (delta, key_candidates st rels.(delta) body.b_pos.(delta) keys)
        | Blocked -> Stuck
      else Stuck
    in
    match by_delta with
    | Lookup _ | Scan _ -> by_delta
    | Stuck ->
      let first_bound = ref (-1) and i = ref 0 in
      while !first_bound < 0 && !i < npos do
        (match state.(!i) with
        | Bound when not done_pos.(!i) -> first_bound := !i
        | Bound | Matchable _ | Blocked -> ());
        incr i
      done;
      if !first_bound >= 0 then Lookup !first_bound
      else begin
        let best = ref Stuck and best_n = ref max_int in
        for i = 0 to npos - 1 do
          match state.(i) with
          | Matchable keys when not done_pos.(i) ->
            let c = key_candidates st rels.(i) body.b_pos.(i) keys in
            let n = Gatom.Store.cands_length c in
            if n < !best_n then begin
              best := Scan (i, c);
              best_n := n
            end
          | _ -> ()
        done;
        !best
      end
  in
  let rec go remaining =
    if remaining = 0 then begin
      (match !cmps_left with
      | [] -> ()
      | (_, x, y) :: _ ->
        ignore (eval_exn st.env "comparison" x);
        ignore (eval_exn st.env "comparison" y));
      k matched
    end
    else begin
      match next () with
      | Stuck -> ()
      | Lookup i -> (
        (* A bound literal matches at most one atom and binds nothing, so
           looking that atom up yields what the index scan would, in the
           same order. *)
        match Gatom.Store.find st.store (ground_atom st "positive literal" body.b_pos.(i)) with
        | Some id when id >= lo_of i && id < hi_of i ->
          done_pos.(i) <- true;
          matched.(i) <- id;
          go (remaining - 1);
          done_pos.(i) <- false
        | _ -> ())
      | Scan (i, cands) ->
        done_pos.(i) <- true;
        Gatom.Store.cands_iter_between
          (fun id ->
            let m = Env.mark st.env in
            let saved_cmps = !cmps_left in
            if
              match_atom st.env body.b_pos.(i) (Gatom.Store.atom st.store id)
              && check_cmps [] !cmps_left
            then begin
              matched.(i) <- id;
              go (remaining - 1)
            end;
            cmps_left := saved_cmps;
            Env.undo st.env m)
          cands ~lo:(lo_of i) ~hi:(hi_of i);
        done_pos.(i) <- false
    end
  in
  let m = Env.mark st.env in
  let saved = !cmps_left in
  if check_cmps [] !cmps_left then go npos;
  cmps_left := saved;
  Env.undo st.env m

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

(* Enumerate EDB-guard matches: used for Forall conditions and choice-element
   guards.  The guard is a conjunction of atoms over EDB predicates; local
   variables are bound during enumeration.  Calls [k] once per match. *)
let enumerate_guard st (conds : catom list) rule_text (k : unit -> unit) =
  List.iter
    (fun c ->
      if not (is_edb st c) then
        errf "condition %a in %s must range over fact-only predicates" pp_catom c
          rule_text)
    conds;
  let rec go = function
    | [] -> k ()
    | c :: rest ->
      let cands = candidates st c in
      Gatom.Store.cands_iter
        (fun id ->
          if Gatom.Store.is_fact st.store id then begin
            let m = Env.mark st.env in
            if match_atom st.env c (Gatom.Store.atom st.store id) then go rest;
            Env.undo st.env m
          end)
        cands
    in
  go conds

(* ------------------------------------------------------------------ *)
(* Phase 1: possible-atom closure.                                     *)
(* ------------------------------------------------------------------ *)

(* Derive all head atoms of [rule] for the current substitution into the
   store (optimistic w.r.t. negation and Forall targets). *)
let derive_heads st (rule : compiled) =
  Budget.tick_instance st.budget;
  match rule.c_head with
  | C_none -> assert false
  | C_atom a ->
    ignore (Gatom.Store.intern st.store (ground_atom st rule.c_text a))
  | C_choice { c_elems; _ } ->
    List.iter
      (fun { ce_elem; ce_guard; ce_bad } ->
        (match ce_bad with
        | Some l ->
          errf "choice guard %s in %s must be a positive atom" l rule.c_text
        | None -> ());
        enumerate_guard st ce_guard rule.c_text (fun () ->
            ignore (Gatom.Store.intern st.store (ground_atom st rule.c_text ce_elem))))
      c_elems

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
          join_window st r.c_body ~lo ~hi (fun matched ->
              Array.iter (Ivec.push cl.cl_found.(k)) matched;
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

exception Drop_instance

(* Per-instance emission record: the (pred, arity) pairs this instance's
   simplification treated as {e impossible} — erased negative literals and
   missing Forall targets.  If atoms of such a predicate later join the
   possible set (an incremental extension), the instance is stale and must
   be re-emitted. *)
type emitrec = { mutable er_absent : (string * int) list }

(* Resolve the full body of a rule instance to (pos, neg) atom-id arrays.
   [matched] are the ids matched for positive literals.  Facts are removed;
   impossible positive atoms (from Forall expansion) or negated facts drop
   the whole instance. *)
let resolve_body ?er st (body : split_body) (matched : int array) : Ground.body =
  let pos = ref [] and neg = ref [] in
  let note_absent (a : catom) =
    match er with
    | Some e -> e.er_absent <- (a.cpred, a.carity) :: e.er_absent
    | None -> ()
  in
  let add_pos id = if not (Gatom.Store.is_fact st.store id) then pos := id :: !pos in
  Array.iter add_pos matched;
  Array.iter
    (fun (target, conds) ->
      enumerate_guard st conds "conditional literal" (fun () ->
          let ga = ground_atom st "conditional literal" target in
          match Gatom.Store.find st.store ga with
          | Some id -> add_pos id
          | None ->
            note_absent target;
            raise Drop_instance))
    body.b_foralls;
  Array.iter
    (fun a ->
      let ga = ground_atom st "negative literal" a in
      match Gatom.Store.find st.store ga with
      | None -> note_absent a (* impossible atom: [not a] trivially true *)
      | Some id -> if Gatom.Store.is_fact st.store id then raise Drop_instance else neg := id :: !neg)
    body.b_negs;
  let dedup l = List.sort_uniq Int.compare l in
  { Ground.pos = Array.of_list (dedup !pos); neg = Array.of_list (dedup !neg) }

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

let compile_min_elem ({ Ast.weight; priority; tuple; guard } : Ast.min_elem) =
  let cx = new_cx () in
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
  let record slot =
    (match maps with
    | Some m ->
      let absent =
        match er with Some e -> List.sort_uniq compare e.er_absent | None -> []
      in
      if absent <> [] || r.c_gpreds <> [] then begin
        let i = { i_src = I_rule r; i_matched = matched; i_uid = m.m_next; i_slot = slot } in
        m.m_next <- m.m_next + 1;
        List.iter (fun k -> multi_add m.m_absent k i) absent;
        List.iter (fun k -> multi_add m.m_guard k i) r.c_gpreds
      end
    | None -> ());
    slot
  in
  let put rule =
    match replace with
    | Some (S_rule i) ->
      Vec.set out.Ground.rules i rule;
      Vec.set out.Ground.origins i origin;
      S_rule i
    | Some (S_min _) -> assert false
    | Some S_none | None ->
      Ground.push_rule out rule origin;
      S_rule (Ground.num_rules out - 1)
  in
  let void () =
    match replace with
    | Some (S_rule i) ->
      Vec.set out.Ground.rules i Ground.noop_rule;
      S_rule i
    | Some (S_min _) -> assert false
    | Some S_none | None -> S_none
  in
  let conflict () =
    out.Ground.inconsistent <- true;
    Vec.push out.Ground.conflicts0 origin;
    void ()
  in
  match resolve_body ?er st r.c_body matched with
  | exception Drop_instance -> record (void ())
  | body -> (
    match r.c_head with
    | C_none ->
      if Ground.body_size body = 0 then record (conflict ())
      else record (put (Ground.Rconstraint body))
    | C_atom a ->
      let ga = ground_atom st r.c_text a in
      let id = Gatom.Store.intern st.store ga in
      if Gatom.Store.is_fact st.store id then record (void ())
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
        if retractable then record (put (Ground.Rnormal (id, body)))
        else begin
          Gatom.Store.mark_fact st.store id;
          record (void ())
        end
      end
      else record (put (Ground.Rnormal (id, body)))
    | C_choice { c_lb; c_ub; c_elems } ->
      let lb = bound_value st r.c_text c_lb in
      let ub = bound_value st r.c_text c_ub in
      let heads = ref [] in
      List.iter
        (fun { ce_elem; ce_guard; ce_bad = _ } ->
          enumerate_guard st ce_guard r.c_text (fun () ->
              heads := Gatom.Store.intern st.store (ground_atom st r.c_text ce_elem) :: !heads))
        c_elems;
      let heads = Array.of_list (List.sort_uniq Int.compare !heads) in
      if Array.length heads = 0 then begin
        match lb with
        | Some n when n > 0 ->
          if Ground.body_size body = 0 then record (conflict ())
          else record (put (Ground.Rconstraint body))
        | _ -> record (void ())
      end
      else record (put (Ground.Rchoice { lb; ub; heads; cbody = body })))

let emit_min_instance st (out : Ground.t) ?maps ?replace (mn : cmin)
    (matched : int array) : islot =
  Budget.tick_instance st.budget;
  let er = match maps with Some _ -> Some { er_absent = [] } | None -> None in
  let record slot =
    (match maps with
    | Some m ->
      let absent =
        match er with Some e -> List.sort_uniq compare e.er_absent | None -> []
      in
      if absent <> [] || mn.cm_gpreds <> [] then begin
        let i = { i_src = I_min mn; i_matched = matched; i_uid = m.m_next; i_slot = slot } in
        m.m_next <- m.m_next + 1;
        List.iter (fun k -> multi_add m.m_absent k i) absent;
        List.iter (fun k -> multi_add m.m_guard k i) mn.cm_gpreds
      end
    | None -> ());
    slot
  in
  let put entry =
    match replace with
    | Some (S_min i) ->
      Vec.set out.Ground.minimize i entry;
      S_min i
    | Some (S_rule _) -> assert false
    | Some S_none | None ->
      Vec.push out.Ground.minimize entry;
      S_min (Vec.length out.Ground.minimize - 1)
  in
  let void () =
    match replace with
    | Some (S_min i) ->
      (* keep the old priority: a zero-weight entry never changes the cost
         at a priority level that exists, whereas dropping the level
         entirely could change the cost vector's shape *)
      let old = Vec.get out.Ground.minimize i in
      Vec.set out.Ground.minimize i
        { old with Ground.mweight = 0; mtuple = []; mbody = Ground.empty_body };
      S_min i
    | Some (S_rule _) -> assert false
    | Some S_none | None -> S_none
  in
  match resolve_body ?er st mn.cm_body matched with
  | exception Drop_instance -> record (void ())
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
    record (put { Ground.mweight = w; mpriority = p; mtuple = tup; mbody })

(* Restore an instance's substitution by re-matching its positive patterns
   against the atoms it matched originally, then run [k]. *)
let rebind st (b : split_body) nvars (matched : int array) (k : unit -> unit) =
  Env.ensure st.env nvars;
  let m = Env.mark st.env in
  let ok = ref true in
  Array.iteri
    (fun i pat ->
      if !ok && not (match_atom st.env pat (Gatom.Store.atom st.store matched.(i)))
      then ok := false)
    b.b_pos;
  if !ok then k ();
  Env.undo st.env m

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
          rebind st r.c_body r.c_nvars matched (fun () ->
              ignore (emit_rule_instance st out ?maps r matched))
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
  let cx = new_cx () in
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
  let store = Gatom.Store.create ~size:(2 * List.length prog) () in
  let st = { store; env = Env.create (); idb = Hashtbl.create 64; budget } in
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
              Hashtbl.replace st.idb (a.Ast.pred, List.length a.Ast.args) ())
            (Ast.head_atoms head);
          let text = Format.asprintf "%a" Ast.pp_statement (Ast.Rule r) in
          check_safety text head body;
          let cx = new_cx () in
          let c_head = compile_head cx head in
          let c_body = split_body cx body in
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
  Env.ensure st.env max_nvars;
  let cl = new_closure rules ~since:(-1) in
  let rounds = close st cl in
  let out = Ground.create store in
  emit_all st out ?maps cl mins ~lo:(-1);
  let stats =
    {
      possible_atoms = Gatom.Store.count store;
      ground_rules = Ground.num_rules out;
      fixpoint_rounds = rounds;
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
   extension). *)
let extend_onto st (out : Ground.t) (base : base) ~src_maps ~maps ~update_slots
    ?facts_stream (added : Ast.statement list) =
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
  let cl = new_closure base.b_rules ~since:pre_count in
  Array.iter
    (fun r ->
      if derives r && List.exists (fun k -> Hashtbl.mem guard_taint k) r.c_cgpreds then
        join_window st r.c_body ~lo:(-1) ~hi:pre_count (fun _ -> derive_heads st r))
    cl.cl_rules;
  let rounds = close st cl in
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
      match i.i_src with
      | I_rule r ->
        rebind st r.c_body r.c_nvars i.i_matched (fun () ->
            let slot = emit_rule_instance st out ?maps ~replace:i.i_slot r i.i_matched in
            if update_slots then i.i_slot <- slot)
      | I_min mn ->
        rebind st mn.cm_body mn.cm_nvars i.i_matched (fun () ->
            let slot = emit_min_instance st out ?maps ~replace:i.i_slot mn i.i_matched in
            if update_slots then i.i_slot <- slot))
    to_reemit;
  (* New instances: every one the continuation found, and those of
     constraints and minimize elements matching a new atom.  Base instances
     match only old atoms, so none is emitted twice. *)
  emit_all st out ?maps cl base.b_mins ~lo:pre_count;
  rounds

let check_extendable (base : base) =
  (* A base with an empty-body conflict is already UNSAT; extension could
     in principle retract such a conflict (an erased negation becoming
     possible again), which the in-place re-emission cannot express.
     Callers build bases from relaxed programs, so this does not arise. *)
  if base.b_ground.Ground.inconsistent then
    errf "cannot extend an inconsistent base program"

let extension_stats st out rounds =
  {
    possible_atoms = Gatom.Store.count st.store;
    ground_rules = Ground.num_rules out;
    fixpoint_rounds = rounds;
  }

let extend ?(budget = Budget.unlimited) (base : base) (added : Ast.statement list) :
    Ground.t * stats =
  check_extendable base;
  Budget.enter budget Budget.Ground;
  let store = Gatom.Store.extend base.b_store in
  let st = { store; env = Env.create (); idb = base.b_idb; budget } in
  Env.ensure st.env base.b_nvars;
  let out = Ground.fork base.b_ground store in
  let rounds =
    extend_onto st out base ~src_maps:base.b_maps ~maps:None ~update_slots:false added
  in
  (out, extension_stats st out rounds)

let rebase ?(budget = Budget.unlimited) ?facts_stream (base : base)
    (added : Ast.statement list) : base * stats =
  check_extendable base;
  Budget.enter budget Budget.Ground;
  let store = Gatom.Store.clone base.b_store in
  let st = { store; env = Env.create (); idb = base.b_idb; budget } in
  Env.ensure st.env base.b_nvars;
  let out = Ground.fork base.b_ground store in
  let maps = clone_maps base.b_maps in
  let rounds =
    extend_onto st out base ~src_maps:maps ~maps:(Some maps) ~update_slots:true
      ?facts_stream added
  in
  Gatom.Store.freeze store;
  let stats = extension_stats st out rounds in
  ({ base with b_store = store; b_ground = out; b_maps = maps; b_stats = stats }, stats)
