type lit = int

module Lit = struct
  let pos v = 2 * v
  let neg v = (2 * v) + 1
  let negate l = l lxor 1
  let var l = l lsr 1
  let sign l = l land 1 = 1
end

type params = {
  var_decay : float;
  clause_decay : float;
  restart_base : int;
  default_phase : bool;
  learnt_start : int;
  learnt_inc : float;
  seed : int;
}

let default_params =
  {
    var_decay = 0.95;
    clause_decay = 0.999;
    restart_base = 100;
    default_phase = false;
    learnt_start = 4000;
    learnt_inc = 1.3;
    seed = 91648253;
  }

type stats = {
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable learnt_literals : int;
  mutable pb_propagations : int;
  mutable vars : int;
  mutable clauses : int;  (* problem clauses kept, binary ones included *)
  mutable pb_constraints : int;
}

type clause = {
  mutable lits : int array;
  mutable activity : float;
  learnt : bool;
  mutable deleted : bool;
}

type pb = {
  plits : int array;  (* sorted by weight, descending *)
  pws : int array;
  cap : int;
  mutable sumtrue : int;
}

type reason =
  | Decision
  | RClause of clause
  | RBin of int
      (* binary clause (propagated ∨ l): the literal l, which is false *)
  | RPb of pb * int
      (* lazy PB reason: constraint + propagated literal; the clause is
         reconstructed on demand in conflict analysis *)

let dummy_clause = { lits = [||]; activity = 0.; learnt = false; deleted = true }
let dummy_pb = { plits = [||]; pws = [||]; cap = 0; sumtrue = 0 }
let dummy_occ = (dummy_pb, 0)

(* Most literals are never watched and occur in no PB constraint, so every
   literal starts on one of these shared lists, which are never mutated
   (they are shared by all solvers, on every domain).  A literal gets its
   own vector on its first push ([push_lit]). *)
let no_watches : clause Vec.t = Vec.create ~capacity:1 ~dummy:dummy_clause ()
let no_occs : (pb * int) Vec.t = Vec.create ~capacity:1 ~dummy:dummy_occ ()
let no_bins : Ivec.t = Ivec.create ~capacity:1 ()

type t = {
  params : params;
  mutable nvars : int;
  (* per-var state (length >= nvars) *)
  mutable values : int array;  (* -1 undef, 0 false, 1 true *)
  mutable levels : int array;
  mutable trail_pos : int array;  (* position on the trail when assigned *)
  mutable reasons : reason array;
  mutable activities : float array;
  mutable phases : bool array;
  mutable seen : bool array;
  mutable heap_pos : int array;  (* -1 when not in heap *)
  (* per-literal state (length >= 2*nvars) *)
  mutable watches : clause Vec.t array;  (* clauses of three or more literals *)
  mutable bins : Ivec.t array;  (* binary partners: (l ∨ o) puts o on l's list *)
  mutable pb_occs : (pb * int) Vec.t array;
  (* search state *)
  trail : Ivec.t;
  trail_lim : Ivec.t;
  mutable qhead : int;
  mutable heap : int array;  (* binary max-heap of vars by activity *)
  mutable heap_len : int;
  clauses : clause Vec.t;
  learnts : clause Vec.t;
  pbs : pb Vec.t;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable unsat : bool;
  mutable model : int array;  (* copy of values at last SAT *)
  mutable has_model : bool;  (* [model] holds a completed assignment *)
  stats : stats;
  to_clear : Ivec.t;
  mutable max_learnts : float;
  mutable core : int list;  (* assumption core of the last Unsat-under-assumptions *)
  mutable preferred : int array;  (* decided in order after the assumptions *)
  mutable pref_next : int;  (* no literal before it is unassigned *)
}

(* The per-variable arrays start at [capacity] entries (at least 16) and
   double when [new_var] outgrows them; a caller that knows how many
   variables it will create sizes them once. *)
let create ?(params = default_params) ?(capacity = 16) () =
  let n = max 16 capacity in
  {
    params;
    nvars = 0;
    values = Array.make n (-1);
    levels = Array.make n 0;
    trail_pos = Array.make n 0;
    reasons = Array.make n Decision;
    activities = Array.make n 0.;
    phases = Array.make n params.default_phase;
    seen = Array.make n false;
    heap_pos = Array.make n (-1);
    watches = Array.make (2 * n) no_watches;
    bins = Array.make (2 * n) no_bins;
    pb_occs = Array.make (2 * n) no_occs;
    trail = Ivec.create ~capacity:n ();
    trail_lim = Ivec.create ();
    qhead = 0;
    heap = Array.make n 0;
    heap_len = 0;
    clauses = Vec.create ~dummy:dummy_clause ();
    learnts = Vec.create ~dummy:dummy_clause ();
    pbs = Vec.create ~dummy:dummy_pb ();
    var_inc = 1.0;
    cla_inc = 1.0;
    unsat = false;
    model = [||];
    has_model = false;
    stats =
      {
        conflicts = 0;
        decisions = 0;
        propagations = 0;
        restarts = 0;
        learnt_literals = 0;
        pb_propagations = 0;
        vars = 0;
        clauses = 0;
        pb_constraints = 0;
      };
    to_clear = Ivec.create ();
    max_learnts = float_of_int params.learnt_start;
    core = [];
    preferred = [||];
    pref_next = 0;
  }

let num_vars s = s.nvars
let stats s = s.stats

(* ---------------- heap (max-heap on activity) ---------------- *)

(* [heap.(0 .. heap_len - 1)] holds variables, so every index below is
   below [heap_len] and every variable below [nvars]: reads of [heap],
   [activities] and [heap_pos] skip the bounds check.  Sifting moves a hole
   instead of swapping.  Comparisons are strict: a variable passes another
   only on strictly higher activity, which fixes the pick order among
   ties. *)

(* Settle [v] (activity [a]) into the hole at [i], moving it towards the root. *)
let rec sift_up (heap : int array) (act : float array) (pos : int array) v (a : float) i =
  let p = (i - 1) / 2 in
  if i > 0 && a > Array.unsafe_get act (Array.unsafe_get heap p) then begin
    let pv = Array.unsafe_get heap p in
    Array.unsafe_set heap i pv;
    Array.unsafe_set pos pv i;
    sift_up heap act pos v a p
  end
  else begin
    Array.unsafe_set heap i v;
    Array.unsafe_set pos v i
  end

(* Settle [v] (activity [a]) into the hole at [i], moving it towards the
   leaves of a heap of [n] variables. *)
let rec sift_down (heap : int array) (act : float array) (pos : int array) n v (a : float) i
    =
  let l = (2 * i) + 1 in
  let c =
    if
      l + 1 < n
      && Array.unsafe_get act (Array.unsafe_get heap (l + 1))
         > Array.unsafe_get act (Array.unsafe_get heap l)
    then l + 1
    else l
  in
  if l < n && Array.unsafe_get act (Array.unsafe_get heap c) > a then begin
    let cv = Array.unsafe_get heap c in
    Array.unsafe_set heap i cv;
    Array.unsafe_set pos cv i;
    sift_down heap act pos n v a c
  end
  else begin
    Array.unsafe_set heap i v;
    Array.unsafe_set pos v i
  end

let heap_up s i =
  let v = Array.unsafe_get s.heap i in
  sift_up s.heap s.activities s.heap_pos v (Array.unsafe_get s.activities v) i

let heap_down s i =
  let v = Array.unsafe_get s.heap i in
  sift_down s.heap s.activities s.heap_pos s.heap_len v (Array.unsafe_get s.activities v) i

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    let n = s.heap_len in
    if n = Array.length s.heap then begin
      let heap = Array.make (2 * n) 0 in
      Array.blit s.heap 0 heap 0 n;
      s.heap <- heap
    end;
    s.heap.(n) <- v;
    s.heap_len <- n + 1;
    heap_up s n
  end

let heap_pop s =
  let v = s.heap.(0) in
  let n = s.heap_len - 1 in
  s.heap_len <- n;
  s.heap_pos.(v) <- -1;
  if n > 0 then begin
    s.heap.(0) <- s.heap.(n);
    heap_down s 0
  end;
  v

let heap_update s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let heap_ok s =
  let ok = ref (s.heap_len <= Array.length s.heap) in
  for i = 0 to s.heap_len - 1 do
    let v = s.heap.(i) in
    ok :=
      !ok && v >= 0 && v < s.nvars
      && s.heap_pos.(v) = i
      && (i = 0 || s.activities.(s.heap.((i - 1) / 2)) >= s.activities.(v))
  done;
  for v = 0 to s.nvars - 1 do
    let p = s.heap_pos.(v) in
    ok := !ok && (p < 0 || (p < s.heap_len && s.heap.(p) = v))
  done;
  !ok

(* ---------------- variables ---------------- *)

let grow_arrays s =
  let n = Array.length s.values in
  if s.nvars >= n then begin
    let m = 2 * n in
    let copy a fill = Array.append a (Array.make (m - n) fill) in
    s.values <- copy s.values (-1);
    s.levels <- copy s.levels 0;
    s.trail_pos <- copy s.trail_pos 0;
    s.reasons <- copy s.reasons Decision;
    s.activities <- copy s.activities 0.;
    s.phases <- copy s.phases s.params.default_phase;
    s.seen <- copy s.seen false;
    s.heap_pos <- copy s.heap_pos (-1);
    (* per-literal arrays: two entries per variable *)
    let copy_lits a fill = Array.append a (Array.make (2 * (m - n)) fill) in
    s.watches <- copy_lits s.watches no_watches;
    s.bins <- copy_lits s.bins no_bins;
    s.pb_occs <- copy_lits s.pb_occs no_occs
  end

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  s.stats.vars <- v + 1;
  grow_arrays s;
  s.values.(v) <- -1;
  s.phases.(v) <- s.params.default_phase;
  (* deterministic per-seed jitter so presets differ in activity ties *)
  s.activities.(v) <- float_of_int ((s.params.seed * (v + 1)) land 0xffff) *. 1e-14;
  heap_insert s v;
  v

let lit_value s l =
  let v = s.values.(l lsr 1) in
  if v < 0 then -1 else v lxor (l land 1)

let decision_level s = Ivec.length s.trail_lim

(* ---------------- activity ---------------- *)

let var_bump s v =
  s.activities.(v) <- s.activities.(v) +. s.var_inc;
  if s.activities.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activities.(i) <- s.activities.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_update s v

let var_decay s = s.var_inc <- s.var_inc /. s.params.var_decay

let cla_bump s c =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    Vec.iter (fun c -> c.activity <- c.activity *. 1e-20) s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. s.params.clause_decay

(* ---------------- assignment ---------------- *)

let unchecked_enqueue s l reason =
  let v = l lsr 1 in
  s.values.(v) <- 1 - (l land 1);
  s.levels.(v) <- decision_level s;
  s.reasons.(v) <- reason;
  s.trail_pos.(v) <- Ivec.length s.trail;
  Ivec.push s.trail l;
  (* keep PB counters in sync with the assignment (mirrored in cancel_until) *)
  Vec.iter (fun ((pb : pb), i) -> pb.sumtrue <- pb.sumtrue + pb.pws.(i)) s.pb_occs.(l)

let enqueue s l reason =
  match lit_value s l with
  | 1 -> true
  | 0 -> false
  | _ ->
    unchecked_enqueue s l reason;
    true

let cancel_until s level =
  if decision_level s > level then begin
    let bound = Ivec.get s.trail_lim level in
    while Ivec.length s.trail > bound do
      let l = Ivec.pop s.trail in
      let v = l lsr 1 in
      (* l was true: retract PB sums *)
      Vec.iter (fun ((pb : pb), i) -> pb.sumtrue <- pb.sumtrue - pb.pws.(i)) s.pb_occs.(l);
      s.phases.(v) <- s.values.(v) = 1;
      s.values.(v) <- -1;
      s.reasons.(v) <- Decision;
      heap_insert s v
    done;
    s.qhead <- bound;
    s.pref_next <- 0;
    Ivec.shrink s.trail_lim level
  end

(* ---------------- clause management ---------------- *)

(* Push [x] onto literal [l]'s list in [lists]; on the literal's first
   push its own vector replaces the [shared] empty one. *)
let push_lit lists ~shared ~dummy l x =
  let v = lists.(l) in
  if v == shared then begin
    let v = Vec.create ~capacity:4 ~dummy () in
    Vec.push v x;
    lists.(l) <- v
  end
  else Vec.push v x

let push_watch s l c = push_lit s.watches ~shared:no_watches ~dummy:dummy_clause l c

let attach_clause s c =
  push_watch s c.lits.(0) c;
  push_watch s c.lits.(1) c

let push_bin s l o =
  let v = s.bins.(l) in
  if v == no_bins then begin
    let v = Ivec.create ~capacity:4 () in
    Ivec.push v o;
    s.bins.(l) <- v
  end
  else Ivec.push v o

(* A binary clause (a ∨ b) is no record: each literal lists the other. *)
let attach_binary s a b =
  push_bin s a b;
  push_bin s b a

let shared_lists_empty () =
  Vec.length no_watches = 0 && Vec.length no_occs = 0 && Ivec.length no_bins = 0

let locked s c =
  let l0 = c.lits.(0) in
  lit_value s l0 = 1
  && match s.reasons.(l0 lsr 1) with RClause c' -> c' == c | _ -> false

(* Two literals of distinct variables, the common case: no sort or filter
   pass. *)
let add_binary s a b =
  match (lit_value s a, lit_value s b) with
  | 1, _ | _, 1 -> ()
  | 0, 0 -> s.unsat <- true
  | 0, _ -> ignore (enqueue s b Decision)
  | _, 0 -> ignore (enqueue s a Decision)
  | _ ->
    s.stats.clauses <- s.stats.clauses + 1;
    attach_binary s a b

(* Add the clause [lits], sorted ascending without duplicates (its own
   array: a clause record keeps it): drop it when it is a tautology (a
   complementary pair is adjacent) or already satisfied, else drop its false
   literals. *)
let add_sorted s lits =
  let n = Array.length lits in
  let skip = ref false and nfalse = ref 0 in
  for i = 0 to n - 1 do
    let l = Array.unsafe_get lits i in
    if i > 0 && l lxor Array.unsafe_get lits (i - 1) = 1 then skip := true;
    match lit_value s l with 1 -> skip := true | 0 -> incr nfalse | _ -> ()
  done;
  if not !skip then begin
    let lits =
      if !nfalse = 0 then lits
      else Array.of_list (List.filter (fun l -> lit_value s l <> 0) (Array.to_list lits))
    in
    match lits with
    | [||] -> s.unsat <- true
    | [| l |] -> ignore (enqueue s l Decision)
    | [| a; b |] ->
      s.stats.clauses <- s.stats.clauses + 1;
      attach_binary s a b
    | lits ->
      s.stats.clauses <- s.stats.clauses + 1;
      let c = { lits; activity = 0.; learnt = false; deleted = false } in
      Vec.push s.clauses c;
      attach_clause s c
  end

(* Add a clause at decision level 0 (the current level must be 0). *)
let add_clause s lits =
  if not s.unsat then begin
    assert (decision_level s = 0);
    match lits with
    | [ a; b ] when a lxor b > 1 -> add_binary s a b
    | _ -> add_sorted s (Array.of_list (List.sort_uniq Int.compare lits))
  end

let add_clause_buf s buf =
  if not s.unsat then begin
    assert (decision_level s = 0);
    if Ivec.length buf = 2 && Ivec.get buf 0 lxor Ivec.get buf 1 > 1 then
      add_binary s (Ivec.get buf 0) (Ivec.get buf 1)
    else add_sorted s (Ivec.sort_uniq buf)
  end

(* Do the literals of [ls] have pairwise distinct variables?  [seen] is the
   scratch mark (all clear outside conflict analysis). *)
let distinct_vars s ls =
  let n = Array.length ls in
  let k = ref 0 in
  while !k < n && not s.seen.(ls.(!k) lsr 1) do
    s.seen.(ls.(!k) lsr 1) <- true;
    incr k
  done;
  for i = 0 to !k - 1 do
    s.seen.(ls.(i) lsr 1) <- false
  done;
  !k = n

let descending ws =
  let ok = ref true in
  for i = 1 to Array.length ws - 1 do
    if ws.(i) > ws.(i - 1) then ok := false
  done;
  !ok

(* [sum ws.(i) * ls.(i) <= cap] over literals of distinct variables, at
   level 0: false literals are dropped and true ones count against the cap
   from the start.  The arrays become the constraint's when they need no
   change. *)
let add_pb_distinct s ws ls cap =
  let n = Array.length ls in
  let nfalse = ref 0 and fixed_true = ref 0 in
  for i = 0 to n - 1 do
    match lit_value s ls.(i) with
    | 0 -> incr nfalse
    | 1 -> fixed_true := !fixed_true + ws.(i)
    | _ -> ()
  done;
  if cap < !fixed_true then s.unsat <- true
  else begin
    (* the literals kept, heaviest first (the propagation scan stops at the
       first weight within the slack); equal weights keep their order *)
    let pws, plits =
      if !nfalse = 0 && descending ws then (ws, ls)
      else begin
        let idx =
          Array.of_list (List.filter (fun i -> lit_value s ls.(i) <> 0) (List.init n Fun.id))
        in
        Array.stable_sort (fun i j -> Int.compare ws.(j) ws.(i)) idx;
        (Array.map (fun i -> ws.(i)) idx, Array.map (fun i -> ls.(i)) idx)
      end
    in
    (* initialize against the current (level-0) assignment; later updates
       happen in unchecked_enqueue/cancel_until *)
    let pb = { plits; pws; cap; sumtrue = !fixed_true } in
    Vec.push s.pbs pb;
    s.stats.pb_constraints <- s.stats.pb_constraints + 1;
    Array.iteri
      (fun i l -> push_lit s.pb_occs ~shared:no_occs ~dummy:dummy_occ l (pb, i))
      plits;
    (* forced units at level 0 *)
    Array.iteri
      (fun i l ->
        if lit_value s l = -1 && pb.pws.(i) > pb.cap - pb.sumtrue then
          ignore (enqueue s (l lxor 1) Decision))
      plits
  end

(* Merge repeated literals into one weight; a pair (l, ¬l) contributes its
   lesser weight in every assignment, which comes off the cap. *)
let add_pb_merged s ws ls cap =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i l -> Hashtbl.replace tbl l (ws.(i) + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
    ls;
  let base = ref 0 in
  let items = ref [] in
  Hashtbl.iter
    (fun l w ->
      if l land 1 = 0 && Hashtbl.mem tbl (l lxor 1) then begin
        (* handle the complementary pair once, from the positive side *)
        let w' = Hashtbl.find tbl (l lxor 1) in
        let m = min w w' in
        base := !base + m;
        if w > m then items := (w - m, l) :: !items
        else if w' > m then items := (w' - m, l lxor 1) :: !items
      end
      else if not (Hashtbl.mem tbl (l lxor 1)) then items := (w, l) :: !items)
    tbl;
  add_pb_distinct s
    (Array.of_list (List.map fst !items))
    (Array.of_list (List.map snd !items))
    (cap - !base)

let add_pb_le_arrays s ws ls cap =
  if not s.unsat then begin
    assert (decision_level s = 0);
    if Array.length ws <> Array.length ls then invalid_arg "add_pb_le: length mismatch";
    Array.iter (fun w -> if w <= 0 then invalid_arg "add_pb_le: weights must be > 0") ws;
    if distinct_vars s ls then add_pb_distinct s ws ls cap else add_pb_merged s ws ls cap
  end

let add_pb_le s wls cap =
  add_pb_le_arrays s
    (Array.of_list (List.map fst wls))
    (Array.of_list (List.map snd wls))
    cap

(* ---------------- propagation ---------------- *)

exception Conflict of int array

(* Conflict clause for a PB overflow: the negations of the constraint's true
   literals (the counter-propagation scheme of Sat4j). *)
let pb_conflict_clause s (pb : pb) =
  let acc = ref [] in
  Array.iter (fun l' -> if lit_value s l' = 1 then acc := (l' lxor 1) :: !acc) pb.plits;
  !acc

(* Reason clause for a literal propagated by a PB constraint, reconstructed
   lazily: exactly the literals that were true when the propagation fired,
   i.e. the constraint's true literals assigned earlier on the trail. *)
let pb_reason_clause s (pb : pb) plit =
  let pos = s.trail_pos.(plit lsr 1) in
  let acc = ref [ plit ] in
  Array.iter
    (fun l' ->
      if lit_value s l' = 1 && s.trail_pos.(l' lsr 1) < pos then
        acc := (l' lxor 1) :: !acc)
    pb.plits;
  Array.of_list (List.rev !acc)

(* Check/propagate PB constraints containing literal [l], which became true
   (the counter itself was already updated at enqueue time). *)
let propagate_pb s l =
  let occs = s.pb_occs.(l) in
  for oi = 0 to Vec.length occs - 1 do
    let pb, _ = Vec.get occs oi in
    if pb.sumtrue > pb.cap then
      (* conflict: the true literals overshoot the cap *)
      raise (Conflict (Array.of_list (pb_conflict_clause s pb)));
    (* propagate: any unassigned literal whose weight overflows must be false *)
    let slack = pb.cap - pb.sumtrue in
    let j = ref 0 in
    let n = Array.length pb.plits in
    while !j < n && pb.pws.(!j) > slack do
      let lj = pb.plits.(!j) in
      if lit_value s lj = -1 then begin
        s.stats.pb_propagations <- s.stats.pb_propagations + 1;
        unchecked_enqueue s (lj lxor 1) (RPb (pb, lj lxor 1))
      end;
      incr j
    done
  done

let propagate s =
  try
    while s.qhead < Ivec.length s.trail do
      let l = Ivec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.stats.propagations <- s.stats.propagations + 1;
      propagate_pb s l;
      let false_lit = l lxor 1 in
      (* binary clauses (false_lit ∨ o): o must hold *)
      let bs = s.bins.(false_lit) in
      for j = 0 to Ivec.length bs - 1 do
        let o = Ivec.get bs j in
        match lit_value s o with
        | 1 -> ()
        | 0 -> raise (Conflict [| o; false_lit |])
        | _ -> unchecked_enqueue s o (RBin false_lit)
      done;
      let ws = s.watches.(false_lit) in
      let n = Vec.length ws in
      let keep = ref 0 in
      let i = ref 0 in
      (try
         while !i < n do
           let c = Vec.get ws !i in
           incr i;
           if c.deleted then () (* drop lazily *)
           else begin
             (* ensure the false literal is at position 1 *)
             if c.lits.(0) = false_lit then begin
               c.lits.(0) <- c.lits.(1);
               c.lits.(1) <- false_lit
             end;
             if lit_value s c.lits.(0) = 1 then begin
               Vec.set ws !keep c;
               incr keep
             end
             else begin
               (* look for a new watch *)
               let len = Array.length c.lits in
               let found = ref false in
               let k = ref 2 in
               while (not !found) && !k < len do
                 if lit_value s c.lits.(!k) <> 0 then begin
                   c.lits.(1) <- c.lits.(!k);
                   c.lits.(!k) <- false_lit;
                   push_watch s c.lits.(1) c;
                   found := true
                 end;
                 incr k
               done;
               if not !found then begin
                 (* unit or conflict *)
                 Vec.set ws !keep c;
                 incr keep;
                 if lit_value s c.lits.(0) = 0 then begin
                   (* conflict: keep remaining watchers *)
                   while !i < n do
                     Vec.set ws !keep (Vec.get ws !i);
                     incr keep;
                     incr i
                   done;
                   Vec.shrink ws !keep;
                   raise (Conflict (Array.copy c.lits))
                 end
                 else unchecked_enqueue s c.lits.(0) (RClause c)
               end
             end
           end
         done;
         Vec.shrink ws !keep
       with Conflict _ as e -> raise e)
    done;
    None
  with Conflict lits -> Some lits

(* ---------------- conflict analysis (first UIP) ---------------- *)

let reason_lits s v =
  match s.reasons.(v) with
  | Decision -> [||]
  | RClause c ->
    cla_bump s c;
    c.lits
  | RBin l -> [| (2 * v) + 1 - s.values.(v); l |] (* v's true literal first *)
  | RPb (pb, plit) -> pb_reason_clause s pb plit

let analyze s confl =
  let learnt = Ivec.create () in
  Ivec.push learnt 0;
  (* placeholder for the asserting literal *)
  let counter = ref 0 in
  let p = ref (-1) in
  let trail_idx = ref (Ivec.length s.trail - 1) in
  let cur_level = decision_level s in
  Ivec.clear s.to_clear;
  let c = ref confl in
  let continue_ = ref true in
  while !continue_ do
    let lits = !c in
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length lits - 1 do
      let q = lits.(k) in
      let v = q lsr 1 in
      if (not s.seen.(v)) && s.levels.(v) > 0 then begin
        s.seen.(v) <- true;
        Ivec.push s.to_clear v;
        var_bump s v;
        if s.levels.(v) >= cur_level then incr counter
        else Ivec.push learnt q
      end
    done;
    (* select next literal to look at *)
    while not s.seen.(Ivec.get s.trail !trail_idx lsr 1) do
      decr trail_idx
    done;
    p := Ivec.get s.trail !trail_idx;
    decr trail_idx;
    s.seen.(!p lsr 1) <- false;
    decr counter;
    if !counter = 0 then continue_ := false
    else c := reason_lits s (!p lsr 1)
  done;
  Ivec.set learnt 0 (!p lxor 1);
  (* find backtrack level: max level among learnt[1..]; move it to index 1 *)
  let bt = ref 0 in
  if Ivec.length learnt > 1 then begin
    let max_i = ref 1 in
    for k = 2 to Ivec.length learnt - 1 do
      if s.levels.(Ivec.get learnt k lsr 1) > s.levels.(Ivec.get learnt !max_i lsr 1) then
        max_i := k
    done;
    let tmp = Ivec.get learnt 1 in
    Ivec.set learnt 1 (Ivec.get learnt !max_i);
    Ivec.set learnt !max_i tmp;
    bt := s.levels.(Ivec.get learnt 1 lsr 1)
  end;
  Ivec.iter (fun v -> s.seen.(v) <- false) s.to_clear;
  (Ivec.to_array learnt, !bt)

let record_learnt s lits =
  s.stats.learnt_literals <- s.stats.learnt_literals + Array.length lits;
  match Array.length lits with
  | 1 -> ignore (enqueue s lits.(0) Decision)
  | 2 ->
    attach_binary s lits.(0) lits.(1);
    unchecked_enqueue s lits.(0) (RBin lits.(1))
  | _ ->
    let c = { lits; activity = 0.; learnt = true; deleted = false } in
    Vec.push s.learnts c;
    cla_bump s c;
    attach_clause s c;
    unchecked_enqueue s lits.(0) (RClause c)

(* ---------------- learnt DB reduction ---------------- *)

let reduce_db s =
  let arr = Vec.to_array s.learnts in
  Array.sort (fun a b -> Float.compare a.activity b.activity) arr;
  let n = Array.length arr in
  let removed = ref 0 in
  Array.iteri
    (fun i c ->
      if (not c.deleted) && (not (locked s c)) && i < n / 2 then begin
        c.deleted <- true;
        incr removed
      end)
    arr;
  if !removed > 0 then begin
    (* rebuild learnts vec and purge watches lazily *)
    let live = Array.of_list (List.filter (fun c -> not c.deleted) (Array.to_list arr)) in
    Vec.clear s.learnts;
    Array.iter (Vec.push s.learnts) live;
    Array.iter
      (fun ws ->
        let keep = ref 0 in
        for i = 0 to Vec.length ws - 1 do
          let c = Vec.get ws i in
          if not c.deleted then begin
            Vec.set ws !keep c;
            incr keep
          end
        done;
        Vec.shrink ws !keep)
      s.watches
  end

(* ---------------- Luby restarts ---------------- *)

(* Luby sequence 1,1,2,1,1,2,4,... ([i] is 0-based). *)
let rec luby_rec i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do
    incr k
  done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby_rec (i - (1 lsl (!k - 1)) + 1)

let luby i = luby_rec (i + 1)

(* Which assumptions imply the current conflict?  Walk the implication graph
   backwards from the conflicting literals; decisions reached are assumptions
   (callers only invoke this when the conflict is at an assumption level). *)
let analyze_final s confl =
  Ivec.clear s.to_clear;
  let mark q =
    let v = q lsr 1 in
    if s.levels.(v) > 0 && not s.seen.(v) then begin
      s.seen.(v) <- true;
      Ivec.push s.to_clear v
    end
  in
  Array.iter mark confl;
  let core = ref [] in
  for i = Ivec.length s.trail - 1 downto 0 do
    let l = Ivec.get s.trail i in
    let v = l lsr 1 in
    if s.seen.(v) then begin
      (match s.reasons.(v) with
      | Decision -> core := l :: !core
      | RClause c -> Array.iteri (fun k q -> if k > 0 then mark q) c.lits
      | RBin q -> mark q
      | RPb (pb, plit) ->
        let arr = pb_reason_clause s pb plit in
        Array.iteri (fun k q -> if k > 0 then mark q) arr);
      s.seen.(v) <- false
    end
  done;
  Ivec.iter (fun v -> s.seen.(v) <- false) s.to_clear;
  !core

(* ---------------- search ---------------- *)

type result = Sat | Unsat

(* The preferred list gives way to VSIDS with phase saving for good once
   the solver has met this many conflicts. *)
let preferred_conflicts = 16

(* The first unassigned preferred literal, or [-1]. *)
let next_preferred s =
  let n = Array.length s.preferred in
  while s.pref_next < n && lit_value s s.preferred.(s.pref_next) >= 0 do
    s.pref_next <- s.pref_next + 1
  done;
  if s.pref_next < n then s.preferred.(s.pref_next) else -1

let pick_branch_var s =
  let rec go () =
    if s.heap_len = 0 then -1
    else
      let v = heap_pop s in
      if s.values.(v) = -1 then v else go ()
  in
  go ()

let solve ?(assumptions = []) ?(on_model = fun _ -> `Accept) ?(budget = Budget.unlimited)
    s =
  if s.unsat then Unsat
  else begin
    let assumptions = Array.of_list assumptions in
    let result = ref None in
    let conflicts_until_restart = ref (s.params.restart_base * luby s.stats.restarts) in
    (match propagate s with
    | Some _ -> begin
      s.unsat <- true;
      result := Some Unsat
    end
    | None -> ());
    try
    while !result = None do
      match propagate s with
      | Some confl ->
        s.stats.conflicts <- s.stats.conflicts + 1;
        if s.stats.conflicts >= preferred_conflicts then s.preferred <- [||];
        decr conflicts_until_restart;
        if decision_level s = 0 then begin
          s.unsat <- true;
          s.core <- [];
          result := Some Unsat
        end
        else if decision_level s <= Array.length assumptions then begin
          (* conflict under assumptions: extract the core *)
          s.core <- analyze_final s confl;
          result := Some Unsat
        end
        else begin
          (* budget consultation: terminal conflicts above conclude instead
             of interrupting, so only the learning path ticks *)
          Budget.tick_conflict budget;
          let learnt, bt = analyze s confl in
          (* backtrack to the asserting level (assumptions below are simply
             re-decided); raising bt instead would plant unit learnts as
             pseudo-decisions and corrupt core extraction *)
          cancel_until s bt;
          record_learnt s learnt;
          var_decay s;
          cla_decay s;
          if float_of_int (Vec.length s.learnts) > s.max_learnts then begin
            reduce_db s;
            s.max_learnts <- s.max_learnts *. s.params.learnt_inc
          end
        end
      | None ->
        (* covers decisions and model-hook refinement rounds, so deadlines
           and cancellation fire even in conflict-free search *)
        Budget.poll budget;
        if !conflicts_until_restart <= 0 && decision_level s > Array.length assumptions
        then begin
          s.stats.restarts <- s.stats.restarts + 1;
          conflicts_until_restart := s.params.restart_base * luby s.stats.restarts;
          cancel_until s (Array.length assumptions)
        end
        else if decision_level s < Array.length assumptions then begin
          (* decide the next assumption *)
          let a = assumptions.(decision_level s) in
          match lit_value s a with
          | 1 -> Ivec.push s.trail_lim (Ivec.length s.trail)
          | 0 ->
            (* the assumption is already refuted by earlier ones *)
            s.core <- a :: analyze_final s [| a |];
            result := Some Unsat
          | _ ->
            Ivec.push s.trail_lim (Ivec.length s.trail);
            unchecked_enqueue s a Decision
        end
        else begin
          let p = next_preferred s in
          let v = if p >= 0 then p lsr 1 else pick_branch_var s in
          if v < 0 then begin
            (* total assignment: consult the model hook *)
            match on_model s with
            | `Accept ->
              s.model <- Array.sub s.values 0 s.nvars;
              s.has_model <- true;
              result := Some Sat
            | `Refine clauses ->
              cancel_until s 0;
              List.iter (add_clause s) clauses;
              if s.unsat then result := Some Unsat
          end
          else begin
            s.stats.decisions <- s.stats.decisions + 1;
            Ivec.push s.trail_lim (Ivec.length s.trail);
            let l = if p >= 0 then p else if s.phases.(v) then Lit.pos v else Lit.neg v in
            unchecked_enqueue s l Decision
          end
        end
    done;
    cancel_until s 0;
    Option.get !result
    with Budget.Exhausted _ as e ->
      (* leave the solver reusable: retract the partial assignment so the
         trail, PB counters and heap are back to their level-0 state *)
      cancel_until s 0;
      raise e
  end

let no_model () = raise (Solver_error.Error Solver_error.No_model)

let value s l =
  let v = l lsr 1 in
  if (not s.has_model) || v >= Array.length s.model then no_model ();
  s.model.(v) lxor (l land 1) = 1

let model_true_vars s =
  if not s.has_model then no_model ();
  let acc = ref [] in
  Array.iteri (fun v x -> if x = 1 then acc := v :: !acc) s.model;
  List.rev !acc

let current_lit_value s l = lit_value s l

let last_core s = s.core

let solve_with_assumptions ?on_model ?budget s assumptions =
  solve ~assumptions ?on_model ?budget s

(* Deletion-based core minimization: test the core with each literal removed
   in turn.  Unsat without [l] proves [l] redundant — and the refit core of
   that solve may drop further literals for free.  Sat without [l] proves [l]
   necessary, permanently: the candidate set only shrinks from here on, and a
   subset of a satisfiable assumption set stays satisfiable.  One pass
   therefore yields a minimal unsatisfiable subset. *)
let shrink_core ?on_model ?(budget = Budget.unlimited) s core =
  let necessary = ref [] in
  (* reverse order; proved needed *)
  let pending = ref core in
  let minimal = ref true in
  (try
     let rec go () =
       match !pending with
       | [] -> ()
       | l :: rest ->
         Budget.tick_opt_step budget;
         (match solve ?on_model ~budget s ~assumptions:(List.rev_append !necessary rest) with
         | Unsat ->
           let c = s.core in
           necessary := List.filter (fun x -> List.mem x c) !necessary;
           pending := List.filter (fun x -> List.mem x c) rest
         | Sat ->
           necessary := l :: !necessary;
           pending := rest);
         go ()
     in
     go ()
   with Budget.Exhausted _ -> minimal := false);
  (List.rev_append !necessary !pending, !minimal)

let set_preferred s lits =
  if s.stats.conflicts < preferred_conflicts then begin
    s.preferred <- Array.of_list lits;
    s.pref_next <- 0
  end
