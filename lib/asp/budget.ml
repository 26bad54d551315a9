type phase = Ground | Search | Optimize | Verify

type reason =
  | Deadline
  | Conflict_limit
  | Instance_limit
  | Cancelled
  | Injected

type progress = { conflicts : int; instances : int; opt_steps : int }

type info = { phase : phase; reason : reason; progress : progress }

exception Exhausted of info

let phase_name = function
  | Ground -> "grounding"
  | Search -> "search"
  | Optimize -> "optimization"
  | Verify -> "verification"

let reason_name = function
  | Deadline -> "deadline"
  | Conflict_limit -> "conflict limit"
  | Instance_limit -> "instance limit"
  | Cancelled -> "cancelled"
  | Injected -> "injected fault"

let pp_info ppf i =
  Format.fprintf ppf
    "%s during %s (after %d conflicts, %d ground instances, %d optimization steps)"
    (reason_name i.reason) (phase_name i.phase) i.progress.conflicts
    i.progress.instances i.progress.opt_steps

type limits = {
  wall : float option;
  conflicts : int option;
  instances : int option;
}

let no_limits = { wall = None; conflicts = None; instances = None }

let double l =
  {
    wall = Option.map (fun w -> 2. *. w) l.wall;
    conflicts = Option.map (fun c -> 2 * c) l.conflicts;
    instances = Option.map (fun i -> 2 * i) l.instances;
  }

(* Tokens form a tree: cancelling a parent cancels every descendant, while a
   child can be cancelled on its own.  The flag is atomic because racers on
   other domains poll it; [cancel] stays async-signal-safe. *)
type cancel_token = { flag : bool Atomic.t; parent : cancel_token option }

let token () = { flag = Atomic.make false; parent = None }
let child_token parent = { flag = Atomic.make false; parent = Some parent }
let cancel t = Atomic.set t.flag true

let rec is_cancelled t =
  Atomic.get t.flag
  || (match t.parent with Some p -> is_cancelled p | None -> false)

type event = Conflict | Instance | Opt_step | Verify_step

(* The round's timing record: the span the pipeline is in, when it entered
   it, and the time charged so far. *)
type clock = {
  mutable span : Phases.span;
  mutable since : float;
  mutable spans : Phases.t;
}

type t = {
  deadline : float option;  (* absolute, seconds since the epoch *)
  max_conflicts : int;  (* max_int when unbounded *)
  max_instances : int;
  cancel : cancel_token option;
  mutable hook : (event -> bool) option;
  mutable phase : phase;
  mutable conflicts : int;
  mutable instances : int;
  mutable opt_steps : int;
  mutable ticks : int;  (* all events, for periodic deadline checks *)
  mutable tripped : info option;
  clock : clock option;  (* [None] only on {!unlimited} *)
}

let start ?cancel l =
  let now = Unix.gettimeofday () in
  {
    deadline = Option.map (fun w -> now +. w) l.wall;
    max_conflicts = Option.value ~default:max_int l.conflicts;
    max_instances = Option.value ~default:max_int l.instances;
    cancel;
    hook = None;
    phase = Ground;
    conflicts = 0;
    instances = 0;
    opt_steps = 0;
    ticks = 0;
    tripped = None;
    clock = Some { span = Phases.Setup; since = now; spans = Phases.zero };
  }

(* shared by every domain: it records no time *)
let unlimited = { (start no_limits) with clock = None }

let cancel_token_of b = b.cancel

(* A racer's budget: same absolute deadline and event limits as the parent,
   fresh counters (each domain ticks its own), optionally a different cancel
   token (typically a {!child_token} of the parent's so the race can be
   cancelled without touching the parent).  The fault hook is deliberately
   not copied: hooks count events of a single sequential solve. *)
let sibling ?cancel b =
  {
    (start no_limits) with
    deadline = b.deadline;
    max_conflicts = b.max_conflicts;
    max_instances = b.max_instances;
    cancel = (match cancel with Some _ as c -> c | None -> b.cancel);
  }

let phase_of_span = function
  | Phases.Setup | Load | Seed | Close | Emit -> Ground
  | Translate | Search -> Search
  | Optimize -> Optimize
  | Verify -> Verify

(* The pipeline's only clock: charge the open span up to now. *)
let lap c =
  let now = Unix.gettimeofday () in
  c.spans <- Phases.charge c.spans c.span (now -. c.since);
  c.since <- now

let enter b span =
  match b.clock with
  | None -> ()
  | Some c ->
    lap c;
    c.span <- span;
    b.phase <- phase_of_span span

let phases b =
  match b.clock with
  | None -> Phases.zero
  | Some c ->
    lap c;
    c.spans

let progress b =
  { conflicts = b.conflicts; instances = b.instances; opt_steps = b.opt_steps }

let set_hook b h = b.hook <- Some h

let trip b reason =
  let i = { phase = b.phase; reason; progress = progress b } in
  b.tripped <- Some i;
  raise (Exhausted i)

(* Once exhausted, stay exhausted: a caller that catches {!Exhausted} to
   salvage a degraded result must not be able to keep searching. *)
let check_tripped b =
  match b.tripped with Some i -> raise (Exhausted i) | None -> ()

let check_cancel b =
  match b.cancel with Some c when is_cancelled c -> trip b Cancelled | _ -> ()

let check_deadline b =
  match b.deadline with
  | Some d when Unix.gettimeofday () > d -> trip b Deadline
  | _ -> ()

(* The deadline involves a syscall: only probe it every 32 events (grounding
   ticks once per instance on a hot path). *)
let maybe_deadline b =
  b.ticks <- b.ticks + 1;
  if b.ticks land 31 = 0 then check_deadline b

let fire_hook b ev =
  match b.hook with Some h when h ev -> trip b Injected | _ -> ()

let tick_conflict b =
  check_tripped b;
  b.conflicts <- b.conflicts + 1;
  fire_hook b Conflict;
  check_cancel b;
  if b.conflicts > b.max_conflicts then trip b Conflict_limit;
  maybe_deadline b

let tick_instance b =
  check_tripped b;
  b.instances <- b.instances + 1;
  fire_hook b Instance;
  check_cancel b;
  if b.instances > b.max_instances then trip b Instance_limit;
  maybe_deadline b

let tick_opt_step b =
  check_tripped b;
  b.opt_steps <- b.opt_steps + 1;
  fire_hook b Opt_step;
  check_cancel b;
  (* opt steps have no dedicated limit: each step's inner solve is bounded
     by the conflict budget; check the deadline eagerly instead, steps are
     coarse *)
  check_deadline b

let tick_verify_step b =
  check_tripped b;
  fire_hook b Verify_step;
  check_cancel b;
  (* verification is a single bounded pass over the ground program: no
     dedicated limit, and no progress counter of its own — the event exists
     so fault injection and cancellation reach the checker *)
  maybe_deadline b

let poll b =
  check_tripped b;
  check_cancel b;
  maybe_deadline b
