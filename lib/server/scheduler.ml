type 'a entry = {
  key : string;
  future : 'a Asp.Pool.future;
  cancel : Asp.Budget.cancel_token;
  mutable waiters : int;
  notify : (unit -> unit) list ref;  (* one per waiter, run on completion *)
  mutable counted : bool;  (* bumped the completed counter already *)
}

type 'a ticket = { entry : 'a entry; mutable live : bool }

type 'a t = {
  pool : Asp.Pool.t;
  max_pending : int;
  mutex : Mutex.t;
  inflight : (string, 'a entry) Hashtbl.t;
  mutable retired : 'a entry list;
      (* cancelled flights still running: no request may join them, but
         they still occupy the pool *)
  mutable submitted : int;
  mutable deduped : int;
  mutable shed : int;
  mutable n_cancelled : int;
  mutable completed : int;
}

type stats = {
  submitted : int;
  deduped : int;
  shed : int;
  cancelled : int;
  completed : int;
  pending : int;
}

let create ~pool ~max_pending =
  {
    pool;
    max_pending = max 1 max_pending;
    mutex = Mutex.create ();
    inflight = Hashtbl.create 16;
    retired = [];
    submitted = 0;
    deduped = 0;
    shed = 0;
    n_cancelled = 0;
    completed = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let count_completed (t : _ t) e =
  if not e.counted then begin
    e.counted <- true;
    t.completed <- t.completed + 1
  end

(* Call with the lock held.  Finished entries leave the table and the
   retired list (tickets keep their own reference), so what remains is the
   pending work, and a key can be solved afresh once its previous flight
   landed and was reaped. *)
let reap t =
  let done_keys =
    Hashtbl.fold
      (fun k e acc -> if Asp.Pool.is_done e.future then (k, e) :: acc else acc)
      t.inflight []
  in
  List.iter
    (fun (k, e) ->
      Hashtbl.remove t.inflight k;
      count_completed t e)
    done_keys;
  let finished, running = List.partition (fun e -> Asp.Pool.is_done e.future) t.retired in
  List.iter (count_completed t) finished;
  t.retired <- running

let pending (t : _ t) = Hashtbl.length t.inflight + List.length t.retired

let submit (t : _ t) ~key ?(notify = ignore) job =
  let landed = ref false in
  let join e =
    e.waiters <- e.waiters + 1;
    if not !landed then e.notify := notify :: !(e.notify);
    t.deduped <- t.deduped + 1;
    `Accepted { entry = e; live = true }
  in
  let accepted =
    with_lock t (fun () ->
        match Hashtbl.find_opt t.inflight key with
        | Some e when Asp.Pool.is_done e.future && e.waiters > 0 ->
          (* The flight landed and a live ticket will still collect it (a
             batch naming one request twice gets here when the first solve
             ends while it admits the rest): share it.  An abandoned flight
             is reaped instead, since its result may be cut short by the
             earlier request's deadline.  [on_done] may already have read
             [notify], so this waiter is woken below instead. *)
          landed := true;
          join e
        | _ -> (
          reap t;
          match Hashtbl.find_opt t.inflight key with
          | Some e -> join e
          | None ->
            if pending t >= t.max_pending then begin
              t.shed <- t.shed + 1;
              `Overloaded
            end
            else begin
              let cancel = Asp.Budget.token () in
              let notify = ref [ notify ] in
              (* Under the lock, a join either lands before the job finished
                 (its waiter is in [notify] by the time [on_done] reads it)
                 or finds the entry already done. *)
              let on_done () = List.iter (fun f -> f ()) (with_lock t (fun () -> !notify)) in
              let future = Asp.Pool.submit ~on_done t.pool (fun () -> job ~cancel) in
              let e =
                { key; future; cancel; waiters = 1; notify; counted = false }
              in
              Hashtbl.replace t.inflight key e;
              t.submitted <- t.submitted + 1;
              `Accepted { entry = e; live = true }
            end))
  in
  if !landed then notify ();
  accepted

let poll t ticket =
  let e = ticket.entry in
  if not (Asp.Pool.is_done e.future) then `Pending
  else begin
    with_lock t (fun () ->
        Hashtbl.remove t.inflight e.key;
        count_completed t e);
    `Done (try Ok (Asp.Pool.await e.future) with exn -> Error exn)
  end

let abandon t ticket =
  if ticket.live then begin
    ticket.live <- false;
    let e = ticket.entry in
    with_lock t (fun () ->
        e.waiters <- e.waiters - 1;
        if e.waiters <= 0 && not (Asp.Pool.is_done e.future) then begin
          (* Retire the flight: its solve unwinds at its next budget tick
             and reports [Cancelled], which no later request for the key
             may receive, so that request starts a fresh flight.  Nobody
             can join a retired flight, so this happens once. *)
          Asp.Budget.cancel e.cancel;
          t.n_cancelled <- t.n_cancelled + 1;
          Hashtbl.remove t.inflight e.key;
          t.retired <- e :: t.retired
        end)
  end

let stats t =
  with_lock t (fun () ->
      reap t;
      {
        submitted = t.submitted;
        deduped = t.deduped;
        shed = t.shed;
        cancelled = t.n_cancelled;
        completed = t.completed;
        pending = pending t;
      })
