type state = {
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  nonempty : Condition.t;  (* signalled on push and on shutdown *)
  mutable closed : bool;
}

type t = { st : state; mutable workers : unit Domain.t array }

type 'a cell = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  fmutex : Mutex.t;
  fdone : Condition.t;
  mutable cell : 'a cell;
}

let rec worker st =
  Mutex.lock st.mutex;
  while Queue.is_empty st.queue && not st.closed do
    Condition.wait st.nonempty st.mutex
  done;
  match Queue.take_opt st.queue with
  | None ->
    (* closed and drained *)
    Mutex.unlock st.mutex
  | Some job ->
    Mutex.unlock st.mutex;
    job ();
    worker st

let create ~domains =
  if domains < 1 then invalid_arg "Pool.create: need at least one domain";
  let st =
    {
      queue = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      closed = false;
    }
  in
  let workers = Array.init domains (fun _ -> Domain.spawn (fun () -> worker st)) in
  { st; workers }

let size t = Array.length t.workers

let default_size () = max 1 (Domain.recommended_domain_count () - 1)

let submit ?(on_done = ignore) t f =
  let fut = { fmutex = Mutex.create (); fdone = Condition.create (); cell = Pending } in
  let job () =
    let outcome =
      match f () with
      | v -> Done v
      | exception e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.fmutex;
    fut.cell <- outcome;
    Condition.broadcast fut.fdone;
    Mutex.unlock fut.fmutex;
    try on_done () with _ -> ()
  in
  let st = t.st in
  Mutex.lock st.mutex;
  if st.closed then begin
    Mutex.unlock st.mutex;
    invalid_arg "Pool.submit: pool is shut down"
  end;
  Queue.push job st.queue;
  Condition.signal st.nonempty;
  Mutex.unlock st.mutex;
  fut

let is_done fut =
  Mutex.lock fut.fmutex;
  let c = fut.cell in
  Mutex.unlock fut.fmutex;
  match c with Pending -> false | Done _ | Failed _ -> true

let await fut =
  Mutex.lock fut.fmutex;
  let rec wait () =
    match fut.cell with
    | Pending ->
      Condition.wait fut.fdone fut.fmutex;
      wait ()
    | (Done _ | Failed _) as c -> c
  in
  let c = wait () in
  Mutex.unlock fut.fmutex;
  match c with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let map_list t f xs =
  let futs = List.map (fun x -> submit t (fun () -> f x)) xs in
  (* collect everything before raising so no job is left running behind the
     caller's back *)
  let outcomes =
    List.map
      (fun fu ->
        match await fu with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
      futs
  in
  List.map
    (function Ok v -> v | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
    outcomes

let shutdown t =
  let st = t.st in
  Mutex.lock st.mutex;
  let was_closed = st.closed in
  st.closed <- true;
  Condition.broadcast st.nonempty;
  Mutex.unlock st.mutex;
  if not was_closed then Array.iter Domain.join t.workers;
  t.workers <- [||]

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
