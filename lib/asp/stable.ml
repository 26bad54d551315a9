(* Unfounded-set detection on total assignments (assat-style loop formulas). *)

type pending = {
  p_atom : int;  (** supported atom *)
  mutable missing : int;  (** positive body atoms not yet founded *)
}

let check (t : Translate.t) =
  let store = t.Translate.ground.Ground.store in
  let natoms = Gatom.Store.count store in
  let sat = t.Translate.sat in
  let truth id =
    let l = t.Translate.lit_of_atom.(id) in
    l = Translate.always || (l <> Translate.never && Sat.current_lit_value sat l = 1)
  in
  let support_body_holds r =
    match Translate.support_lit t r with
    | None -> true
    | Some l -> Sat.current_lit_value sat l = 1
  in
  let founded = Array.make natoms false in
  let queue = Queue.create () in
  let found id =
    if not founded.(id) then begin
      founded.(id) <- true;
      Queue.push id queue
    end
  in
  (* counter instances for the supports of true atoms, indexed by the
     positive body atoms they wait for *)
  let waiters = Array.make natoms ([] : pending list) in
  for id = 0 to natoms - 1 do
    if Gatom.Store.is_fact store id then found id
    else if truth id then
      List.iter
        (fun r ->
          if support_body_holds r then begin
            let relevant =
              Array.to_list (Translate.support_pos t r)
              |> List.filter (fun p -> not (Gatom.Store.is_fact store p))
            in
            match relevant with
            | [] -> found id
            | _ ->
              let inst = { p_atom = id; missing = List.length relevant } in
              List.iter (fun p -> waiters.(p) <- inst :: waiters.(p)) relevant
          end)
        t.Translate.supports.(id)
  done;
  (* propagate foundedness *)
  while not (Queue.is_empty queue) do
    let p = Queue.pop queue in
    List.iter
      (fun inst ->
        inst.missing <- inst.missing - 1;
        if inst.missing = 0 then found inst.p_atom)
      waiters.(p);
    waiters.(p) <- []
  done;
  (* unfounded set = true atoms that are not founded *)
  let unfounded = ref [] in
  for id = 0 to natoms - 1 do
    if (not (Gatom.Store.is_fact store id)) && truth id && not founded.(id) then
      unfounded := id :: !unfounded
  done;
  match !unfounded with
  | [] -> `Accept
  | u ->
    let in_u = Array.make natoms false in
    List.iter (fun id -> in_u.(id) <- true) u;
    (* External supports of the *whole* unfounded set: bodies of rules whose
       head lies in U but whose positive body does not touch U.  In any
       stable model, a true atom of U is derived by a chain that must enter
       U from outside through one of these (the per-atom restriction would
       be unsound: the chain may enter via a different atom of U). *)
    let external_supports =
      List.concat_map
        (fun id ->
          List.filter_map
            (fun r ->
              if Array.exists (fun p -> in_u.(p)) (Translate.support_pos t r) then None
              else Translate.support_lit t r)
            t.Translate.supports.(id))
        u
      |> List.sort_uniq Int.compare
    in
    (* an atom of [U] is read through its literal, which it may share with
       its body or another atom; it is a literal, not a marker: atoms fixed
       true hold by facts alone, so they are founded *)
    let clauses =
      List.map
        (fun id -> Sat.Lit.negate t.Translate.lit_of_atom.(id) :: external_supports)
        u
    in
    `Refine clauses

let hook (t : Translate.t) (_sat : Sat.t) =
  if t.Translate.tight then `Accept else check t
