type span = Setup | Load | Seed | Close | Emit | Translate | Search | Optimize | Verify

type t = {
  setup_time : float;
  load_time : float;
  ground_time : float;
  solve_time : float;
  seed_time : float;
  close_time : float;
  emit_time : float;
  translate_time : float;
  search_time : float;
  optimize_time : float;
  verify_time : float;
}

let zero =
  { setup_time = 0.; load_time = 0.; ground_time = 0.; solve_time = 0.; seed_time = 0.;
    close_time = 0.; emit_time = 0.; translate_time = 0.; search_time = 0.;
    optimize_time = 0.; verify_time = 0. }

(* A step's time counts twice: as the step's own and as part of its
   phase's, so the phase is the wall time from its first step's entry to
   its last step's exit. *)
let charge p span dt =
  let d = ( +. ) dt in
  match span with
  | Setup -> { p with setup_time = d p.setup_time }
  | Load -> { p with load_time = d p.load_time }
  | Seed -> { p with ground_time = d p.ground_time; seed_time = d p.seed_time }
  | Close -> { p with ground_time = d p.ground_time; close_time = d p.close_time }
  | Emit -> { p with ground_time = d p.ground_time; emit_time = d p.emit_time }
  | Translate -> { p with solve_time = d p.solve_time; translate_time = d p.translate_time }
  | Search -> { p with solve_time = d p.solve_time; search_time = d p.search_time }
  | Optimize -> { p with solve_time = d p.solve_time; optimize_time = d p.optimize_time }
  | Verify -> { p with solve_time = d p.solve_time; verify_time = d p.verify_time }

let total p = p.setup_time +. p.load_time +. p.ground_time +. p.solve_time

let to_line p =
  Printf.sprintf
    "Phases: setup %.3fs, load %.3fs, ground %.3fs, solve %.3fs (total %.3fs)"
    p.setup_time p.load_time p.ground_time p.solve_time (total p)
