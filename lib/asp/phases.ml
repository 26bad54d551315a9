type t = {
  setup_time : float;
  load_time : float;
  ground_time : float;
  solve_time : float;
}

let zero =
  {
    setup_time = 0.;
    load_time = 0.;
    ground_time = 0.;
    solve_time = 0.;
  }

let total p = p.setup_time +. p.load_time +. p.ground_time +. p.solve_time

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let to_line p =
  Printf.sprintf
    "Phases: setup %.3fs, load %.3fs, ground %.3fs, solve %.3fs (total %.3fs)"
    p.setup_time p.load_time p.ground_time p.solve_time (total p)

type steps = {
  translate_time : float;
  search_time : float;
  optimize_time : float;
  verify_time : float;
}

let no_steps =
  { translate_time = 0.; search_time = 0.; optimize_time = 0.; verify_time = 0. }

let steps_line s =
  Printf.sprintf "Solve steps: translate %.3fs, search %.3fs, optimize %.3fs, verify %.3fs"
    s.translate_time s.search_time s.optimize_time s.verify_time
