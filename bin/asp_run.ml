(* asp_run: a clingo-like command-line front end for the ASP engine.

   Reads a logic program from files (or stdin with "-"), prints the optimal
   stable model, its cost vector and solver statistics. *)

open Cmdliner

let read_file = function
  | "-" -> In_channel.input_all In_channel.stdin
  | path -> In_channel.with_open_text path In_channel.input_all

let print_time (p : Asp.Phases.t) =
  Printf.printf "Time: ground %.3fs, solve %.3fs\n" p.Asp.Phases.ground_time
    p.Asp.Phases.solve_time

let run files preset show_stats nmodels timeout jobs explain no_verify =
  let preset =
    match Asp.Config.preset_of_name preset with
    | Some p -> p
    | None ->
      Printf.eprintf "unknown preset %s\n" preset;
      exit 2
  in
  let limits =
    {
      Asp.Budget.no_limits with
      Asp.Budget.wall = (if timeout > 0. then Some timeout else None);
    }
  in
  let config = Asp.Config.make ~preset ~limits ~verify:(not no_verify) () in
  (* first ^C cancels the solve cooperatively (degraded result if a model
     is already in hand); a second one falls back to the default and kills *)
  let tok = Asp.Budget.token () in
  Sys.set_signal Sys.sigint
    (Sys.Signal_handle
       (fun _ ->
         if Asp.Budget.is_cancelled tok then exit 130;
         Asp.Budget.cancel tok));
  let src = String.concat "\n" (List.map read_file files) in
  (* the round lists up to N models itself, its own model first, under its
     budget and ^C *)
  let enumerate = if nmodels = 0 then max_int else nmodels in
  match
    Asp.Solve.solve_program ~config ~cancel:tok ~jobs ~enumerate (Asp.Parser.parse src)
  with
  | exception Asp.Solver_error.Error e ->
    Format.eprintf "error: %a@." Asp.Solver_error.pp e;
    exit 2
  | Asp.Solve.Interrupted { info; phases } ->
    Format.printf "INTERRUPTED: %a@." Asp.Budget.pp_info info;
    if show_stats then print_time phases;
    exit 3
  | Asp.Solve.Unsat { phases; core } ->
    print_endline "UNSATISFIABLE";
    if explain then begin
      (* a minimal core of constraint instances, each tagged with its
         source line *)
      match Lazy.force core with
      | Asp.Explain.Unsat_core { causes; minimal } ->
        Printf.printf "%s unsat core (%d constraint instance%s):\n"
          (if minimal then "minimal" else "non-minimal")
          (List.length causes)
          (if List.length causes = 1 then "" else "s");
        List.iter (fun c -> Format.printf "  %a@." Asp.Explain.pp_cause c) causes
      | Asp.Explain.Satisfiable ->
        print_endline "explain: the re-solve found the program satisfiable"
      | Asp.Explain.Exhausted info ->
        Format.printf "explain: budget exhausted (%a)@." Asp.Budget.pp_info info
    end;
    if show_stats then print_time phases;
    exit 1
  | Asp.Solve.Sat o ->
    List.iteri
      (fun i m ->
        Printf.printf "Answer: %d\n" (i + 1);
        List.iter (fun a -> Format.printf "%a " Asp.Gatom.pp a) m;
        Format.printf "@.")
      o.Asp.Solve.models;
    let st = o.Asp.Solve.stats in
    if st.Asp.Solve.costs <> [] then begin
      print_string "Optimization:";
      List.iter (fun (p, v) -> Printf.printf " %d@%d" v p) st.Asp.Solve.costs;
      (match st.Asp.Solve.quality with
      | `Degraded _ -> print_string "  (suboptimal: budget expired mid-optimization)"
      | `Optimal -> ());
      print_newline ()
    end;
    print_endline "SATISFIABLE";
    if show_stats then begin
      let s = st.Asp.Solve.sat_stats and g = st.Asp.Solve.ground_stats in
      Printf.printf "Atoms      : %d possible\n" g.Asp.Grounder.possible_atoms;
      Printf.printf "Rules      : %d ground\n" g.Asp.Grounder.ground_rules;
      Printf.printf "Models     : %d enumerated\n" o.Asp.Solve.models_enumerated;
      Printf.printf "Conflicts  : %d\n" s.Asp.Sat.conflicts;
      Printf.printf "Decisions  : %d\n" s.Asp.Sat.decisions;
      Printf.printf "Restarts   : %d\n" s.Asp.Sat.restarts;
      Printf.printf "Time       : ground %.3fs, solve %.3fs\n"
        st.Asp.Solve.phases.Asp.Phases.ground_time
        st.Asp.Solve.phases.Asp.Phases.solve_time
    end

let files =
  Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc:"Logic program files ('-' for stdin).")

let preset =
  Arg.(value & opt string "tweety" & info [ "preset"; "c" ] ~docv:"PRESET"
         ~doc:"Solver configuration preset (frumpy|jumpy|tweety|trendy|crafty|handy).")

let stats = Arg.(value & flag & info [ "stats" ] ~doc:"Print solver statistics.")

let nmodels =
  Arg.(value & opt int 1 & info [ "models"; "n" ] ~docv:"N"
         ~doc:"Enumerate up to N (optimal) stable models (0 = all).")

let timeout =
  Arg.(value & opt float 0. & info [ "timeout"; "t" ] ~docv:"SECS"
         ~doc:"Wall-clock budget in seconds (0 = none); on expiry the best model found so far is reported as suboptimal.")

let jobs =
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
         ~doc:"Race N diverse solver configurations on N domains over the shared ground program; the first proof of optimality (or unsatisfiability) wins.")

let explain =
  Arg.(value & flag & info [ "explain" ]
         ~doc:"On UNSAT, extract a minimal core of integrity-constraint instances with their source lines (assumption-based solving plus deletion shrinking).")

let no_verify =
  Arg.(value & flag & info [ "no-verify" ]
         ~doc:"Skip the independent re-verification (stable-model, support and cost checks) of reported models.")

let cmd =
  let doc = "ground and solve an answer set program" in
  Cmd.v (Cmd.info "asp_run" ~doc)
    Term.(const run $ files $ preset $ stats $ nmodels $ timeout $ jobs
          $ explain $ no_verify)

let () = exit (Cmd.eval cmd)
