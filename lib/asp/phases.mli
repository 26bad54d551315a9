(** Per-solve phase timings, shared by both frontends' pipelines.

    The paper's instrumentation splits a solve into {e setup} (fact
    generation), {e load} (parsing the logic program), {e ground} and
    {e solve} (translation, search, optimization and verification). *)

type t = {
  setup_time : float;
  load_time : float;
  ground_time : float;
  solve_time : float;
}

val zero : t

val total : t -> float
(** [setup + load + ground + solve]. *)

val time : (unit -> 'a) -> 'a * float
(** Run the thunk and return its result with the wall-clock seconds it
    took. *)

val to_line : t -> string
(** The [Phases:] line of [spack_solve --stats] and [cudf_solve --stats],
    without a newline.  perfbench parses it: keep it byte-stable. *)

(** The steps of the solve phase, as the run that produced the answer
    took them (the winning racer's under a portfolio race). *)
type steps = {
  translate_time : float;  (** completion into the solver ({!Translate}) *)
  search_time : float;  (** the first search, up to the first stable model *)
  optimize_time : float;
      (** the minimize levels' indicators, built before the first search,
          plus the descent after it *)
  verify_time : float;  (** the independent re-check ({!Verify}) *)
}

val no_steps : steps

val steps_line : steps -> string
(** ["Solve steps: translate 0.021s, search 0.012s, optimize 0.015s,
    verify 0.004s"], the line [--stats] prints under [Ground steps:]. *)
