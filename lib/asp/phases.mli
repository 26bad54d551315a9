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
