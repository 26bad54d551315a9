(** Per-solve phase timings, shared by both frontends' pipelines.

    The paper's instrumentation splits a solve into {e setup} (fact
    generation), {e load} (parsing the logic program), {e ground} and
    {e solve} (translation, search, optimization and verification).  The
    Spack frontend also splits [ground_time] into building and extending a
    substrate base; the CUDF frontend has no substrate and leaves both at
    0. *)

type t = {
  setup_time : float;
  load_time : float;
  ground_time : float;
  ground_base_time : float;
      (** portion of [ground_time] spent building a substrate base from
          scratch (0 without a substrate, or on a warm base hit) *)
  ground_extend_time : float;
      (** portion of [ground_time] spent extending a substrate base with
          the request's own facts (0 without a substrate) *)
  solve_time : float;
}

val zero : t

val total : t -> float
(** [setup + load + ground + solve]; the ground split is not added again. *)

val time : (unit -> 'a) -> 'a * float
(** Run the thunk and return its result with the wall-clock seconds it
    took. *)

val to_line : t -> string
(** The [Phases:] line of [spack_solve --stats] and [cudf_solve --stats],
    without a newline.  perfbench parses it: keep it byte-stable. *)
