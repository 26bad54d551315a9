(** A round's timing record, shared by both frontends' pipelines.

    The paper's instrumentation splits a solve into {e setup} (fact
    generation), {e load} (parsing the logic program), {e ground} and
    {e solve}.  The record holds those four phases and the seven steps
    inside the last two: seed, close and emit under ground; translate,
    search, optimize and verify under solve.  The round's {!Budget} writes
    it ({!Budget.enter}, {!Budget.phases}); nothing else reads the clock. *)

(** Where the round is.  A step span counts toward its own time and its
    phase's; [Setup] and [Load] are phases without steps. *)
type span =
  | Setup
  | Load
  | Seed  (** seeding facts and compiling rules ({!Grounder}) *)
  | Close  (** the possible-atom closure *)
  | Emit  (** emitting ground rules *)
  | Translate  (** completion into the solver ({!Translate}) *)
  | Search  (** the first search, up to the first stable model *)
  | Optimize
      (** the minimize levels' indicators, built before the first search,
          plus the descent after it *)
  | Verify  (** the independent re-check ({!Verify}) *)

type t = {
  setup_time : float;
  load_time : float;
  ground_time : float;  (** the ground phase's wall time *)
  solve_time : float;  (** the solve phase's wall time *)
  seed_time : float;
  close_time : float;
  emit_time : float;
  translate_time : float;
  search_time : float;
  optimize_time : float;
  verify_time : float;
}
(** Seconds per span.  The ground steps sum to [ground_time].  The solve
    steps are the run's that produced the answer: under a portfolio race
    the winning racer's, which sum to at most [solve_time]. *)

val zero : t

val charge : t -> span -> float -> t
(** [charge p s dt] adds [dt] seconds to [s], and to its phase when [s] is
    a step. *)

val total : t -> float
(** [setup + load + ground + solve]. *)

val to_line : t -> string
(** The [Phases:] line of [spack_solve --stats] and [cudf_solve --stats],
    without a newline.  perfbench parses it: keep it byte-stable. *)
