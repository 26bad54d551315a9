(** Multi-shot concretization (§VII-C's closing remark: "Multi-shot solver
    techniques may offer additional solver performance, as we can divide and
    conquer for a slightly less optimal final result").

    Instead of concretizing a whole stack in one unified solve, each root is
    solved on its own and its concrete DAG is immediately installed into a
    scratch database, so later roots {e reuse} earlier results through the
    ordinary reuse machinery (Section VI).  Wall-clock cost becomes a sum of
    small solves instead of one combinatorial solve, at the price of global
    optimality: later roots are biased toward whatever the earlier roots
    happened to pick. *)

type shot = {
  shot_root : string;
  shot_result : Concretizer.result;
}

type t = {
  shots : shot list;
  db : Pkg.Database.t;  (** all concretized DAGs, installed *)
  distinct_configs : (string * int) list;
      (** packages that ended up with more than one configuration across
          shots — the "slightly less optimal" part; empty for a unified
          solve by construction *)
  total_time : float;
}

val solve_stack :
  ?config:Asp.Config.t -> ?pool:Asp.Pool.t -> ?racers:int -> Concretizer.request -> t
(** Concretize the request's roots in order, each shot reusing all
    previous results.  Its [installed] database seeds the scratch
    database.  Shots are inherently
    sequential (each reuses its predecessors), but [pool]/[racers] turn
    every shot's solve phase into a portfolio race
    ({!Concretizer.solve}). *)
