(* The CUDF universe model.  Facts supplied per solve (see Encode):
     cudf_package/2, newest/2, sat/3, clause_lit/2,
     depends_clause/2, conflict_set/2, conflict_stanza/3, single_version/2,
     rec_owner/3, require_set/2, forbid_set/2,
     upgrade_name/1, upgrade_forbidden/2,
     was_installed/2, was_installed_name/1 (last),
   plus the generalized-condition vocabulary shared with the Spack model:
     condition/1, condition_requirement/3..5, imposed_constraint/3..5. *)

let base =
  {|
%=============================================================================
% CUDF universes on the generalized-condition encoding (ROADMAP item 3).
%
% The state is flat: attr("in", P, V) means stanza (P, V) is installed in
% the final state.  Version constraints are pre-compiled by the encoder
% into interned satisfier sets: sat(S, Q, W) lists every stanza (Q, W)
% that satisfies constraint S, provides included — so the program never
% compares versions, it only joins sets.
%=============================================================================

{ attr("in", P, V) } :- cudf_package(P, V).

pkg_in(P) :- attr("in", P, V).

% a satisfier set is hit when any member is installed
set_hit(S) :- sat(S, Q, W), attr("in", Q, W).

% a CNF clause is hit when any of its literals' sets is hit
clause_hit(C) :- clause_lit(C, S), set_hit(S).

|}

let model =
  {|
%-----------------------------------------------------------------------------
% Dependencies: each depends clause of an installed stanza must be hit.
% The owning stanza is the condition's requirement (attr("in", P, V)), so
% condition_holds(ID) means "the stanza with this depends: line is in".
%-----------------------------------------------------------------------------
:- depends_clause(ID, C), condition_holds(ID), not clause_hit(C).

%-----------------------------------------------------------------------------
% Conflicts, split by the encoder: an installed stanza excludes its set of
% other-name members and each listed version of its own name (never itself).
% A name whose every version says "conflicts: <name>" has one version at most.
%-----------------------------------------------------------------------------
:- conflict_set(ID, S), condition_holds(ID), set_hit(S).
:- conflict_stanza(ID, P, W), condition_holds(ID), attr("in", P, W).
{ attr("in", P, V) : cudf_package(P, V) } 1 :-
  single_version(ID, P), condition_holds(ID).

%-----------------------------------------------------------------------------
% The request: install/upgrade/keep require their satisfier sets hit,
% remove forbids them.  Request conditions have no requirements, so
% condition_holds(ID) is unconditional — keeping the provenance path
% (Diagnose) uniform across constraint kinds.
%-----------------------------------------------------------------------------
:- require_set(ID, S), condition_holds(ID), not set_hit(S).
:- forbid_set(ID, S), condition_holds(ID), set_hit(S).

% upgrade: single version of the named package, present, never below the
% highest currently-installed version (upgrade_forbidden enumerates those)
:- upgrade_name(P), attr("in", P, V1), attr("in", P, V2), V1 < V2.
:- upgrade_name(P), not pkg_in(P).
:- upgrade_forbidden(P, V), attr("in", P, V).

%-----------------------------------------------------------------------------
% Objective atoms (counted by the criterion stacks, Criteria).
%-----------------------------------------------------------------------------
removed(P)  :- was_installed_name(P), not pkg_in(P).
new_pkg(P)  :- pkg_in(P), not was_installed_name(P).
changed(P)  :- attr("in", P, V), not was_installed(P, V).
changed(P)  :- was_installed(P, V), not attr("in", P, V).
outdated(P) :- pkg_in(P), newest(P, V), not attr("in", P, V).
rec_unmet(C) :- rec_owner(C, P, V), attr("in", P, V), not clause_hit(C).
|}

let text stack =
  base ^ Concretize.Logic_program.conditions_fragment ^ model
  ^ Criteria.minimize_text stack

let line_count stack =
  String.split_on_char '\n' (text stack)
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length
