(* CUDF demo: the Debian upgrade problem on the Spack ASP engine.

   A hand-written eight-stanza universe exercises the interesting CUDF
   features — version-constrained depends, a virtual feature with two
   rival providers, conflicts, an installed state — and one request is
   solved under both user-objective criterion stacks, which provably
   pick different final states.

   Run with:  dune exec examples/cudf_demo.exe  *)

let universe =
  {|# a tiny Debian-like universe
package: editor
version: 1
depends: libtext >= 1
conflicts: editor
installed: true

package: editor
version: 2
depends: libtext >= 2, mta
conflicts: editor

package: libtext
version: 1
conflicts: libtext
installed: true

package: libtext
version: 2
conflicts: libtext

package: postfix
version: 1
provides: mta
conflicts: mta, sendmail

package: sendmail
version: 1
provides: mta
conflicts: mta, postfix
installed: true

package: games
version: 1
conflicts: games
installed: true

package: games
version: 2
depends: libtext = 2
conflicts: games

request: upgrade-editor
install: editor
|}

let show stack doc =
  Printf.printf "--- stack: %s ---\n" (Cudf.Criteria.name stack);
  match Cudf.Solver.solve ~stack doc with
  | Cudf.Solver.Solution s ->
    List.iter
      (fun (n, v) -> Printf.printf "  %s = %d\n" n v)
      s.Cudf.Solver.state;
    List.iter
      (fun pv -> Format.printf "  %a@." (Cudf.Criteria.pp_cost stack) pv)
      s.Cudf.Solver.stats.Asp.Solve.costs;
    Printf.printf "  optimal: %b, verified: %b\n"
      (s.Cudf.Solver.stats.Asp.Solve.quality = `Optimal)
      s.Cudf.Solver.stats.Asp.Solve.verified
  | Cudf.Solver.Unsatisfiable { reasons; _ } ->
    print_endline "  UNSATISFIABLE";
    List.iter (Printf.printf "    %s\n") reasons
  | Cudf.Solver.Interrupted _ -> print_endline "  interrupted"

let () =
  let doc = Cudf.Doc.parse universe in
  Printf.printf "universe: %d stanzas, request %S\n"
    (List.length doc.Cudf.Doc.packages)
    doc.Cudf.Doc.request.Cudf.Doc.req_id;

  (* paranoid (minimize removed, then changed) keeps the installed world:
     editor stays at 1 against the installed libtext 1 and sendmail.
     trendy (minimize outdated, then new, then unmet recommends) moves
     every selected package to its newest version: editor 2 needs
     libtext 2 and an mta — sendmail already provides one. *)
  show Cudf.Criteria.Paranoid doc;
  show Cudf.Criteria.Trendy doc;

  (* an impossible request, diagnosed via the unsat core with stanza
     provenance: postfix and sendmail both provide (and conflict with)
     the virtual feature mta, so they can never be co-installed *)
  let broken =
    {
      doc with
      Cudf.Doc.request =
        {
          Cudf.Doc.req_id = "impossible";
          install =
            [
              { Cudf.Doc.vname = "postfix"; vconstr = None };
              { Cudf.Doc.vname = "sendmail"; vconstr = None };
            ];
          upgrade = [];
          remove = [];
        };
    }
  in
  Printf.printf "--- request: install postfix and sendmail (--explain) ---\n";
  (match Cudf.Solver.solve ~explain:true broken with
  | Cudf.Solver.Unsatisfiable { reasons; _ } ->
    List.iter (Printf.printf "  %s\n") reasons
  | _ -> print_endline "  unexpectedly solvable!");
  ()
