(* Field digests across the backend matrix: the bit-identity check for a
   change that must not move any result.

   Solves the hotspot and corner scenarios on every target below, each
   under five evaluator/optimizer/overlap configurations, and prints one
   line per run: the MD5 of the final I, T, Io and beta, every value
   printed with %h (exact hexadecimal floats).  The last line digests all
   run lines.  Run it on two builds and diff the outputs:

     dune exec examples/field_digest.exe > after.txt

   Identical outputs mean every field of every run is bitwise equal.
   Every executor forms the same sum (u + dt * interior, then the
   boundary part), so all 50 runs of a scenario print one digest, CPU
   and GPU targets alike; scripts/check_ir.sh fails otherwise.
   Native configurations compile their kernels into the codegen cache
   (_build/finch_cache under the working directory) on first use; where
   no native toolchain is available they fall back to the closure
   evaluator with a warning, which leaves the digests unchanged. *)

open Bte

let targets =
  [ "serial"; "bands:2"; "cells:2"; "cells:4"; "threads:2"; "threads:3";
    "hybrid:2x1"; "gpu:a6000"; "gpu:a6000:2"; "gpu:a6000:1x2" ]

(* name, evaluator, optimization level, overlap *)
let configs =
  let open Finch.Config in
  [ "closure-O0", Closure, O0, false;
    "closure-O2", Closure, O2, false;
    "native-O2", Native, O2, false;
    "native-O0-overlap", Native, O0, true;
    "closure-O2-overlap", Closure, O2, true ]

(* small shapes with an odd step count, so the fused threaded schedule
   also runs its trailing single step *)
let scenarios =
  [ "hotspot",
    (fun () ->
      Setup.build
        { Setup.small_hotspot with
          Setup.nx = 12; ny = 12; ndirs = 4; n_la_bands = 4; nsteps = 5 });
    "corner",
    (fun () ->
      Setup.build_corner
        { Setup.small_corner with
          Setup.nx = 16; ny = 4; ndirs = 4; n_la_bands = 4; nsteps = 5 }) ]

let field_digest o =
  let buf = Buffer.create 65536 in
  List.iter
    (fun name ->
      let f = Finch.Solve.field o name in
      Printf.bprintf buf "%s:" name;
      for cell = 0 to Fvm.Field.ncells f - 1 do
        for comp = 0 to Fvm.Field.ncomp f - 1 do
          Printf.bprintf buf " %h" (Fvm.Field.get f cell comp)
        done
      done;
      Buffer.add_char buf '\n')
    [ "I"; "T"; "Io"; "beta" ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let run build target (eval_mode, opt_level, overlap) =
  match Finch.Config.target_of_string target with
  | Error e -> "error: " ^ e
  | Ok t -> (
    let built = build () in
    let p = built.Setup.problem in
    Finch.Problem.set_target p t;
    Finch.Problem.set_eval_mode p eval_mode;
    Finch.Problem.set_opt_level p opt_level;
    Finch.Problem.set_overlap p overlap;
    match Finch.Solve.solve p with
    | o -> field_digest o
    | exception e -> "error: " ^ Printexc.to_string e)

let () =
  Finch_codegen.Codegen.install ();
  let lines = Buffer.create 8192 in
  List.iter
    (fun (scenario, build) ->
      List.iter
        (fun target ->
          List.iter
            (fun (cname, eval_mode, opt_level, overlap) ->
              let line =
                Printf.sprintf "%-8s %-14s %-19s %s" scenario target cname
                  (run build target (eval_mode, opt_level, overlap))
              in
              print_endline line;
              Buffer.add_string lines line;
              Buffer.add_char lines '\n')
            configs)
        targets)
    scenarios;
  Printf.printf "total %s (%d runs)\n"
    (Digest.to_hex (Digest.string (Buffer.contents lines)))
    (List.length scenarios * List.length targets * List.length configs)
