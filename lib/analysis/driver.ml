(* Analysis driver: runs every pass over an IR program, aggregates the
   findings into a report, and feeds the totals to the metrics registry
   ([analysis.errors] / [analysis.warnings]) so benchmark JSON exposes
   them alongside the performance counters.

   [check_problem] is the entry-point wiring: it derives the context,
   builds the same IR the executors mirror (CPU strategy program, or the
   hybrid GPU program with the data-movement plan's transfer schedule)
   and checks it — so [bte_sim --check] and [bte_lint] validate exactly
   what will run. *)

open Finch

type report = {
  findings : Finding.t list;
  errors : int;
  warnings : int;
}

let m_errors = Prt.Metrics.counter "analysis.errors"
let m_warnings = Prt.Metrics.counter "analysis.warnings"

let empty = { findings = []; errors = 0; warnings = 0 }

let of_findings findings =
  let errors, warnings =
    List.fold_left
      (fun (e, w) f ->
        match Finding.severity f.Finding.code with
        | Finding.Error -> e + 1, w
        | Finding.Warning -> e, w + 1)
      (0, 0) findings
  in
  Prt.Metrics.add m_errors errors;
  Prt.Metrics.add m_warnings warnings;
  { findings; errors; warnings }

let check_ir ?plan ?comm ?(ignore_codes = []) (ctx : Ctx.t) tree =
  let findings =
    Wellformed.run ctx tree @ Race.run ctx tree @ Movement.run ?plan ctx tree
    @ Comm.run ?comm ctx tree
  in
  let findings =
    List.filter
      (fun f -> not (List.mem f.Finding.code ignore_codes))
      findings
  in
  (* errors first, then warnings, keeping program order within each *)
  let errs, warns =
    List.partition
      (fun f -> Finding.severity f.Finding.code = Finding.Error)
      findings
  in
  of_findings (errs @ warns)

let check_problem ?(ignore_codes = []) (p : Problem.t) =
  let ctx = Ctx.of_problem p in
  let comm =
    Option.map (fun pl -> Comm.Elaborate pl) (Comm.plan_of_problem p)
  in
  match p.Problem.target with
  | Config.Gpu _ ->
    let plan = Dataflow.plan_for_problem p in
    let tree = Ir.build_gpu p ~transfers:(Dataflow.ir_transfers plan) in
    check_ir ~plan ?comm ~ignore_codes ctx tree
  | Config.Cpu _ ->
    let tree = Ir.build_cpu p in
    check_ir ?comm ~ignore_codes ctx tree
  | Config.Auto ->
    invalid_arg "Driver.check_problem: unresolved auto target"

let pp_report out r =
  List.iter
    (fun f -> Printf.fprintf out "  %s\n" (Finding.to_string f))
    r.findings;
  if r.errors > 0 || r.warnings > 0 then
    Printf.fprintf out "  %d error%s, %d warning%s\n" r.errors
      (if r.errors = 1 then "" else "s")
      r.warnings
      (if r.warnings = 1 then "" else "s")
