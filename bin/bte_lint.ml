(* Lint driver: run the static IR analyses (Finch_analysis) over the
   generated programs of the shipped scenarios without solving anything.

     bte_lint                    -- lint every scenario x backend x overlap
     bte_lint --backend cells:4  -- restrict the backend matrix
     bte_lint --format json      -- machine-readable findings for CI diffs
     bte_lint --selftest         -- run the seeded-defect fixtures
     bte_lint --codes            -- print the error-code catalogue

   Exit status: 0 clean, 1 analysis errors (or a failed selftest),
   2 usage errors.  See docs/ANALYSIS.md for the pass catalogue. *)

open Cmdliner

let default_backends =
  [ "serial"; "threads:2"; "bands:2"; "cells:2"; "cells:4"; "hybrid:2x2";
    "gpu"; "gpu:a6000:2"; "gpu:a6000:2x2"; "gpu:a6000:2x4" ]

let backends_t =
  Arg.(
    value
    & opt_all string []
    & info [ "backend" ] ~docv:"SPEC"
        ~doc:
          "Backend spec to lint (repeatable): serial, threads:N, bands:N, \
           cells:N, hybrid:RxD or gpu[:NAME[:RANKS|:GxR]]. Default: a matrix \
           of all strategies.")

let scenario_t =
  Arg.(
    value
    & opt (enum [ "hotspot", `Hotspot; "corner", `Corner; "all", `All ]) `All
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:"Scenario to lint: hotspot, corner or all.")

let opts_t =
  Arg.(
    value
    & opt (list string) [ "0"; "2" ]
    & info [ "opt" ] ~docv:"LEVELS"
        ~doc:
          "Comma-separated IR optimization levels to lint (default 0,2). \
           Every configuration is checked at each listed level — both the \
           program the builders generate at that level and the output of \
           the Finch_opt pass pipeline run on it.")

let codes_t =
  Arg.(
    value & flag
    & info [ "codes" ] ~doc:"Print the error-code catalogue and exit.")

let selftest_t =
  Arg.(
    value & flag
    & info [ "selftest" ]
        ~doc:
          "Run the analyzer over its seeded-defect fixtures and check each \
           reports exactly the expected codes.")

let ignore_t =
  Arg.(
    value
    & opt (list string) []
    & info [ "ignore" ] ~docv:"CODES"
        ~doc:"Comma-separated codes to suppress (e.g. A005,A006).")

let verbose_t =
  Arg.(
    value & flag
    & info [ "verbose"; "v" ] ~doc:"Also print per-configuration results \
                                    when clean.")

let format_t =
  Arg.(
    value
    & opt (enum [ "text", `Text; "json", `Json ]) `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:
          "Output format of the lint matrix: text (default) or json — one \
           object per configuration with its findings (code, severity, \
           title, variable, node path, detail), so CI can diff findings \
           instead of grepping text.")

let print_codes () =
  List.iter
    (fun c ->
      Printf.printf "%s  %-7s  %s\n" (Finch_analysis.Finding.id c)
        (Finch_analysis.Finding.severity_string
           (Finch_analysis.Finding.severity c))
        (Finch_analysis.Finding.title c))
    Finch_analysis.Finding.catalogue

let run_selftest () =
  let failures = ref 0 in
  List.iter
    (fun (f : Finch_analysis.Fixtures.fixture) ->
      let expect, found = Finch_analysis.Fixtures.check f in
      let s l =
        String.concat "," (List.map Finch_analysis.Finding.id l)
      in
      if expect = found then
        Printf.printf "ok   %-24s [%s]\n" f.Finch_analysis.Fixtures.fname
          (s found)
      else begin
        incr failures;
        Printf.printf "FAIL %-24s expected [%s] found [%s]\n"
          f.Finch_analysis.Fixtures.fname (s expect) (s found)
      end)
    Finch_analysis.Fixtures.all;
  Printf.printf "%d fixture%s, %d failure%s\n"
    (List.length Finch_analysis.Fixtures.all)
    (if List.length Finch_analysis.Fixtures.all = 1 then "" else "s")
    !failures
    (if !failures = 1 then "" else "s");
  !failures = 0

let scenarios_of = function
  | `Hotspot -> [ "hotspot" ]
  | `Corner -> [ "corner" ]
  | `All -> [ "hotspot"; "corner" ]

(* One matrix cell as a facade request: the scenario's own base
   dimensions (corner is 32x8) with the cell's backend / overlap /
   opt level.  [Finch.prepare] builds and configures the problem the
   same way a served request would. *)
let request_for sname tgt overlap level =
  let base =
    match Bte.Setup.base_of_scenario sname with
    | Some b -> b
    | None -> assert false
  in
  { (Bte.Setup.request_of_base base sname) with
    Finch.Solve_request.backend = tgt;
    overlap;
    opt_level = level }

let json_of_finding (f : Finch_analysis.Finding.t) =
  let open Finch.Json in
  Obj
    [ "code", Str (Finch_analysis.Finding.id f.Finch_analysis.Finding.code);
      "severity",
      Str
        (Finch_analysis.Finding.severity_string
           (Finch_analysis.Finding.severity f.Finch_analysis.Finding.code));
      "title", Str (Finch_analysis.Finding.title f.Finch_analysis.Finding.code);
      "var",
      (match f.Finch_analysis.Finding.var with
       | Some v -> Str v
       | None -> Null);
      "where", Str f.Finch_analysis.Finding.where;
      "detail", Str f.Finch_analysis.Finding.detail ]

let lint_matrix ~backends ~scenario ~opts ~ignore_codes ~verbose ~format =
  Bte.Setup.register_scenarios ();
  let backends = if backends = [] then default_backends else backends in
  let total_errors = ref 0 and total_warnings = ref 0 and configs = ref 0 in
  let json_configs = ref [] in
  List.iter
    (fun sname ->
      List.iter
        (fun spec ->
          match Finch.Config.target_of_string spec with
          | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 2
          | Ok tgt ->
            List.iter
              (fun overlap ->
                List.iter
                  (fun level ->
                    incr configs;
                    let req = request_for sname tgt overlap level in
                    let prep =
                      match Finch.prepare req with
                      | Ok prep -> prep
                      | Error e ->
                        Printf.eprintf "error: %s\n"
                          (Finch.Solve_error.to_string e);
                        exit 2
                    in
                    let p = prep.Finch.pr_problem in
                    let r =
                      Finch_analysis.Driver.check_problem ~ignore_codes p
                    in
                    (* also lint the optimizer pipeline's output: the
                       rewritten program must stay as clean as the input,
                       including its communication schedule *)
                    let opt_r =
                      let res = Finch_opt.Opt.optimize_problem p in
                      let comm =
                        Option.map
                          (fun pl -> Finch_analysis.Comm.Elaborate pl)
                          (Finch_analysis.Comm.plan_of_problem p)
                      in
                      Finch_analysis.Driver.check_ir ?comm ~ignore_codes
                        (Finch_analysis.Ctx.of_problem p)
                        res.Finch_opt.Opt.ir
                    in
                    total_errors :=
                      !total_errors + r.Finch_analysis.Driver.errors
                      + opt_r.Finch_analysis.Driver.errors;
                    total_warnings :=
                      !total_warnings + r.Finch_analysis.Driver.warnings
                      + opt_r.Finch_analysis.Driver.warnings;
                    match format with
                    | `Json ->
                      let open Finch.Json in
                      json_configs :=
                        Obj
                          [ "scenario", Str sname;
                            "backend", Str spec;
                            "overlap", Bool overlap;
                            "opt", Str (Finch.Config.opt_level_name level);
                            "errors",
                            Num
                              (float_of_int
                                 (r.Finch_analysis.Driver.errors
                                  + opt_r.Finch_analysis.Driver.errors));
                            "warnings",
                            Num
                              (float_of_int
                                 (r.Finch_analysis.Driver.warnings
                                  + opt_r.Finch_analysis.Driver.warnings));
                            "findings",
                            List
                              (List.map json_of_finding
                                 r.Finch_analysis.Driver.findings);
                            "optimized_findings",
                            List
                              (List.map json_of_finding
                                 opt_r.Finch_analysis.Driver.findings) ]
                        :: !json_configs
                    | `Text ->
                      let label =
                        Printf.sprintf "%s %s%s opt%s" sname spec
                          (if overlap then " +overlap" else "")
                          (Finch.Config.opt_level_name level)
                      in
                      if r.Finch_analysis.Driver.findings <> [] then begin
                        Printf.printf "%s:\n" label;
                        Finch_analysis.Driver.pp_report stdout r
                      end
                      else if opt_r.Finch_analysis.Driver.findings <> []
                      then begin
                        Printf.printf "%s (optimized IR):\n" label;
                        Finch_analysis.Driver.pp_report stdout opt_r
                      end
                      else if verbose then Printf.printf "%s: clean\n" label)
                  opts)
              [ false; true ])
        backends)
    (scenarios_of scenario);
  (match format with
   | `Json ->
     let open Finch.Json in
     print_endline
       (to_string ~indent:2
          (Obj
             [ "configs", List (List.rev !json_configs);
               "summary",
               Obj
                 [ "configs", Num (float_of_int !configs);
                   "errors", Num (float_of_int !total_errors);
                   "warnings", Num (float_of_int !total_warnings) ] ]))
   | `Text ->
     Printf.printf "linted %d configurations: %d error%s, %d warning%s\n"
       !configs !total_errors
       (if !total_errors = 1 then "" else "s")
       !total_warnings
       (if !total_warnings = 1 then "" else "s"));
  !total_errors = 0

let lint_cmd backends scenario opts codes selftest ignore verbose format =
  if codes then print_codes ()
  else begin
    let ignore_codes =
      List.map
        (fun s ->
          match Finch_analysis.Finding.of_id s with
          | Some c -> c
          | None ->
            Printf.eprintf "error: unknown code %s (see --codes)\n" s;
            exit 2)
        ignore
    in
    let opts =
      List.map
        (fun s ->
          match Finch.Config.opt_level_of_string s with
          | Ok l -> l
          | Error e ->
            Printf.eprintf "error: %s\n" e;
            exit 2)
        opts
    in
    let ok =
      if selftest then run_selftest ()
      else lint_matrix ~backends ~scenario ~opts ~ignore_codes ~verbose ~format
    in
    if not ok then exit 1
  end

let () =
  let term =
    Term.(
      const lint_cmd $ backends_t $ scenario_t $ opts_t $ codes_t $ selftest_t
      $ ignore_t $ verbose_t $ format_t)
  in
  let info =
    Cmd.info "bte_lint" ~version:"1.0"
      ~doc:
        "Static analysis of the generated BTE programs: well-formedness, \
         parallel races and data-movement coverage."
  in
  exit (Cmd.eval (Cmd.v info term))
