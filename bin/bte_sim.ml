(* Command-line driver for the phonon-BTE solver.

     bte_sim run      -- solve a scenario and report the temperature field
     bte_sim model    -- print modelled paper-scale times for a strategy
     bte_sim codegen  -- show the DSL pipeline output (symbolic forms + code)

   See `bte_sim COMMAND --help` for options. *)

open Cmdliner

(* ---------- shared options ---------- *)

let nx_t =
  Arg.(value & opt int 24 & info [ "nx" ] ~docv:"N" ~doc:"Cells in x.")

let ny_t = Arg.(value & opt int 24 & info [ "ny" ] ~docv:"N" ~doc:"Cells in y.")

let ndirs_t =
  Arg.(value & opt int 8 & info [ "dirs" ] ~docv:"N" ~doc:"Discrete directions (even).")

let nbands_t =
  Arg.(value & opt int 8 & info [ "bands" ] ~docv:"N" ~doc:"LA frequency bands.")

let nsteps_t =
  Arg.(value & opt int 50 & info [ "steps" ] ~docv:"N" ~doc:"Time steps.")

let scenario_t =
  Arg.(
    value
    & opt (enum [ "hotspot", `Hotspot; "corner", `Corner ]) `Hotspot
    & info [ "scenario" ] ~docv:"NAME" ~doc:"Scenario: hotspot (Fig. 2) or corner (Fig. 10).")

let backend_t =
  Arg.(
    value
    & opt string "serial"
    & info [ "backend" ] ~docv:"SPEC"
        ~doc:
          "Execution backend: serial, threads:N (persistent domain pool), \
           bands:N, cells:N, hybrid:RxD (R band ranks x D pool domains), \
           gpu[:NAME[:RANKS|:GxR]] (simulated device, default a6000), or \
           auto (the tuner searches backend x opt x overlap x grid and \
           picks the plan itself; see docs/TUNER.md). Case-insensitive.")

let overlap_t =
  Arg.(
    value & flag
    & info [ "overlap" ]
        ~doc:
          "Overlap communication with interior computation: cells:N runs the \
           halo exchange nonblocking behind the interior sweep, gpu \
           double-buffers transfers on a second stream. A no-op for the \
           other backends (their steps have only collectives). Numerics are \
           bit-identical either way.")

let opt_t =
  Arg.(
    value & opt string "2"
    & info [ "opt" ] ~docv:"LEVEL"
        ~doc:
          "IR optimization level: 0 (naive generated program: one parallel \
           region per loop, one GPU kernel launch per band) or 2 (loop and \
           step-pair fusion, dead-assign elimination, transfer coalescing, \
           band-batched kernel launches and upload hoisting). Results are \
           bit-identical at both levels; see docs/OPTIMIZER.md.")

let eval_mode_t =
  Arg.(
    value
    & opt
        (enum
           [ "closure", Finch.Config.Closure; "native", Finch.Config.Native ])
        Finch.Config.Closure
    & info [ "eval" ] ~docv:"MODE"
        ~doc:
          "Right-hand-side evaluator: closure (the lane interpreter, the \
           default) or native (generated OCaml compiled to a shared \
           object and dynlinked, behind a content-hash cache; falls back \
           to closure with a warning when unavailable — see \
           docs/CODEGEN.md).")

let codegen_cache_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "codegen-cache-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for compiled native kernels (--eval native). \
           Defaults to $(b,FINCH_CODEGEN_CACHE_DIR) or _build/finch_cache \
           under the current directory.")

let explain_plan_t =
  Arg.(
    value & flag
    & info [ "explain-plan" ]
        ~doc:
          "Run the autotuner and dump its full candidate table — plan, \
           predicted cost, legality verdict and measured refinement if any \
           — before the solve. With a concrete $(b,--backend) the table is \
           informational and the requested backend still runs; with \
           $(b,--backend auto) the table explains the committed choice.")

let tune_measure_t =
  Arg.(
    value & opt int 0
    & info [ "tune-measure" ] ~docv:"STEPS"
        ~doc:
          "Refine the tuner's shortlist with measured calibration runs \
           clamped to $(docv) time steps on the real executors (0, the \
           default, trusts the cost model and stays deterministic).")

let tune_cache_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "tune-cache-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for memoized tuner decisions (--backend auto). \
           Defaults to $(b,FINCH_TUNE_CACHE_DIR) or _build/finch_tune \
           under the current directory.")

let csv_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"PATH" ~doc:"Write the temperature field as CSV.")

let paper_scale_t =
  Arg.(
    value & flag
    & info [ "paper-scale" ]
        ~doc:"Use the full 120x120 / 20-direction / 40-band configuration (slow).")

let trace_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Record execution spans (steps, phases, pool workers, SPMD ranks, \
           GPU stream) and write a Chrome trace-event JSON file to $(docv); \
           open it at https://ui.perfetto.dev. See docs/OBSERVABILITY.md.")

let metrics_t =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect runtime counters (halo bytes, barrier waits, kernel \
           launches, ...) and print the registry after the solve.")

let no_check_t =
  Arg.(
    value & flag
    & info [ "no-check" ]
        ~doc:
          "Skip the static IR analysis that normally runs before the solve \
           (def-before-use, parallel races, data-movement coverage; see \
           docs/ANALYSIS.md). With the check on, analysis errors abort the \
           run with exit code 3.")

let sanitize_t =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Run with the runtime sanitizer: ghost regions are NaN-poisoned \
           after each commit and device buffers at allocation, so any read \
           of storage a missing exchange or upload failed to refresh is \
           counted ([sanitize.poison_reads]). Bit-identical results on \
           defect-free programs; exit code 4 if poison is detected.")

(* The canonical track model is declared up front so the exported trace
   always carries the main / pool-worker / SPMD-rank / GPU-stream rows,
   even when the chosen target exercises only some of them. *)
let declare_canonical_tracks () =
  ignore (Prt.Trace.worker 0);
  ignore (Prt.Trace.rank 0);
  ignore (Prt.Trace.stream 0)

let start_observability ~trace ~metrics =
  (match trace with
   | Some _ ->
     Prt.Trace.enable ();
     declare_canonical_tracks ()
   | None -> ());
  if metrics then Prt.Metrics.enable ()

let finish_observability ~trace ~metrics =
  (match trace with
   | Some path ->
     Prt.Trace.write_chrome path;
     Printf.printf "trace: %d events on %d tracks written to %s\n"
       (Prt.Trace.event_count ())
       (List.length (Prt.Trace.tracks ()))
       path
   | None -> ());
  if metrics then begin
    print_endline "metrics:";
    print_string (Prt.Metrics.dump_text ())
  end

(* ---------- run ---------- *)

(* ---------- tuner plumbing shared by [run] and [request] ---------- *)

let verdict_text = function
  | Finch_tune.Tune.Scored -> "scored"
  | Finch_tune.Tune.Legal -> "legal"
  | Finch_tune.Tune.Rejected m -> "rejected: " ^ m
  | Finch_tune.Tune.Unpredictable m -> "unpredictable: " ^ m

let print_plan_table (d : Finch_tune.Tune.decision) =
  Printf.printf "tuner: %d candidate(s) scored (cache key %s)\n"
    (List.length d.Finch_tune.Tune.dc_candidates)
    d.Finch_tune.Tune.dc_key;
  Printf.printf "  %-44s %14s %14s  %s\n" "plan" "predicted [s]" "measured [s]"
    "verdict";
  List.iter
    (fun (c : Finch_tune.Tune.candidate) ->
      Printf.printf "  %-44s %14.4g %14s  %s%s\n"
        (Finch_tune.Plan.name c.Finch_tune.Tune.cd_plan)
        c.Finch_tune.Tune.cd_predicted_s
        (match c.Finch_tune.Tune.cd_measured_s with
         | Some m -> Printf.sprintf "%.4g" m
         | None -> "-")
        (verdict_text c.Finch_tune.Tune.cd_verdict)
        (if Finch_tune.Plan.equal c.Finch_tune.Tune.cd_plan
              d.Finch_tune.Tune.dc_plan
         then "  <- chosen"
         else ""))
    d.Finch_tune.Tune.dc_candidates

(* [--backend auto]: commit to the tuner's plan before preparing; with
   [--explain-plan] the (force-recomputed, so the table is populated)
   candidate ranking is printed either way, but a concrete backend is
   never overridden. *)
let tune_request ~explain ~measure_steps (req : Finch.Solve_request.t) =
  let is_auto = req.Finch.Solve_request.backend = Finch.Config.Auto in
  if not (is_auto || explain) then req, None
  else
    match
      Finch_tune.Tune.plan ~measure_steps ~force:explain req
    with
    | Error e ->
      Printf.eprintf "error: tuner: %s\n" e;
      exit 2
    | Ok d ->
      if explain then print_plan_table d;
      if is_auto then begin
        Printf.printf "tuner: plan %s (predicted %.4g s, %s)\n%!"
          (Finch_tune.Plan.name d.Finch_tune.Tune.dc_plan)
          d.Finch_tune.Tune.dc_predicted_s
          (match d.Finch_tune.Tune.dc_origin with
           | Finch_tune.Tune.Computed -> "computed"
           | Finch_tune.Tune.Memory_hit -> "memo hit"
           | Finch_tune.Tune.Disk_hit -> "disk cache hit");
        Finch_tune.Plan.apply d.Finch_tune.Tune.dc_plan req, Some d
      end
      else req, None

(* Post-solve reporting shared by [run] and [request]: temperature
   stats, phase breakdown, GPU perf model and optional CSV. *)
let report_result ~t_ambient ~csv (prep : Finch.prepared)
    (res : Finch.Solve_result.t) =
  Printf.printf "wall time %.2f s\n" res.Finch.Solve_result.wall_s;
  let outcome = res.Finch.Solve_result.outcome in
  let ft = res.Finch.Solve_result.solution in
  let mesh = Finch.Problem.mesh_exn prep.Finch.pr_problem in
  let stats = Bte.Diag.temperature_stats mesh ft ~t_ambient in
  Format.printf "%a@." Bte.Diag.pp_stats stats;
  Format.printf "breakdown: %a@." Prt.Breakdown.pp
    res.Finch.Solve_result.breakdown;
  (match outcome.Finch.Solve.gpu with
   | Some g ->
     print_endline
       (Gpu_sim.Perf.to_string
          (Gpu_sim.Perf.report g.Finch.Target_gpu.device
             ~avg_threads:g.Finch.Target_gpu.profile_threads))
   | None -> ());
  match csv with
  | Some path ->
    Bte.Diag.to_csv mesh ft ~comp:0 path;
    Printf.printf "temperature field written to %s\n" path
  | None -> ()

(* Static-analysis gate shared by [run] and [request]: errors abort with
   exit code 3 unless [no_check]. *)
let analysis_gate ~no_check (prep : Finch.prepared) =
  if not no_check then begin
    let report = Finch_analysis.Driver.check_problem prep.Finch.pr_problem in
    if report.Finch_analysis.Driver.errors > 0 then begin
      Printf.eprintf "static analysis rejected the generated program:\n";
      Finch_analysis.Driver.pp_report stderr report;
      Printf.eprintf "(use --no-check to run anyway)\n";
      exit 3
    end
    else if report.Finch_analysis.Driver.warnings > 0 then begin
      print_endline "static analysis warnings:";
      Finch_analysis.Driver.pp_report stdout report
    end
  end

let print_optimizer_stats (prep : Finch.prepared)
    (opt_level : Finch.Config.opt_level) =
  let opt_result = Finch_opt.Opt.optimize_problem prep.Finch.pr_problem in
  let os = opt_result.Finch_opt.Opt.stats in
  Printf.printf
    "optimizer: O%s — %d loop(s) fused, %d step pair(s) fused, %d kernel \
     launch loop(s) batched, %d dead assign(s) removed%s\n"
    (Finch.Config.opt_level_name opt_level)
    os.Finch_opt.Opt.loops_fused os.Finch_opt.Opt.steps_fused
    os.Finch_opt.Opt.kernels_batched os.Finch_opt.Opt.assigns_eliminated
    (match opt_result.Finch_opt.Opt.rejected with
     | [] -> ""
     | rs ->
       Printf.sprintf "; %d pass(es) rejected by the analyses (%s)"
         (List.length rs)
         (String.concat ", "
            (List.map
               (fun (r : Finch_opt.Opt.rejection) ->
                 r.Finch_opt.Opt.rej_pass ^ ":"
                 ^ Finch_analysis.Finding.id
                     r.Finch_opt.Opt.rej_finding.Finch_analysis.Finding.code)
               rs)))

let finish_sanitize ~sanitize () =
  if sanitize then begin
    let n = Finch_analysis.Sanitize.poison_reads () in
    Finch_analysis.Sanitize.disable ();
    Printf.printf "sanitizer: %d poison read%s\n" n (if n = 1 then "" else "s");
    if n > 0 then exit 4
  end

(* Prepare and solve one request through the facade with the shared
   gates and reporting around it.  Exit codes: 2 invalid request /
   unknown scenario, 3 analysis errors, 4 sanitizer poison, 1 engine
   failure. *)
let solve_request ?tune_decision ~t_ambient ~csv ~trace ~metrics ~no_check
    ~sanitize (req : Finch.Solve_request.t) =
  match Finch.prepare req with
  | Error e ->
    Printf.eprintf "error: %s\n" (Finch.Solve_error.to_string e);
    exit 2
  | Ok prep ->
    analysis_gate ~no_check prep;
    if sanitize then Finch_analysis.Sanitize.enable ();
    start_observability ~trace ~metrics;
    print_optimizer_stats prep req.Finch.Solve_request.opt_level;
    (match Finch.solve_prepared req prep with
     | Error e ->
       Printf.eprintf "error: %s\n" (Finch.Solve_error.to_string e);
       exit 1
     | Ok res ->
       (match tune_decision with
        | Some (d : Finch_tune.Tune.decision) ->
          let wall = res.Finch.Solve_result.wall_s in
          let predicted = d.Finch_tune.Tune.dc_predicted_s in
          Printf.printf
            "tuner: predicted %.4g s, measured %.4g s (model/measured %.2fx)\n"
            predicted wall
            (if wall > 0. then predicted /. wall else nan)
        | None -> ());
       report_result ~t_ambient ~csv prep res;
       finish_observability ~trace ~metrics;
       finish_sanitize ~sanitize ())

let run_cmd scenario nx ny ndirs nbands nsteps backend overlap opt
    eval_mode codegen_cache_dir explain_plan tune_measure tune_cache_dir csv
    paper_scale trace metrics no_check sanitize =
  Bte.Setup.register_scenarios ();
  let opt_level =
    match Finch.Config.opt_level_of_string opt with
    | Ok l -> l
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 2
  in
  let tgt =
    match Finch.Config.target_of_string backend with
    | Ok t -> t
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 2
  in
  let family =
    match scenario with `Hotspot -> "hotspot" | `Corner -> "corner"
  in
  let sname = if paper_scale then family ^ "-paper" else family in
  let base =
    match Bte.Setup.base_of_scenario sname with
    | Some b -> b
    | None -> assert false
  in
  (* the request is the whole configuration — scenario, dims, backend,
     optimizer, evaluator — in place of the old [Problem.set_*] wiring *)
  let req =
    let r =
      if paper_scale then Bte.Setup.request_of_base base sname
      else Finch.Solve_request.make ~nx ~ny ~ndirs ~nbands ~nsteps sname
    in
    { r with Finch.Solve_request.backend = tgt; opt_level; eval_mode; overlap }
  in
  let sc = Bte.Setup.scenario_of_request base req in
  let disp = Bte.Dispersion.make ~n_la:sc.Bte.Setup.n_la_bands in
  let dt = Float.min sc.Bte.Setup.dt (Bte.Setup.cfl_dt sc disp) in
  Printf.printf "scenario %s: %dx%d cells, %d dirs, %d bands, %d steps (dt %.3g s)\n%!"
    sc.Bte.Setup.sname sc.Bte.Setup.nx sc.Bte.Setup.ny sc.Bte.Setup.ndirs
    (Bte.Dispersion.nbands disp) sc.Bte.Setup.nsteps dt;
  (* the codegen backend is always installed; it only engages when the
     eval mode below is Native *)
  (match codegen_cache_dir with
   | Some d -> Finch_codegen.Codegen.set_cache_dir d
   | None -> ());
  Finch_codegen.Codegen.install ();
  (match tune_cache_dir with
   | Some d -> Finch_tune.Tune.set_cache_dir d
   | None -> ());
  (* observability must be live before the tuner so its counters and
     spans (tune.cache_hits, tune:plan, ...) land in the report *)
  start_observability ~trace ~metrics;
  let req, tune_decision =
    tune_request ~explain:explain_plan ~measure_steps:tune_measure req
  in
  solve_request ?tune_decision ~t_ambient:sc.Bte.Setup.t_cold ~csv ~trace
    ~metrics ~no_check ~sanitize req

let run_term =
  Term.(
    const run_cmd $ scenario_t $ nx_t $ ny_t $ ndirs_t $ nbands_t $ nsteps_t
    $ backend_t $ overlap_t $ opt_t $ eval_mode_t
    $ codegen_cache_dir_t $ explain_plan_t $ tune_measure_t $ tune_cache_dir_t
    $ csv_t $ paper_scale_t $ trace_t $ metrics_t $ no_check_t $ sanitize_t)

let run_info =
  Cmd.info "run" ~doc:"Solve a BTE scenario with a chosen execution backend."

(* ---------- model ---------- *)

let procs_t =
  Arg.(
    value
    & opt (list int) [ 1; 2; 5; 10; 20; 40; 55 ]
    & info [ "procs" ] ~docv:"LIST" ~doc:"Process counts to evaluate.")

let strategy_t =
  Arg.(
    value
    & opt
        (enum
           [ "bands", `Bands; "cells", `Cells; "threads", `Threads;
             "hybrid", `Hybrid; "gpu", `Gpu; "fortran", `Fortran ])
        `Bands
    & info [ "strategy" ] ~docv:"NAME"
        ~doc:"Strategy: bands, cells, threads, hybrid, gpu or fortran.")

let pool_t =
  Arg.(
    value & opt int 4
    & info [ "pool" ] ~docv:"N"
        ~doc:"Pool domains per rank for the hybrid strategy.")

let model_cmd strategy pool procs =
  Printf.printf "%-8s %12s %12s %14s %16s\n" "p" "total [s]" "intensity%"
    "temperature%" "communication%";
  List.iter
    (fun p ->
      let s =
        match strategy with
        | `Bands -> Bte.Perfmodel.Bands p
        | `Cells -> Bte.Perfmodel.Cells p
        | `Threads -> Bte.Perfmodel.Threads p
        | `Hybrid -> Bte.Perfmodel.Hybrid (p, pool)
        | `Gpu -> Bte.Perfmodel.Gpu p
        | `Fortran -> Bte.Perfmodel.Fortran p
      in
      match Bte.Perfmodel.run_breakdown s with
      | b ->
        let pc = Prt.Breakdown.percentages b in
        Printf.printf "%-8d %12.1f %11.1f%% %13.1f%% %15.1f%%\n" p
          (Prt.Breakdown.total b) pc.Prt.Breakdown.pct_intensity
          pc.Prt.Breakdown.pct_temperature pc.Prt.Breakdown.pct_communication
      | exception Invalid_argument m -> Printf.printf "%-8d %s\n" p m)
    procs

let model_term = Term.(const model_cmd $ strategy_t $ pool_t $ procs_t)

let model_info =
  Cmd.info "model"
    ~doc:"Print modelled paper-scale execution times for a parallel strategy."

(* ---------- codegen ---------- *)

let equation_t =
  Arg.(
    value
    & opt string "-k*u - surface(upwind([bx;by], u))"
    & info [ "equation" ] ~docv:"EXPR" ~doc:"Conservation-form input expression.")

let cuda_t = Arg.(value & flag & info [ "cuda" ] ~doc:"Emit the CUDA-like hybrid code.")

let codegen_cmd equation cuda =
  let p = Finch.Problem.init "codegen" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p (Fvm.Mesh_gen.rectangle ~nx:4 ~ny:4 ~lx:1. ~ly:1. ());
  Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:1;
  let u = Finch.Problem.variable p ~name:"u" () in
  List.iter
    (fun name ->
      ignore (Finch.Problem.coefficient p ~name (Finch.Entity.Const 1.)))
    [ "k"; "bx"; "by" ];
  Finch.Problem.initial p u (Finch.Problem.Init_const 0.);
  let eq = Finch.Problem.conservation_form p u equation in
  print_endline "=== expanded symbolic representation ===";
  print_endline (Finch.Transform.report_expanded eq);
  print_endline "\n=== after forward-Euler transform ===";
  print_endline (Finch.Transform.report_stepped eq);
  print_endline "\n=== classified terms ===";
  print_endline (Finch.Transform.report_classified eq);
  if cuda then begin
    Finch.Problem.use_cuda p;
    let plan = Finch.Dataflow.plan_for_problem p in
    let transfers = Finch.Dataflow.ir_transfers plan in
    print_endline "\n=== generated hybrid CPU/GPU code (CUDA-like) ===";
    print_endline (Finch.Emit_source.to_cuda (Finch.Ir.build_gpu p ~transfers))
  end
  else begin
    print_endline "\n=== generated CPU code (Julia-like) ===";
    print_endline (Finch.Emit_source.to_julia (Finch.Ir.build_cpu p))
  end;
  print_endline "\n=== lowered face form ===";
  let form = (Finch.Lower.stage_interior p).Finch.Eval.form in
  match form.Finch.Eval.unfactored with
  | Some why -> Printf.printf "no face form: %s\n" why
  | None ->
    let show = Finch_symbolic.Printer.to_string in
    Printf.printf "P (once per DOF): %s\n"
      (match form.Finch.Eval.pre with Some e -> show e | None -> "none");
    Printf.printf "K (table over %s): %s\n"
      (String.concat " x " ("slot" :: List.map fst form.Finch.Eval.knames))
      (show form.Finch.Eval.coef);
    Printf.printf "V (per interior face): %s\n" (show form.Finch.Eval.var);
    print_endline "interior sum: 0 + sum over interior faces of (area*K)*V; R = rv + (P*sum)/volume"

let codegen_term = Term.(const codegen_cmd $ equation_t $ cuda_t)

let codegen_info =
  Cmd.info "codegen" ~doc:"Show the DSL pipeline output for an input equation."

(* ---------- material ---------- *)

let temps_t =
  Arg.(
    value
    & opt (list float) [ 100.; 200.; 300.; 400.; 500. ]
    & info [ "temps" ] ~docv:"LIST" ~doc:"Temperatures (K) to evaluate.")

let material_cmd temps =
  Printf.printf "%-8s %14s %18s %14s
" "T [K]" "k [W/(m K)]" "C [J/(m^3 K)]"
    "MFP [nm]";
  List.iter
    (fun t ->
      Printf.printf "%-8g %14.1f %18.3g %14.0f
" t (Bte.Conductivity.bulk t)
        (Bte.Conductivity.heat_capacity t)
        (1e9 *. Bte.Conductivity.mean_free_path t))
    temps;
  print_endline
    "(acoustic branches only; silicon's measured k(300K) = 148 W/(m K) —
    \ the ~100 nm room-temperature mean free path is why sub-micron devices
    \ need the BTE instead of Fourier's law)"

let material_term = Term.(const material_cmd $ temps_t)

let material_info =
  Cmd.info "material"
    ~doc:"Print kinetic-theory material properties of the phonon model."

(* ---------- film ---------- *)

let thicknesses_t =
  Arg.(
    value
    & opt (list float) [ 50e-9; 200e-9; 1e-6 ]
    & info [ "thicknesses" ] ~docv:"LIST" ~doc:"Film thicknesses in metres.")

let film_cmd thicknesses =
  let cfg =
    { Bte.Film.default_config with Bte.Film.ncells = 24; ndirs = 8;
      n_la_bands = 6; max_steps = 20_000 }
  in
  Printf.printf "%-14s %12s %12s %10s
" "thickness" "k_eff" "k_diffusive"
    "ratio";
  List.iter
    (fun l ->
      let r = Bte.Film.effective_conductivity ~cfg ~thickness:l () in
      Printf.printf "%-14s %12.1f %12.1f %10.3f
"
        (Printf.sprintf "%g nm" (1e9 *. l))
        r.Bte.Film.k_eff r.Bte.Film.k_bulk r.Bte.Film.ratio)
    thicknesses

let film_term = Term.(const film_cmd $ thicknesses_t)

let film_info =
  Cmd.info "film"
    ~doc:"Cross-plane thin-film conduction: the phonon size effect."

(* ---------- request ---------- *)

let request_json_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"JSON"
        ~doc:
          "Inline request JSON (see docs/SERVE.md for the schema); \
           mutually exclusive with $(b,--file).")

let request_file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~docv:"PATH"
        ~doc:"Read the request JSON from $(docv) ($(b,-) for stdin).")

let read_all ic =
  let b = Buffer.create 4096 in
  (try
     while true do
       Buffer.add_channel b ic 4096
     done
   with End_of_file -> ());
  Buffer.contents b

let request_cmd json file csv trace metrics no_check sanitize =
  Bte.Setup.register_scenarios ();
  let text =
    match json, file with
    | Some _, Some _ ->
      prerr_endline "error: give either --json or --file, not both";
      exit 2
    | Some s, None -> s
    | None, Some "-" -> read_all stdin
    | None, Some path ->
      let ic = open_in path in
      let s = read_all ic in
      close_in ic;
      s
    | None, None ->
      prerr_endline "error: a request is required (--json JSON or --file PATH)";
      exit 2
  in
  match Finch.Solve_request.of_string text with
  | Error e ->
    Printf.eprintf "error: bad request: %s\n" e;
    exit 2
  | Ok req ->
    Printf.printf "request: %s\n%!" (Finch.Solve_request.summary req);
    let t_ambient =
      (* background temperature for the diagnostics; prepare rejects
         unknown scenarios before this matters *)
      match Bte.Setup.base_of_scenario req.Finch.Solve_request.scenario with
      | Some base -> (Bte.Setup.scenario_of_request base req).Bte.Setup.t_cold
      | None -> 300.
    in
    Finch_codegen.Codegen.install ();
    start_observability ~trace ~metrics;
    (* wire requests may also say "backend": "auto" — resolve exactly as
       the run subcommand does, model-only *)
    let req, tune_decision =
      tune_request ~explain:false ~measure_steps:0 req
    in
    solve_request ?tune_decision ~t_ambient ~csv ~trace ~metrics ~no_check
      ~sanitize req

let request_term =
  Term.(
    const request_cmd $ request_json_t $ request_file_t $ csv_t $ trace_t
    $ metrics_t $ no_check_t $ sanitize_t)

let request_info =
  Cmd.info "request"
    ~doc:
      "Solve one JSON-described request through the Finch facade (the same \
       record bte_serve queues; see docs/SERVE.md)."

(* ---------- main ---------- *)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "bte_sim" ~version:"1.0"
      ~doc:"Phonon Boltzmann transport with a PDE code-generation DSL."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ Cmd.v run_info run_term;
            Cmd.v request_info request_term;
            Cmd.v model_info model_term;
            Cmd.v codegen_info codegen_term;
            Cmd.v material_info material_term;
            Cmd.v film_info film_term ]))
