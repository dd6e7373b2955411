(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (see DESIGN.md experiment index E1-E10).

   Usage:
     bench/main.exe            -- run every experiment (E1..E9 + headline)
     bench/main.exe e4 e6      -- run selected experiments
     bench/main.exe micro      -- bechamel micro-benchmarks of the kernels
     bench/main.exe tune       -- autotuner validation campaign (E14):
                                  hand-picked plans vs --backend auto,
                                  writes self-validated BENCH_tune.json
     bench/main.exe --measured -- also run reduced-scale *real* solves and
                                  report this machine's measured throughput
     bench/main.exe e11 --backend SPEC
                               -- add measured sync/overlap rows for any
                                  backend spec (serial|threads:N|bands:N|
                                  cells:N|hybrid:RxD|gpu[:NAME[:RANKS]])

   Paper-scale rows come from the calibrated analytic performance model
   (the cluster and GPUs of the paper are simulated; see DESIGN.md), so
   absolute seconds are modelled; the *shapes* — who wins, by what factor,
   where curves flatten — are the reproduction targets and are also
   asserted by test/test_perfmodel.ml. *)

let section title =
  Printf.printf "\n================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "================================================================\n%!"

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* facade plumbing                                                      *)
(* ------------------------------------------------------------------ *)

(* Measured solves are described as [Finch.Solve_request.t] values and
   run through [Finch.prepare] / [Finch.solve_prepared] — the same path
   the CLI and the serve scheduler use.  Preparation (the scenario
   build) happens outside the timed window, as the old build-then-solve
   code did: [Solve_result.wall_s] covers only the solve. *)
let () = Bte.Setup.register_scenarios ()

let request_of ~scenario (sc : Bte.Setup.scenario) =
  { (Finch.Solve_request.make scenario) with
    Finch.Solve_request.nx = sc.Bte.Setup.nx;
    ny = sc.Bte.Setup.ny;
    ndirs = sc.Bte.Setup.ndirs;
    nbands = sc.Bte.Setup.n_la_bands;
    nsteps = sc.Bte.Setup.nsteps }

let gpu1 = Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 }

let facade_solve req =
  match Finch.prepare req with
  | Error e -> failwith (Finch.Solve_error.to_string e)
  | Ok prep ->
    (match Finch.solve_prepared req prep with
     | Ok res -> prep, res
     | Error e -> failwith (Finch.Solve_error.to_string e))

(* ------------------------------------------------------------------ *)
(* E1 (Fig. 2): hot-spot temperature field                              *)
(* ------------------------------------------------------------------ *)

let e1 ~measured =
  section
    "E1 / Fig. 2 - temperature field around the hot spot (reduced-scale real solve)";
  let sc =
    { Bte.Setup.small_hotspot with Bte.Setup.nx = 32; ny = 32; nsteps = 120 }
  in
  let prep, res = facade_solve (request_of ~scenario:"hotspot" sc) in
  let ft = res.Finch.Solve_result.solution in
  let stats =
    Bte.Diag.temperature_stats (Finch.Problem.mesh_exn prep.Finch.pr_problem)
      ft ~t_ambient:sc.Bte.Setup.t_cold
  in
  let disp = Bte.Dispersion.make ~n_la:sc.Bte.Setup.n_la_bands in
  row "grid %dx%d, %d dirs, %d bands, %d steps of %.2g s (wall %.2f s)\n"
    sc.Bte.Setup.nx sc.Bte.Setup.ny sc.Bte.Setup.ndirs
    (Bte.Dispersion.nbands disp) sc.Bte.Setup.nsteps
    (Float.min sc.Bte.Setup.dt (Bte.Setup.cfl_dt sc disp))
    res.Finch.Solve_result.wall_s;
  Format.printf "%a@." Bte.Diag.pp_stats stats;
  let prof =
    Bte.Diag.profile_y ft ~nx:sc.Bte.Setup.nx ~ny:sc.Bte.Setup.ny
      ~i:(sc.Bte.Setup.nx / 2)
  in
  row "profile through the spot (cold wall -> hot wall):\n  ";
  Array.iteri (fun j t -> if j mod 4 = 0 then row "%.2f " t) prof;
  row "\n";
  ignore measured

(* ------------------------------------------------------------------ *)
(* E2 (Fig. 4): band- vs cell-parallel strong scaling                   *)
(* ------------------------------------------------------------------ *)

let e2 ~measured =
  section
    "E2 / Fig. 4 - band-parallel vs cell-parallel strong scaling (modelled, paper scale)";
  row "%-10s %14s %14s %14s\n" "processes" "bands [s]" "cells [s]" "ideal [s]";
  let t1 = Bte.Perfmodel.run_time Bte.Perfmodel.Serial in
  List.iter
    (fun p ->
      let bands =
        if p <= 55 then
          Printf.sprintf "%14.1f" (Bte.Perfmodel.run_time (Bte.Perfmodel.Bands p))
        else Printf.sprintf "%14s" "-"
      in
      row "%-10d %s %14.1f %14.1f\n" p bands
        (Bte.Perfmodel.run_time (Bte.Perfmodel.Cells p))
        (t1 /. float_of_int p))
    [ 1; 2; 5; 10; 20; 40; 55; 80; 160; 320 ];
  row "(bands cap at 55 partitions; cells scale to 320, as in the paper)\n";
  if measured then begin
    let sc =
      { Bte.Setup.small_hotspot with Bte.Setup.nx = 16; ny = 16; nsteps = 10 }
    in
    row "\nmeasured (reduced scale %dx%d, real SPMD executors):\n" sc.Bte.Setup.nx
      sc.Bte.Setup.ny;
    List.iter
      (fun (name, target) ->
        let _, res =
          facade_solve
            { (request_of ~scenario:"hotspot" sc) with
              Finch.Solve_request.backend = target }
        in
        row "  %-12s %.3f s\n" name res.Finch.Solve_result.wall_s)
      [ "serial", Finch.Config.Cpu Finch.Config.Serial;
        "bands(4)", Finch.Config.Cpu (Finch.Config.Band_parallel 4);
        "cells(4)", Finch.Config.Cpu (Finch.Config.Cell_parallel 4) ]
  end

(* ------------------------------------------------------------------ *)
(* E3 (Fig. 5): execution-time breakdown, band-parallel                 *)
(* ------------------------------------------------------------------ *)

let breakdown_table title strategies =
  section title;
  row "%-14s %12s %14s %16s %12s\n" "processes" "intensity" "temperature"
    "communication" "total [s]";
  List.iter
    (fun (label, strategy) ->
      let b = Bte.Perfmodel.run_breakdown strategy in
      let p = Prt.Breakdown.percentages b in
      row "%-14s %11.1f%% %13.1f%% %15.1f%% %12.1f\n" label
        p.Prt.Breakdown.pct_intensity p.Prt.Breakdown.pct_temperature
        p.Prt.Breakdown.pct_communication (Prt.Breakdown.total b))
    strategies

let e3 ~measured =
  ignore measured;
  breakdown_table
    "E3 / Fig. 5 - execution-time breakdown, band-parallel strategy (modelled)"
    (List.map
       (fun p ->
         ( string_of_int p,
           if p = 1 then Bte.Perfmodel.Serial else Bte.Perfmodel.Bands p ))
       [ 1; 5; 10; 20; 40; 55 ]);
  row "(paper: intensity ~97%% at p=1, ~73%% at p=55)\n"

(* ------------------------------------------------------------------ *)
(* E4 (Fig. 7): CPU+GPU vs CPU-only scaling                             *)
(* ------------------------------------------------------------------ *)

let e4 ~measured =
  section
    "E4 / Fig. 7 - GPU-accelerated vs CPU-only scaling (modelled, paper scale)";
  row "%-10s %16s %16s %12s\n" "p (=GPUs)" "CPU only [s]" "CPU+GPU [s]" "speedup";
  List.iter
    (fun p ->
      let cpu =
        Bte.Perfmodel.run_time
          (if p = 1 then Bte.Perfmodel.Serial else Bte.Perfmodel.Bands p)
      in
      let gpu = Bte.Perfmodel.run_time (Bte.Perfmodel.Gpu p) in
      row "%-10d %16.1f %16.1f %11.1fx\n" p cpu gpu (cpu /. gpu))
    [ 1; 2; 5; 10; 20; 40; 55 ];
  let headline = Bte.Perfmodel.gpu_speedup ~p:1 () in
  row "\nE9 headline: GPU version vs equal-partition CPU version: %.1fx (paper: ~18x)\n"
    headline;
  row
    "best 20-core CPU-only: %.1f s vs 1 core + 1 GPU: %.1f s (paper: CPU-20 slightly slower)\n"
    (Bte.Perfmodel.run_time (Bte.Perfmodel.Cells 20))
    (Bte.Perfmodel.run_time (Bte.Perfmodel.Gpu 1));
  if measured then begin
    let sc =
      { Bte.Setup.small_hotspot with Bte.Setup.nx = 16; ny = 16; nsteps = 10 }
    in
    row "\nmeasured (reduced scale, simulated devices execute for real):\n";
    List.iter
      (fun ranks ->
        let _, res =
          facade_solve
            { (request_of ~scenario:"hotspot" sc) with
              Finch.Solve_request.backend =
                Finch.Config.Gpu
                  { spec = Gpu_sim.Spec.a6000; devices = 1; ranks } }
        in
        row "  %d device(s): wall %.3f s; modelled kernel time %.5f s\n" ranks
          res.Finch.Solve_result.wall_s
          (match res.Finch.Solve_result.outcome.Finch.Solve.gpu with
           | Some g -> g.Finch.Target_gpu.device.Gpu_sim.Memory.kernel_time
           | None -> 0.))
      [ 1; 2; 4 ]
  end

(* ------------------------------------------------------------------ *)
(* E5 (Fig. 8): GPU-version breakdown                                   *)
(* ------------------------------------------------------------------ *)

let e5 ~measured =
  ignore measured;
  breakdown_table
    "E5 / Fig. 8 - execution-time breakdown, GPU-accelerated version (modelled)"
    (List.map (fun g -> string_of_int g, Bte.Perfmodel.Gpu g) [ 1; 2; 4; 8 ]);
  row
    "(paper: temperature update takes a substantially larger share than on CPU;\n\
    \ communication between GPU and host is not significant)\n"

(* ------------------------------------------------------------------ *)
(* E6 (Sec. III-D table): kernel profiling metrics                      *)
(* ------------------------------------------------------------------ *)

let e6 ~measured =
  section "E6 / Sec. III-D - profiling the intensity kernel on one A6000";
  let sm, mem, flop = Bte.Perfmodel.gpu_profile () in
  row "%-22s | %-8s | %s\n" "metric" "model" "paper";
  row "%-22s | %6.0f%%  | 86%%\n" "SM utilization" (100. *. sm);
  row "%-22s | %6.0f%%  | 11%%\n" "memory throughput" (100. *. mem);
  row "%-22s | %6.0f%%  | 49%% of peak\n" "FLOP performance" (100. *. flop);
  if measured then begin
    let sc =
      { Bte.Setup.small_hotspot with Bte.Setup.nx = 16; ny = 16; nsteps = 5 }
    in
    let _, res =
      facade_solve
        { (request_of ~scenario:"hotspot" sc) with
          Finch.Solve_request.backend = gpu1 }
    in
    match res.Finch.Solve_result.outcome.Finch.Solve.gpu with
    | Some g ->
      let r =
        Gpu_sim.Perf.report g.Finch.Target_gpu.device
          ~avg_threads:g.Finch.Target_gpu.profile_threads
      in
      row "\nexecuted (reduced grid => lower occupancy):\n%s\n"
        (Gpu_sim.Perf.to_string r)
    | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* E7 (Fig. 9): every strategy + the Fortran reference                  *)
(* ------------------------------------------------------------------ *)

let e7 ~measured =
  section "E7 / Fig. 9 - all strategies and the hand-written reference (modelled)";
  row "%-10s %12s %12s %12s %12s\n" "p" "bands [s]" "cells [s]" "GPU [s]"
    "Fortran [s]";
  List.iter
    (fun p ->
      let cell = function
        | Some v -> Printf.sprintf "%12.1f" v
        | None -> Printf.sprintf "%12s" "-"
      in
      let if55 s = if p <= 55 then Some (Bte.Perfmodel.run_time s) else None in
      row "%-10d %s %s %s %s\n" p
        (cell (if55 (Bte.Perfmodel.Bands p)))
        (cell (Some (Bte.Perfmodel.run_time (Bte.Perfmodel.Cells p))))
        (cell (if55 (Bte.Perfmodel.Gpu p)))
        (cell (if55 (Bte.Perfmodel.Fortran p))))
    [ 1; 2; 5; 10; 20; 40; 80; 160; 320 ];
  row
    "(paper: Fortran ~2x faster sequentially but scales worse; best times of\n\
    \ the 10-GPU run and the 320-process CPU run are roughly equal:\n\
    \ GPU(10) = %.1f s vs cells(320) = %.1f s)\n"
    (Bte.Perfmodel.run_time (Bte.Perfmodel.Gpu 10))
    (Bte.Perfmodel.run_time (Bte.Perfmodel.Cells 320));
  if measured then begin
    let sc =
      { Bte.Setup.small_hotspot with Bte.Setup.nx = 20; ny = 20; nsteps = 10 }
    in
    let _, res = facade_solve (request_of ~scenario:"hotspot" sc) in
    let t_dsl = res.Finch.Solve_result.wall_s in
    let r = Bte.Reference.create sc in
    let t0 = Unix.gettimeofday () in
    Bte.Reference.run r ~nsteps:sc.Bte.Setup.nsteps;
    let t_ref = Unix.gettimeofday () -. t0 in
    row
      "\nmeasured on this machine (reduced scale): DSL %.3f s, hand-written %.3f s (%.1fx)\n"
      t_dsl t_ref (t_dsl /. t_ref)
  end

(* ------------------------------------------------------------------ *)
(* E8 (Fig. 10): corner heat source in an elongated domain              *)
(* ------------------------------------------------------------------ *)

let e8 ~measured =
  ignore measured;
  section
    "E8 / Fig. 10 - corner heat source, elongated domain (reduced-scale real solve)";
  let sc =
    { Bte.Setup.small_corner with Bte.Setup.nx = 48; ny = 12; nsteps = 120 }
  in
  let prep, res = facade_solve (request_of ~scenario:"corner" sc) in
  let ft = res.Finch.Solve_result.solution in
  let stats =
    Bte.Diag.temperature_stats (Finch.Problem.mesh_exn prep.Finch.pr_problem)
      ft ~t_ambient:sc.Bte.Setup.t_cold
  in
  Format.printf "%a@." Bte.Diag.pp_stats stats;
  row "temperature along the top wall (source corner -> far end):\n  ";
  let prof = Bte.Diag.profile_x ft ~nx:sc.Bte.Setup.nx ~j:(sc.Bte.Setup.ny - 1) in
  Array.iteri (fun i t -> if i mod 6 = 0 then row "%.1f " t) prof;
  row "\n(paper: T in [100, 150] K, heat spreading from the corner)\n"

(* ------------------------------------------------------------------ *)
(* E11: execution engines — persistent pool, closure vs native          *)
(* ------------------------------------------------------------------ *)

(* all rows are real reduced-scale solves on this machine; small steps and
   many of them, so per-step runtime overhead is resolvable against the
   sweep work *)
let e11_scenario =
  { Bte.Setup.small_hotspot with
    Bte.Setup.nx = 8; ny = 8; ndirs = 4; n_la_bands = 4; nsteps = 200 }

let e11_rows () =
  let sc = e11_scenario in
  let ndomains = 4 in
  (* every executor row uses the default (closure) evaluator so the rows
     differ only in runtime; the native rows isolate the evaluator *)
  let req_with ?(eval = Finch.Config.Closure) ?(overlap = false) target =
    { (request_of ~scenario:"hotspot" sc) with
      Finch.Solve_request.backend = target;
      eval_mode = eval;
      overlap }
  in
  let solve_with ?eval ?overlap target =
    let _, res = facade_solve (req_with ?eval ?overlap target) in
    res.Finch.Solve_result.wall_s, res.Finch.Solve_result.outcome
  in
  (* one untimed native solve first: on a cold codegen cache the first
     native solve compiles its kernel inside the span it is timed by *)
  ignore (solve_with ~eval:Finch.Config.Native (Finch.Config.Cpu Finch.Config.Serial));
  let t_serial_closure, o_serial_closure =
    solve_with (Finch.Config.Cpu Finch.Config.Serial)
  in
  (* generated-code evaluator: same serial solve through the compiled
     kernel, warm *)
  let t_serial_native, o_serial_native =
    solve_with ~eval:Finch.Config.Native (Finch.Config.Cpu Finch.Config.Serial)
  in
  (* intensity-phase (sweep) seconds isolate the evaluator from the
     temperature host callback, which every evaluator shares *)
  let sweep_closure_s =
    o_serial_closure.Finch.Solve.breakdown.Prt.Breakdown.intensity
  in
  let sweep_native_s =
    o_serial_native.Finch.Solve.breakdown.Prt.Breakdown.intensity
  in
  let t_pool, _ =
    solve_with (Finch.Config.Cpu (Finch.Config.Threaded ndomains))
  in
  let t_pool_native, _ =
    solve_with ~eval:Finch.Config.Native
      (Finch.Config.Cpu (Finch.Config.Threaded ndomains))
  in
  let t_hybrid, _ =
    solve_with (Finch.Config.Cpu (Finch.Config.Hybrid (2, 2)))
  in
  (* the mesh-partitioned executor: exercises the halo-exchange path, so a
     metrics-enabled bench run reports real halo traffic *)
  let t_cells, _ =
    solve_with (Finch.Config.Cpu (Finch.Config.Cell_parallel 2))
  in
  (* same partitioned solve with the nonblocking exchange behind the
     interior sweep — numerically bit-identical (asserted by the tests) *)
  let t_cells_ov, _ =
    solve_with ~overlap:true (Finch.Config.Cpu (Finch.Config.Cell_parallel 2))
  in
  (* the hybrid CPU/GPU executor on the simulated device *)
  let t_gpu, _ = solve_with gpu1 in
  ( t_serial_closure, t_serial_native, t_pool, t_pool_native, t_hybrid,
    t_cells, t_cells_ov, t_gpu, ndomains, (sweep_closure_s, sweep_native_s) )

(* per-step runtime overhead of each serial evaluator across mesh sizes:
   wall seconds divided by nsteps, so the fixed per-step cost (schedule
   dispatch, and for native the one-off compile amortised away by the
   cache) is visible against the sweep work as the mesh grows *)
let e11_per_step () =
  List.map
    (fun (nx, nsteps) ->
      let sc =
        { Bte.Setup.small_hotspot with
          Bte.Setup.nx; ny = nx; ndirs = 4; n_la_bands = 4; nsteps }
      in
      let wall eval =
        let _, res =
          facade_solve
            { (request_of ~scenario:"hotspot" sc) with
              Finch.Solve_request.eval_mode = eval }
        in
        res.Finch.Solve_result.wall_s
      in
      let tc = wall Finch.Config.Closure in
      let tn = wall Finch.Config.Native in
      ( nx, nsteps,
        tc /. float_of_int nsteps,
        tn /. float_of_int nsteps ))
    [ 8, 200; 16, 100; 32, 40 ]

(* --opt variants: the same serial / pool / gpu solves with the optimizer
   level pinned, each with the runtime-counter deltas it produced (pool
   regions and barrier waits for the threaded rows, kernel launches for
   the gpu rows; zero when the metrics registry is disabled) *)
type e11_variant = {
  v_label : string;
  v_wall : float;
  v_regions : int;
  v_waits : int;
  v_wait_ns : float;
  v_launches : int;
  v_compile_ns : int;
    (* codegen.compile_ns delta of the variant's first (cold) solve:
       the one-off native compile, reported separately so it never
       pollutes the best-of wall times *)
}

let e11_opt_variants () =
  let sc = e11_scenario in
  let ndomains = 4 in
  let cval name = Prt.Metrics.value (Prt.Metrics.counter name) in
  let bw () = Prt.Metrics.histogram "pool.barrier_wait_ns" in
  let run label eval level target =
    let req =
      { (request_of ~scenario:"hotspot" sc) with
        Finch.Solve_request.eval_mode = eval;
        opt_level = level;
        backend =
          (match target with
           | `Cpu strategy -> Finch.Config.Cpu strategy
           | `Gpu -> gpu1) }
    in
    (* preparation outside the counter window, as the old build was *)
    let prep =
      match Finch.prepare req with
      | Ok prep -> prep
      | Error e -> failwith (Finch.Solve_error.to_string e)
    in
    let r0 = cval "pool.regions" in
    let w0 = Prt.Metrics.hist_count (bw ()) in
    let n0 = Prt.Metrics.hist_sum (bw ()) in
    let l0 = cval "gpu.kernel_launches" in
    let k0 = cval "codegen.compile_ns" in
    let res =
      match Finch.solve_prepared req prep with
      | Ok res -> res
      | Error e -> failwith (Finch.Solve_error.to_string e)
    in
    {
      v_label = label;
      v_wall = res.Finch.Solve_result.wall_s;
      v_regions = cval "pool.regions" - r0;
      v_waits = Prt.Metrics.hist_count (bw ()) - w0;
      v_wait_ns = Prt.Metrics.hist_sum (bw ()) -. n0;
      v_launches = cval "gpu.kernel_launches" - l0;
      v_compile_ns = cval "codegen.compile_ns" - k0;
    }
  in
  let closure = Finch.Config.Closure and native = Finch.Config.Native in
  let specs =
    [
      "serial_opt0", closure, Finch.Config.O0, `Cpu Finch.Config.Serial;
      "serial_opt2", closure, Finch.Config.O2, `Cpu Finch.Config.Serial;
      ( "serial_native_opt0", native, Finch.Config.O0,
        `Cpu Finch.Config.Serial );
      ( "serial_native_opt2", native, Finch.Config.O2,
        `Cpu Finch.Config.Serial );
      ( "threaded_pool_opt0", closure, Finch.Config.O0,
        `Cpu (Finch.Config.Threaded ndomains) );
      ( "threaded_pool_opt2", closure, Finch.Config.O2,
        `Cpu (Finch.Config.Threaded ndomains) );
      ( "threaded_pool_native_opt2", native, Finch.Config.O2,
        `Cpu (Finch.Config.Threaded ndomains) );
      "gpu_opt0", closure, Finch.Config.O0, `Gpu;
      "gpu_opt2", closure, Finch.Config.O2, `Gpu;
    ]
  in
  (* wall times are best-of-5 over warm rounds only: the first round
     supplies the deterministic counter deltas and absorbs the one-off
     native compile (kept apart as compile_ns), so a cold codegen cache
     never pollutes the timed rows.  Single solves at this scale see
     large scheduler noise, which would drown the schedule
     differences. *)
  let first = List.map (fun (l, ev, lv, t) -> run l ev lv t) specs in
  let warm = List.map (fun v -> { v with v_wall = infinity }) first in
  List.fold_left
    (fun acc _ ->
      List.map2
        (fun v (l, ev, lv, t) ->
          let again = run l ev lv t in
          { v with v_wall = min v.v_wall again.v_wall })
        acc specs)
    warm [ 1; 2; 3; 4; 5 ]

(* extra backend selected with `--backend SPEC` on the command line:
   measured sync vs overlap rows in E11 for any executor *)
let extra_backend : (string * Finch.Config.target) option ref = ref None

let e11_measure ?(overlap = false) target =
  let _, res =
    facade_solve
      { (request_of ~scenario:"hotspot" e11_scenario) with
        Finch.Solve_request.backend = target;
        overlap }
  in
  res.Finch.Solve_result.wall_s

let e11 ~measured =
  ignore measured;
  section
    "E11 - execution engines: persistent domain pool and evaluators (measured)";
  let sc = e11_scenario in
  row "reduced scale %dx%d, %d dirs, %d steps; all rows real solves\n"
    sc.Bte.Setup.nx sc.Bte.Setup.ny sc.Bte.Setup.ndirs sc.Bte.Setup.nsteps;
  let tsc, tsn, tp, tpn, th, tc, tcov, tg, nd, (swc, swn) = e11_rows () in
  row "  %-28s %8.3f s\n" "serial (closure)" tsc;
  row "  %-28s %8.3f s  (%.2fx vs closure)\n" "serial (native)" tsn (tsc /. tsn);
  row "  %-28s %8.3f s -> %.3f s  (%.2fx; temperature callback excluded)\n"
    "serial sweep phase" swc swn (swc /. swn);
  row "  %-28s %8.3f s\n" (Printf.sprintf "threads(%d) persistent pool" nd) tp;
  row "  %-28s %8.3f s\n"
    (Printf.sprintf "threads(%d) pool, native" nd)
    tpn;
  row "  %-28s %8.3f s\n" "hybrid 2 ranks x 2 threads" th;
  row "  %-28s %8.3f s\n" "cells(2) SPMD + halo" tc;
  row "  %-28s %8.3f s  (bit-identical result)\n" "cells(2) overlap exchange"
    tcov;
  row "  %-28s %8.3f s\n" "gpu (simulated a6000)" tg;
  row "\n  per-step overhead, serial closure vs native (wall_s / nsteps):\n";
  List.iter
    (fun (nx, nsteps, psc, psn) ->
      row "  %-28s %8.5f s closure  %8.5f s native  (%.2fx, %d steps)\n"
        (Printf.sprintf "%dx%d grid" nx nx)
        psc psn (psc /. psn) nsteps)
    (e11_per_step ());
  row
    "\n  --opt variants (optimizer level pinned, bit-identical results; \
     wall is best-of-5 warm, compile is the one-off cold build):\n";
  List.iter
    (fun v ->
      let compile =
        if v.v_compile_ns > 0 then
          Printf.sprintf "  +%.3f s compile" (float_of_int v.v_compile_ns *. 1e-9)
        else ""
      in
      if Prt.Metrics.enabled () then
        row "  %-28s %8.3f s  (regions %d, barrier waits %d, launches %d)%s\n"
          v.v_label v.v_wall v.v_regions v.v_waits v.v_launches compile
      else row "  %-28s %8.3f s%s\n" v.v_label v.v_wall compile)
    (e11_opt_variants ());
  (match !extra_backend with
   | Some (spec, tgt) ->
     let t_sync = e11_measure tgt in
     let t_ov = e11_measure ~overlap:true tgt in
     row "  %-28s %8.3f s\n" (Printf.sprintf "%s (--backend)" spec) t_sync;
     row "  %-28s %8.3f s  (overlap on)\n"
       (Printf.sprintf "%s (--backend)" spec)
       t_ov
   | None -> ());
  let om = Bte.Perfmodel.cells_overlap ~p:20 () in
  row
    "  modelled paper-scale cells(20): step %.3f s sync -> %.3f s overlapped \
     (%.3f s of exchange hidden)\n"
    om.Bte.Perfmodel.sync_step om.Bte.Perfmodel.overlap_step
    om.Bte.Perfmodel.hidden

let e11_json path =
  (* the executor rows run under the metrics registry so the emitted JSON
     can embed the key runtime counters alongside the wall times *)
  Prt.Metrics.enable ();
  Prt.Metrics.reset_all ();
  let tsc, tsn, tp, tpn, th, tc, tcov, tg, nd, (swc, swn) = e11_rows () in
  let variants = e11_opt_variants () in
  let per_step = e11_per_step () in
  let variant l = List.find (fun v -> v.v_label = l) variants in
  let sc = e11_scenario in
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"scenario\": { \"nx\": %d, \"ny\": %d, \"ndirs\": %d, \"nsteps\": %d },\n"
    sc.Bte.Setup.nx sc.Bte.Setup.ny sc.Bte.Setup.ndirs sc.Bte.Setup.nsteps;
  p "  \"ndomains\": %d,\n" nd;
  p "  \"wall_s\": {\n";
  p "    \"serial_closure\": %.6f,\n" tsc;
  p "    \"serial_native\": %.6f,\n" tsn;
  p "    \"threaded_pool\": %.6f,\n" tp;
  p "    \"threaded_pool_native\": %.6f,\n" tpn;
  p "    \"hybrid_2x2\": %.6f,\n" th;
  p "    \"cells_spmd_2\": %.6f,\n" tc;
  p "    \"cells_spmd_2_overlap\": %.6f,\n" tcov;
  p "    \"gpu\": %.6f\n" tg;
  p "  },\n";
  p "  \"serial_native_speedup_vs_closure\": %.4f,\n" (tsc /. tsn);
  (* the intensity-phase seconds isolate the evaluators from the
     temperature host callback, which every evaluator shares and which
     bounds the full-solve ratio at this mesh size (Amdahl) *)
  p "  \"serial_sweep_phase_s\": { \"closure\": %.6f, \"native\": %.6f },\n"
    swc swn;
  p "  \"serial_native_sweep_speedup\": %.4f,\n" (swc /. swn);
  (* per-step runtime overhead of the serial evaluators across mesh sizes
     (wall seconds / nsteps; the native rows run on a warm compile cache) *)
  p "  \"per_step_s\": {\n";
  List.iteri
    (fun i (nx, nsteps, psc, psn) ->
      p
        "    \"%dx%d\": { \"nsteps\": %d, \"closure\": %.7f, \"native\": \
         %.7f }%s\n"
        nx nx nsteps psc psn
        (if i = List.length per_step - 1 then "" else ","))
    per_step;
  p "  },\n";
  (* the --opt rows: same solves with the optimizer level pinned, each
     with the counter deltas it produced; the opt2 threaded rows run the
     fused step-pair schedule (half the regions and barrier waits of
     opt0), the opt2 gpu row launches one batched kernel per step where
     opt0 launches one per resolved band.  wall_s is best-of-5 over warm
     rounds; the first-run native build cost sits in compile_ns so a cold
     codegen cache never skews the timed rows *)
  p "  \"opt_variants\": {\n";
  List.iteri
    (fun i v ->
      p
        "    \"%s\": { \"wall_s\": %.6f, \"compile_ns\": %d, \
         \"pool.regions\": %d, \"pool.barrier_waits\": %d, \
         \"pool.barrier_wait_ns\": %.0f, \"gpu.kernel_launches\": %d }%s\n"
        v.v_label v.v_wall v.v_compile_ns v.v_regions v.v_waits v.v_wait_ns
        v.v_launches
        (if i = List.length variants - 1 then "" else ","))
    variants;
  p "  },\n";
  (* the opt1_* keys predate the fold of O1 into O2; opt2 runs the same
     fused schedule *)
  let vp0 = variant "threaded_pool_opt0" and vp2 = variant "threaded_pool_opt2" in
  let vg0 = variant "gpu_opt0" and vg2 = variant "gpu_opt2" in
  p "  \"opt1_pool_regions_reduction\": %.4f,\n"
    (1. -. (float_of_int vp2.v_regions /. float_of_int (max 1 vp0.v_regions)));
  p "  \"opt1_pool_barrier_waits_reduction\": %.4f,\n"
    (1. -. (float_of_int vp2.v_waits /. float_of_int (max 1 vp0.v_waits)));
  p "  \"opt1_pool_speedup_vs_opt0\": %.4f,\n" (vp0.v_wall /. vp2.v_wall);
  p "  \"opt2_gpu_launch_reduction\": %.4f,\n"
    (1. -. (float_of_int vg2.v_launches /. float_of_int (max 1 vg0.v_launches)));
  (* under the native evaluator the optimizer's schedule wins show up on
     serial wall time (under the interpreter they sit below dispatch
     overhead; see docs/OPTIMIZER.md) *)
  let vn0 = variant "serial_native_opt0" and vn2 = variant "serial_native_opt2" in
  p "  \"serial_native_opt2_speedup_vs_opt0\": %.4f,\n"
    (vn0.v_wall /. vn2.v_wall);
  (* modelled paper-scale effect of the nonblocking exchange: the hidden
     seconds come straight off the cell-parallel per-step critical path *)
  let om = Bte.Perfmodel.cells_overlap ~p:20 () in
  p "  \"overlap_cells20_modelled\": {\n";
  p "    \"sync_step_s\": %.6f,\n" om.Bte.Perfmodel.sync_step;
  p "    \"overlap_step_s\": %.6f,\n" om.Bte.Perfmodel.overlap_step;
  p "    \"hidden_s\": %.6f\n" om.Bte.Perfmodel.hidden;
  p "  },\n";
  (* lint the benchmark scenario under the same backends the rows ran so
     the analysis.* counters in the JSON reflect this exact program *)
  List.iter
    (fun spec ->
      match Finch.Config.target_of_string spec with
      | Error _ -> ()
      | Ok tgt ->
        (match
           Finch.prepare
             { (request_of ~scenario:"hotspot" sc) with
               Finch.Solve_request.backend = tgt }
         with
         | Ok prep ->
           ignore (Finch_analysis.Driver.check_problem prep.Finch.pr_problem)
         | Error _ -> ()))
    [ "serial"; "threads:2"; "hybrid:2x2"; "cells:2"; "gpu" ];
  let c name = Prt.Metrics.value (Prt.Metrics.counter name) in
  (* capture the lint tallies before the optimizer pipeline runs: its
     verification harness also feeds the analysis.* counters, including
     the findings of deliberately rejected passes *)
  let lint_errors = c "analysis.errors" in
  let lint_warnings = c "analysis.warnings" in
  (* run the optimizer pipeline over the bench scenario's threaded and
     gpu programs so the opt.* counters describe this configuration *)
  List.iter
    (fun target ->
      match
        Finch.prepare
          { (request_of ~scenario:"hotspot" e11_scenario) with
            Finch.Solve_request.backend =
              (match target with
               | `Pool -> Finch.Config.Cpu (Finch.Config.Threaded nd)
               | `Gpu -> gpu1) }
      with
      | Ok prep ->
        ignore (Finch_opt.Opt.optimize_problem prep.Finch.pr_problem)
      | Error _ -> ())
    [ `Pool; `Gpu ];
  let bw = Prt.Metrics.histogram "pool.barrier_wait_ns" in
  p "  \"metrics\": {\n";
  p "    \"halo.bytes\": %d,\n" (c "halo.bytes");
  p "    \"halo.rounds\": %d,\n" (c "halo.rounds");
  p "    \"pool.regions\": %d,\n" (c "pool.regions");
  p "    \"pool.barrier_waits\": %d,\n" (Prt.Metrics.hist_count bw);
  p "    \"pool.barrier_wait_ns\": %.0f,\n" (Prt.Metrics.hist_sum bw);
  p "    \"spmd.barriers\": %d,\n" (c "spmd.barriers");
  p "    \"spmd.allreduce_bytes\": %d,\n" (c "spmd.allreduce_bytes");
  p "    \"spmd.p2p_msgs\": %d,\n" (c "spmd.p2p_msgs");
  p "    \"spmd.p2p_bytes\": %d,\n" (c "spmd.p2p_bytes");
  p "    \"spmd.waits\": %d,\n" (c "spmd.waits");
  p "    \"cluster.p2p_time_ns\": %d,\n" (c "cluster.p2p_time_ns");
  p "    \"gpu.kernel_launches\": %d,\n" (c "gpu.kernel_launches");
  p "    \"codegen.cache_hits\": %d,\n" (c "codegen.cache_hits");
  p "    \"codegen.cache_misses\": %d,\n" (c "codegen.cache_misses");
  p "    \"codegen.compile_ns\": %d,\n" (c "codegen.compile_ns");
  p "    \"opt.loops_fused\": %d,\n" (c "opt.loops_fused");
  p "    \"opt.steps_fused\": %d,\n" (c "opt.steps_fused");
  p "    \"opt.kernels_fused\": %d,\n" (c "opt.kernels_fused");
  p "    \"opt.assigns_eliminated\": %d,\n" (c "opt.assigns_eliminated");
  p "    \"opt.transfers_coalesced\": %d,\n" (c "opt.transfers_coalesced");
  p "    \"opt.h2d_hoisted\": %d,\n" (c "opt.h2d_hoisted");
  p "    \"opt.passes_rejected\": %d,\n" (c "opt.passes_rejected");
  p "    \"analysis.errors\": %d,\n" lint_errors;
  p "    \"analysis.warnings\": %d,\n" lint_warnings;
  p "    \"sanitize.poison_reads\": %d\n" (c "sanitize.poison_reads");
  p "  }\n";
  p "}\n";
  close_out oc;
  row "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E12: scripted strong-scaling campaign (scripts/run_scaling.sh)       *)
(* ------------------------------------------------------------------ *)

(* Sweeps every strategy of the performance model over the paper's rank
   counts (up to 320) and writes BENCH_scaling.json: per-point modelled
   run time, parallel efficiency relative to the series' first point,
   and communication fraction, plus the derived headline numbers (GPU
   speedup, DSL-vs-Fortran crossover, Amdahl ceiling of the band
   strategy).  The emitter self-validates — out-of-range efficiencies or
   communication fractions abort with a nonzero exit — so the CI smoke
   step only has to run it. *)

let scaling_ranks =
  [ 1; 2; 4; 5; 8; 10; 16; 20; 32; 40; 55; 64; 80; 128; 160; 256; 320 ]

type scal_row = {
  sr_p : int;
  sr_time : float;
  sr_eff : float;   (* t(p0)*p0 / (t(p)*p), p0 = first swept point *)
  sr_comm : float;  (* communication fraction of the modelled run *)
}

let scaling_series ~max_ranks =
  let s = Bte.Perfmodel.paper_shape in
  let ranks = List.filter (fun p -> p <= max_ranks) scaling_ranks in
  let series name cap strat =
    let rows =
      List.filter (fun p -> p <= cap) ranks
      |> List.map (fun p ->
             let b = Bte.Perfmodel.run_breakdown (strat p) in
             let pc = Prt.Breakdown.percentages b in
             ( p,
               Prt.Breakdown.total b,
               pc.Prt.Breakdown.pct_communication /. 100. ))
    in
    match rows with
    | [] -> name, []
    | (p0, t0, _) :: _ ->
      ( name,
        List.map
          (fun (p, t, cf) ->
            { sr_p = p;
              sr_time = t;
              sr_eff = t0 *. float_of_int p0 /. (t *. float_of_int p);
              sr_comm = cf })
          rows )
  in
  let serial_at_1 mk p = if p = 1 then Bte.Perfmodel.Serial else mk p in
  [ series "dsl_bands" s.Bte.Perfmodel.nbands
      (serial_at_1 (fun p -> Bte.Perfmodel.Bands p));
    series "dsl_cells" s.Bte.Perfmodel.ncells
      (serial_at_1 (fun p -> Bte.Perfmodel.Cells p));
    series "fortran" s.Bte.Perfmodel.nbands (fun p -> Bte.Perfmodel.Fortran p);
    series "gpu" s.Bte.Perfmodel.nbands (fun p -> Bte.Perfmodel.Gpu p);
    (* the 2-D decompositions: each band-parallel rank drives a grid of
       devices tiling the cells (d2d ghosts over NVLink / host staging) *)
    series "gpu_grid_4dev" s.Bte.Perfmodel.nbands
      (fun p -> Bte.Perfmodel.Gpu_grid (4, p));
    series "gpu_grid_8dev" s.Bte.Perfmodel.nbands
      (fun p -> Bte.Perfmodel.Gpu_grid (8, p)) ]

let scaling_validate series =
  let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("scaling: " ^ m); exit 1) fmt in
  List.iter
    (fun (name, rows) ->
      if rows = [] then fail "series %s swept no rank counts" name;
      List.iter
        (fun r ->
          if not (r.sr_time > 0.) then
            fail "%s p=%d: non-positive run time %g" name r.sr_p r.sr_time;
          if r.sr_eff <= 0. || r.sr_eff > 1.2 then
            fail "%s p=%d: efficiency %g outside (0, 1.2]" name r.sr_p r.sr_eff;
          if r.sr_comm < 0. || r.sr_comm > 1. then
            fail "%s p=%d: communication fraction %g outside [0, 1]" name
              r.sr_p r.sr_comm)
        rows;
      (* monotone-sane: scaling overheads only grow, so the last swept
         point cannot be more efficient than the first *)
      let first = List.hd rows and last = List.nth rows (List.length rows - 1) in
      if List.length rows > 1 && last.sr_eff > first.sr_eff +. 1e-9 then
        fail "%s: efficiency rises from %.3f (p=%d) to %.3f (p=%d)" name
          first.sr_eff first.sr_p last.sr_eff last.sr_p)
    series

(* smallest swept p where [a] runs faster than [b]; None if never *)
let crossover rows_a rows_b =
  List.find_map
    (fun ra ->
      match List.find_opt (fun rb -> rb.sr_p = ra.sr_p) rows_b with
      | Some rb when ra.sr_time < rb.sr_time -> Some ra.sr_p
      | _ -> None)
    rows_a

let e12_scaling ?(max_ranks = 320) path =
  section
    (Printf.sprintf
       "E12 - strong-scaling campaign to %d ranks (modelled, paper scale)"
       max_ranks);
  let s = Bte.Perfmodel.paper_shape in
  let series = scaling_series ~max_ranks in
  scaling_validate series;
  let find name = List.assoc name series in
  let bands = find "dsl_bands" and fortran = find "fortran" in
  let cells = find "dsl_cells" and gpu = find "gpu" in
  let xover_fortran = crossover bands fortran in
  let gpu10 = List.find_opt (fun r -> r.sr_p = 10) gpu in
  (* the paper's "roughly equal" best times: first cell-parallel point
     within 15% of the 10-GPU run *)
  let cells_matching_gpu10 =
    match gpu10 with
    | None -> None
    | Some g ->
      List.find_map
        (fun r -> if r.sr_time <= 1.15 *. g.sr_time then Some r.sr_p else None)
        cells
  in
  let cells320_over_gpu10 =
    match gpu10, List.find_opt (fun r -> r.sr_p = max_ranks) cells with
    | Some g, Some c -> Some (c.sr_time /. g.sr_time)
    | _ -> None
  in
  let headline = Bte.Perfmodel.gpu_speedup ~p:1 () in
  (* Amdahl ceiling of the band strategy: the per-cell Newton solve runs
     redundantly on every rank, so it bounds the achievable speedup *)
  let t_serial = Bte.Perfmodel.run_time Bte.Perfmodel.Serial in
  let amdahl_floor =
    float_of_int (s.Bte.Perfmodel.nsteps * s.Bte.Perfmodel.ncells)
    *. Bte.Perfmodel.default.Bte.Perfmodel.newton_cell_time
  in
  let amdahl_ceiling = t_serial /. amdahl_floor in
  row "%-16s %6s %12s %12s %10s\n" "series" "p" "time [s]" "efficiency"
    "comm";
  List.iter
    (fun (name, rows) ->
      List.iter
        (fun r ->
          row "%-16s %6d %12.1f %11.1f%% %9.1f%%\n" name r.sr_p r.sr_time
            (100. *. r.sr_eff) (100. *. r.sr_comm))
        rows)
    series;
  row "\nGPU vs equal-partition CPU at p=1: %.1fx (paper: ~18x)\n" headline;
  (match xover_fortran with
   | Some p ->
     row "DSL band strategy overtakes the Fortran reference at p=%d\n" p
   | None -> row "DSL band strategy never overtakes Fortran in this sweep\n");
  (match cells_matching_gpu10, gpu10 with
   | Some p, Some g ->
     row
       "cells(%d) comes within 15%% of the 10-GPU run (%.1f s) — the paper's \
        \"roughly equal\" best times\n"
       p g.sr_time
   | _ -> ());
  row "Amdahl ceiling of the band strategy: %.0fx (redundant Newton floor %.1f s)\n"
    amdahl_ceiling amdahl_floor;
  (* ---- JSON ---- *)
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  p "{\n";
  p "  \"campaign\": \"strong-scaling\",\n";
  p "  \"max_ranks\": %d,\n" max_ranks;
  p "  \"shape\": { \"ncells\": %d, \"ndirs\": %d, \"nbands\": %d, \"nsteps\": %d },\n"
    s.Bte.Perfmodel.ncells s.Bte.Perfmodel.ndirs s.Bte.Perfmodel.nbands
    s.Bte.Perfmodel.nsteps;
  p "  \"series\": {\n";
  List.iteri
    (fun i (name, rows) ->
      p "    \"%s\": [\n" name;
      List.iteri
        (fun j r ->
          p
            "      { \"p\": %d, \"time_s\": %.4f, \"efficiency\": %.4f, \
             \"comm_fraction\": %.4f }%s\n"
            r.sr_p r.sr_time r.sr_eff r.sr_comm
            (if j = List.length rows - 1 then "" else ","))
        rows;
      p "    ]%s\n" (if i = List.length series - 1 then "" else ","))
    series;
  p "  },\n";
  p "  \"crossovers\": {\n";
  p "    \"dsl_bands_beats_fortran_at_p\": %s,\n"
    (match xover_fortran with Some v -> string_of_int v | None -> "null");
  p "    \"cells_matching_gpu10_at_p\": %s\n"
    (match cells_matching_gpu10 with
     | Some v -> string_of_int v
     | None -> "null");
  p "  },\n";
  p "  \"headlines\": {\n";
  p "    \"gpu_speedup_1rank\": %.4f,\n" headline;
  (match cells320_over_gpu10 with
   | Some r -> p "    \"cells_max_over_gpu10_ratio\": %.4f,\n" r
   | None -> ());
  p "    \"amdahl_bands_floor_s\": %.4f,\n" amdahl_floor;
  p "    \"amdahl_bands_ceiling_speedup\": %.4f\n" amdahl_ceiling;
  p "  },\n";
  p "  \"validated\": true\n";
  p "}\n";
  close_out oc;
  row "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E14: autotuner validation campaign (bench/main.exe tune)             *)
(* ------------------------------------------------------------------ *)

(* Measures a scenario x shape matrix: a curated set of hand-picked
   plans per row next to the plan the autotuner picks for the same
   request with measured refinement over its full candidate set.  All
   walls for one row come from the tuner's single interleaved trial
   batch (comparisons are only valid within a batch).  Writes
   BENCH_tune.json and self-validates — the auto plan's wall must come
   within 5% of the best hand-picked row and strictly beat the worst,
   and the auto-resolved request must produce a bit-identical solution
   to the same plan spelled by hand — aborting with a nonzero exit on
   any violation, so the CI smoke step only has to run it. *)

type tune_row = {
  tp_plan : Finch_tune.Plan.t;
  tp_wall : float;   (* best-of-N full-length solve, seconds *)
}

let tune_rounds = 3

(* the tuner's own refinement gets more trials than the row
   measurements: its argmin must land on the true fastest plan, and
   best-trial minima only converge on the floor from above *)
let tune_trials = 5

(* best-of-N for a set of plans with the rounds interleaved (one solve
   per plan per round), so clock drift — warmup, frequency scaling —
   biases no plan; preparation stays outside the timed windows *)
let tune_measure_plans base plans =
  let preps =
    List.map
      (fun pl ->
        let req = Finch_tune.Plan.apply pl base in
        match Finch.prepare req with
        | Ok prep -> pl, req, prep
        | Error e -> failwith (Finch.Solve_error.to_string e))
      plans
  in
  let walls = Array.make (List.length plans) infinity in
  for _ = 1 to tune_rounds do
    List.iteri
      (fun i (_, req, prep) ->
        match Finch.solve_prepared req prep with
        | Ok res -> walls.(i) <- Float.min walls.(i) res.Finch.Solve_result.wall_s
        | Error e -> failwith (Finch.Solve_error.to_string e))
      preps
  done;
  List.mapi (fun i pl -> { tp_plan = pl; tp_wall = walls.(i) }) plans

(* the hand-picked comparison set: the plans someone reading
   docs/EXPERIMENTS.md would plausibly spell out, spanning good and
   deliberately poor choices for a reduced-scale mesh (a domain pool or
   the simulated GPU pays more in dispatch than the cells earn back) *)
let tune_hand_plans (profile : Finch_tune.Tune.profile) (sc : Bte.Setup.scenario) =
  let open Finch.Config in
  let mk = Finch_tune.Plan.make in
  let ncells = sc.Bte.Setup.nx * sc.Bte.Setup.ny in
  List.concat
    [ [ mk (Cpu Serial); mk ~opt_level:O0 (Cpu Serial) ];
      (if profile.Finch_tune.Tune.native_ok then
         [ mk ~eval_mode:Native (Cpu Serial) ]
       else []);
      (if profile.Finch_tune.Tune.cores >= 2 then
         [ mk (Cpu (Threaded 2)) ]
       else []);
      (if ncells >= 2 then [ mk (Cpu (Cell_parallel 2)) ] else []);
      [ mk gpu1; mk ~opt_level:O0 gpu1 ] ]

let e14_tune path =
  section "E14 - autotuner validation campaign (measured, reduced scale)";
  Prt.Metrics.enable ();
  Prt.Metrics.reset_all ();
  let fail fmt =
    Printf.ksprintf (fun m -> prerr_endline ("tune: " ^ m); exit 1) fmt
  in
  let profile = Finch_tune.Tune.detect_profile () in
  row "profile: %d cores, gpu %s, native %b\n" profile.Finch_tune.Tune.cores
    profile.Finch_tune.Tune.gpu profile.Finch_tune.Tune.native_ok;
  let matrix =
    [ ( "hotspot",
        { Bte.Setup.small_hotspot with Bte.Setup.nx = 8; ny = 8; nsteps = 30 } );
      ( "corner",
        { Bte.Setup.small_corner with Bte.Setup.nx = 10; ny = 10; nsteps = 20 } ) ]
  in
  let results =
    List.map
      (fun (scenario, sc) ->
        let base = request_of ~scenario sc in
        row "\n%s %dx%d, %d dirs, %d LA bands, %d steps:\n" scenario
          sc.Bte.Setup.nx sc.Bte.Setup.ny sc.Bte.Setup.ndirs
          sc.Bte.Setup.n_la_bands sc.Bte.Setup.nsteps;
        (* the tuner's pick for the same request: full candidate set
           through the analysis gate, then measured refinement at full
           length — the model's absolute seconds are calibrated to the
           paper's hardware, so on this machine the trials decide *)
        let auto_req = { base with Finch.Solve_request.backend = Finch.Config.Auto } in
        let decision =
          match
            Finch_tune.Tune.plan ~profile ~shortlist:max_int ~measure_steps:sc.Bte.Setup.nsteps
              ~measure_trials:tune_trials ~force:true auto_req
          with
          | Ok d -> d
          | Error m -> fail "%s: tuner failed: %s" scenario m
        in
        let chosen = decision.Finch_tune.Tune.dc_plan in
        (* every wall below comes from the tuner's single interleaved
           trial batch (one solve per candidate per round, best of
           [tune_trials]): comparisons are only valid within one batch —
           a separate re-measurement phase would fold clock and GC drift
           between the phases into the auto-vs-hand ratios.  Hand plans
           the candidate table does not cover are measured in their own
           interleaved batch as a fallback. *)
        let batch =
          List.filter_map
            (fun (c : Finch_tune.Tune.candidate) ->
              match c.Finch_tune.Tune.cd_measured_s with
              | Some w ->
                Some { tp_plan = c.Finch_tune.Tune.cd_plan; tp_wall = w }
              | None -> None)
            decision.Finch_tune.Tune.dc_candidates
        in
        let from_batch pl =
          List.find_opt
            (fun r -> Finch_tune.Plan.equal r.tp_plan pl)
            batch
        in
        let hand = tune_hand_plans profile sc in
        let missing = List.filter (fun pl -> from_batch pl = None) hand in
        let fallback = tune_measure_plans base missing in
        let rows =
          List.map
            (fun pl ->
              match from_batch pl with
              | Some r -> r
              | None ->
                (match
                   List.find_opt
                     (fun r -> Finch_tune.Plan.equal r.tp_plan pl)
                     fallback
                 with
                 | Some r -> r
                 | None -> fail "%s: plan %s never measured" scenario
                             (Finch_tune.Plan.name pl)))
            hand
        in
        List.iter
          (fun r ->
            row "  %-44s %8.4f s\n" (Finch_tune.Plan.name r.tp_plan) r.tp_wall)
          rows;
        let auto_wall =
          match decision.Finch_tune.Tune.dc_measured_s with
          | Some w -> w
          | None -> fail "%s: tuner returned no measured wall" scenario
        in
        (* bit-identity: the auto-resolved request against the same plan
           spelled by hand must agree to the last bit *)
        let solve req =
          match facade_solve req with
          | _, res -> res.Finch.Solve_result.solution
        in
        let hand_req =
          { base with
            Finch.Solve_request.backend = chosen.Finch_tune.Plan.target;
            opt_level = chosen.Finch_tune.Plan.opt_level;
            eval_mode = chosen.Finch_tune.Plan.eval_mode;
            overlap = chosen.Finch_tune.Plan.overlap }
        in
        let bit_diff =
          Fvm.Field.max_abs_diff
            (solve (Finch_tune.Plan.apply chosen base))
            (solve hand_req)
        in
        let best = List.fold_left (fun a r -> Float.min a r.tp_wall) infinity rows in
        let worst = List.fold_left (fun a r -> Float.max a r.tp_wall) 0. rows in
        row "  auto -> %-36s %8.4f s  (best %.4f, worst %.4f, bit diff %g)\n"
          (Finch_tune.Plan.name chosen) auto_wall best worst bit_diff;
        (* ---- validation ---- *)
        if auto_wall > 1.05 *. best then
          fail "%s: auto plan %s at %.4f s misses best hand-picked %.4f s by >5%%"
            scenario (Finch_tune.Plan.name chosen) auto_wall best;
        if not (auto_wall < worst) then
          fail "%s: auto plan %s at %.4f s does not beat worst hand-picked %.4f s"
            scenario (Finch_tune.Plan.name chosen) auto_wall worst;
        if bit_diff <> 0. then
          fail "%s: auto-resolved solve differs from hand-spelled plan by %g"
            scenario bit_diff;
        scenario, sc, rows, decision, auto_wall, best, worst, bit_diff)
      matrix
  in
  (* ---- JSON ---- *)
  let oc = open_out path in
  let p fmt = Printf.fprintf oc fmt in
  let c name =
    match List.assoc_opt name (Prt.Metrics.counter_values ()) with
    | Some v -> v
    | None -> 0
  in
  p "{\n";
  p "  \"campaign\": \"autotune\",\n";
  p "  \"trials\": %d,\n" tune_trials;
  p "  \"profile\": { \"cores\": %d, \"gpu\": \"%s\", \"native_ok\": %b },\n"
    profile.Finch_tune.Tune.cores profile.Finch_tune.Tune.gpu
    profile.Finch_tune.Tune.native_ok;
  p "  \"rows\": [\n";
  List.iteri
    (fun i (scenario, (sc : Bte.Setup.scenario), rows, decision, auto_wall,
            best, worst, bit_diff) ->
      let chosen = decision.Finch_tune.Tune.dc_plan in
      p "    {\n";
      p
        "      \"scenario\": \"%s\", \"nx\": %d, \"ny\": %d, \"ndirs\": %d, \
         \"nsteps\": %d,\n"
        scenario sc.Bte.Setup.nx sc.Bte.Setup.ny sc.Bte.Setup.ndirs
        sc.Bte.Setup.nsteps;
      p "      \"plans\": [\n";
      List.iteri
        (fun j r ->
          p "        { \"plan\": \"%s\", \"wall_s\": %.6f }%s\n"
            (Finch_tune.Plan.name r.tp_plan) r.tp_wall
            (if j = List.length rows - 1 then "" else ","))
        rows;
      p "      ],\n";
      p "      \"auto\": {\n";
      p "        \"plan\": \"%s\",\n" (Finch_tune.Plan.name chosen);
      p "        \"predicted_s\": %.6f,\n"
        decision.Finch_tune.Tune.dc_predicted_s;
      p "        \"wall_s\": %.6f,\n" auto_wall;
      p "        \"best_hand_s\": %.6f,\n" best;
      p "        \"worst_hand_s\": %.6f,\n" worst;
      p "        \"ratio_to_best\": %.4f,\n" (auto_wall /. best);
      p "        \"bit_diff\": %g,\n" bit_diff;
      p "        \"candidates_gated\": %d\n"
        (List.length decision.Finch_tune.Tune.dc_candidates);
      p "      }\n";
      p "    }%s\n" (if i = List.length results - 1 then "" else ","))
    results;
  p "  ],\n";
  p "  \"metrics\": {\n";
  p "    \"tune.candidates_scored\": %d,\n" (c "tune.candidates_scored");
  p "    \"tune.measured_trials\": %d,\n" (c "tune.measured_trials");
  p "    \"tune.cache_misses\": %d\n" (c "tune.cache_misses");
  p "  },\n";
  p "  \"validated\": true\n";
  p "}\n";
  close_out oc;
  row "\nwrote %s (validated)\n" path

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel)                                          *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "bechamel micro-benchmarks (one Test.make per experiment kernel)";
  let open Bechamel in
  let sc =
    { Bte.Setup.small_hotspot with Bte.Setup.nx = 12; ny = 12; nsteps = 1 }
  in
  let refsolver = Bte.Reference.create sc in
  let built = Bte.Setup.build sc in
  let st = Finch.Lower.build built.Bte.Setup.problem in
  let mesh = built.Bte.Setup.mesh in
  let part = Fvm.Partition.rcb_mesh mesh ~nparts:4 in
  let pool = Prt.Pool.create ~size:4 in
  (* the interpreted GPU thread body on serve-sweep's shape: every
     cell's 20 components (4 directions x 5 bands) as one lane group *)
  let serve =
    let sc =
      { Bte.Setup.small_hotspot with
        Bte.Setup.nx = 12; ny = 12; ndirs = 4; n_la_bands = 4; nsteps = 6 }
    in
    Finch.Lower.build (Bte.Setup.build sc).Bte.Setup.problem
  in
  let serve_comps = Array.init (Fvm.Field.ncomp serve.Finch.Lower.u) Fun.id in
  let serve_cells = Fvm.Field.ncells serve.Finch.Lower.u in
  let per_dof = [ "e24-gpu-thread-body", serve_cells * Array.length serve_comps ] in
  let tests =
    [
      (* E2/E7: the intensity sweep, hand-written and DSL-generated *)
      Test.make ~name:"e7-reference-sweep"
        (Staged.stage (fun () -> Bte.Reference.sweep refsolver));
      Test.make ~name:"e2-dsl-sweep"
        (Staged.stage (fun () -> Finch.Lower.sweep st));
      (* E24: Lower.update_interior over every cell, closure *)
      Test.make ~name:"e24-gpu-thread-body"
        (Staged.stage (fun () ->
             let n = Array.length serve_comps in
             for cell = 0 to serve_cells - 1 do
               Finch.Lower.update_interior serve cell serve_comps 0 n
             done));
      (* E11: pool region dispatch vs per-region domain spawn/join *)
      Test.make ~name:"e11-pool-region"
        (Staged.stage (fun () -> Prt.Pool.run pool (fun _ -> ())));
      Test.make ~name:"e11-domain-spawn-join"
        (Staged.stage (fun () ->
             let ds = Array.init 3 (fun _ -> Domain.spawn (fun () -> ())) in
             Array.iter Domain.join ds));
      (* E3/E5: temperature update *)
      Test.make ~name:"e3-temperature-update"
        (Staged.stage (fun () -> Bte.Reference.temperature_update refsolver));
      (* E2: partitioning and halo construction *)
      Test.make ~name:"e2-rcb-partition"
        (Staged.stage (fun () -> ignore (Fvm.Partition.rcb_mesh mesh ~nparts:8)));
      Test.make ~name:"e2-halo-plan"
        (Staged.stage (fun () -> ignore (Fvm.Halo.build mesh part)));
      (* E10: the symbolic pipeline *)
      Test.make ~name:"e10-conservation-form-transform"
        (Staged.stage (fun () ->
             ignore
               (Finch.Transform.conservation_form
                  (Finch.Entity.variable ~name:"u" ())
                  "-k*u - surface(upwind([bx;by], u))")));
      Test.make ~name:"e10-emit-julia"
        (Staged.stage (fun () ->
             ignore
               (Finch.Emit_source.to_julia
                  (Finch.Ir.build_cpu built.Bte.Setup.problem))));
      (* E4/E6: roofline model and the full scaling sweep *)
      Test.make ~name:"e4-roofline-model"
        (Staged.stage (fun () ->
             ignore
               (Gpu_sim.Spec.kernel_time Gpu_sim.Spec.a6000 ~threads:1000000
                  ~flops:1e8 ~dram_bytes:1e7)));
      Test.make ~name:"e6-perfmodel-gpu-sweep"
        (Staged.stage (fun () ->
             List.iter
               (fun p -> ignore (Bte.Perfmodel.run_time (Bte.Perfmodel.Gpu p)))
               [ 1; 2; 4; 8 ]));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est, List.assoc_opt name per_dof with
          | Some [ ns ], Some dofs ->
            row "  %-36s %14.1f ns/run %8.1f ns/DOF\n%!" name ns (ns /. float_of_int dofs)
          | Some [ ns ], None -> row "  %-36s %14.1f ns/run\n%!" name ns
          | _ -> row "  %-36s (no estimate)\n%!" name)
        analyzed)
    tests;
  Prt.Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Ablations: sensitivity of the reproduced figures to the modelling      *)
(* choices DESIGN.md calls out.                                           *)
(* ------------------------------------------------------------------ *)

let ablate () =
  section "Ablation 1 - GPU model: A6000 vs A100 (paper: \"similar results\")";
  row "%-8s %14s %14s
" "GPUs" "A6000 [s]" "A100 [s]";
  let a100 = { Bte.Perfmodel.default with Bte.Perfmodel.gpu = Gpu_sim.Spec.a100 } in
  List.iter
    (fun g ->
      row "%-8d %14.1f %14.1f
" g
        (Bte.Perfmodel.run_time (Bte.Perfmodel.Gpu g))
        (Bte.Perfmodel.run_time ~calib:a100 (Bte.Perfmodel.Gpu g)))
    [ 1; 2; 4; 8; 10 ];
  row
    "=> nearly identical: the hybrid run is dominated by the CPU-side temperature
    \   update, so the faster device changes little — the paper's A100 observation.
";

  section "Ablation 2 - network byte rate (Fig. 4/5 sensitivity)";
  row "%-14s %18s %20s %16s
" "beta [GB/s]" "bands(55) [s]" "intensity share" "cells(320) [s]";
  List.iter
    (fun gbps ->
      let calib =
        { Bte.Perfmodel.default with
          Bte.Perfmodel.network = { Prt.Cluster.alpha = 2e-6; beta = 1. /. (gbps *. 1e9) } }
      in
      let b = Bte.Perfmodel.run_breakdown ~calib (Bte.Perfmodel.Bands 55) in
      let pc = Prt.Breakdown.percentages b in
      row "%-14.2f %18.1f %19.1f%% %16.1f
" gbps (Prt.Breakdown.total b)
        pc.Prt.Breakdown.pct_intensity
        (Bte.Perfmodel.run_time ~calib (Bte.Perfmodel.Cells 320)))
    [ 0.25; 0.5; 1.0; 12.5 ];

  section "Ablation 3 - synchronization jitter (the Fig. 5 communication share)";
  row "%-10s %22s %20s
" "jitter" "bands(55) comm share" "cells(320) [s]";
  List.iter
    (fun j ->
      let calib = { Bte.Perfmodel.default with Bte.Perfmodel.sync_jitter = j } in
      let b = Bte.Perfmodel.run_breakdown ~calib (Bte.Perfmodel.Bands 55) in
      let pc = Prt.Breakdown.percentages b in
      row "%-10.4f %21.1f%% %20.1f
" j pc.Prt.Breakdown.pct_communication
        (Bte.Perfmodel.run_time ~calib (Bte.Perfmodel.Cells 320)))
    [ 0.; 0.0025; 0.005; 0.01 ];

  section "Ablation 4 - Fortran temperature-update parallelization (Fig. 9)";
  row "%-10s %18s %18s
" "p" "Fortran serial-T" "Fortran parallel-T";
  let par = { Bte.Perfmodel.default with Bte.Perfmodel.fortran_temp_parallel = true } in
  List.iter
    (fun p ->
      row "%-10d %18.1f %18.1f
" p
        (Bte.Perfmodel.run_time (Bte.Perfmodel.Fortran p))
        (Bte.Perfmodel.run_time ~calib:par (Bte.Perfmodel.Fortran p)))
    [ 1; 10; 20; 40; 55 ];
  row
    "=> the un-parallelized temperature update is what makes the Fortran curve
    \   flatten in Fig. 9 (\"slightly different parallelization of one part\").
";

  section "Ablation 5 - band allreduce payload: per cell vs per cell x band";
  let s = Bte.Perfmodel.paper_shape in
  let net = Bte.Perfmodel.default.Bte.Perfmodel.network in
  row "%-10s %22s %22s
" "p" "per cell [ms]" "per cell x band [ms]";
  List.iter
    (fun p ->
      let per_cell = Prt.Cluster.allreduce net ~p ~bytes:(8 * s.Bte.Perfmodel.ncells) in
      let per_band =
        Prt.Cluster.allreduce net ~p
          ~bytes:(8 * s.Bte.Perfmodel.ncells * s.Bte.Perfmodel.nbands)
      in
      row "%-10d %22.3f %22.3f
" p (1e3 *. per_cell) (1e3 *. per_band))
    [ 2; 10; 55 ];
  row
    "=> the paper's \"only a reduction of intensity across bands\" stays cheap with
    \   one value per cell (the paper's payload, which the model prices); the
    \   executor sends ncells x nbands partials under either reduction, ~%dx the
    \   traffic, so that band-parallel temperatures match serial bit for bit.
"
    s.Bte.Perfmodel.nbands

let all_experiments =
  [ "e1", e1; "e2", e2; "e3", e3; "e4", e4; "e5", e5; "e6", e6; "e7", e7;
    "e8", e8; "e11", e11 ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* `--trace PATH` / `--backend SPEC` consume their argument; the
     remaining flags are plain *)
  let rec take_opt key acc = function
    | k :: v :: rest when k = key -> Some v, List.rev_append acc rest
    | a :: rest -> take_opt key (a :: acc) rest
    | [] -> None, List.rev acc
  in
  let trace, args = take_opt "--trace" [] args in
  let backend, args = take_opt "--backend" [] args in
  let max_ranks, args = take_opt "--max-ranks" [] args in
  let out, args = take_opt "--out" [] args in
  (match backend with
   | Some spec -> (
     match Finch.Config.target_of_string spec with
     | Ok t -> extra_backend := Some (Finch.Config.target_name t, t)
     | Error e ->
       Printf.eprintf "error: %s\n" e;
       exit 2)
   | None -> ());
  let measured = List.mem "--measured" args in
  let json = List.mem "--json" args in
  let metrics = List.mem "--metrics" args in
  let selected =
    List.filter
      (fun a -> a <> "--measured" && a <> "--json" && a <> "--metrics")
      args
  in
  (match trace with Some _ -> Prt.Trace.enable () | None -> ());
  if metrics then Prt.Metrics.enable ();
  (* the generated-code evaluator rows need the codegen backend wired in *)
  Finch_codegen.Codegen.install ();
  let finish_observability () =
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
  in
  let run_micro = List.mem "micro" selected in
  let run_ablate = List.mem "ablate" selected in
  let run_scaling = List.mem "scaling" selected in
  let run_tune = List.mem "tune" selected in
  let selected =
    List.filter
      (fun a -> a <> "micro" && a <> "ablate" && a <> "scaling" && a <> "tune")
      selected
  in
  if run_tune then begin
    (* `bench/main.exe tune [--out PATH]`: the autotuner validation
       campaign (E14, CI smoke) *)
    e14_tune (Option.value out ~default:"BENCH_tune.json");
    finish_observability ();
    exit 0
  end;
  if run_scaling then begin
    (* `bench/main.exe scaling [--max-ranks N] [--out PATH]`: the scripted
       strong-scaling campaign (scripts/run_scaling.sh, CI smoke) *)
    let max_ranks =
      match max_ranks with
      | Some v ->
        (try
           let n = int_of_string v in
           if n < 1 then raise Exit else n
         with _ ->
           Printf.eprintf "error: --max-ranks expects a positive integer\n";
           exit 2)
      | None -> 320
    in
    e12_scaling ~max_ranks (Option.value out ~default:"BENCH_scaling.json");
    finish_observability ();
    exit 0
  end;
  if json then begin
    (* `bench/main.exe --json`: just the measured executor comparison *)
    e11_json "BENCH_cpu.json";
    finish_observability ();
    exit 0
  end;
  Printf.printf
    "Phonon-BTE DSL reproduction benches (paper: IPDPS 2024, 10.1109/IPDPS57955.2024.00045)\n";
  Printf.printf
    "Paper-scale rows use the calibrated performance model; --measured adds real reduced-scale runs.\n";
  (match selected with
   | [] when (not run_micro) && not run_ablate ->
     List.iter (fun (_, f) -> f ~measured) all_experiments
   | [] -> ()
   | names ->
     List.iter
       (fun name ->
         match List.assoc_opt name all_experiments with
         | Some f -> f ~measured
         | None -> Printf.eprintf "unknown experiment %s\n" name)
       names);
  if run_ablate then ablate ();
  if run_micro then micro ();
  finish_observability ()
