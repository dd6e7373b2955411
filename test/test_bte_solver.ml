(* End-to-end BTE tests: the DSL-generated solver against the hand-written
   reference solver (the paper's "solutions matched" verification), target
   equivalence, physical plausibility and conservation. *)

let check_bool = Alcotest.(check bool)

(* a tiny scenario that runs in well under a second *)
let tiny =
  {
    Bte.Setup.small_hotspot with
    Bte.Setup.nx = 10;
    ny = 10;
    lx = 2e-6;
    ly = 2e-6;
    ndirs = 4;
    n_la_bands = 4;
    hot_radius = 0.6e-6;
    hot_center = 1e-6;
    nsteps = 12;
  }

let solve_with target =
  let built = Bte.Setup.build tiny in
  Finch.Problem.set_target built.Bte.Setup.problem target;
  let o = Finch.Solve.solve built.Bte.Setup.problem in
  built, o

let test_dsl_matches_reference () =
  (* identical discretization, identical trajectories *)
  let built, o = solve_with (Finch.Config.Cpu Finch.Config.Serial) in
  let r = Bte.Reference.create built.Bte.Setup.scenario in
  Bte.Reference.run r ~nsteps:tiny.Bte.Setup.nsteps;
  let fi = Finch.Solve.field o "I" in
  let ft = Finch.Solve.field o "T" in
  let max_i = ref 0. and max_t = ref 0. in
  for cell = 0 to Fvm.Field.ncells fi - 1 do
    for comp = 0 to Fvm.Field.ncomp fi - 1 do
      let a = Fvm.Field.get fi cell comp in
      let b = Bte.Reference.intensity r ~cell ~comp in
      max_i := Float.max !max_i (Float.abs (a -. b) /. (1e-30 +. Float.abs b))
    done;
    max_t :=
      Float.max !max_t
        (Float.abs (Fvm.Field.get ft cell 0 -. Bte.Reference.temperature r ~cell))
  done;
  if !max_i > 1e-10 then Alcotest.failf "intensity mismatch: rel %g" !max_i;
  if !max_t > 1e-8 then Alcotest.failf "temperature mismatch: %g K" !max_t

let field_diff o1 o2 name =
  Fvm.Field.max_abs_diff (Finch.Solve.field o1 name) (Finch.Solve.field o2 name)

let test_band_parallel_matches_serial () =
  let _, o1 = solve_with (Finch.Config.Cpu Finch.Config.Serial) in
  List.iter
    (fun n ->
      let _, o2 = solve_with (Finch.Config.Cpu (Finch.Config.Band_parallel n)) in
      let d = field_diff o1 o2 "I" in
      if d > 0. then Alcotest.failf "bands %d: diff %g" n d)
    [ 2; 3; 5 ]

let test_cell_parallel_matches_serial () =
  let _, o1 = solve_with (Finch.Config.Cpu Finch.Config.Serial) in
  List.iter
    (fun n ->
      let _, o2 = solve_with (Finch.Config.Cpu (Finch.Config.Cell_parallel n)) in
      let d = field_diff o1 o2 "I" in
      if d > 0. then Alcotest.failf "cells %d: diff %g" n d)
    [ 2; 4 ]

let test_pool_executors_match_serial () =
  (* the persistent-pool executors on the hotspot problem itself: the
     double-buffered scheme makes agreement exact *)
  let _, o1 = solve_with (Finch.Config.Cpu Finch.Config.Serial) in
  List.iter
    (fun (label, target) ->
      let _, o2 = solve_with target in
      let d = field_diff o1 o2 "I" in
      if d > 0. then Alcotest.failf "%s: diff %g" label d;
      let dt = field_diff o1 o2 "T" in
      if dt > 0. then Alcotest.failf "%s: T diff %g" label dt)
    [ "threads 3", Finch.Config.Cpu (Finch.Config.Threaded 3);
      "hybrid 2x2", Finch.Config.Cpu (Finch.Config.Hybrid (2, 2)) ];
  (* a plain threads solve takes the fused step-pair schedule: the
     temperature update's declared I/O travels with the problem, so no
     caller has to hand it to the solve *)
  let threads = Finch.Config.Cpu (Finch.Config.Threaded 3) in
  let built = Bte.Setup.build tiny in
  Finch.Problem.set_target built.Bte.Setup.problem threads;
  check_bool "fused schedule legal" true
    (Finch.Target_cpu.fused_schedule_ok built.Bte.Setup.problem);
  let was = Prt.Metrics.enabled () in
  Prt.Metrics.enable ();
  let regions () = Prt.Metrics.value (Prt.Metrics.counter "pool.regions") in
  let r0 = regions () in
  Fun.protect
    ~finally:(fun () -> if not was then Prt.Metrics.disable ())
    (fun () -> ignore (solve_with threads));
  Alcotest.(check int) "one pool region per step pair"
    (tiny.Bte.Setup.nsteps / 2) (regions () - r0)

(* The cold regime: the corner source at 100/150 K on a tiny mesh.  A
   converged Newton carries the last bit of the reduced absorbed power
   into T, so band-partitioned runs only match serial if they reduce and
   fold exactly what the serial run does. *)
let tiny_corner =
  { Bte.Setup.small_corner with
    Bte.Setup.nx = 16; ny = 4; lx = 4e-6; ly = 1e-6; ndirs = 4;
    n_la_bands = 4; hot_radius = 1e-6; nsteps = 12 }

let solve_scenario sc target ~overlap =
  let built = Bte.Setup.build sc in
  Finch.Problem.set_target built.Bte.Setup.problem target;
  Finch.Problem.set_overlap built.Bte.Setup.problem overlap;
  Finch.Solve.solve built.Bte.Setup.problem

(* every outcome field at exact zero against the serial run *)
let check_fields_exact label o1 o2 =
  List.iter
    (fun name ->
      let d = field_diff o1 o2 name in
      if d > 0. then Alcotest.failf "%s: %s diff %g" label name d)
    [ "I"; "T"; "Io"; "beta" ]

(* the GPU targets too: the device's interior result plus the host's
   boundary part is the sum every CPU sweep forms *)
let test_band_partitioned_exact () =
  let gpu ?(devices = 1) ranks =
    Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices; ranks }
  in
  List.iter
    (fun (sname, sc) ->
      let o1 = solve_scenario sc (Finch.Config.Cpu Finch.Config.Serial) ~overlap:false in
      List.iter
        (fun (label, target) ->
          check_fields_exact (sname ^ " " ^ label) o1
            (solve_scenario sc target ~overlap:false))
        [ "bands 2", Finch.Config.Cpu (Finch.Config.Band_parallel 2);
          "bands 3", Finch.Config.Cpu (Finch.Config.Band_parallel 3);
          "bands 5", Finch.Config.Cpu (Finch.Config.Band_parallel 5);
          "threads 3", Finch.Config.Cpu (Finch.Config.Threaded 3);
          "hybrid 2x2", Finch.Config.Cpu (Finch.Config.Hybrid (2, 2));
          "gpu 1", gpu 1;
          "gpu 2", gpu 2;
          "gpu 3", gpu 3;
          "gpu:a6000:2x1", gpu ~devices:2 1 ])
    [ "corner", tiny_corner; "hotspot", tiny ]

let test_cell_partitioned_fields_exact () =
  (* T, Io and beta are gathered from each rank's owned cells, like I *)
  List.iter
    (fun (sname, sc) ->
      let o1 = solve_scenario sc (Finch.Config.Cpu Finch.Config.Serial) ~overlap:false in
      List.iter
        (fun n ->
          List.iter
            (fun overlap ->
              check_fields_exact
                (Printf.sprintf "%s cells %d%s" sname n
                   (if overlap then " overlap" else ""))
                o1
                (solve_scenario sc (Finch.Config.Cpu (Finch.Config.Cell_parallel n))
                   ~overlap))
            [ false; true ])
        [ 2; 3; 4 ])
    [ "hotspot", tiny; "corner", tiny_corner ]

let test_refresh_matches_tables () =
  (* the post-step writes Io and beta from the Newton's final evaluation;
     they are exactly the table and rate values at the cell's T *)
  let built, o = solve_with (Finch.Config.Cpu Finch.Config.Serial) in
  let ft = Finch.Solve.field o "T" in
  let fio = Finch.Solve.field o "Io" and fbeta = Finch.Solve.field o "beta" in
  let disp = built.Bte.Setup.disp in
  for cell = 0 to Fvm.Field.ncells ft - 1 do
    let t = Fvm.Field.get ft cell 0 in
    for b = 0 to Bte.Dispersion.nbands disp - 1 do
      if Fvm.Field.get fio cell b <> Bte.Equilibrium.i0 built.Bte.Setup.eqtab b t
      then Alcotest.failf "cell %d band %d: Io is not I0(T)" cell b;
      if Fvm.Field.get fbeta cell b
         <> Bte.Scattering.band_rate (Bte.Dispersion.band disp b) t
      then Alcotest.failf "cell %d band %d: beta is not rate(T)" cell b
    done
  done

let test_newton_counters () =
  (* the hot scenario converges by Newton alone, in a few evaluations *)
  let counter = Prt.Metrics.counter in
  let newton = counter "bte.newton_iters" and bisection = counter "bte.bisection_steps" in
  let was = Prt.Metrics.enabled () in
  Prt.Metrics.enable ();
  let n0 = Prt.Metrics.value newton and b0 = Prt.Metrics.value bisection in
  Fun.protect
    ~finally:(fun () -> if not was then Prt.Metrics.disable ())
    (fun () -> ignore (solve_with (Finch.Config.Cpu Finch.Config.Serial)));
  let solves = tiny.Bte.Setup.nx * tiny.Bte.Setup.ny * tiny.Bte.Setup.nsteps in
  let evals = Prt.Metrics.value newton - n0 in
  Alcotest.(check int) "no bisection steps" 0 (Prt.Metrics.value bisection - b0);
  check_bool
    (Printf.sprintf "%d Newton evaluations for %d cell-solves" evals solves)
    true
    (evals >= solves && evals <= 3 * solves)

let test_gpu_matches_serial () =
  let _, o1 = solve_with (Finch.Config.Cpu Finch.Config.Serial) in
  let _, o2 =
    solve_with (Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 })
  in
  (* the hybrid schedule adds the host's boundary part after the
     device's interior update, as the serial sweep does: exact *)
  check_fields_exact "gpu" o1 o2

let test_multi_gpu_matches_serial () =
  (* the paper's multi-GPU configuration: band partitioning with one
     (simulated) device per rank, executed for real under the SPMD
     runtime *)
  let _, o1 = solve_with (Finch.Config.Cpu Finch.Config.Serial) in
  List.iter
    (fun ranks ->
      let _, o2 =
        solve_with (Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks })
      in
      check_fields_exact (Printf.sprintf "gpu ranks=%d" ranks) o1 o2)
    [ 2; 3; 4 ]

let test_gpu_grid_matches_single_device () =
  (* the 2-D band x cell decomposition (gpu:NAME:GxR): for every rank
     count, tiling the cells across devices must reproduce the
     one-device-per-rank schedule BIT-identically — the owned-slice
     uploads plus d2d ghost pushes reconstruct exactly the values a full
     upload would have placed, and the host-side combine is unchanged *)
  List.iter
    (fun ranks ->
      let _, o1 =
        solve_with
          (Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks })
      in
      List.iter
        (fun devices ->
          let _, o2 =
            solve_with
              (Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices; ranks })
          in
          let d = field_diff o1 o2 "I" in
          if d > 0. then
            Alcotest.failf "grid %dx%d: I diff %g" devices ranks d;
          let dt = field_diff o1 o2 "T" in
          if dt > 0. then
            Alcotest.failf "grid %dx%d: T diff %g" devices ranks dt)
        [ 2; 4 ])
    [ 1; 2; 3; 4 ]

let test_gpu_grid_overlap_matches_sync () =
  (* double-buffered per-device streams reorder only the modelled
     timeline, never the arithmetic *)
  let solve overlap =
    let built = Bte.Setup.build tiny in
    Finch.Problem.use_cuda ~devices:2 ~ranks:2 built.Bte.Setup.problem;
    Finch.Problem.set_overlap built.Bte.Setup.problem overlap;
    Finch.Solve.solve built.Bte.Setup.problem
  in
  let o1 = solve false and o2 = solve true in
  let d = field_diff o1 o2 "I" in
  if d > 0. then Alcotest.failf "grid overlap vs sync: I diff %g" d;
  let dt = field_diff o1 o2 "T" in
  if dt > 0. then Alcotest.failf "grid overlap vs sync: T diff %g" dt

let test_temperature_bounds () =
  (* temperature stays within [cold, hot] and heats up near the hot wall *)
  let built, o = solve_with (Finch.Config.Cpu Finch.Config.Serial) in
  let sc = built.Bte.Setup.scenario in
  let ft = Finch.Solve.field o "T" in
  Fvm.Field.iter ft (fun _ _ t ->
      check_bool "T within scenario bounds" true
        (t >= sc.Bte.Setup.t_cold -. 1e-6 && t <= sc.Bte.Setup.t_hot +. 1e-6));
  (* the row adjacent to the hot wall is warmer than the row at the cold wall *)
  let top = Bte.Diag.profile_x ft ~nx:sc.Bte.Setup.nx ~j:(sc.Bte.Setup.ny - 1) in
  let bottom = Bte.Diag.profile_x ft ~nx:sc.Bte.Setup.nx ~j:0 in
  let avg a = Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a) in
  check_bool "hot side warmer" true (avg top > avg bottom)

let test_heating_monotone_in_time () =
  let built = Bte.Setup.build { tiny with Bte.Setup.nsteps = 4 } in
  let o4 = Finch.Solve.solve built.Bte.Setup.problem in
  let built2 = Bte.Setup.build { tiny with Bte.Setup.nsteps = 12 } in
  let o12 = Finch.Solve.solve built2.Bte.Setup.problem in
  let mean o =
    let ft = Finch.Solve.field o "T" in
    Fvm.Field.sum_comp ft 0 /. float_of_int (Fvm.Field.ncells ft)
  in
  check_bool "more steps, more heat" true (mean o12 > mean o4)

let test_uniform_equilibrium_is_steady () =
  (* all-isothermal box at the initial temperature: nothing may change *)
  let sc = { tiny with Bte.Setup.t_hot = tiny.Bte.Setup.t_cold } in
  let built = Bte.Setup.build sc in
  let o = Finch.Solve.solve built.Bte.Setup.problem in
  let ft = Finch.Solve.field o "T" in
  Fvm.Field.iter ft (fun _ _ t ->
      Tutil.check_close ~eps:1e-9 "steady equilibrium" sc.Bte.Setup.t_cold t)

let test_symmetry_of_solution () =
  (* hot spot centred on the top wall + symmetric sides: the temperature
     field must be mirror-symmetric about the vertical midline *)
  let sc = { tiny with Bte.Setup.nx = 12; hot_center = 1e-6; lx = 2e-6 } in
  let built = Bte.Setup.build sc in
  let o = Finch.Solve.solve built.Bte.Setup.problem in
  let ft = Finch.Solve.field o "T" in
  for j = 0 to sc.Bte.Setup.ny - 1 do
    for i = 0 to (sc.Bte.Setup.nx / 2) - 1 do
      let a = Fvm.Field.get ft ((j * sc.Bte.Setup.nx) + i) 0 in
      let b = Fvm.Field.get ft ((j * sc.Bte.Setup.nx) + (sc.Bte.Setup.nx - 1 - i)) 0 in
      Tutil.check_close ~eps:1e-9 "mirror symmetry" a b
    done
  done

(* initial condition: local equilibrium at a linearly varying temperature,
   with Io, beta and T all consistent with it (otherwise the first
   relaxation step legitimately exchanges energy with the "old" fields) *)
let set_linear_profile_initials (built : Bte.Setup.built) (p : Finch.Problem.t) =
  let nd = built.Bte.Setup.angles.Bte.Angles.ndirs in
  let t_of pos = 300. +. (30. *. pos.(1) /. 2e-6) in
  p.Finch.Problem.initials <-
    List.map
      (fun (name, spec) ->
        match name with
        | "I" ->
          ( name,
            Finch.Problem.Init_fn
              (fun pos comp ->
                Bte.Equilibrium.i0 built.Bte.Setup.eqtab (comp / nd) (t_of pos)) )
        | "Io" ->
          ( name,
            Finch.Problem.Init_fn
              (fun pos b -> Bte.Equilibrium.i0 built.Bte.Setup.eqtab b (t_of pos)) )
        | "beta" ->
          ( name,
            Finch.Problem.Init_fn
              (fun pos b ->
                Bte.Scattering.band_rate
                  (Bte.Dispersion.band built.Bte.Setup.disp b)
                  (t_of pos)) )
        | "T" -> name, Finch.Problem.Init_fn (fun pos _ -> t_of pos)
        | _ -> name, spec)
      p.Finch.Problem.initials

let test_energy_conservation_adiabatic () =
  (* closed box (symmetry on all four sides = no net flux), nonuniform
     initial temperature, Per_band reduction: total phonon energy must be
     conserved over the run *)
  let built = Bte.Setup.build { tiny with Bte.Setup.nsteps = 10 } in
  let p = built.Bte.Setup.problem in
  (* replace the isothermal walls by symmetry on regions 1 and 3 *)
  let bcctx =
    { Bte.Bc.disp = built.Bte.Setup.disp;
      eqtab = built.Bte.Setup.eqtab;
      angles = built.Bte.Setup.angles }
  in
  p.Finch.Problem.bcs <- [];
  let vI = Option.get (Finch.Problem.find_variable p "I") in
  List.iter
    (fun r ->
      Finch.Problem.boundary p vI r Finch.Config.Flux "symmetry(I,Sx,Sy,b,d,normal)")
    [ 1; 2; 3; 4 ];
  ignore bcctx;
  (* exact conservation needs the per-band reduction *)
  let tmodel =
    Bte.Temperature.make ~reduction:Bte.Temperature.Per_band
      ~disp:built.Bte.Setup.disp ~eqtab:built.Bte.Setup.eqtab
      ~angles:built.Bte.Setup.angles ()
  in
  p.Finch.Problem.post_step <- [];
  Finch.Problem.post_step_function p (Bte.Temperature.post_step tmodel);
  (* non-uniform initial condition: equilibrium at a linearly varying T *)
  set_linear_profile_initials built p;
  let st0 = Finch.Lower.build p in
  let e0 =
    Bte.Diag.total_energy built.Bte.Setup.mesh st0.Finch.Lower.u
      built.Bte.Setup.disp built.Bte.Setup.angles
  in
  let o = Finch.Solve.solve p in
  let e1 =
    Bte.Diag.total_energy built.Bte.Setup.mesh (Finch.Solve.field o "I")
      built.Bte.Setup.disp built.Bte.Setup.angles
  in
  Tutil.check_close ~eps:1e-9 "energy conserved" e0 e1

let test_scalar_energy_near_conservation () =
  (* the paper-style scalar reduction conserves energy only up to the
     frozen-rate approximation; the drift over a few steps must be tiny *)
  let built = Bte.Setup.build { tiny with Bte.Setup.nsteps = 10 } in
  let p = built.Bte.Setup.problem in
  p.Finch.Problem.bcs <- [];
  let vI = Option.get (Finch.Problem.find_variable p "I") in
  List.iter
    (fun r ->
      Finch.Problem.boundary p vI r Finch.Config.Flux "symmetry(I,Sx,Sy,b,d,normal)")
    [ 1; 2; 3; 4 ];
  set_linear_profile_initials built p;
  let st0 = Finch.Lower.build p in
  let e0 =
    Bte.Diag.total_energy built.Bte.Setup.mesh st0.Finch.Lower.u
      built.Bte.Setup.disp built.Bte.Setup.angles
  in
  let o = Finch.Solve.solve p in
  let e1 =
    Bte.Diag.total_energy built.Bte.Setup.mesh (Finch.Solve.field o "I")
      built.Bte.Setup.disp built.Bte.Setup.angles
  in
  Tutil.check_close ~eps:1e-4 "energy nearly conserved" e0 e1

let test_3d_coarse_run () =
  (* the paper's "very coarse-grained 3-D runs ... performed successfully" *)
  let sc =
    { Bte.Setup3d.coarse with Bte.Setup3d.nx = 5; ny = 5; nz = 5;
      n_azimuthal = 4; n_polar = 2; n_la_bands = 3; nsteps = 8 }
  in
  let built = Bte.Setup3d.build sc in
  let o = Finch.Solve.solve built.Bte.Setup3d.problem in
  let ft = Finch.Solve.field o "T" in
  let hotter = ref 0 in
  Fvm.Field.iter ft (fun _ _ t ->
      check_bool "bounded" true (t >= sc.Bte.Setup3d.t_cold -. 1e-9 && t <= sc.Bte.Setup3d.t_hot);
      if t > sc.Bte.Setup3d.t_cold +. 1e-3 then incr hotter);
  check_bool "some heating happened" true (!hotter > 0);
  (* the hottest cell touches the ceiling *)
  let stats =
    Bte.Diag.temperature_stats built.Bte.Setup3d.mesh ft
      ~t_ambient:sc.Bte.Setup3d.t_cold
  in
  check_bool "peak near ceiling" true (stats.Bte.Diag.peak_pos.(2) > 1.4e-6)

let test_point_implicit_large_dt () =
  (* with the point-implicit stepper the BTE runs stably at a dt more than
     an order of magnitude beyond the explicit relaxation bound *)
  let disp = Bte.Dispersion.make ~n_la:tiny.Bte.Setup.n_la_bands in
  let explicit_bound = Bte.Setup.cfl_dt tiny disp in
  let sc = { tiny with Bte.Setup.dt = 20. *. explicit_bound; nsteps = 10 } in
  let built =
    Bte.Setup.build ~stepper:Finch.Config.Euler_point_implicit sc
  in
  check_bool "dt kept above the explicit bound" true
    (built.Bte.Setup.scenario.Bte.Setup.dt > 5. *. explicit_bound);
  let o = Finch.Solve.solve built.Bte.Setup.problem in
  let ft = Finch.Solve.field o "T" in
  Fvm.Field.iter ft (fun _ _ t ->
      check_bool "physical temperatures at large dt" true
        (t >= sc.Bte.Setup.t_cold -. 1e-6 && t <= sc.Bte.Setup.t_hot +. 1e-6));
  (* and it heats faster in wall-clock-per-physical-time terms: more
     physical time elapsed than the explicit run with the same steps *)
  let explicit = Bte.Setup.build { sc with Bte.Setup.dt = explicit_bound } in
  check_bool "covers more physical time" true
    (built.Bte.Setup.scenario.Bte.Setup.dt
     > 3. *. explicit.Bte.Setup.scenario.Bte.Setup.dt)

let test_unstructured_mesh_bte () =
  (* the DSL solver is mesh-generic: run the hot-spot scenario on a
     triangulated mesh and check physicality + hot-side heating (the
     reference solver cannot do this — it is structured-only) *)
  let sc = { tiny with Bte.Setup.nsteps = 10 } in
  let built = Bte.Setup.build sc in
  let p = built.Bte.Setup.problem in
  let tri_mesh =
    Fvm.Mesh_gen.triangulated_rectangle ~nx:sc.Bte.Setup.nx ~ny:sc.Bte.Setup.ny
      ~lx:sc.Bte.Setup.lx ~ly:sc.Bte.Setup.ly ()
  in
  p.Finch.Problem.mesh <- Some tri_mesh;
  let o = Finch.Solve.solve p in
  let ft = Finch.Solve.field o "T" in
  let warm = ref 0 in
  Fvm.Field.iter ft (fun _ _ t ->
      check_bool "bounded on triangles" true
        (t >= sc.Bte.Setup.t_cold -. 1e-9 && t <= sc.Bte.Setup.t_hot +. 1e-9);
      if t > sc.Bte.Setup.t_cold +. 0.01 then incr warm);
  check_bool "heating on triangles" true (!warm > 0);
  let stats =
    Bte.Diag.temperature_stats tri_mesh ft ~t_ambient:sc.Bte.Setup.t_cold
  in
  check_bool "peak near the hot wall" true (stats.Bte.Diag.peak_pos.(1) > 1.5e-6)

let test_thin_film_size_effect () =
  (* the size effect in miniature: a thin film conducts at a small
     fraction of the diffusive limit, a thicker one at a larger fraction *)
  let cfg =
    { Bte.Film.default_config with Bte.Film.ncells = 16; ndirs = 8;
      n_la_bands = 4; max_steps = 4000; flux_tol = 1e-3 }
  in
  let thin = Bte.Film.effective_conductivity ~cfg ~thickness:50e-9 () in
  let thick = Bte.Film.effective_conductivity ~cfg ~thickness:500e-9 () in
  check_bool "thin well below bulk" true (thin.Bte.Film.ratio < 0.5);
  check_bool "thicker conducts better" true
    (thick.Bte.Film.ratio > thin.Bte.Film.ratio +. 0.1);
  check_bool "ratios within (0,1]" true
    (thin.Bte.Film.ratio > 0. && thick.Bte.Film.ratio <= 1.05);
  (* at steady state the flux is uniform through the slab *)
  check_bool "steady flux uniform" true (thin.Bte.Film.flux_uniformity < 0.05)

let test_reference_throughput_positive () =
  let r = Bte.Reference.create tiny in
  let rate = Bte.Reference.measure_sweep_rate r ~repeats:3 in
  check_bool "positive throughput" true (rate > 1e4)

let test_diag_stats () =
  let built, o = solve_with (Finch.Config.Cpu Finch.Config.Serial) in
  let ft = Finch.Solve.field o "T" in
  let s =
    Bte.Diag.temperature_stats built.Bte.Setup.mesh ft
      ~t_ambient:tiny.Bte.Setup.t_cold
  in
  check_bool "max >= min" true (s.Bte.Diag.t_max >= s.Bte.Diag.t_min);
  check_bool "mean between" true
    (s.Bte.Diag.t_mean >= s.Bte.Diag.t_min && s.Bte.Diag.t_mean <= s.Bte.Diag.t_max);
  (* the peak is near the hot wall (top) *)
  check_bool "peak near top" true (s.Bte.Diag.peak_pos.(1) > 1.5e-6);
  (* CSV dump round trip: right number of lines *)
  let path = Filename.temp_file "bte" ".csv" in
  Bte.Diag.to_csv built.Bte.Setup.mesh ft ~comp:0 path;
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check int) "csv lines" (1 + (tiny.Bte.Setup.nx * tiny.Bte.Setup.ny)) !lines;
  (* VTK dump: header + counts sanity *)
  let vtk = Filename.temp_file "bte" ".vtk" in
  Bte.Diag.to_vtk built.Bte.Setup.mesh [ "T", ft, 0 ] vtk;
  let ic = open_in vtk in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove vtk;
  check_bool "vtk header" true (Tutil.contains contents "DATASET UNSTRUCTURED_GRID");
  check_bool "vtk cell data" true
    (Tutil.contains contents
       (Printf.sprintf "CELL_DATA %d" (tiny.Bte.Setup.nx * tiny.Bte.Setup.ny)));
  check_bool "vtk scalars" true (Tutil.contains contents "SCALARS T double 1")

let suite =
  ( "bte-solver",
    [
      Alcotest.test_case "DSL matches hand-written reference" `Quick
        test_dsl_matches_reference;
      Alcotest.test_case "band-parallel == serial" `Quick
        test_band_parallel_matches_serial;
      Alcotest.test_case "cell-parallel == serial" `Quick
        test_cell_parallel_matches_serial;
      Alcotest.test_case "pool executors == serial (exact)" `Quick
        test_pool_executors_match_serial;
      Alcotest.test_case "band-partitioned == serial, hot and cold (exact)" `Quick
        test_band_partitioned_exact;
      Alcotest.test_case "cell-partitioned fields == serial (exact)" `Quick
        test_cell_partitioned_fields_exact;
      Alcotest.test_case "refreshed Io/beta are the tables at T" `Quick
        test_refresh_matches_tables;
      Alcotest.test_case "Newton counters on the hot scenario" `Quick
        test_newton_counters;
      Alcotest.test_case "gpu == serial" `Quick test_gpu_matches_serial;
      Alcotest.test_case "multi-gpu == serial" `Quick test_multi_gpu_matches_serial;
      Alcotest.test_case "gpu grid == single device (bitwise)" `Quick
        test_gpu_grid_matches_single_device;
      Alcotest.test_case "gpu grid overlap == sync (bitwise)" `Quick
        test_gpu_grid_overlap_matches_sync;
      Alcotest.test_case "temperature bounded and directional" `Quick
        test_temperature_bounds;
      Alcotest.test_case "heating monotone in time" `Quick
        test_heating_monotone_in_time;
      Alcotest.test_case "uniform equilibrium is steady" `Quick
        test_uniform_equilibrium_is_steady;
      Alcotest.test_case "mirror symmetry" `Quick test_symmetry_of_solution;
      Alcotest.test_case "adiabatic energy conservation (per-band)" `Quick
        test_energy_conservation_adiabatic;
      Alcotest.test_case "near conservation (scalar reduction)" `Quick
        test_scalar_energy_near_conservation;
      Alcotest.test_case "coarse 3-D run" `Quick test_3d_coarse_run;
      Alcotest.test_case "point-implicit at large dt" `Quick
        test_point_implicit_large_dt;
      Alcotest.test_case "unstructured (triangle) mesh" `Quick
        test_unstructured_mesh_bte;
      Alcotest.test_case "thin-film size effect" `Quick test_thin_film_size_effect;
      Alcotest.test_case "reference throughput" `Quick
        test_reference_throughput_positive;
      Alcotest.test_case "diagnostics" `Quick test_diag_stats;
    ] )
