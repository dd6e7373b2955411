(* End-to-end solver tests on generic (non-BTE) problems: numerical
   correctness of the generated code and exact agreement across every
   execution target (serial, band-parallel, cell-parallel, threaded, GPU),
   which the double-buffered explicit scheme guarantees. *)

let check_bool = Alcotest.(check bool)

(* A 2-D advection problem with an indexed variable u[d] carrying two
   independent components advected in different directions — a miniature of
   the BTE's direction coupling, with symmetric-enough structure to test
   band partitioning on the index d. *)
let make_advection ?(nx = 12) ?(ny = 12) ?(nsteps = 30) () =
  let p = Finch.Problem.init "adv" in
  Finch.Problem.domain p 2;
  let mesh = Fvm.Mesh_gen.rectangle ~nx ~ny ~lx:1.0 ~ly:1.0 () in
  Finch.Problem.set_mesh p mesh;
  Finch.Problem.set_steps p ~dt:2e-3 ~nsteps;
  let d = Finch.Problem.index p ~name:"d" ~range:(1, 4) in
  let u = Finch.Problem.variable p ~name:"u" ~indices:[ d ] () in
  let _ =
    Finch.Problem.coefficient p ~name:"cx" ~index:d
      (Finch.Entity.Arr [| 1.0; -1.0; 0.5; 0.0 |])
  in
  let _ =
    Finch.Problem.coefficient p ~name:"cy" ~index:d
      (Finch.Entity.Arr [| 0.0; 0.5; -1.0; 1.0 |])
  in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 0.3) in
  Finch.Problem.initial p u
    (Finch.Problem.Init_fn
       (fun pos comp ->
         let x = pos.(0) -. 0.5 and y = pos.(1) -. 0.5 in
         exp (-20. *. ((x *. x) +. (y *. y))) *. (1. +. (0.1 *. float_of_int comp))));
  (* all four sides: upwind outflow via ghost = interior *)
  List.iter
    (fun r -> Finch.Problem.boundary p u r Finch.Config.Dirichlet "u[d]")
    [ 1; 2; 3; 4 ];
  let _ =
    Finch.Problem.conservation_form p u
      "-k*u[d] - surface(upwind([cx[d];cy[d]], u[d]))"
  in
  p, mesh, u

let run_with target p =
  Finch.Problem.set_target p target;
  Finch.Solve.solve p

let fresh target =
  let p, mesh, _ = make_advection () in
  let o = run_with target p in
  o, mesh

let test_serial_physics () =
  let o, mesh = fresh (Finch.Config.Cpu Finch.Config.Serial) in
  let u = o.Finch.Solve.u in
  (* decay + outflow: total mass decreases, stays positive *)
  let mass = Fvm.Field.integral u mesh 0 in
  check_bool "mass positive" true (mass > 0.);
  check_bool "mass decayed" true (mass < 0.049 (* initial integral approx 0.157/pi... just bound loosely *) *. 10.);
  (* no negative under/overshoots beyond tolerance: first-order upwind with
     CFL-satisfying dt is monotone for the pure advection part; decay only
     shrinks values *)
  Fvm.Field.iter u (fun _ _ v ->
      if v < -1e-12 || v > 1.2 then Alcotest.failf "out of bounds value %g" v)

let test_component_independence () =
  (* component 3 has velocity (0,1) and does not mix with others: running
     with a different initial scale on one component must scale only it *)
  let p1, _, u1 = make_advection () in
  let p2, _, u2 = make_advection () in
  ignore u1; ignore u2;
  (* double component 0 of p2's initial condition *)
  p2.Finch.Problem.initials <-
    List.map
      (fun (name, spec) ->
        match spec with
        | Finch.Problem.Init_fn f ->
          ( name,
            Finch.Problem.Init_fn
              (fun pos comp -> if comp = 0 then 2. *. f pos comp else f pos comp) )
        | s -> name, s)
      p2.Finch.Problem.initials;
  let o1 = run_with (Finch.Config.Cpu Finch.Config.Serial) p1 in
  let o2 = run_with (Finch.Config.Cpu Finch.Config.Serial) p2 in
  let f1 = o1.Finch.Solve.u and f2 = o2.Finch.Solve.u in
  for cell = 0 to Fvm.Field.ncells f1 - 1 do
    Tutil.check_close ~eps:1e-12 "comp0 doubled"
      (2. *. Fvm.Field.get f1 cell 0)
      (Fvm.Field.get f2 cell 0);
    Tutil.check_close ~eps:1e-12 "comp2 unchanged"
      (Fvm.Field.get f1 cell 2)
      (Fvm.Field.get f2 cell 2)
  done

let targets_equal name t1 t2 =
  let o1, _ = fresh t1 and o2, _ = fresh t2 in
  let diff = Fvm.Field.max_abs_diff o1.Finch.Solve.u o2.Finch.Solve.u in
  if diff > 0. then Alcotest.failf "%s: max abs diff %g" name diff

let test_band_parallel_equals_serial () =
  List.iter
    (fun n ->
      targets_equal
        (Printf.sprintf "bands %d" n)
        (Finch.Config.Cpu Finch.Config.Serial)
        (Finch.Config.Cpu (Finch.Config.Band_parallel n)))
    [ 2; 3; 4 ]

let test_cell_parallel_equals_serial () =
  List.iter
    (fun n ->
      targets_equal
        (Printf.sprintf "cells %d" n)
        (Finch.Config.Cpu Finch.Config.Serial)
        (Finch.Config.Cpu (Finch.Config.Cell_parallel n)))
    [ 2; 3; 4; 7 ]

let test_overlap_equals_sync () =
  (* the overlapped halo exchange (receives waited on between the
     interior and frontier sweeps) must be bit-identical — not just
     close — to the synchronous one, for any rank count, and both must
     send the same messages: the schedule the Comm pass verifies *)
  let p2p = [ "spmd.p2p_msgs"; "spmd.p2p_bytes" ] in
  let with_deltas f =
    let was = Prt.Metrics.enabled () in
    Prt.Metrics.enable ();
    let before = Prt.Metrics.counter_values () in
    let o =
      Fun.protect ~finally:(fun () -> if not was then Prt.Metrics.disable ()) f
    in
    let delta = Finch.metrics_delta before (Prt.Metrics.counter_values ()) in
    o, List.map (fun name -> Option.value ~default:0 (List.assoc_opt name delta)) p2p
  in
  List.iter
    (fun n ->
      let p1, _, _ = make_advection () in
      let o1, sync =
        with_deltas (fun () ->
            run_with (Finch.Config.Cpu (Finch.Config.Cell_parallel n)) p1)
      in
      let p2, _, _ = make_advection () in
      Finch.Problem.set_overlap p2 true;
      let o2, overlap =
        with_deltas (fun () ->
            run_with (Finch.Config.Cpu (Finch.Config.Cell_parallel n)) p2)
      in
      let diff = Fvm.Field.max_abs_diff o1.Finch.Solve.u o2.Finch.Solve.u in
      if diff > 0. then Alcotest.failf "overlap cells %d: diff %g" n diff;
      List.iter2
        (fun name (s, o) ->
          Alcotest.(check int) (Printf.sprintf "cells:%d %s" n name) o s;
          check_bool (Printf.sprintf "cells:%d %s nonzero" n name) true (s > 0))
        p2p (List.combine sync overlap))
    [ 2; 3; 4; 7 ]

let test_overlap_equals_serial () =
  (* and transitively identical to the serial reference *)
  let p1, _, _ = make_advection () in
  let o1 = run_with (Finch.Config.Cpu Finch.Config.Serial) p1 in
  let p2, _, _ = make_advection () in
  Finch.Problem.set_overlap p2 true;
  let o2 = run_with (Finch.Config.Cpu (Finch.Config.Cell_parallel 4)) p2 in
  let diff = Fvm.Field.max_abs_diff o1.Finch.Solve.u o2.Finch.Solve.u in
  if diff > 0. then Alcotest.failf "overlap vs serial: diff %g" diff

let test_gpu_equals_serial () =
  targets_equal "gpu"
    (Finch.Config.Cpu Finch.Config.Serial)
    (Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 })

let test_gpu_overlap_equals_sync () =
  (* double-buffered second-stream transfers change only the modelled
     timeline, never the fields *)
  let gpu = Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 } in
  let p1, _, _ = make_advection () in
  let o1 = run_with gpu p1 in
  let p2, _, _ = make_advection () in
  Finch.Problem.set_overlap p2 true;
  let o2 = run_with gpu p2 in
  let diff = Fvm.Field.max_abs_diff o1.Finch.Solve.u o2.Finch.Solve.u in
  if diff > 0. then Alcotest.failf "gpu overlap: diff %g" diff

let test_threaded_equals_serial () =
  let p1, _, _ = make_advection () in
  let o1 = run_with (Finch.Config.Cpu Finch.Config.Serial) p1 in
  let p2, _, _ = make_advection () in
  let o2 = run_with (Finch.Config.Cpu (Finch.Config.Threaded 3)) p2 in
  let diff = Fvm.Field.max_abs_diff o1.Finch.Solve.u o2.Finch.Solve.u in
  if diff > 0. then Alcotest.failf "threaded: diff %g" diff

let test_pool_threaded_equals_serial () =
  (* the persistent-pool executor through the Solve dispatch: the
     double-buffered scheme makes agreement exact, not approximate *)
  List.iter
    (fun n ->
      let o1, _ = fresh (Finch.Config.Cpu Finch.Config.Serial) in
      let o2, _ = fresh (Finch.Config.Cpu (Finch.Config.Threaded n)) in
      let diff = Fvm.Field.max_abs_diff o1.Finch.Solve.u o2.Finch.Solve.u in
      if diff > 0. then Alcotest.failf "pool threads %d: diff %g" n diff)
    [ 1; 2; 3; 4 ]

let test_hybrid_equals_serial () =
  (* band-parallel ranks each driving a domain pool (the paper's
     MPI+threads hybrid), against plain serial *)
  List.iter
    (fun (nranks, ndomains) ->
      let o1, _ = fresh (Finch.Config.Cpu Finch.Config.Serial) in
      let o2, _ = fresh (Finch.Config.Cpu (Finch.Config.Hybrid (nranks, ndomains))) in
      let diff = Fvm.Field.max_abs_diff o1.Finch.Solve.u o2.Finch.Solve.u in
      if diff > 0. then
        Alcotest.failf "hybrid %dx%d: diff %g" nranks ndomains diff)
    [ 2, 2; 4, 1; 2, 3 ]

let test_loop_order_invariance () =
  (* permuting assembly loops must not change results *)
  let p1, _, _ = make_advection () in
  let o1 = run_with (Finch.Config.Cpu Finch.Config.Serial) p1 in
  let p2, _, _ = make_advection () in
  Finch.Problem.assembly_loops p2 [ "d"; "elements" ];
  let o2 = run_with (Finch.Config.Cpu Finch.Config.Serial) p2 in
  let diff = Fvm.Field.max_abs_diff o1.Finch.Solve.u o2.Finch.Solve.u in
  if diff > 0. then Alcotest.failf "loop order changed results: %g" diff

let test_assembly_loops_validation () =
  let p, _, _ = make_advection () in
  Finch.Problem.assembly_loops p [ "d" ];
  (match run_with (Finch.Config.Cpu Finch.Config.Serial) p with
   | exception Finch.Lower.Lower_error _ -> ()
   | _ -> Alcotest.fail "missing elements loop should fail");
  let p2, _, _ = make_advection () in
  Finch.Problem.assembly_loops p2 [ "elements"; "nope" ];
  match run_with (Finch.Config.Cpu Finch.Config.Serial) p2 with
  | exception Finch.Lower.Lower_error _ -> ()
  | _ -> Alcotest.fail "unknown index should fail"

let test_dirichlet_inflow () =
  (* 1-component inflow problem: constant inflow value propagates and the
     steady state is bounded by the boundary value *)
  let p = Finch.Problem.init "inflow" in
  Finch.Problem.domain p 2;
  let mesh = Fvm.Mesh_gen.rectangle ~nx:10 ~ny:3 ~lx:1.0 ~ly:0.3 () in
  Finch.Problem.set_mesh p mesh;
  Finch.Problem.set_steps p ~dt:2e-3 ~nsteps:2000;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"cx" (Finch.Entity.Const 1.0) in
  let _ = Finch.Problem.coefficient p ~name:"cy" (Finch.Entity.Const 0.0) in
  Finch.Problem.initial p u (Finch.Problem.Init_const 0.);
  Finch.Problem.boundary p u 4 Finch.Config.Dirichlet "2.5"; (* left inflow *)
  Finch.Problem.boundary p u 2 Finch.Config.Dirichlet "u";   (* right outflow *)
  (* top/bottom tangential: flux contribution is zero anyway (cy = 0) *)
  Finch.Problem.boundary p u 1 Finch.Config.Dirichlet "u";
  Finch.Problem.boundary p u 3 Finch.Config.Dirichlet "u";
  let _ = Finch.Problem.conservation_form p u "-surface(upwind([cx;cy], u))" in
  let o = Finch.Solve.solve p in
  (* steady state: u = 2.5 everywhere *)
  Fvm.Field.iter o.Finch.Solve.u (fun _ _ v ->
      Tutil.check_close ~eps:1e-5 "steady inflow value" 2.5 v)

let test_flux_bc_expression () =
  (* prescribing zero flux on all boundaries conserves mass exactly
     (pure advection, no decay) *)
  let p = Finch.Problem.init "closed" in
  Finch.Problem.domain p 2;
  let mesh = Fvm.Mesh_gen.rectangle ~nx:8 ~ny:8 ~lx:1.0 ~ly:1.0 () in
  Finch.Problem.set_mesh p mesh;
  Finch.Problem.set_steps p ~dt:2e-3 ~nsteps:50;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"cx" (Finch.Entity.Const 0.7) in
  let _ = Finch.Problem.coefficient p ~name:"cy" (Finch.Entity.Const 0.3) in
  Finch.Problem.initial p u
    (Finch.Problem.Init_fn
       (fun pos _ ->
         exp (-30. *. (((pos.(0) -. 0.5) ** 2.) +. ((pos.(1) -. 0.5) ** 2.)))));
  List.iter
    (fun r -> Finch.Problem.boundary p u r Finch.Config.Flux "0")
    [ 1; 2; 3; 4 ];
  let _ = Finch.Problem.conservation_form p u "-surface(upwind([cx;cy], u))" in
  let mass0 =
    (* integrate the initial condition *)
    let st = Finch.Lower.build p in
    Fvm.Field.integral st.Finch.Lower.u mesh 0
  in
  let o = Finch.Solve.solve p in
  let mass1 = Fvm.Field.integral o.Finch.Solve.u mesh 0 in
  Tutil.check_close ~eps:1e-12 "mass conserved in closed box" mass0 mass1

let test_post_step_callback_runs () =
  let p, _, _ = make_advection ~nsteps:5 () in
  let count = ref 0 in
  Finch.Problem.post_step_function p (fun ctx ->
      incr count;
      Alcotest.(check int) "nranks" 1 ctx.Finch.Problem.st_nranks);
  let _ = run_with (Finch.Config.Cpu Finch.Config.Serial) p in
  Alcotest.(check int) "post-step called each step" 5 !count

let test_rcb_band_gather () =
  (* Lower.gather_fields reconstructs the full field from band-partitioned
     states without gaps *)
  let p, _, _ = make_advection ~nsteps:3 () in
  Finch.Problem.set_target p (Finch.Config.Cpu (Finch.Config.Band_parallel 3));
  let o = Finch.Solve.solve p in
  Fvm.Field.iter o.Finch.Solve.u (fun _ _ v ->
      check_bool "no NaN after gather" true (not (Float.is_nan v)))

(* pure decay du/dt = -k u: measure convergence order of the steppers *)
let decay_error stepper ~dt ~nsteps =
  let p = Finch.Problem.init "decay" in
  Finch.Problem.domain p 2;
  let mesh = Fvm.Mesh_gen.rectangle ~nx:2 ~ny:2 ~lx:1.0 ~ly:1.0 () in
  Finch.Problem.set_mesh p mesh;
  Finch.Problem.set_steps p ~dt ~nsteps;
  Finch.Problem.time_stepper p stepper;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.0) in
  Finch.Problem.initial p u (Finch.Problem.Init_const 1.0);
  let _ = Finch.Problem.conservation_form p u "-k*u" in
  let o = Finch.Solve.solve p in
  let exact = exp (-.(dt *. float_of_int nsteps)) in
  Float.abs (Fvm.Field.get o.Finch.Solve.u 0 0 -. exact)

let gpu1 = Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 }

(* du[d]/dt = -u[d] on 4x4 cells, dt 0.1, two components so band-split
   targets have an index to partition *)
let indexed_decay ~stepper ~nsteps target =
  let p = Finch.Problem.init "decay" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p
    (Fvm.Mesh_gen.rectangle ~nx:4 ~ny:4 ~lx:1.0 ~ly:1.0 ());
  Finch.Problem.set_steps p ~dt:0.1 ~nsteps;
  Finch.Problem.time_stepper p stepper;
  let d = Finch.Problem.index p ~name:"d" ~range:(1, 2) in
  let u = Finch.Problem.variable p ~name:"u" ~indices:[ d ] () in
  Finch.Problem.initial p u (Finch.Problem.Init_const 1.0);
  let _ = Finch.Problem.conservation_form p u "-u[d]" in
  Finch.Problem.set_target p target;
  p

let test_stepper_needs_serial () =
  (* only the serial executor runs multi-stage and point-implicit steps;
     the others sweep and commit (forward Euler), so they must refuse
     rather than silently return an Euler result *)
  List.iter
    (fun stepper ->
      List.iter
        (fun target ->
          let what =
            Printf.sprintf "%s on %s"
              (Finch.Config.stepper_name stepper)
              (Finch.Config.target_name target)
          in
          match Finch.Solve.solve (indexed_decay ~stepper ~nsteps:10 target) with
          | _ -> Alcotest.failf "%s ran" what
          | exception Finch.Problem.Problem_error m ->
            check_bool (what ^ ": names the stepper") true
              (Tutil.contains m (Finch.Config.stepper_name stepper));
            check_bool (what ^ ": names the target") true
              (Tutil.contains m (Finch.Config.target_name target)))
        [ Finch.Config.Cpu (Finch.Config.Threaded 2);
          Finch.Config.Cpu (Finch.Config.Band_parallel 2);
          Finch.Config.Cpu (Finch.Config.Cell_parallel 2);
          Finch.Config.Cpu (Finch.Config.Hybrid (2, 2));
          gpu1 ])
    [ Finch.Config.RK2; Finch.Config.RK4; Finch.Config.Euler_point_implicit ]

let test_gpu_rejects_host_interior () =
  (* the data-movement plan keeps this tiny interior update on the host,
     so it uploads no per-step input; the GPU executor launches the
     interior on the device and must refuse instead of stepping stale
     device data *)
  let p = indexed_decay ~stepper:Finch.Config.Euler_explicit ~nsteps:3 gpu1 in
  check_bool "plan places the interior on the host" true
    (List.assoc_opt "interior_update"
       (Finch.Dataflow.plan_for_problem p).Finch.Dataflow.placement
     = Some Finch.Dataflow.Cpu_side);
  match Finch.Solve.solve p with
  | _ -> Alcotest.fail "Solve.solve ran on a host-placed interior"
  | exception Finch.Target_gpu.Gpu_error m ->
    check_bool "names the placement" true
      (Tutil.contains m "interior_update" && Tutil.contains m "host")

let test_rk_convergence_order () =
  (* halving dt divides the error by ~2^order *)
  let order stepper =
    let e1 = decay_error stepper ~dt:0.1 ~nsteps:10 in
    let e2 = decay_error stepper ~dt:0.05 ~nsteps:20 in
    log (e1 /. e2) /. log 2.
  in
  let o_euler = order Finch.Config.Euler_explicit in
  let o_rk2 = order Finch.Config.RK2 in
  check_bool
    (Printf.sprintf "euler order ~1 (got %.2f)" o_euler)
    true
    (o_euler > 0.8 && o_euler < 1.2);
  check_bool (Printf.sprintf "rk2 order ~2 (got %.2f)" o_rk2) true
    (o_rk2 > 1.8 && o_rk2 < 2.2);
  let o_rk4 = order Finch.Config.RK4 in
  check_bool (Printf.sprintf "rk4 order ~4 (got %.2f)" o_rk4) true
    (o_rk4 > 3.6 && o_rk4 < 4.4);
  check_bool "rk4 small error" true
    (decay_error Finch.Config.RK4 ~dt:0.1 ~nsteps:10 < 1e-5)

let test_rk2_advection_consistent () =
  (* RK2 on the advection problem stays close to Euler at small dt and is
     stable *)
  let p1, mesh, _ = make_advection ~nsteps:20 () in
  Finch.Problem.time_stepper p1 Finch.Config.RK2;
  let o = run_with (Finch.Config.Cpu Finch.Config.Serial) p1 in
  let mass = Fvm.Field.integral o.Finch.Solve.u mesh 0 in
  check_bool "rk2 stable mass" true (mass > 0. && mass < 1.);
  Fvm.Field.iter o.Finch.Solve.u (fun _ _ v ->
      check_bool "rk2 bounded" true (Float.abs v < 2.))

let prop_upwind_maximum_principle =
  (* property: pure upwind advection (no decay, closed box) with a
     CFL-satisfying dt keeps the solution inside the initial bounds, for
     random initial fields and velocities *)
  QCheck.Test.make ~name:"upwind advection obeys the maximum principle"
    ~count:15
    QCheck.(triple (int_range 0 1000) (float_range (-1.) 1.) (float_range (-1.) 1.))
    (fun (seed, cx, cy) ->
      let p = Finch.Problem.init "maxp" in
      Finch.Problem.domain p 2;
      let mesh = Fvm.Mesh_gen.rectangle ~nx:8 ~ny:8 ~lx:1.0 ~ly:1.0 () in
      Finch.Problem.set_mesh p mesh;
      Finch.Problem.set_steps p ~dt:0.02 ~nsteps:15;
      let u = Finch.Problem.variable p ~name:"u" () in
      let _ = Finch.Problem.coefficient p ~name:"cx" (Finch.Entity.Const cx) in
      let _ = Finch.Problem.coefficient p ~name:"cy" (Finch.Entity.Const cy) in
      let rnd = Tutil.lcg (seed + 1) in
      let values = Array.init 64 (fun _ -> rnd ()) in
      Finch.Problem.initial p u
        (Finch.Problem.Init_fn
           (fun pos _ ->
             let i = int_of_float (pos.(0) *. 8.) in
             let j = int_of_float (pos.(1) *. 8.) in
             values.((min 7 j * 8) + min 7 i)));
      (* ghost = interior: outflow-only boundaries *)
      List.iter
        (fun r -> Finch.Problem.boundary p u r Finch.Config.Dirichlet "u")
        [ 1; 2; 3; 4 ];
      let _ = Finch.Problem.conservation_form p u "-surface(upwind([cx;cy], u))" in
      let o = Finch.Solve.solve p in
      let lo = Array.fold_left Float.min infinity values in
      let hi = Array.fold_left Float.max neg_infinity values in
      let ok = ref true in
      Fvm.Field.iter o.Finch.Solve.u (fun _ _ v ->
          if v < lo -. 1e-9 || v > hi +. 1e-9 then ok := false);
      !ok)

let test_point_implicit_stability () =
  (* du/dt = -k u with dt*k = 50: explicit Euler oscillates/diverges, the
     point-implicit update u' = u/(1 + dt k) is unconditionally stable *)
  let run stepper =
    let p = Finch.Problem.init "stiff" in
    Finch.Problem.domain p 2;
    Finch.Problem.set_mesh p (Fvm.Mesh_gen.rectangle ~nx:2 ~ny:2 ~lx:1. ~ly:1. ());
    Finch.Problem.set_steps p ~dt:50.0 ~nsteps:10;
    Finch.Problem.time_stepper p stepper;
    let u = Finch.Problem.variable p ~name:"u" () in
    let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.0) in
    Finch.Problem.initial p u (Finch.Problem.Init_const 1.0);
    let _ = Finch.Problem.conservation_form p u "-k*u" in
    let o = Finch.Solve.solve p in
    Fvm.Field.get o.Finch.Solve.u 0 0
  in
  let explicit = run Finch.Config.Euler_explicit in
  let implicit = run Finch.Config.Euler_point_implicit in
  check_bool "explicit diverges" true (Float.abs explicit > 1e10);
  check_bool "implicit decays monotonically" true
    (implicit > 0. && implicit < 1e-10)

let test_point_implicit_accuracy () =
  (* first-order accurate on the smooth problem *)
  let e1 = decay_error Finch.Config.Euler_point_implicit ~dt:0.1 ~nsteps:10 in
  let e2 = decay_error Finch.Config.Euler_point_implicit ~dt:0.05 ~nsteps:20 in
  let order = log (e1 /. e2) /. log 2. in
  check_bool (Printf.sprintf "PI order ~1 (got %.2f)" order) true
    (order > 0.8 && order < 1.2)

let test_point_implicit_rejects_nonlinear () =
  let eq =
    Finch.Transform.conservation_form
      (Finch.Entity.variable ~name:"u" ())
      "-k*u^2"
  in
  match Finch.Transform.rvol_linearization eq with
  | exception Finch.Transform.Equation_error _ -> ()
  | _ -> Alcotest.fail "nonlinear volume term must be rejected"

let test_linearization_of_bte_form () =
  let d = Finch.Entity.index ~name:"d" ~range:(1, 4) in
  let b = Finch.Entity.index ~name:"b" ~range:(1, 3) in
  let vi = Finch.Entity.variable ~name:"I" ~indices:[ d; b ] () in
  let eq =
    Finch.Transform.conservation_form vi
      "(Io[b] - I[d,b]) * beta[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))"
  in
  let lin = Finch.Transform.rvol_linearization eq in
  (* -d/dI [(Io - I) beta] = beta *)
  check_bool "linearization is beta[b]" true
    (Finch_symbolic.Expr.equal lin
       (Finch_symbolic.Expr.ref_ "beta" [ Finch_symbolic.Expr.Ivar "b" ]))

(* --- interior staging: the face tables against a per-face oracle ---- *)

(* The surface evaluation as it ran before staging, independent of the
   face tables: at every face the neighbour and the normal sign come
   from the mesh, the signed normal is written into a one-slot table
   that the oracle's closures read, and every conditional test is
   evaluated.  The interior sum is the face form's, P·(0 + Σ
   (area·K)·V) in face order with K and V evaluated at the face and P
   once; with [~today] it is the unfactored 0 + Σ area·rsurf.  Returns
   [(rvol, interior sum, boundary terms)] of one DOF, the terms as
   (area, g) per conditioned boundary face in face order. *)
let face_oracle ?(today = false) (st : Finch.Lower.state) =
  let mesh = st.Finch.Lower.mesh in
  let dim = mesh.Fvm.Mesh.dim in
  let normal = Array.make dim 0. in
  (* the programs read only the one-slot normal; [form] is not read *)
  let form = st.Finch.Lower.faces.Finch.Eval.form in
  let faces =
    { Finch.Eval.dim; slot_start = [| 0; 1 |]; slot_nbr = [| -1 |];
      slot_normal = normal; tests = []; form }
  in
  let p = st.Finch.Lower.p in
  let env =
    Finch.Eval.make_env ~lanes:1 ~mesh ~dt:st.Finch.Lower.dt ~time:st.Finch.Lower.time
      ~index_names:(List.map (fun (i : Finch.Entity.index) -> i.Finch.Entity.iname)
                      p.Finch.Problem.indices)
  in
  let compile = Finch.Eval.compile ~faces st.Finch.Lower.bindings in
  let eq = st.Finch.Lower.eq in
  let rvol = compile eq.Finch.Transform.rvol
  and rsurf = compile eq.Finch.Transform.rsurf in
  let pre = Option.map compile form.Finch.Eval.pre
  and coef = compile form.Finch.Eval.coef
  and var = compile form.Finch.Eval.var in
  let uname = st.Finch.Lower.uvar.Finch.Entity.vname in
  let bcs =
    List.map
      (fun (bc : Finch.Problem.bc) ->
        match bc.Finch.Problem.bc_spec with
        | Finch.Problem.Bc_expr e ->
          bc.Finch.Problem.bc_region, (bc.Finch.Problem.bc_kind, compile e)
        | Finch.Problem.Bc_callback _ ->
          Alcotest.fail "oracle: expression conditions only")
      (Finch.Problem.bcs_for p uname)
  in
  fun cell comp ->
    env.Finch.Eval.cell <- cell;
    let c = ref comp in
    List.iter
      (fun (i : Finch.Entity.index) ->
        let ext = Finch.Entity.index_extent i in
        Finch.Eval.ival env i.Finch.Entity.iname := !c mod ext;
        c := !c / ext)
      st.Finch.Lower.uvar.Finch.Entity.vindices;
    let rv = rvol env in
    let interior = ref 0. and terms = ref [] in
    Array.iter
      (fun f ->
        let owner = mesh.Fvm.Mesh.face_cell1.(f) = cell in
        let nsign = if owner then 1. else -1. in
        let c2 =
          if owner then mesh.Fvm.Mesh.face_cell2.(f) else mesh.Fvm.Mesh.face_cell1.(f)
        in
        for k = 0 to dim - 1 do
          normal.(k) <- nsign *. mesh.Fvm.Mesh.face_normal.((f * dim) + k)
        done;
        env.Finch.Eval.face <- f;
        env.Finch.Eval.cell2 <- c2;
        let area = mesh.Fvm.Mesh.face_area.(f) in
        if c2 >= 0 then
          interior :=
            !interior
            +. (if today then area *. rsurf env else area *. coef env *. var env)
        else
          match List.assoc_opt mesh.Fvm.Mesh.face_bid.(f) bcs with
          | None -> ()
          | Some (Finch.Config.Flux, g) -> terms := (area, g env) :: !terms
          | Some (Finch.Config.Dirichlet, g) ->
            let ghost = g env in
            env.Finch.Eval.ghost <-
              Some
                (fun name _lane comp ->
                  if name = uname then ghost
                  else Fvm.Field.get (Finch.Lower.field st name) cell comp);
            terms := (area, rsurf env) :: !terms;
            env.Finch.Eval.ghost <- None)
      mesh.Fvm.Mesh.cell_faces.(cell);
    let interior =
      match pre with
      | Some pre when not today -> pre env *. !interior
      | _ -> !interior
    in
    rv, interior, List.rev !terms

(* The boundary part of the oracle's [terms] at [scale]:
   0 + Σ ((scale·area)·g)/V in face order, [None] for a cell owning no
   conditioned boundary face (nothing is added there). *)
let boundary_part ~scale ~vol = function
  | [] -> None
  | terms ->
    Some (List.fold_left (fun acc (a, g) -> acc +. (scale *. a *. g /. vol)) 0. terms)

(* [x] plus the boundary part, after it: every executor's association *)
let then_boundary x = function None -> x | Some b -> x +. b

(* One forward-Euler update of ([cell], [comp]) from the oracle:
   (u + dt·(rv + int/V)) + (0 + Σ ((dt·a)·g)/V). *)
let oracle_step (st : Finch.Lower.state) oracle ~dt cell comp =
  let rv, int_sum, terms = oracle cell comp in
  let vol = st.Finch.Lower.mesh.Fvm.Mesh.cell_volume.(cell) in
  then_boundary
    (Fvm.Field.get st.Finch.Lower.u cell comp +. (dt *. (rv +. (int_sum /. vol))))
    (boundary_part ~scale:dt ~vol terms)

(* Advection of u[d,b] at the rate w[b] on [mesh] whose upwind test
   names d alone, or d and b when [two]; velocities hold exact zeros, so
   some faces test 0 > 0.  Regions 1 and 3 carry Dirichlet expressions (rsurf under a
   ghost on a boundary slot), region 2 a flux expression reading a
   normal, and on a box region 4 (x = lx) a Dirichlet expression, so a
   corner cell owns three conditioned faces (z = 0, y = 0, x = lx); the
   rest are unconstrained. *)
let staging_problem ?(nd = 3) ?(nb = 2) rng mesh ~two =
  let dim = mesh.Fvm.Mesh.dim in
  let p = Finch.Problem.init "staged" in
  Finch.Problem.domain p dim;
  Finch.Problem.set_mesh p mesh;
  Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:1;
  let d = Finch.Problem.index p ~name:"d" ~range:(1, nd) in
  let b = Finch.Problem.index p ~name:"b" ~range:(1, nb) in
  let u = Finch.Problem.variable p ~name:"u" ~indices:[ d; b ] () in
  let speeds (i : Finch.Entity.index) =
    Finch.Entity.Arr
      (Array.init (Finch.Entity.index_extent i) (fun _ ->
           0.5 *. float_of_int (Random.State.int rng 5 - 2)))
  in
  let _ = Finch.Problem.coefficient p ~name:"cx" ~index:d (speeds d) in
  let cy_index = if two then b else d in
  let _ = Finch.Problem.coefficient p ~name:"cy" ~index:cy_index (speeds cy_index) in
  let _ = Finch.Problem.coefficient p ~name:"cz" ~index:d (speeds d) in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 0.25) in
  (* a rate per b: the face form's P, -w[b], is not exact to apply *)
  let _ =
    Finch.Problem.coefficient p ~name:"w" ~index:b
      (Finch.Entity.Arr (Array.init nb (fun i -> 0.7 +. (0.3 *. float_of_int i))))
  in
  Finch.Problem.boundary p u 1 Finch.Config.Dirichlet "0.5 * u[d,b]";
  Finch.Problem.boundary p u 2 Finch.Config.Flux "NORMAL_1 * u[d,b]";
  Finch.Problem.boundary p u 3 Finch.Config.Dirichlet "1.5";
  if dim = 3 then
    Finch.Problem.boundary p u 4 Finch.Config.Dirichlet "0.25 * u[d,b] + 1";
  let cy = if two then "cy[b]" else "cy[d]" in
  let vec =
    if dim = 3 then Printf.sprintf "[cx[d];%s;cz[d]]" cy
    else Printf.sprintf "[cx[d];%s]" cy
  in
  let _ =
    Finch.Problem.conservation_form p u
      (Printf.sprintf "-k*u[d,b] - surface(w[b] * upwind(%s, u[d,b]))" vec)
  in
  p

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The entries the executors call read the face tables and equal the
   per-face oracle bit for bit, on quadrilateral, triangular and
   hexahedral cells (4, 3 and 6 faces per cell) at random small shapes,
   int the face form's interior sum P·(0 + Σ (a·K)·V):
   [sweep_rhs] ((rv + int/V) + (0 + Σ (a·g)/V)), [update_interior]
   (u + dt·(rv + int/V)) and [boundary_contributions]
   (0 + Σ ((dt·a)·g)/V, zero-filled field elsewhere), each cell's
   components as one lane group.  The box's corner cells own three
   conditioned faces, which pins the order of the boundary sum. *)
let test_staged_flux_equals_oracle () =
  let rng = Random.State.make [| 2117 |] in
  let size lo hi = lo + Random.State.int rng (hi - lo + 1) in
  let meshes =
    List.concat
      (List.init 3 (fun _ ->
           [ "rectangle",
             Fvm.Mesh_gen.rectangle ~nx:(size 2 5) ~ny:(size 2 5) ~lx:1.0 ~ly:0.7 ();
             "triangles",
             Fvm.Mesh_gen.triangulated_rectangle ~nx:(size 2 4) ~ny:(size 2 4)
               ~lx:1.0 ~ly:1.3 ();
             "box",
             Fvm.Mesh_gen.box ~nx:(size 2 3) ~ny:(size 2 3) ~nz:(size 2 3)
               ~lx:1.0 ~ly:0.8 ~lz:0.6 () ]))
  in
  List.iter
    (fun (mname, mesh) ->
      List.iter
        (fun two ->
          let p = staging_problem rng mesh ~two in
          let st = Finch.Lower.build p in
          let what =
            Printf.sprintf "%s (%d cells), two=%b" mname mesh.Fvm.Mesh.ncells two
          in
          let names = if two then [ "d"; "b" ] else [ "d" ] in
          Alcotest.(check (list (list string)))
            (what ^ ": the upwind test is staged")
            [ names ]
            (List.map
               (fun (t : Finch.Eval.staged) -> List.map fst t.Finch.Eval.names)
               st.Finch.Lower.faces.Finch.Eval.tests);
          Alcotest.(check (list string))
            (what ^ ": the face coefficient spans the test's indices")
            names
            (List.map fst st.Finch.Lower.faces.Finch.Eval.form.Finch.Eval.knames);
          let u = st.Finch.Lower.u in
          Fvm.Field.init u (fun _ _ -> Random.State.float rng 2. -. 0.5);
          let oracle = face_oracle st in
          let ncomp = Fvm.Field.ncomp u in
          let k = Fvm.Field.create ~name:"k" ~ncells:mesh.Fvm.Mesh.ncells ~ncomp () in
          Finch.Lower.sweep_rhs st ~into:k;
          let bdry = Fvm.Field.create ~name:"bdry" ~ncells:mesh.Fvm.Mesh.ncells ~ncomp () in
          Finch.Lower.boundary_contributions st ~into:bdry;
          let comps = Array.init ncomp Fun.id in
          for cell = 0 to mesh.Fvm.Mesh.ncells - 1 do
            Finch.Lower.update_interior st cell comps 0 ncomp
          done;
          let dt = !(st.Finch.Lower.dt) in
          for cell = 0 to mesh.Fvm.Mesh.ncells - 1 do
            for comp = 0 to ncomp - 1 do
              let rv, int_sum, terms = oracle cell comp in
              let vol = mesh.Fvm.Mesh.cell_volume.(cell) in
              let check name got want =
                if not (bits_equal got want) then
                  Alcotest.failf "%s: %s at cell %d comp %d: %h, oracle %h" what
                    name cell comp got want
              in
              check "sweep_rhs" (Fvm.Field.get k cell comp)
                (then_boundary (rv +. (int_sum /. vol))
                   (boundary_part ~scale:1. ~vol terms));
              check "update_interior"
                (Fvm.Field.get st.Finch.Lower.u_new cell comp)
                (Fvm.Field.get u cell comp +. (dt *. (rv +. (int_sum /. vol))));
              check "boundary_contributions" (Fvm.Field.get bdry cell comp)
                (Option.value ~default:0. (boundary_part ~scale:dt ~vol terms))
            done
          done)
        [ false; true ])
    meshes


(* The closure sweep runs lane groups: per owned cell, its owned index
   tuples in slices of at most 256 lanes.  After one sweep every owned
   DOF of u_new equals (u + dt·(rv + int/V)) + (0 + Σ ((dt·a)·g)/V) from
   the per-face oracle bit for bit (int in the face form),
   and every other DOF is untouched, for cells of 6 and of 300
   components (two groups of 256 and 44), band slices and cell subsets
   (partial groups), and the permuted loop order. *)
let test_group_sweep_equals_oracle () =
  let rng = Random.State.make [| 2203 |] in
  let mesh = Fvm.Mesh_gen.rectangle ~nx:4 ~ny:3 ~lx:1.0 ~ly:0.7 () in
  let cases =
    [ "6 comps", 3, 2, Finch.Lower.serial_rankinfo, None;
      "300 comps", 20, 15, Finch.Lower.serial_rankinfo, None;
      ( "300 comps, band slice",
        20, 15,
        { Finch.Lower.rank = 1; nranks = 2; owned_cells = None;
          index_ranges = [ "b", (7, 8) ] },
        None );
      ( "300 comps, cell subset, loops b/elements/d",
        20, 15,
        { Finch.Lower.rank = 0; nranks = 2; owned_cells = Some [| 1; 4; 5; 10 |];
          index_ranges = [ "d", (3, 11) ] },
        Some [ "b"; "elements"; "d" ] ) ]
  in
  List.iter
    (fun (what, nd, nb, info, loops) ->
      let p = staging_problem ~nd ~nb rng mesh ~two:true in
      Option.iter (Finch.Problem.assembly_loops p) loops;
      let st = Finch.Lower.build ~info p in
      Fvm.Field.init st.Finch.Lower.u (fun _ _ -> Random.State.float rng 2. -. 0.5);
      Fvm.Field.fill st.Finch.Lower.u_new 123.;
      let oracle = face_oracle st in
      Finch.Lower.sweep st;
      let ncomp = Fvm.Field.ncomp st.Finch.Lower.u in
      let owned_cell c =
        match info.Finch.Lower.owned_cells with
        | None -> true
        | Some cs -> Array.mem c cs
      in
      let owned_comp comp =
        List.for_all
          (fun (name, (off, len)) ->
            let x = if name = "d" then comp mod nd else comp / nd in
            x >= off && x < off + len)
          info.Finch.Lower.index_ranges
      in
      let dt = !(st.Finch.Lower.dt) in
      for cell = 0 to mesh.Fvm.Mesh.ncells - 1 do
        for comp = 0 to ncomp - 1 do
          let got = Fvm.Field.get st.Finch.Lower.u_new cell comp in
          let want =
            if owned_cell cell && owned_comp comp then
              oracle_step st oracle ~dt cell comp
            else 123.
          in
          if not (bits_equal got want) then
            Alcotest.failf "%s: cell %d comp %d: swept %h, oracle %h" what cell comp
              got want
        done
      done)
    cases

(* The interpreter keeps a lane group whose slice repeats, and with it
   the offsets every program derived, and reloads it when the slice, its
   loader or its stamp moved.  One state runs [update_interior] over
   every cell on a sequence of slices: the whole cell, a partial slice,
   the whole cell again, a distinct array with equal contents, the same
   slice after a group written and touched from outside, and a half
   slice whose array then changes its contents.  A closure [sweep],
   which loads groups by tuples, runs after the first two.  Every
   result equals a fresh state's, bit for bit, on a double buffer
   poisoned before each call. *)
let test_group_reuse () =
  let rng = Random.State.make [| 2311 |] in
  let mesh = Fvm.Mesh_gen.rectangle ~nx:4 ~ny:3 ~lx:1.0 ~ly:0.7 () in
  let p = staging_problem ~nd:4 ~nb:4 rng mesh ~two:true in
  let st = Finch.Lower.build p in
  let u = st.Finch.Lower.u in
  Fvm.Field.init u (fun _ _ -> Random.State.float rng 2. -. 0.5);
  let ncomp = Fvm.Field.ncomp u and ncells = mesh.Fvm.Mesh.ncells in
  let fresh () =
    let f = Finch.Lower.build p in
    Fvm.Field.blit ~src:u ~dst:f.Finch.Lower.u;
    f
  in
  let check what f cell comp =
    let got = Fvm.Field.get st.Finch.Lower.u_new cell comp
    and want = Fvm.Field.get f.Finch.Lower.u_new cell comp in
    if not (bits_equal got want) then
      Alcotest.failf "%s: cell %d comp %d: %h, a fresh state %h" what cell comp got want
  in
  let update what comps off len =
    let f = fresh () in
    Fvm.Field.fill st.Finch.Lower.u_new Float.nan;
    for cell = 0 to ncells - 1 do
      Finch.Lower.update_interior st cell comps off len;
      Finch.Lower.update_interior f cell comps off len
    done;
    for cell = 0 to ncells - 1 do
      for j = off to off + len - 1 do
        check what f cell comps.(j)
      done
    done
  in
  let sweep what =
    let f = fresh () in
    Finch.Lower.sweep st;
    Finch.Lower.sweep f;
    for cell = 0 to ncells - 1 do
      for comp = 0 to ncomp - 1 do
        check what f cell comp
      done
    done
  in
  let whole = Array.init ncomp Fun.id in
  let copy = Array.copy whole in
  update "whole cell" whole 0 ncomp;
  sweep "sweep after the whole cell";
  update "partial slice (3, 9)" whole 3 9;
  sweep "sweep after the partial slice";
  update "whole cell again" whole 0 ncomp;
  update "a distinct array with equal contents" copy 0 ncomp;
  let g = st.Finch.Lower.env.Finch.Eval.group in
  Array.iter (fun iv -> Array.fill iv 0 g.Finch.Eval.n 0) g.Finch.Eval.iv;
  Finch.Eval.touch g;
  update "after an outside write" copy 0 ncomp;
  let half = Array.init (ncomp / 2) Fun.id in
  update "half the components" half 0 (ncomp / 2);
  Array.iteri (fun j c -> half.(j) <- c + (ncomp / 2)) half;
  update "the same array, contents changed" half 0 (ncomp / 2)

(* Advection whose post-step callback declares it writes the speed Sx
   and flips its sign every step.  No boundary conditions, so the GPU's
   separate boundary sum adds exact zeros. *)
let written_speed_problem ~declares () =
  let p = Finch.Problem.init "written" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p (Fvm.Mesh_gen.rectangle ~nx:6 ~ny:5 ~lx:1.0 ~ly:1.0 ());
  Finch.Problem.set_steps p ~dt:2e-3 ~nsteps:6;
  let d = Finch.Problem.index p ~name:"d" ~range:(1, 4) in
  let u = Finch.Problem.variable p ~name:"u" ~indices:[ d ] () in
  let _ =
    Finch.Problem.coefficient p ~name:"Sx" ~index:d
      (Finch.Entity.Arr [| 1.0; -0.5; 0.0; 0.75 |])
  in
  let _ =
    Finch.Problem.coefficient p ~name:"Sy" ~index:d
      (Finch.Entity.Arr [| 0.25; 1.0; -1.0; 0.0 |])
  in
  Finch.Problem.initial p u
    (Finch.Problem.Init_fn
       (fun pos comp ->
         exp (-10. *. ((pos.(0) -. 0.4) ** 2. +. ((pos.(1) -. 0.6) ** 2.)))
         +. (0.1 *. float_of_int comp)));
  let flip (ctx : Finch.Problem.step_ctx) =
    match (ctx.Finch.Problem.st_coef "Sx").Finch.Entity.cvalue with
    | Finch.Entity.Arr a -> Array.iteri (fun i x -> a.(i) <- -.x) a
    | _ -> ()
  in
  let io =
    { Finch.Problem.cb_reads = []; cb_writes = (if declares then [ "Sx" ] else []) }
  in
  Finch.Problem.post_step_function ~io p flip;
  let _ =
    Finch.Problem.conservation_form p u "-0.5*u[d] - surface(upwind([Sx[d];Sy[d]], u[d]))"
  in
  p

(* The per-face oracle as a forward-Euler time loop on a serial state:
   sweep every DOF, publish, run the post-step callbacks. *)
let oracle_run (p : Finch.Problem.t) =
  let st = Finch.Lower.build p in
  let oracle = face_oracle st in
  let u = st.Finch.Lower.u and u_new = st.Finch.Lower.u_new in
  let mesh = st.Finch.Lower.mesh in
  let dt = !(st.Finch.Lower.dt) in
  for _ = 1 to p.Finch.Problem.nsteps do
    for cell = 0 to mesh.Fvm.Mesh.ncells - 1 do
      for comp = 0 to Fvm.Field.ncomp u - 1 do
        Fvm.Field.set u_new cell comp (oracle_step st oracle ~dt cell comp)
      done
    done;
    Fvm.Field.blit ~src:u_new ~dst:u;
    Finch.Lower.run_post_step st ~allreduce:ignore;
    st.Finch.Lower.time := !(st.Finch.Lower.time) +. dt;
    incr st.Finch.Lower.step
  done;
  u

(* A test reading a coefficient that a callback declares it writes stays
   unstaged, and every evaluator then follows the callback's writes *)
let test_written_coefficient_unstaged () =
  let staged_tests p = List.length (Finch.Lower.stage_interior p).Finch.Eval.tests in
  Alcotest.(check int) "undeclared write: staged" 1
    (staged_tests (written_speed_problem ~declares:false ()));
  Alcotest.(check int) "declared write of Sx: not staged" 0
    (staged_tests (written_speed_problem ~declares:true ()));
  let want = oracle_run (written_speed_problem ~declares:true ()) in
  Finch_codegen.Codegen.install ();
  List.iter
    (fun (name, target, eval_mode) ->
      let p = written_speed_problem ~declares:true () in
      Finch.Problem.set_eval_mode p eval_mode;
      let o = run_with target p in
      let diff = Fvm.Field.max_abs_diff want o.Finch.Solve.u in
      if diff <> 0. then Alcotest.failf "%s: max abs diff %g from the oracle" name diff)
    [ "serial/closure", Finch.Config.Cpu Finch.Config.Serial, Finch.Config.Closure;
      "serial/native", Finch.Config.Cpu Finch.Config.Serial, Finch.Config.Native;
      "gpu:a6000",
      (match Finch.Config.target_of_string "gpu:a6000" with
       | Ok t -> t
       | Error e -> Alcotest.fail e),
      Finch.Config.Closure ]

(* one staging per solve, however many ranks, workers and device
   mirrors read the tables *)
let test_one_staging_per_solve () =
  let stagings = Prt.Metrics.counter "lower.face_stagings" in
  let was = Prt.Metrics.enabled () in
  Prt.Metrics.enable ();
  Fun.protect
    ~finally:(fun () -> if not was then Prt.Metrics.disable ())
    (fun () ->
      List.iter
        (fun spec ->
          let target =
            match Finch.Config.target_of_string spec with
            | Ok t -> t
            | Error e -> Alcotest.fail e
          in
          let p, _, _ = make_advection ~nx:8 ~ny:8 ~nsteps:3 () in
          let before = Prt.Metrics.value stagings in
          ignore (run_with target p);
          Alcotest.(check int) (spec ^ ": stagings") 1
            (Prt.Metrics.value stagings - before))
        [ "serial"; "threads:2"; "cells:4"; "gpu:a6000:2" ])

(* --- the face form: E = P·K·V ------------------------------------ *)

let show = Finch_symbolic.Printer.to_string

let form_of p = (Finch.Lower.stage_interior p).Finch.Eval.form

(* [eq] over u[d] (3 directions) on a 3x2 rectangle, with the speeds
   cx and cy and the rate vx over d, a constant k, Dirichlet inflow on
   region 1, and a post-step callback declaring it writes [writes] when
   that is not empty. *)
let form_problem ?(writes = []) eq =
  let p = Finch.Problem.init "form" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p (Fvm.Mesh_gen.rectangle ~nx:3 ~ny:2 ~lx:1.0 ~ly:0.7 ());
  Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:1;
  let d = Finch.Problem.index p ~name:"d" ~range:(1, 3) in
  let u = Finch.Problem.variable p ~name:"u" ~indices:[ d ] () in
  List.iter
    (fun (name, a) ->
      ignore (Finch.Problem.coefficient p ~name ~index:d (Finch.Entity.Arr a)))
    [ "cx", [| 1.0; -0.5; 0.0 |]; "cy", [| 0.25; 1.0; -1.0 |]; "vx", [| 2.0; 3.0; 0.5 |] ];
  ignore (Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 0.25));
  Finch.Problem.initial p u (Finch.Problem.Init_const 0.);
  Finch.Problem.boundary p u 1 Finch.Config.Dirichlet "0.5 * u[d] + 1";
  if writes <> [] then
    Finch.Problem.post_step_function
      ~io:{ Finch.Problem.cb_reads = []; cb_writes = writes }
      p ignore;
  ignore (Finch.Problem.conservation_form p u eq);
  p

(* P, K with the indices its table spans, and V, as printed *)
let show_form (form : Finch.Eval.form) =
  Printf.sprintf "P = %s; K over slot x [%s] = %s; V = %s"
    (match form.Finch.Eval.pre with Some e -> show e | None -> "none")
    (String.concat ", " (List.map fst form.Finch.Eval.knames))
    (show form.Finch.Eval.coef) (show form.Finch.Eval.var)

(* Every interior slot's table entry, computed by [want ~slot ~face j],
   and every boundary slot's 0 (no executor reads them), compared bit
   for bit. *)
let check_table what p (form : Finch.Eval.form) want =
  let faces = Finch.Lower.stage_interior p in
  let mesh = Finch.Problem.mesh_exn p in
  let kw = form.Finch.Eval.kwidth in
  for c = 0 to mesh.Fvm.Mesh.ncells - 1 do
    Array.iteri
      (fun i f ->
        let slot = faces.Finch.Eval.slot_start.(c) + i in
        for j = 0 to kw - 1 do
          let got = Bigarray.Array1.get form.Finch.Eval.ktable ((slot * kw) + j) in
          let w =
            if faces.Finch.Eval.slot_nbr.(slot) < 0 then 0. else want ~cell:c ~face:f j
          in
          if not (Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float w)) then
            Alcotest.failf "%s: slot %d entry %d: %h, want %h" what slot j got w
        done)
      mesh.Fvm.Mesh.cell_faces.(c)
  done

(* The BTE integrand factors into P = -1·vg[b], K = NORMAL_1·Sx[d] +
   NORMAL_2·Sy[d] tabulated over slot x d as area·K (each entry the
   lane programs' fold, (0 + (1·n1)·Sx) + (1·n2)·Sy, times the area),
   and V the select between the two loads. *)
let test_form_bte () =
  let p = Finch.Problem.init "bte-form" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p (Fvm.Mesh_gen.rectangle ~nx:4 ~ny:3 ~lx:1.0 ~ly:0.7 ());
  Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:1;
  let d = Finch.Problem.index p ~name:"d" ~range:(1, 4) in
  let b = Finch.Problem.index p ~name:"b" ~range:(1, 3) in
  let vi = Finch.Problem.variable p ~name:"I" ~indices:[ d; b ] () in
  let _ = Finch.Problem.variable p ~name:"Io" ~indices:[ b ] () in
  let _ = Finch.Problem.variable p ~name:"beta" ~indices:[ b ] () in
  let sx = [| 0.6; -0.8; 0.0; 0.3 |] and sy = [| 0.8; 0.6; -1.0; 0.0 |] in
  let _ = Finch.Problem.coefficient p ~name:"Sx" ~index:d (Finch.Entity.Arr sx) in
  let _ = Finch.Problem.coefficient p ~name:"Sy" ~index:d (Finch.Entity.Arr sy) in
  let _ =
    Finch.Problem.coefficient p ~name:"vg" ~index:b
      (Finch.Entity.Arr [| 1.5; 2.5; 3.5 |])
  in
  let _ =
    Finch.Problem.conservation_form p vi
      "(Io[b] - I[d,b]) * beta[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))"
  in
  let form = form_of p in
  Alcotest.(check string) "P, K, V"
    "P = (-1)*vg[b]; K over slot x [d] = NORMAL_1*Sx[d] + NORMAL_2*Sy[d]; \
     V = conditional(NORMAL_1*Sx[d] + NORMAL_2*Sy[d] > 0, CELL1_I[d,b], CELL2_I[d,b])"
    (show_form form);
  Alcotest.(check int) "table width" 4 form.Finch.Eval.kwidth;
  let mesh = Finch.Problem.mesh_exn p in
  check_table "area·K" p form (fun ~cell ~face j ->
      let nsign = Fvm.Mesh.normal_sign mesh face cell in
      let n k = nsign *. mesh.Fvm.Mesh.face_normal.((face * 2) + k) in
      mesh.Fvm.Mesh.face_area.(face)
      *. (0. +. (1. *. n 0 *. sx.(j)) +. (1. *. n 1 *. sy.(j))))

(* A staged conditional whose branches carry different coefficients
   stays whole in V: P takes the sign, K is 1 and the table the area. *)
let test_form_unequal_branches () =
  let p =
    form_problem
      "-k*u[d] - surface(conditional(NORMAL_1*cx[d] > 0, NORMAL_1*cx[d]*u[d], \
       NORMAL_2*cy[d]*u[d]))"
  in
  let form = form_of p in
  Alcotest.(check int) "the test is staged" 1
    (List.length (Finch.Lower.stage_interior p).Finch.Eval.tests);
  Alcotest.(check string) "P, K, V"
    "P = -1; K over slot x [] = 1; \
     V = conditional(NORMAL_1*cx[d] > 0, NORMAL_1*cx[d]*u[d], NORMAL_2*cy[d]*u[d])"
    (show_form form);
  let mesh = Finch.Problem.mesh_exn p in
  check_table "area" p form (fun ~cell:_ ~face _ -> mesh.Fvm.Mesh.face_area.(face))

(* A coefficient a callback declares it writes may sit in P but never
   in K: written, the rate vx stays in P; written, the speed cx keeps
   the upwind test per face (V whole) and the sum whole. *)
let test_form_written_coefficient () =
  let upwind = "-k*u[d] - surface(vx[d] * upwind([cx[d];cy[d]], u[d]))"
  and sum = "-k*u[d] - surface(NORMAL_1*cx[d]*u[d] + NORMAL_2*cy[d]*u[d])" in
  List.iter
    (fun (eq, writes, want) ->
      let what = Printf.sprintf "%s, writes [%s]" eq (String.concat "; " writes) in
      let form = form_of (form_problem ~writes eq) in
      Alcotest.(check string) what want (show_form form);
      List.iter
        (fun w ->
          if Finch_symbolic.Expr.contains_ref w form.Finch.Eval.coef then
            Alcotest.failf "%s: K reads the written %s" what w)
        writes)
    [ ( upwind, [],
        "P = (-1)*vx[d]; K over slot x [d] = NORMAL_1*cx[d] + NORMAL_2*cy[d]; \
         V = conditional(NORMAL_1*cx[d] + NORMAL_2*cy[d] > 0, CELL1_u[d], CELL2_u[d])" );
      ( upwind, [ "vx" ],
        "P = (-1)*vx[d]; K over slot x [d] = NORMAL_1*cx[d] + NORMAL_2*cy[d]; \
         V = conditional(NORMAL_1*cx[d] + NORMAL_2*cy[d] > 0, CELL1_u[d], CELL2_u[d])" );
      ( upwind, [ "cx" ],
        "P = (-1)*vx[d]; K over slot x [] = 1; \
         V = conditional(NORMAL_1*cx[d] + NORMAL_2*cy[d] > 0, \
         NORMAL_1*cx[d]*CELL1_u[d] + NORMAL_2*cy[d]*CELL1_u[d], \
         NORMAL_1*cx[d]*CELL2_u[d] + NORMAL_2*cy[d]*CELL2_u[d])" );
      ( sum, [],
        "P = none; K over slot x [d] = -NORMAL_1*cx[d] - NORMAL_2*cy[d]; V = u[d]" );
      ( sum, [ "cx" ],
        "P = none; K over slot x [] = 1; V = -NORMAL_1*cx[d]*u[d] - NORMAL_2*cy[d]*u[d]" ) ]

(* An integrand with nothing to stage (the central flux: its terms read
   either side) keeps today's association: no P, a table holding the
   face area, V the whole integrand, and a sweep on either evaluator
   equal bit for bit to the unfactored loop, (u + dt·(rv + (0 + Σ
   area·rsurf)/V)) + the boundary part. *)
let test_form_nothing_to_stage () =
  let eq = "-k*u[d] - surface(central([cx[d];cy[d]], u[d]))" in
  let p = form_problem eq in
  let form = form_of p in
  (match form.Finch.Eval.unfactored with
   | Some _ -> ()
   | None -> Alcotest.fail "the central flux must not factor");
  check_bool "no P" true (form.Finch.Eval.pre = None);
  check_bool "K is 1" true (Finch_symbolic.Expr.equal form.Finch.Eval.coef Finch_symbolic.Expr.one);
  check_bool "V is the integrand" true
    (Finch_symbolic.Expr.equal form.Finch.Eval.var
       (Finch.Problem.the_equation p).Finch.Transform.rsurf);
  let mesh = Finch.Problem.mesh_exn p in
  check_table "area" p form (fun ~cell:_ ~face _ -> mesh.Fvm.Mesh.face_area.(face));
  Finch_codegen.Codegen.install ();
  List.iter
    (fun eval_mode ->
      let p = form_problem eq in
      Finch.Problem.set_eval_mode p eval_mode;
      let st = Finch.Lower.build p in
      if eval_mode = Finch.Config.Native && Option.is_none st.Finch.Lower.native then
        Alcotest.fail "native: no kernel bound";
      let rng = Random.State.make [| 2411 |] in
      Fvm.Field.init st.Finch.Lower.u (fun _ _ -> Random.State.float rng 2. -. 0.5);
      let oracle = face_oracle ~today:true st in
      Finch.Lower.sweep st;
      let dt = !(st.Finch.Lower.dt) in
      for cell = 0 to mesh.Fvm.Mesh.ncells - 1 do
        for comp = 0 to Fvm.Field.ncomp st.Finch.Lower.u - 1 do
          let got = Fvm.Field.get st.Finch.Lower.u_new cell comp in
          let want = oracle_step st oracle ~dt cell comp in
          if not (bits_equal got want) then
            Alcotest.failf "%s: cell %d comp %d: swept %h, unfactored loop %h"
              (Finch.Config.eval_mode_name eval_mode) cell comp got want
        done
      done)
    [ Finch.Config.Closure; Finch.Config.Native ]

let suite =
  ( "solver",
    [
      Alcotest.test_case "serial physics" `Quick test_serial_physics;
      Alcotest.test_case "component independence" `Quick test_component_independence;
      Alcotest.test_case "band-parallel == serial" `Quick test_band_parallel_equals_serial;
      Alcotest.test_case "cell-parallel == serial" `Quick test_cell_parallel_equals_serial;
      Alcotest.test_case "overlap == sync (exact)" `Quick test_overlap_equals_sync;
      Alcotest.test_case "overlap == serial" `Quick test_overlap_equals_serial;
      Alcotest.test_case "gpu == serial" `Quick test_gpu_equals_serial;
      Alcotest.test_case "gpu overlap == sync (exact)" `Quick
        test_gpu_overlap_equals_sync;
      Alcotest.test_case "threaded == serial" `Quick test_threaded_equals_serial;
      Alcotest.test_case "pool-threaded == serial (exact)" `Quick
        test_pool_threaded_equals_serial;
      Alcotest.test_case "hybrid == serial (exact)" `Quick test_hybrid_equals_serial;
      Alcotest.test_case "loop order invariance" `Quick test_loop_order_invariance;
      Alcotest.test_case "assembly loops validation" `Quick test_assembly_loops_validation;
      Alcotest.test_case "dirichlet inflow steady state" `Quick test_dirichlet_inflow;
      Alcotest.test_case "zero-flux closed box conserves mass" `Quick
        test_flux_bc_expression;
      Alcotest.test_case "post-step callback runs" `Quick test_post_step_callback_runs;
      Alcotest.test_case "band gather completeness" `Quick test_rcb_band_gather;
      Alcotest.test_case "RK convergence orders" `Quick test_rk_convergence_order;
      Alcotest.test_case "RK2 advection stability" `Quick test_rk2_advection_consistent;
      Alcotest.test_case "non-Euler stepper needs serial" `Quick
        test_stepper_needs_serial;
      Alcotest.test_case "gpu rejects a host-placed interior" `Quick
        test_gpu_rejects_host_interior;
      Alcotest.test_case "point-implicit unconditional stability" `Quick
        test_point_implicit_stability;
      Alcotest.test_case "point-implicit accuracy" `Quick test_point_implicit_accuracy;
      Alcotest.test_case "point-implicit rejects nonlinear sources" `Quick
        test_point_implicit_rejects_nonlinear;
      Alcotest.test_case "BTE source linearization" `Quick
        test_linearization_of_bte_form;
      QCheck_alcotest.to_alcotest prop_upwind_maximum_principle;
      Alcotest.test_case "staged face sums == per-face oracle (exact)" `Quick
        test_staged_flux_equals_oracle;
      Alcotest.test_case "group sweep == per-face oracle" `Quick
        test_group_sweep_equals_oracle;
      Alcotest.test_case "a repeated lane group is kept, a moved one reloaded"
        `Quick test_group_reuse;
      Alcotest.test_case "written coefficient stays unstaged" `Quick
        test_written_coefficient_unstaged;
      Alcotest.test_case "one face staging per solve" `Quick
        test_one_staging_per_solve;
      Alcotest.test_case "face form: the BTE integrand" `Quick test_form_bte;
      Alcotest.test_case "face form: unequal branches stay in V" `Quick
        test_form_unequal_branches;
      Alcotest.test_case "face form: written coefficients stay out of K" `Quick
        test_form_written_coefficient;
      Alcotest.test_case "face form: nothing to stage keeps today's bits" `Quick
        test_form_nothing_to_stage;
    ] )
