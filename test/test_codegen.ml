(* Native codegen tests: generated-kernel runs must be bit-identical to
   the closure interpreter across the scenario x backend x opt-level x
   loop-order matrix (including the odd-nsteps fused step-pair
   schedule), with the kernels bound on every state; the compile cache
   must hit on identical sources, whatever the opt level; and every
   fallback path must still produce correct results. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* install once for the whole binary; only engages when eval = Native *)
let cache_root =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "finch_cg_test_%d" (Unix.getpid ()))

let () =
  Finch_codegen.Codegen.set_cache_dir cache_root;
  Finch_codegen.Codegen.install ()

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

(* odd nsteps: the fused step-pair schedule runs its classic-shaped tail *)
let tiny_corner =
  {
    Bte.Setup.small_corner with
    Bte.Setup.nx = 8;
    ny = 8;
    ndirs = 4;
    n_la_bands = 3;
    nsteps = 9;
  }

let solve_at ?(corner = false) ?loops ~eval level target overlap =
  let built =
    if corner then Bte.Setup.build_corner tiny_corner
    else Bte.Setup.build tiny
  in
  let p = built.Bte.Setup.problem in
  Option.iter (Finch.Problem.assembly_loops p) loops;
  Finch.Problem.set_target p target;
  Finch.Problem.set_overlap p overlap;
  Finch.Problem.set_opt_level p level;
  Finch.Problem.set_eval_mode p eval;
  Finch.Solve.solve p

let field_diff o1 o2 name =
  Fvm.Field.max_abs_diff (Finch.Solve.field o1 name) (Finch.Solve.field o2 name)

(* Native equals closure on every field, and the native run really ran
   generated code: a fallback to the interpreter would pass the
   comparison without testing a kernel. *)
let check_identical ?corner ?loops label level target overlap =
  let oc = solve_at ?corner ?loops ~eval:Finch.Config.Closure level target overlap in
  let on = solve_at ?corner ?loops ~eval:Finch.Config.Native level target overlap in
  if not (Array.for_all (fun st -> st.Finch.Lower.native <> None) on.Finch.Solve.states)
  then Alcotest.failf "%s: a native state fell back to the interpreter" label;
  List.iter
    (fun name ->
      let d = field_diff oc on name in
      if d > 0. then Alcotest.failf "%s: native vs closure %s diff %g" label name d)
    [ "I"; "T"; "Io"; "beta" ]

(* ------------------------------------------------------------------ *)
(* Cache behaviour.  Runs FIRST so the in-process memo is cold.        *)
(* ------------------------------------------------------------------ *)

let counters () =
  ( Prt.Metrics.value (Prt.Metrics.counter "codegen.cache_hits"),
    Prt.Metrics.value (Prt.Metrics.counter "codegen.cache_misses") )

let test_cache_hit_and_miss () =
  Prt.Metrics.enable ();
  Prt.Metrics.reset_all ();
  let serial = Finch.Config.Cpu Finch.Config.Serial in
  let _ = solve_at ~eval:Finch.Config.Native Finch.Config.O0 serial false in
  let h1, m1 = counters () in
  check_int "first build of the program is a miss" 1 m1;
  check_int "no hits yet" 0 h1;
  check_bool "compile time was recorded" true
    (Prt.Metrics.value (Prt.Metrics.counter "codegen.compile_ns") > 0);
  let _ = solve_at ~eval:Finch.Config.Native Finch.Config.O0 serial false in
  let h2, m2 = counters () in
  check_int "identical program is a cache hit" 1 h2;
  check_int "no recompilation" 1 m2;
  (* the emitted source does not depend on the opt level, so neither
     does the key *)
  let _ = solve_at ~eval:Finch.Config.Native Finch.Config.O2 serial false in
  let h3, m3 = counters () in
  check_int "the same program at O2 is a hit" 2 h3;
  check_int "still no recompilation" 1 m3;
  Prt.Metrics.reset_all ();
  Prt.Metrics.disable ()

let test_disk_cache_survives_memo_flush () =
  (* a second solver process would start with an empty memo but a warm
     disk cache: the compiled kernels are on disk, each under the digest
     of its source alone (both opt levels share one) *)
  let kernels =
    Sys.readdir cache_root |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".cmxs")
  in
  check_bool "compiled kernels persisted on disk" true (kernels <> []);
  List.iter
    (fun f ->
      let base = Filename.concat cache_root (Filename.chop_suffix f ".cmxs") in
      let src = In_channel.with_open_bin (base ^ ".ml") In_channel.input_all in
      Alcotest.(check string)
        (f ^ " is keyed by its source")
        ("finch_kernel_" ^ Digest.to_hex (Digest.string src))
        (Filename.basename base))
    kernels

(* ------------------------------------------------------------------ *)
(* GPU thread bodies: the lane interpreter against the native kernel.  *)
(* ------------------------------------------------------------------ *)

(* Blocks run their threads grouped by cell, in lockstep.  Every GPU
   shape — blocks splitting cells, O0's one launch per band, two band
   ranks, two device tiles, transfers overlapped or not — equals the
   same shape run by the native kernel, one DOF at a time, at exact
   zero on I, T, Io and beta, with the native kernels bound on every
   rank (no fallback).  The CPU hybrid:2x1 target equals serial closure
   exactly (GPU targets equal serial in test_bte_solver).  Registered
   after the cache test, whose counts need a cold memo. *)
let test_blocks_split_cells () =
  let solve = Test_gpu.solve_bte and check_exact = Test_gpu.check_exact in
  let gpu = Test_gpu.gpu in
  let o = solve Finch.Config.Closure (gpu 1) in
  check_int "threads per launch" 700
    (Fvm.Field.ncells o.Finch.Solve.u * Fvm.Field.ncomp o.Finch.Solve.u);
  List.iter
    (fun (label, opt, target) ->
      List.iter
        (fun overlap ->
          let label = Printf.sprintf "%s%s" label (if overlap then " overlap" else "") in
          let native = solve ~opt ~overlap Finch.Config.Native target in
          check_bool (label ^ ": native kernels bound") true
            (Array.for_all
               (fun st -> st.Finch.Lower.native <> None)
               native.Finch.Solve.states);
          check_exact label native
            (solve ~opt ~overlap Finch.Config.Closure target))
        [ false; true ])
    [ "gpu:a6000", Finch.Config.O2, gpu 1;
      "gpu:a6000 O0 (one launch per band)", Finch.Config.O0, gpu 1;
      "gpu:a6000:2", Finch.Config.O2, gpu 2;
      "gpu:a6000:2x1 tiles", Finch.Config.O2, gpu ~devices:2 1 ];
  check_exact "hybrid:2x1"
    (solve Finch.Config.Closure (Finch.Config.Cpu Finch.Config.Serial))
    (solve Finch.Config.Closure (Finch.Config.Cpu (Finch.Config.Hybrid (2, 1))))

(* ------------------------------------------------------------------ *)
(* Bit-identity matrix.                                                *)
(* ------------------------------------------------------------------ *)

let gpu1 = Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 }

(* label, target, overlap, assemblyLoops; the index-outer orders (the
   paper's listing order b/elements/d, and d/b/elements) run on the
   serial and band-sliced walks *)
let matrix =
  let serial = Finch.Config.Cpu Finch.Config.Serial
  and bands2 = Finch.Config.Cpu (Finch.Config.Band_parallel 2) in
  let b_cells_d = [ "b"; "elements"; "d" ] and d_b_cells = [ "d"; "b"; "elements" ] in
  [ "serial", serial, false, None;
    "serial b;elements;d", serial, false, Some b_cells_d;
    "serial d;b;elements", serial, false, Some d_b_cells;
    "threads:3", Finch.Config.Cpu (Finch.Config.Threaded 3), false, None;
    "bands:2", bands2, false, None;
    "bands:2 b;elements;d", bands2, false, Some b_cells_d;
    "bands:2 d;b;elements", bands2, false, Some d_b_cells;
    "cells:2", Finch.Config.Cpu (Finch.Config.Cell_parallel 2), false, None;
    "cells:2+overlap", Finch.Config.Cpu (Finch.Config.Cell_parallel 2), true, None;
    "hybrid:2x2", Finch.Config.Cpu (Finch.Config.Hybrid (2, 2)), false, None;
    "gpu", gpu1, false, None ]

let test_native_matches_closure_hotspot () =
  List.iter
    (fun (label, target, overlap, loops) ->
      List.iter
        (fun (lname, level) ->
          check_identical ?loops (label ^ " " ^ lname) level target overlap)
        [ "opt0", Finch.Config.O0; "opt2", Finch.Config.O2 ])
    matrix

let test_native_matches_closure_corner_odd_steps () =
  (* odd nsteps exercises the fused step-pair schedule plus its tail *)
  List.iter
    (fun (label, target, overlap) ->
      List.iter
        (fun (lname, level) ->
          check_identical ~corner:true
            ("corner " ^ label ^ " " ^ lname)
            level target overlap)
        [ "opt2", Finch.Config.O2 ])
    [ "serial", Finch.Config.Cpu Finch.Config.Serial, false;
      "threads:3", Finch.Config.Cpu (Finch.Config.Threaded 3), false;
      "gpu", gpu1, false ]

let test_native_matches_reference () =
  (* same oracle the closure solver is held to: the hand-written
     reference trajectory *)
  let o =
    solve_at ~eval:Finch.Config.Native Finch.Config.O0
      (Finch.Config.Cpu Finch.Config.Serial) false
  in
  let r = Bte.Reference.create (Bte.Setup.build tiny).Bte.Setup.scenario in
  Bte.Reference.run r ~nsteps:tiny.Bte.Setup.nsteps;
  let fi = Finch.Solve.field o "I" in
  let max_i = ref 0. in
  for cell = 0 to Fvm.Field.ncells fi - 1 do
    for comp = 0 to Fvm.Field.ncomp fi - 1 do
      let a = Fvm.Field.get fi cell comp in
      let b = Bte.Reference.intensity r ~cell ~comp in
      max_i := Float.max !max_i (Float.abs (a -. b) /. (1e-30 +. Float.abs b))
    done
  done;
  if !max_i > 1e-10 then Alcotest.failf "native vs reference: rel %g" !max_i

(* ------------------------------------------------------------------ *)
(* Expression and Dirichlet conditions on every executor.              *)
(* ------------------------------------------------------------------ *)

(* The BTE's boundary faces are callback fluxes only.  The staging
   problem's are a Dirichlet expression reading u, a flux expression
   reading a normal and a Dirichlet constant (regions 1-3).  Solved on a
   5x3 rectangle for 5 steps from a nonuniform u, every executor under
   either evaluator equals serial closure at exact zero, with the
   kernels bound on every native state. *)
let test_expression_conditions_matrix () =
  let solve spec eval overlap =
    let rng = Random.State.make [| 2311 |] in
    let mesh = Fvm.Mesh_gen.rectangle ~nx:5 ~ny:3 ~lx:1.0 ~ly:0.6 () in
    let p = Test_solver.staging_problem rng mesh ~two:true in
    Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:5;
    Finch.Problem.initial p
      (Option.get (Finch.Problem.find_variable p "u"))
      (Finch.Problem.Init_fn
         (fun pos comp ->
           sin ((3. *. pos.(0)) +. float_of_int comp) +. (2. *. pos.(1))));
    (match Finch.Config.target_of_string spec with
     | Ok t -> Finch.Problem.set_target p t
     | Error e -> Alcotest.fail e);
    Finch.Problem.set_overlap p overlap;
    Finch.Problem.set_eval_mode p eval;
    Finch.Solve.solve p
  in
  let want = solve "serial" Finch.Config.Closure false in
  List.iter
    (fun (spec, overlap) ->
      List.iter
        (fun (ename, eval) ->
          let label =
            Printf.sprintf "%s%s %s" spec (if overlap then " overlap" else "") ename
          in
          let o = solve spec eval overlap in
          if eval = Finch.Config.Native then
            check_bool (label ^ ": native kernels bound") true
              (Array.for_all
                 (fun st -> st.Finch.Lower.native <> None)
                 o.Finch.Solve.states);
          let d = Fvm.Field.max_abs_diff want.Finch.Solve.u o.Finch.Solve.u in
          if d > 0. then Alcotest.failf "%s: diff %g from serial closure" label d)
        [ "closure", Finch.Config.Closure; "native", Finch.Config.Native ])
    [ "serial", false; "cells:2", false; "cells:2", true; "threads:2", false;
      "bands:2", false; "gpu:a6000", false; "gpu:a6000", true;
      "gpu:a6000:2", false; "gpu:a6000:2x1", false ]

(* ------------------------------------------------------------------ *)
(* Fallback paths.                                                     *)
(* ------------------------------------------------------------------ *)

let test_sanitize_falls_back_and_stays_correct () =
  (* generated sweeps bypass poison instrumentation, so sanitized runs
     must take the interpreter path -- and still produce the same
     trajectory *)
  let serial = Finch.Config.Cpu Finch.Config.Serial in
  let oc = solve_at ~eval:Finch.Config.Closure Finch.Config.O0 serial false in
  Fvm.Field.set_sanitize true;
  let on =
    Fun.protect
      ~finally:(fun () -> Fvm.Field.set_sanitize false)
      (fun () ->
        solve_at ~eval:Finch.Config.Native Finch.Config.O0 serial false)
  in
  let d = field_diff oc on "I" in
  if d > 0. then Alcotest.failf "sanitized fallback: I diff %g" d

(* Each program is gated under its own callback contract.  A non-BTE
   program whose one post-step callback declares nothing must run
   natively even with codegen installed the way the benchmark installs
   it, handing over the BTE temperature update's contract: that contract
   is not this program's. *)
let decay_with_post_step eval =
  let p = Finch.Problem.init "decay" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p (Fvm.Mesh_gen.rectangle ~nx:6 ~ny:6 ~lx:1. ~ly:1. ());
  Finch.Problem.set_steps p ~dt:1e-2 ~nsteps:4;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.) in
  Finch.Problem.initial p u (Finch.Problem.Init_const 1.);
  let _ = Finch.Problem.conservation_form p u "-k*u" in
  Finch.Problem.post_step_function p (fun ctx ->
      let f = ctx.Finch.Problem.st_field "u" in
      Fvm.Field.set f 0 0 (Fvm.Field.get f 0 0 *. 0.5));
  Finch.Problem.set_eval_mode p eval;
  p

(* The emitter's one loop-plan rule: a problem declaring an index its
   unknown does not carry (here an unused one, which the default loop
   plan still runs) cannot decode index values from the component, so
   it gets no kernel, and the native solve is the interpreter's. *)
let decay_with_unused_index eval =
  let p = decay_with_post_step eval in
  ignore (Finch.Problem.index p ~name:"m" ~range:(1, 3));
  p

let test_uncarried_index_falls_back () =
  let st = Finch.Lower.build (decay_with_unused_index Finch.Config.Closure) in
  check_bool "no kernel for an uncarried index" true
    (Finch_codegen.Codegen.native_entry_for st = None);
  let native = Finch.Solve.solve (decay_with_unused_index Finch.Config.Native) in
  check_bool "the native solve fell back" true
    (Array.for_all (fun st -> st.Finch.Lower.native = None) native.Finch.Solve.states);
  let closure = Finch.Solve.solve (decay_with_unused_index Finch.Config.Closure) in
  check_bool "native = closure" true
    (Fvm.Field.max_abs_diff native.Finch.Solve.u closure.Finch.Solve.u = 0.)

let test_gate_uses_the_problem_contract () =
  Fun.protect ~finally:(fun () -> Finch_codegen.Codegen.install ())
    (fun () ->
      Finch_codegen.Codegen.install ~post_io:Bte.Setup.post_io ();
      let native = Finch.Solve.solve (decay_with_post_step Finch.Config.Native) in
      check_bool "native kernels bound" true
        (native.Finch.Solve.states.(0).Finch.Lower.native <> None);
      let closure =
        Finch.Solve.solve (decay_with_post_step Finch.Config.Closure)
      in
      check_bool "native = closure" true
        (Fvm.Field.max_abs_diff native.Finch.Solve.u closure.Finch.Solve.u = 0.))

(* A cached kernel that cannot be loaded (truncated, or built against
   another build's Finch_ci interface) is recompiled, not an engine
   failure.  The unreadable copy sits at a path this process never
   loaded, as a fresh process would meet it. *)
let test_unreadable_kernel_recompiled () =
  let fresh name =
    let d = Filename.concat cache_root name in
    Unix.mkdir d 0o755;
    d
  in
  Fun.protect
    ~finally:(fun () ->
      Finch_codegen.Codegen.set_cache_dir cache_root;
      Finch_codegen.Codegen.clear_memo ())
    (fun () ->
      let first = fresh "first" and second = fresh "second" in
      Finch_codegen.Codegen.set_cache_dir first;
      Finch_codegen.Codegen.clear_memo ();
      ignore (Finch.Solve.solve (decay_with_post_step Finch.Config.Native));
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".cmxs" then
            Out_channel.with_open_bin (Filename.concat second f) (fun oc ->
                output_string oc "truncated"))
        (Sys.readdir first);
      Finch_codegen.Codegen.set_cache_dir second;
      Finch_codegen.Codegen.clear_memo ();
      Prt.Metrics.enable ();
      Prt.Metrics.reset_all ();
      let native =
        Fun.protect ~finally:Prt.Metrics.disable (fun () ->
            Finch.Solve.solve (decay_with_post_step Finch.Config.Native))
      in
      let _, misses = counters () in
      check_int "the unreadable kernel was recompiled" 1 misses;
      check_bool "native kernels bound" true
        (native.Finch.Solve.states.(0).Finch.Lower.native <> None);
      let closure = Finch.Solve.solve (decay_with_post_step Finch.Config.Closure) in
      check_bool "native = closure" true
        (Fvm.Field.max_abs_diff native.Finch.Solve.u closure.Finch.Solve.u = 0.))

let suite =
  ( "codegen",
    [ Alcotest.test_case "cache hit and miss" `Quick test_cache_hit_and_miss;
      Alcotest.test_case "blocks split cells: lanes == per DOF" `Quick
        test_blocks_split_cells;
      Alcotest.test_case "kernels persisted on disk" `Quick
        test_disk_cache_survives_memo_flush;
      Alcotest.test_case "native = closure (hotspot matrix)" `Slow
        test_native_matches_closure_hotspot;
      Alcotest.test_case "native = closure (corner, odd nsteps)" `Slow
        test_native_matches_closure_corner_odd_steps;
      Alcotest.test_case "native matches reference solver" `Quick
        test_native_matches_reference;
      Alcotest.test_case "expression and Dirichlet conditions == serial (exact)"
        `Quick test_expression_conditions_matrix;
      Alcotest.test_case "sanitize falls back to interpreter" `Quick
        test_sanitize_falls_back_and_stays_correct;
      Alcotest.test_case "each program gated under its own contract" `Quick
        test_gate_uses_the_problem_contract;
      Alcotest.test_case "uncarried index falls back" `Quick
        test_uncarried_index_falls_back;
      Alcotest.test_case "unreadable cached kernel is recompiled" `Quick
        test_unreadable_kernel_recompiled ] )
