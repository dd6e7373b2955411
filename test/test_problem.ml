(* Error-path and validation tests for the script-level problem builder. *)

let check_bool = Alcotest.(check bool)

let expect_problem_error f =
  match f () with
  | exception Finch.Problem.Problem_error _ -> ()
  | _ -> Alcotest.fail "expected Problem_error"

let fresh () =
  let p = Finch.Problem.init "t" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p (Fvm.Mesh_gen.rectangle ~nx:2 ~ny:2 ~lx:1. ~ly:1. ());
  p

let test_domain_validation () =
  let p = fresh () in
  expect_problem_error (fun () -> Finch.Problem.domain p 0);
  expect_problem_error (fun () -> Finch.Problem.domain p 4)

let test_steps_validation () =
  let p = fresh () in
  expect_problem_error (fun () -> Finch.Problem.set_steps p ~dt:0. ~nsteps:5);
  expect_problem_error (fun () -> Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:0)

let test_mesh_dim_mismatch () =
  let p = Finch.Problem.init "t" in
  Finch.Problem.domain p 3;
  expect_problem_error (fun () ->
      Finch.Problem.set_mesh p (Fvm.Mesh_gen.rectangle ~nx:2 ~ny:2 ~lx:1. ~ly:1. ()))

let test_duplicate_entities () =
  let p = fresh () in
  let _ = Finch.Problem.index p ~name:"d" ~range:(1, 4) in
  expect_problem_error (fun () -> Finch.Problem.index p ~name:"d" ~range:(1, 2));
  let _ = Finch.Problem.variable p ~name:"u" () in
  expect_problem_error (fun () -> Finch.Problem.variable p ~name:"u" ());
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.) in
  expect_problem_error (fun () ->
      Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 2.))

let test_equation_unknown_entity () =
  let p = fresh () in
  let u = Finch.Problem.variable p ~name:"u" () in
  expect_problem_error (fun () ->
      Finch.Problem.conservation_form p u "-mystery*u")

let test_no_equation () =
  let p = fresh () in
  let _ = Finch.Problem.variable p ~name:"u" () in
  expect_problem_error (fun () -> ignore (Finch.Problem.the_equation p))

let test_multiple_equations_rejected () =
  let p = fresh () in
  let u = Finch.Problem.variable p ~name:"u" () in
  let v = Finch.Problem.variable p ~name:"v" () in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.) in
  let _ = Finch.Problem.conservation_form p u "-k*u" in
  let _ = Finch.Problem.conservation_form p v "-k*v" in
  expect_problem_error (fun () -> ignore (Finch.Problem.the_equation p))

let test_fe_solver_rejected () =
  let p = fresh () in
  Finch.Problem.solver_type p Finch.Config.FE;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.) in
  expect_problem_error (fun () -> Finch.Problem.conservation_form p u "-k*u")

let test_boundary_unknown_variable () =
  let p = fresh () in
  let ghost = Finch.Entity.variable ~name:"ghostvar" () in
  expect_problem_error (fun () ->
      Finch.Problem.boundary p ghost 1 Finch.Config.Flux "0")

let test_unknown_callback_at_lowering () =
  let p = fresh () in
  Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:1;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.) in
  Finch.Problem.initial p u (Finch.Problem.Init_const 0.);
  (* register the callback so the bc parses as a callback form, then remove
     it to simulate a missing import *)
  Finch.Problem.callback_function p "mybc" (fun _ _ -> 0.);
  Finch.Problem.boundary p u 1 Finch.Config.Flux "mybc(u, 1)";
  p.Finch.Problem.callbacks <- [];
  let _ = Finch.Problem.conservation_form p u "-k*u" in
  (match Finch.Lower.build p with
   | exception Finch.Lower.Lower_error _ -> ()
   | _ -> Alcotest.fail "expected Lower_error for missing callback")

let test_callback_numeric_args () =
  let p = fresh () in
  Finch.Problem.set_steps p ~dt:1e-4 ~nsteps:3;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.) in
  Finch.Problem.initial p u (Finch.Problem.Init_const 0.);
  let seen = ref [] in
  Finch.Problem.callback_function p "probe" (fun ctx ->
      seen := Array.to_list ctx.Finch.Problem.bc_args :: !seen;
      fun _ -> 0.);
  (* entity arguments are skipped, numeric literals collected in order *)
  Finch.Problem.boundary p u 1 Finch.Config.Flux "probe(u, k, 300, 2.5)";
  List.iter
    (fun r -> Finch.Problem.boundary p u r Finch.Config.Flux "0")
    [ 2; 3; 4 ];
  let _ = Finch.Problem.conservation_form p u "-k*u" in
  let _ = Finch.Solve.solve p in
  (match !seen with
   | args :: _ ->
     Alcotest.(check (list (float 0.))) "collected numeric args" [ 300.; 2.5 ] args
   | [] -> Alcotest.fail "callback never staged")

(* --- the staged boundary-callback contract ------------------------------ *)

(* hotspot 8x8, 4 dirs, 4 LA bands (5 bands), [nsteps] steps on [target],
   every boundary callback wrapped to count its stages per callback name
   and its per-component calls (atomically: pooled targets sweep on
   several domains) *)
let counted_hotspot ?(nsteps = 3) target =
  let built =
    Bte.Setup.build
      { Bte.Setup.small_hotspot with
        Bte.Setup.nx = 8; ny = 8; ndirs = 4; n_la_bands = 4; nsteps }
  in
  let p = built.Bte.Setup.problem in
  let stages = List.map (fun (name, _) -> name, Atomic.make 0) p.Finch.Problem.callbacks in
  let calls = Atomic.make 0 in
  p.Finch.Problem.callbacks <-
    List.map
      (fun (name, stage) ->
        ( name,
          fun ctx ->
            Atomic.incr (List.assoc name stages);
            let at = stage ctx in
            fun comp ->
              Atomic.incr calls;
              at comp ))
      p.Finch.Problem.callbacks;
  (match Finch.Config.target_of_string target with
   | Ok t -> Finch.Problem.set_target p t
   | Error e -> Alcotest.fail e);
  p, stages, calls

(* boundary faces per callback name, from the problem's own regions *)
let faces_per_callback (p : Finch.Problem.t) =
  let mesh = Finch.Problem.mesh_exn p in
  List.filter_map
    (fun (bc : Finch.Problem.bc) ->
      match bc.Finch.Problem.bc_spec with
      | Finch.Problem.Bc_expr _ -> None
      | Finch.Problem.Bc_callback { name; _ } ->
        let n =
          Array.fold_left
            (fun acc f ->
              if mesh.Fvm.Mesh.face_bid.(f) = bc.Finch.Problem.bc_region then acc + 1
              else acc)
            0 mesh.Fvm.Mesh.boundary_faces
        in
        Some (name, n))
    p.Finch.Problem.bcs
  |> List.fold_left
       (fun acc (name, n) ->
         let prev = Option.value ~default:0 (List.assoc_opt name acc) in
         (name, prev + n) :: List.remove_assoc name acc)
       []

let ncomp_of_unknown p =
  Finch.Entity.var_ncomp (Option.get (Finch.Problem.find_variable p "I"))

(* each face of a callback's regions is staged once per evaluating state
   (serial: one; gpu: the host, its device mirrors none), whatever the
   step count; the staged function runs faces x components x steps
   times *)
let test_stage_once_per_face () =
  List.iter
    (fun target ->
      List.iter
        (fun nsteps ->
          let p, stages, calls = counted_hotspot ~nsteps target in
          ignore (Finch.Solve.solve p);
          let faces = faces_per_callback p in
          List.iter
            (fun (name, n) ->
              Alcotest.(check int)
                (Printf.sprintf "%s: %s stages, %d steps" target name nsteps)
                n (Atomic.get (List.assoc name stages)))
            faces;
          let nfaces = List.fold_left (fun acc (_, n) -> acc + n) 0 faces in
          Alcotest.(check int)
            (Printf.sprintf "%s: per-component calls, %d steps" target nsteps)
            (nfaces * ncomp_of_unknown p * nsteps)
            (Atomic.get calls))
        [ 1; 3 ])
    [ "serial"; "gpu:a6000" ]

(* every target evaluates each (boundary face, component) once per step:
   a rank evaluates only the components it owns *)
let test_boundary_calls_match_serial () =
  let count target =
    let p, _, calls = counted_hotspot target in
    ignore (Finch.Solve.solve p);
    Atomic.get calls
  in
  let serial = count "serial" in
  List.iter
    (fun target -> Alcotest.(check int) target serial (count target))
    [ "bands:2"; "cells:2"; "threads:2"; "hybrid:2x1"; "gpu:a6000";
      "gpu:a6000:2"; "gpu:a6000:1x2"; "gpu:a6000:4" ]

(* a stage that fails is a named Lower_error before any step runs *)
let test_failing_stage () =
  let p, _, _ = counted_hotspot "serial" in
  Finch.Problem.callback_function p "symmetry" (fun ctx ->
      ignore (ctx.Finch.Problem.bc_field "no_such_var");
      fun _ -> 0.);
  let steps = ref 0 in
  Finch.Problem.post_step_function p (fun _ -> incr steps);
  (match Finch.Solve.solve p with
   | exception Finch.Lower.Lower_error msg ->
     check_bool ("names the callback: " ^ msg) true
       (Tutil.contains msg "symmetry" && Tutil.contains msg "no_such_var")
   | _ -> Alcotest.fail "expected Lower_error from the failing stage");
  Alcotest.(check int) "no step ran" 0 !steps

let test_initial_unknown_variable () =
  let p = fresh () in
  Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:1;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.) in
  let ghost = Finch.Entity.variable ~name:"ghostvar" () in
  Finch.Problem.initial p ghost (Finch.Problem.Init_const 1.);
  let _ = Finch.Problem.conservation_form p u "-k*u" in
  match Finch.Lower.build p with
  | exception Finch.Lower.Lower_error _ -> ()
  | _ -> Alcotest.fail "expected Lower_error for stray initial condition"

let test_entity_validation () =
  (match Finch.Entity.index ~name:"d" ~range:(3, 2) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "empty index range must be rejected");
  let d = Finch.Entity.index ~name:"d" ~range:(1, 4) in
  (match Finch.Entity.coefficient ~name:"c" ~index:d (Finch.Entity.Arr [| 1.; 2. |]) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "array/extent mismatch must be rejected");
  let v = Finch.Entity.variable ~name:"v" ~indices:[ d ] () in
  Alcotest.(check int) "ncomp" 4 (Finch.Entity.var_ncomp v);
  Alcotest.(check int) "comp" 2 (Finch.Entity.var_comp v [ 2 ]);
  (match Finch.Entity.var_comp v [ 9 ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "out-of-range component must be rejected")

let test_target_names () =
  check_bool "serial name" true
    (Finch.Config.target_name (Finch.Config.Cpu Finch.Config.Serial) = "serial");
  check_bool "bands name" true
    (Finch.Config.target_name (Finch.Config.Cpu (Finch.Config.Band_parallel 4))
     = "bands:4");
  check_bool "hybrid name" true
    (Finch.Config.target_name (Finch.Config.Cpu (Finch.Config.Hybrid (2, 4)))
     = "hybrid:2x4");
  check_bool "gpu name" true
    (Finch.Config.target_name
       (Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 2 })
     = "gpu:a6000:2");
  check_bool "gpu single-rank name" true
    (Finch.Config.target_name
       (Finch.Config.Gpu { spec = Gpu_sim.Spec.a100; devices = 1; ranks = 1 })
     = "gpu:a100")

(* every constructor shape must survive target_name |> target_of_string *)
let test_target_roundtrip () =
  let targets =
    [ Finch.Config.Cpu Finch.Config.Serial;
      Finch.Config.Cpu (Finch.Config.Cell_parallel 3);
      Finch.Config.Cpu (Finch.Config.Band_parallel 8);
      Finch.Config.Cpu (Finch.Config.Threaded 5);
      Finch.Config.Cpu (Finch.Config.Hybrid (2, 4));
      Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 };
      Finch.Config.Gpu { spec = Gpu_sim.Spec.a100; devices = 1; ranks = 4 };
      Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 4; ranks = 2 };
      Finch.Config.Gpu { spec = Gpu_sim.Spec.a100; devices = 2; ranks = 1 } ]
  in
  List.iter
    (fun t ->
      let name = Finch.Config.target_name t in
      match Finch.Config.target_of_string name with
      | Ok t' -> check_bool ("round-trip " ^ name) true (t = t')
      | Error e -> Alcotest.fail (name ^ " failed to parse back: " ^ e))
    targets;
  (* spellings beyond the canonical ones *)
  check_bool "case-insensitive" true
    (Finch.Config.target_of_string "GPU:A100"
     = Ok (Finch.Config.Gpu { spec = Gpu_sim.Spec.a100; devices = 1; ranks = 1 }));
  check_bool "legacy hybrid:R:D rejected" true
    (Result.is_error (Finch.Config.target_of_string "hybrid:2:4"));
  check_bool "bare gpu" true
    (Finch.Config.target_of_string "gpu"
     = Ok (Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 }));
  (* the GxR grid form; 1xR is semantic round-trip: parses, prints gpu:NAME:R *)
  check_bool "gpu grid GxR" true
    (Finch.Config.target_of_string "gpu:a6000:4x2"
     = Ok (Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 4; ranks = 2 }));
  check_bool "gpu grid 1xR canonicalizes" true
    (match Finch.Config.target_of_string "gpu:a100:1x4" with
     | Ok t ->
       t = Finch.Config.Gpu { spec = Gpu_sim.Spec.a100; devices = 1; ranks = 4 }
       && Finch.Config.target_name t = "gpu:a100:4"
     | Error _ -> false);
  check_bool "gpu grid GxR name" true
    (Finch.Config.target_name
       (Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 2; ranks = 3 })
     = "gpu:a6000:2x3");
  (* malformed specs are Errors, not exceptions *)
  List.iter
    (fun s ->
      match Finch.Config.target_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("expected parse error for " ^ s))
    [ ""; "cells"; "cells:0"; "cells:x"; "hybrid:2"; "hybrid:2x0";
      "gpu:v100"; "gpu:a100:0"; "mpi:4"; "gpu:a6000:0x2"; "gpu:a6000:2x0";
      "gpu:a6000:2x"; "gpu:a6000:x2"; "gpu:a6000:2x2x2" ]

(* The post-step contract: nothing without callbacks, the union of the
   declarations, and every variable once any callback declares nothing —
   the conservative path the planner, the analysis and the fused CPU
   schedule then all take. *)
let test_post_io_contract () =
  let built =
    Bte.Setup.build
      { Bte.Setup.small_hotspot with
        Bte.Setup.nx = 6; ny = 6; ndirs = 4; n_la_bands = 2; nsteps = 2 }
  in
  let p = built.Bte.Setup.problem in
  Finch.Problem.set_target p (Finch.Config.Cpu (Finch.Config.Threaded 2));
  Finch.Problem.set_opt_level p Finch.Config.O2;
  let io = Finch.Problem.post_io in
  let all = List.map (fun v -> v.Finch.Entity.vname) p.Finch.Problem.variables in
  let strings = Alcotest.(list string) in
  check_bool "declared: the temperature contract" true
    (io p = Bte.Temperature.post_io);
  check_bool "declared: fused schedule" true
    (Finch.Target_cpu.fused_schedule_ok p);
  let update = (List.hd p.Finch.Problem.post_step).Finch.Problem.pc_fn in
  p.Finch.Problem.post_step <- [];
  Alcotest.check strings "no callbacks: no reads" [] (io p).Finch.Problem.cb_reads;
  Alcotest.check strings "no callbacks: no writes" [] (io p).Finch.Problem.cb_writes;
  Finch.Problem.post_step_function p update;
  Alcotest.check strings "undeclared: reads every variable" all
    (io p).Finch.Problem.cb_reads;
  Alcotest.check strings "undeclared: writes every variable" all
    (io p).Finch.Problem.cb_writes;
  check_bool "undeclared: classic schedule" false
    (Finch.Target_cpu.fused_schedule_ok p);
  Alcotest.check strings "undeclared: analysis sees every write" all
    (Finch_analysis.Ctx.of_problem p).Finch_analysis.Ctx.cb_writes;
  (* one undeclared callback among declared ones still means everything *)
  Finch.Problem.post_step_function ~io:Bte.Temperature.post_io p update;
  Alcotest.check strings "mixed: writes every variable" all
    (io p).Finch.Problem.cb_writes;
  (* declarations union in registration order *)
  p.Finch.Problem.post_step <- [];
  Finch.Problem.post_step_function p update
    ~io:{ Finch.Problem.cb_reads = [ "I" ]; cb_writes = [ "T" ] };
  Finch.Problem.post_step_function p update
    ~io:{ Finch.Problem.cb_reads = [ "T"; "I" ]; cb_writes = [ "beta" ] };
  Alcotest.check strings "union of reads" [ "I"; "T" ] (io p).Finch.Problem.cb_reads;
  Alcotest.check strings "union of writes" [ "T"; "beta" ]
    (io p).Finch.Problem.cb_writes

let suite =
  ( "problem",
    [
      Alcotest.test_case "domain validation" `Quick test_domain_validation;
      Alcotest.test_case "steps validation" `Quick test_steps_validation;
      Alcotest.test_case "mesh dim mismatch" `Quick test_mesh_dim_mismatch;
      Alcotest.test_case "duplicate entities" `Quick test_duplicate_entities;
      Alcotest.test_case "equation unknown entity" `Quick test_equation_unknown_entity;
      Alcotest.test_case "no equation" `Quick test_no_equation;
      Alcotest.test_case "multiple equations rejected" `Quick
        test_multiple_equations_rejected;
      Alcotest.test_case "FE solver rejected for conservationForm" `Quick
        test_fe_solver_rejected;
      Alcotest.test_case "boundary unknown variable" `Quick
        test_boundary_unknown_variable;
      Alcotest.test_case "unknown callback at lowering" `Quick
        test_unknown_callback_at_lowering;
      Alcotest.test_case "callback numeric args" `Quick test_callback_numeric_args;
      Alcotest.test_case "callback staged once per face" `Quick
        test_stage_once_per_face;
      Alcotest.test_case "boundary calls equal serial on every target" `Quick
        test_boundary_calls_match_serial;
      Alcotest.test_case "failing stage is a Lower_error" `Quick
        test_failing_stage;
      Alcotest.test_case "stray initial condition" `Quick test_initial_unknown_variable;
      Alcotest.test_case "entity validation" `Quick test_entity_validation;
      Alcotest.test_case "target names" `Quick test_target_names;
      Alcotest.test_case "backend spec round-trip" `Quick test_target_roundtrip;
      Alcotest.test_case "post-step I/O contract" `Quick test_post_io_contract;
    ] )
