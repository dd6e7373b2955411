(* DSL pipeline tests: operator expansion, the conservation-form transform
   and term classification (Section II of the paper), the data-movement
   analysis, IR construction and source emission. *)

open Finch_symbolic

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---------- operators ---------- *)

let test_upwind_expansion () =
  let e = Parser.parse "upwind([bx;by], u)" in
  let e = Expr.subst_sym "u" (Expr.ref_ "u" []) e in
  match Finch.Operators.expand e with
  | Expr.Cond (Expr.Cmp (Expr.Gt, bn, z), pos, neg) ->
    check_bool "test against zero" true (Expr.equal z Expr.zero);
    check_bool "bn mentions NORMAL_1" true (Expr.contains_sym "NORMAL_1" bn);
    check_bool "bn mentions NORMAL_2" true (Expr.contains_sym "NORMAL_2" bn);
    let has_side side e =
      Expr.fold
        (fun acc n -> acc || match n with Expr.Ref (_, _, s) -> s = side | _ -> false)
        false e
    in
    check_bool "positive branch uses CELL1" true (has_side Expr.Cell1 pos);
    check_bool "negative branch uses CELL2" true (has_side Expr.Cell2 neg)
  | _ -> Alcotest.fail "upwind did not expand to a conditional"

let test_upwind_numeric () =
  (* upwind flux evaluates to bn * (upwind value) *)
  let e = Finch.Operators.expand (Parser.parse "upwind([bx;by], uvar[d])") in
  let eval ~bx ~by ~n1 ~n2 ~u1 ~u2 =
    Expr.eval
      ~env_sym:(function
        | "bx" -> bx | "by" -> by | "NORMAL_1" -> n1 | "NORMAL_2" -> n2
        | s -> Alcotest.failf "sym %s" s)
      ~env_ref:(fun name _ side ->
        match name, side with
        | "uvar", Expr.Cell1 -> u1
        | "uvar", Expr.Cell2 -> u2
        | _ -> Alcotest.fail "ref")
      e
  in
  Tutil.check_close "outflow takes cell1" (1.5 *. 2.)
    (eval ~bx:1.5 ~by:0. ~n1:1. ~n2:0. ~u1:2. ~u2:7.);
  Tutil.check_close "inflow takes cell2" (-1.5 *. 7.)
    (eval ~bx:1.5 ~by:0. ~n1:(-1.) ~n2:0. ~u1:2. ~u2:7.);
  Tutil.check_close "tangential is zero-ish" (1.5 *. 7.)
    (eval ~bx:0. ~by:1.5 ~n1:0. ~n2:1. ~u1:7. ~u2:2.)

let test_central_operator () =
  let e = Finch.Operators.expand (Parser.parse "central([bx;by], uvar[d])") in
  let v =
    Expr.eval
      ~env_sym:(function
        | "bx" -> 2. | "by" -> 0. | "NORMAL_1" -> 1. | "NORMAL_2" -> 0.
        | _ -> 0.)
      ~env_ref:(fun _ _ side -> if side = Expr.Cell1 then 4. else 6.)
      e
  in
  Tutil.check_close "average flux" (2. *. 5.) v

let test_custom_operator () =
  Finch.Operators.define "doubleit" (function
    | [ e ] -> Expr.mul [ Expr.num 2.; e ]
    | _ -> Alcotest.fail "arity");
  let e = Finch.Operators.expand (Parser.parse "doubleit(k)") in
  check_bool "custom operator expanded" true
    (Expr.equal (Simplify.simplify e) (Simplify.simplify (Parser.parse "2*k")))

let test_surface_marker () =
  let e = Finch.Operators.expand (Parser.parse "surface(f1 * k)") in
  check_bool "marked" true (Finch.Operators.is_surface_term e);
  let stripped = Finch.Operators.strip_surface e in
  check_bool "stripped" false (Expr.contains_sym "SURFACE" stripped)

(* ---------- transform ---------- *)

let quickstart_eq () =
  Finch.Transform.conservation_form
    (Finch.Entity.variable ~name:"u" ())
    "-k*u - surface(upwind([bx;by], u))"

let test_classification_paper_example () =
  let eq = quickstart_eq () in
  (* LHS volume is -u *)
  (match eq.Finch.Transform.classified.Finch.Transform.lhs_volume with
   | [ t ] ->
     check_bool "lhs is -u" true
       (Expr.equal (Simplify.simplify t)
          (Simplify.simplify (Expr.neg (Expr.ref_ "u" []))))
   | _ -> Alcotest.fail "one LHS term");
  (* RHS volume terms carry no SURFACE marker, surface terms all do *)
  List.iter
    (fun t -> check_bool "vol term unmarked" false (Finch.Operators.is_surface_term t))
    eq.Finch.Transform.classified.Finch.Transform.rhs_volume;
  List.iter
    (fun t -> check_bool "surf term marked" true (Finch.Operators.is_surface_term t))
    eq.Finch.Transform.classified.Finch.Transform.rhs_surface;
  (* RHS volume contains the u0 term and -dt*k*u *)
  let vol = Expr.add eq.Finch.Transform.classified.Finch.Transform.rhs_volume in
  check_bool "vol has dt" true (Expr.contains_sym "dt" vol);
  check_bool "vol has u" true (Expr.contains_ref "u" vol)

let test_stepped_euler_form () =
  let eq = quickstart_eq () in
  (* stepped = u + dt * R; at dt = 0 it must reduce to u *)
  let v ~dt_v ~u ~k =
    Expr.eval
      ~env_sym:(function
        | "dt" -> dt_v | "k" -> k | "bx" | "by" -> 0.
        | "NORMAL_1" | "NORMAL_2" -> 0. | "SURFACE" -> 1.
        | s -> Alcotest.failf "sym %s" s)
      ~env_ref:(fun _ _ _ -> u)
      eq.Finch.Transform.stepped
  in
  Tutil.check_close "dt=0 identity" 5. (v ~dt_v:0. ~u:5. ~k:2.);
  (* with zero advection, u' = u - dt*k*u *)
  Tutil.check_close "decay step" (5. -. (0.1 *. 2. *. 5.)) (v ~dt_v:0.1 ~u:5. ~k:2.)

let test_rvol_rsurf_decomposition () =
  let eq = quickstart_eq () in
  check_bool "rvol has no surface marker" false
    (Expr.contains_sym "SURFACE" eq.Finch.Transform.rvol);
  check_bool "rsurf stripped of marker" false
    (Expr.contains_sym "SURFACE" eq.Finch.Transform.rsurf);
  check_bool "rsurf has sides" true
    (Expr.fold
       (fun acc n ->
         acc || match n with Expr.Ref (_, _, Expr.Cell1) -> true | _ -> false)
       false eq.Finch.Transform.rsurf)

let test_bte_equation_transform () =
  let d = Finch.Entity.index ~name:"d" ~range:(1, 4) in
  let b = Finch.Entity.index ~name:"b" ~range:(1, 3) in
  let vi = Finch.Entity.variable ~name:"I" ~indices:[ d; b ] () in
  let eq =
    Finch.Transform.conservation_form vi
      "(Io[b] - I[d,b]) * beta[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))"
  in
  Alcotest.(check string) "unknown" "I" eq.Finch.Transform.eq_var;
  check_bool "rvol mentions Io" true (Expr.contains_ref "Io" eq.Finch.Transform.rvol);
  check_bool "rsurf mentions vg" true (Expr.contains_ref "vg" eq.Finch.Transform.rsurf);
  check_bool "rsurf indexes Sx by d" true (Expr.contains_ref "Sx" eq.Finch.Transform.rsurf)

let test_parse_error_reported () =
  match quickstart_eq () |> ignore; Finch.Transform.conservation_form
          (Finch.Entity.variable ~name:"u" ()) "u ++ 1" with
  | exception Finch.Transform.Equation_error _ -> ()
  | _ -> Alcotest.fail "expected Equation_error"

(* ---------- dataflow ---------- *)

let mk_vars () =
  [ { Finch.Dataflow.v_name = "I"; v_bytes = 1000 };
    { Finch.Dataflow.v_name = "Io"; v_bytes = 100 };
    { Finch.Dataflow.v_name = "vg"; v_bytes = 10 } ]

let test_dataflow_schedule () =
  let tasks =
    [ { Finch.Dataflow.t_name = "interior"; t_reads = [ "I"; "Io"; "vg" ];
        t_writes = [ "I" ]; t_pinned = None; t_flops = 1e9 };
      { Finch.Dataflow.t_name = "post"; t_reads = [ "I" ]; t_writes = [ "Io" ];
        t_pinned = Some Finch.Dataflow.Cpu_side; t_flops = 1e5 } ]
  in
  let plan =
    Finch.Dataflow.optimize ~tasks ~vars:(mk_vars ())
  in
  (* the big compute task must land on the GPU *)
  Alcotest.(check bool) "interior on gpu" true
    (List.assoc "interior" plan.Finch.Dataflow.placement = Finch.Dataflow.Gpu_side);
  let tr name =
    List.find (fun t -> t.Finch.Dataflow.tr_var = name) plan.Finch.Dataflow.transfers
  in
  check_bool "I moves down every step" true (tr "I").Finch.Dataflow.tr_d2h_every_step;
  check_bool "Io moves up every step" true (tr "Io").Finch.Dataflow.tr_h2d_every_step;
  check_bool "vg uploads once" true (tr "vg").Finch.Dataflow.tr_h2d_once;
  check_bool "vg not per-step" false (tr "vg").Finch.Dataflow.tr_h2d_every_step

let test_dataflow_all_cpu_when_tiny () =
  (* if the compute is negligible, avoiding PCIe wins and everything stays
     on the CPU *)
  let tasks =
    [ { Finch.Dataflow.t_name = "interior"; t_reads = [ "I" ]; t_writes = [ "I" ];
        t_pinned = None; t_flops = 10. };
      { Finch.Dataflow.t_name = "post"; t_reads = [ "I" ]; t_writes = [ "I" ];
        t_pinned = Some Finch.Dataflow.Cpu_side; t_flops = 10. } ]
  in
  let vars = [ { Finch.Dataflow.v_name = "I"; v_bytes = 1_000_000_000 } ] in
  let plan = Finch.Dataflow.optimize ~tasks ~vars in
  check_bool "tiny compute stays on cpu" true
    (List.assoc "interior" plan.Finch.Dataflow.placement = Finch.Dataflow.Cpu_side);
  check_int "then nothing moves" 0 plan.Finch.Dataflow.bytes_per_step

let test_dataflow_bte_problem () =
  let built = Bte.Setup.build Bte.Setup.small_hotspot in
  let plan =
    Finch.Dataflow.plan_for_problem built.Bte.Setup.problem
  in
  check_bool "interior on gpu" true
    (List.assoc "interior_update" plan.Finch.Dataflow.placement
     = Finch.Dataflow.Gpu_side);
  let every_step =
    List.filter_map
      (fun t ->
        if t.Finch.Dataflow.tr_h2d_every_step then Some t.Finch.Dataflow.tr_var
        else None)
      plan.Finch.Dataflow.transfers
  in
  check_bool "I uploaded each step" true (List.mem "I" every_step);
  check_bool "Io uploaded each step" true (List.mem "Io" every_step);
  check_bool "beta uploaded each step" true (List.mem "beta" every_step);
  (* coefficients like vg go up once *)
  let once =
    List.filter_map
      (fun t ->
        if t.Finch.Dataflow.tr_h2d_once then Some t.Finch.Dataflow.tr_var else None)
      plan.Finch.Dataflow.transfers
  in
  check_bool "vg uploaded once" true (List.mem "vg" once)

(* ---------- IR and emission ---------- *)

let quickstart_problem () =
  let p = Finch.Problem.init "t" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p (Fvm.Mesh_gen.rectangle ~nx:4 ~ny:4 ~lx:1. ~ly:1. ());
  Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:5;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.) in
  let _ = Finch.Problem.coefficient p ~name:"bx" (Finch.Entity.Const 1.) in
  let _ = Finch.Problem.coefficient p ~name:"by" (Finch.Entity.Const 0.) in
  Finch.Problem.initial p u (Finch.Problem.Init_const 1.);
  let _ = Finch.Problem.conservation_form p u "-k*u - surface(upwind([bx;by], u))" in
  p

let test_ir_cpu_structure () =
  let p = quickstart_problem () in
  let ir = Finch.Ir.build_cpu p in
  check_bool "writes u" true (List.mem "u" (Finch.Ir.writes ir));
  check_bool "reads u" true (List.mem "u" (Finch.Ir.reads ir));
  (* the tree contains a time loop with a cell loop inside *)
  let has_steps =
    Finch.Ir.fold
      (fun acc n ->
        acc || match n with Finch.Ir.Loop { range = Finch.Ir.Steps; _ } -> true | _ -> false)
      false ir
  in
  check_bool "time loop present" true has_steps

let test_emit_julia () =
  let p = quickstart_problem () in
  let src = Finch.Emit_source.to_julia (Finch.Ir.build_cpu p) in
  List.iter
    (fun marker -> check_bool ("julia has " ^ marker) true (Tutil.contains src marker))
    [ "for step = 1:Nsteps"; "for cell = 1:Ncells"; "apply_boundary_conditions";
      "boundary: apply_boundary_conditions adds it";
      "u = u_new"; "time += dt"; "conditional(" ]

let test_emit_cuda () =
  let p = quickstart_problem () in
  Finch.Problem.use_cuda p;
  let plan = Finch.Dataflow.plan_for_problem p in
  let transfers =
    List.filter_map
      (fun t ->
        if t.Finch.Dataflow.tr_h2d_every_step then Some (t.Finch.Dataflow.tr_var, true)
        else if t.Finch.Dataflow.tr_h2d_once then Some (t.Finch.Dataflow.tr_var, false)
        else None)
      plan.Finch.Dataflow.transfers
  in
  let src = Finch.Emit_source.to_cuda (Finch.Ir.build_gpu p ~transfers) in
  List.iter
    (fun marker -> check_bool ("cuda has " ^ marker) true (Tutil.contains src marker))
    [ "blockIdx.x"; "if (tid >= ndofs) return;"; "cudaStreamSynchronize";
      "cudaMemcpyAsync"; "post_step_function" ]

let suite =
  ( "pipeline",
    [
      Alcotest.test_case "upwind expansion shape" `Quick test_upwind_expansion;
      Alcotest.test_case "upwind numeric semantics" `Quick test_upwind_numeric;
      Alcotest.test_case "central operator" `Quick test_central_operator;
      Alcotest.test_case "custom operator" `Quick test_custom_operator;
      Alcotest.test_case "surface marker" `Quick test_surface_marker;
      Alcotest.test_case "classification (paper example)" `Quick
        test_classification_paper_example;
      Alcotest.test_case "forward-Euler stepped form" `Quick test_stepped_euler_form;
      Alcotest.test_case "rvol/rsurf decomposition" `Quick test_rvol_rsurf_decomposition;
      Alcotest.test_case "BTE equation transform" `Quick test_bte_equation_transform;
      Alcotest.test_case "parse errors surfaced" `Quick test_parse_error_reported;
      Alcotest.test_case "dataflow schedule" `Quick test_dataflow_schedule;
      Alcotest.test_case "dataflow keeps tiny work on cpu" `Quick
        test_dataflow_all_cpu_when_tiny;
      Alcotest.test_case "dataflow on the BTE problem" `Quick test_dataflow_bte_problem;
      Alcotest.test_case "IR structure" `Quick test_ir_cpu_structure;
      Alcotest.test_case "emit Julia-like source" `Quick test_emit_julia;
      Alcotest.test_case "emit CUDA-like source" `Quick test_emit_cuda;
    ] )
