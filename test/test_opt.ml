(* Optimizer-pipeline tests: bit-identity of the opt levels across the
   scenario x backend x overlap matrix, fusion-legality units (a crafted
   conflicting pair must NOT fuse), golden emission of optimized
   programs, zero analysis findings on optimized IR for every backend,
   and the analysis-verification (rejection) contract. *)

module E = Finch_symbolic.Expr
module Opt = Finch_opt.Opt

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the tiny hotspot of the solver suite, plus a corner scenario with an
   ODD step count so the fused schedule's trailing half-pair runs *)
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

let tiny_corner =
  {
    Bte.Setup.small_corner with
    Bte.Setup.nx = 8;
    ny = 8;
    ndirs = 4;
    n_la_bands = 3;
    nsteps = 9;
  }

let build_at ?(corner = false) level target overlap =
  let built =
    if corner then Bte.Setup.build_corner tiny_corner
    else Bte.Setup.build tiny
  in
  let p = built.Bte.Setup.problem in
  Finch.Problem.set_target p target;
  Finch.Problem.set_overlap p overlap;
  Finch.Problem.set_opt_level p level;
  p

let solve_at ?corner level target overlap =
  Finch.Solve.solve (build_at ?corner level target overlap)

let field_diff o1 o2 name =
  Fvm.Field.max_abs_diff (Finch.Solve.field o1 name) (Finch.Solve.field o2 name)

let gpu1 = Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 }
let gpu2 = Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 2 }

(* backend x overlap matrix, mirroring bte_lint's default matrix *)
let matrix =
  [ "serial", Finch.Config.Cpu Finch.Config.Serial, false;
    "threads:3", Finch.Config.Cpu (Finch.Config.Threaded 3), false;
    "bands:2", Finch.Config.Cpu (Finch.Config.Band_parallel 2), false;
    "cells:2", Finch.Config.Cpu (Finch.Config.Cell_parallel 2), false;
    "cells:2+overlap", Finch.Config.Cpu (Finch.Config.Cell_parallel 2), true;
    "hybrid:2x2", Finch.Config.Cpu (Finch.Config.Hybrid (2, 2)), false;
    "gpu", gpu1, false;
    "gpu:2+overlap", gpu2, true ]

let test_opt_levels_bit_identical_hotspot () =
  List.iter
    (fun (label, target, overlap) ->
      let o0 = solve_at Finch.Config.O0 target overlap in
      List.iter
        (fun (lname, level) ->
          let o = solve_at level target overlap in
          let d = field_diff o0 o "I" in
          if d > 0. then
            Alcotest.failf "%s %s vs opt0: I diff %g" label lname d;
          let dt = field_diff o0 o "T" in
          if dt > 0. then
            Alcotest.failf "%s %s vs opt0: T diff %g" label lname dt)
        [ "opt2", Finch.Config.O2 ])
    matrix

let test_opt_levels_bit_identical_corner_odd_steps () =
  (* odd nsteps: the threaded fused schedule runs npairs regions plus the
     classic-shaped tail region, and must still match opt0 exactly *)
  List.iter
    (fun (label, target, overlap) ->
      let o0 = solve_at ~corner:true Finch.Config.O0 target overlap in
      List.iter
        (fun (lname, level) ->
          let o = solve_at ~corner:true level target overlap in
          let d = field_diff o0 o "I" in
          if d > 0. then
            Alcotest.failf "corner %s %s vs opt0: I diff %g" label lname d;
          let dt = field_diff o0 o "T" in
          if dt > 0. then
            Alcotest.failf "corner %s %s vs opt0: T diff %g" label lname dt)
        [ "opt2", Finch.Config.O2 ])
    [ "serial", Finch.Config.Cpu Finch.Config.Serial, false;
      "threads:3", Finch.Config.Cpu (Finch.Config.Threaded 3), false;
      "gpu", gpu1, false ]

(* ------------------------------------------------------------------ *)
(* Fusion legality units.                                              *)
(* ------------------------------------------------------------------ *)

let note = Finch.Ir.meta ()

let assign ?(dest_new = true) dest expr =
  Finch.Ir.Assign { dest; dest_new; expr; reduce = `Set; note }

let cell_loop body =
  Finch.Ir.Loop { range = Finch.Ir.Cells; body; parallel = true }

(* body writing [u] IN PLACE, and body reading [u] at the neighbour cell:
   fused into one iteration this is exactly the forgot-double-buffering
   race (A011), so the pair must NOT fuse *)
let writes_u_in_place = [ assign ~dest_new:false "u" (E.num 1.) ]
let reads_u_across_face = [ assign "v" (E.ref_ ~side:E.Cell2 "u" []) ]
let writes_u_buffered = [ assign "u" (E.num 1.) ]

let test_conflicting_pair_must_not_fuse () =
  check_bool "in-place write vs CELL2 read" false
    (Opt.can_fuse_cell_loops writes_u_in_place reads_u_across_face);
  check_bool "symmetric: CELL2 read vs in-place write" false
    (Opt.can_fuse_cell_loops reads_u_across_face writes_u_in_place);
  (* the tree rewrite must agree with the predicate *)
  let tree =
    Finch.Ir.Seq [ cell_loop writes_u_in_place; cell_loop reads_u_across_face ]
  in
  let fused, n = Opt.fuse_cell_loops tree in
  check_int "no fusions on the conflicting pair" 0 n;
  check_bool "tree unchanged" true (fused = tree)

let test_safe_pair_fuses () =
  (* the double-buffered variant of the same pair is safe: the CELL2 read
     sees the old buffer regardless of iteration interleaving *)
  check_bool "double-buffered write vs CELL2 read" true
    (Opt.can_fuse_cell_loops writes_u_buffered reads_u_across_face);
  let tree =
    Finch.Ir.Seq [ cell_loop writes_u_buffered; cell_loop reads_u_across_face ]
  in
  let fused, n = Opt.fuse_cell_loops tree in
  check_int "one fusion" 1 n;
  let loops =
    Finch.Ir.fold
      (fun acc n ->
        match n with Finch.Ir.Loop _ -> acc + 1 | _ -> acc)
      0 fused
  in
  check_int "one merged loop remains" 1 loops

let test_opaque_body_does_not_fuse () =
  (* a callback's footprint is invisible to the IR, so loops carrying one
     are never fusion candidates *)
  let opaque = [ Finch.Ir.Callback { note } ] in
  check_bool "opaque body" false
    (Opt.can_fuse_cell_loops writes_u_buffered opaque)

let test_dead_assign_elimination () =
  let tree =
    Finch.Ir.Seq
      [ cell_loop [ assign "scratch" (E.num 2.) ];
        cell_loop [ assign "kept" (E.num 3.) ] ]
  in
  let out, n = Opt.eliminate_dead_assigns ~live_out:[ "kept" ] tree in
  check_int "one dead assign removed" 1 n;
  let loops =
    Finch.Ir.fold
      (fun acc n ->
        match n with Finch.Ir.Loop _ -> acc + 1 | _ -> acc)
      0 out
  in
  check_int "emptied loop dropped with its assign" 1 loops;
  check_bool "live assign survives" true
    (List.mem "kept" (Finch.Ir.writes out))

let test_transfer_coalescing () =
  let tree =
    Finch.Ir.Seq
      [ Finch.Ir.H2d { vars = [ "a" ]; every_step = false };
        Finch.Ir.H2d { vars = [ "b" ]; every_step = false };
        Finch.Ir.H2d { vars = [ "c" ]; every_step = true } ]
  in
  let out, n = Opt.coalesce_transfers tree in
  check_int "one merge (cadences must match)" 1 n;
  match out with
  | Finch.Ir.Seq
      [ Finch.Ir.H2d { vars; every_step = false };
        Finch.Ir.H2d { vars = [ "c" ]; every_step = true } ] ->
    check_bool "merged variable set" true (List.sort compare vars = [ "a"; "b" ])
  | _ -> Alcotest.fail "unexpected coalesced shape"

(* ------------------------------------------------------------------ *)
(* Whole-pipeline properties on the BTE problem.                       *)
(* ------------------------------------------------------------------ *)

let test_golden_optimized_gpu_listing () =
  (* two independent roads to the batched device program — the O2
     builder, and the optimizer batching the O0 per-band program — must
     emit byte-identical CUDA *)
  let p = build_at Finch.Config.O2 gpu1 false in
  let res = Opt.optimize_problem p in
  check_bool "kernel launch loops were batched" true
    (res.Opt.stats.Opt.kernels_batched >= 1);
  let plan = Finch.Dataflow.plan_for_problem p in
  let built = Finch.Ir.build_gpu p ~transfers:(Finch.Dataflow.ir_transfers plan) in
  Alcotest.(check string)
    "optimized O0 program emits exactly the O2 builder's CUDA"
    (Finch.Emit_source.to_cuda built)
    (Finch.Emit_source.to_cuda res.Opt.ir)

let test_fused_step_listing () =
  (* the fused-pair schedule is visible in the optimized CPU listing *)
  let p =
    build_at Finch.Config.O2 (Finch.Config.Cpu (Finch.Config.Threaded 4)) false
  in
  let res = Opt.optimize_problem p in
  check_int "one steps loop fused" 1 res.Opt.stats.Opt.steps_fused;
  let src = Finch.Emit_source.to_julia res.Opt.ir in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  check_bool "listing shows the swapped-role phase" true
    (contains src "buffer roles swapped")

let test_optimized_ir_clean_for_all_backends () =
  List.iter
    (fun (label, target, overlap) ->
      let p = build_at Finch.Config.O2 target overlap in
      let res = Opt.optimize_problem p in
      let r =
        Finch_analysis.Driver.check_ir
          (Finch_analysis.Ctx.of_problem p)
          res.Opt.ir
      in
      if r.Finch_analysis.Driver.errors + r.Finch_analysis.Driver.warnings > 0
      then
        Alcotest.failf "%s: optimized IR has %d findings" label
          (List.length r.Finch_analysis.Driver.findings))
    matrix

let test_unsafe_hoist_rejected_by_analyses () =
  (* the BTE temperature callback rewrites "Io"/"beta" every step, which
     the IR cannot see; hoisting their per-step uploads must be vetoed by
     the Movement pass (A020 stale-device / A023 plan mismatch), the
     pre-pass IR kept, and nothing hoisted *)
  let p = build_at Finch.Config.O2 gpu1 false in
  let res = Opt.optimize_problem p in
  check_int "no uploads hoisted" 0 res.Opt.stats.Opt.h2d_hoisted;
  match
    List.find_opt
      (fun (r : Opt.rejection) -> r.Opt.rej_pass = "hoist_invariant_h2d")
      res.Opt.rejected
  with
  | None -> Alcotest.fail "hoist_invariant_h2d was not rejected"
  | Some r ->
    let code =
      Finch_analysis.Finding.id
        r.Opt.rej_finding.Finch_analysis.Finding.code
    in
    check_bool
      (Printf.sprintf "rejection carries a movement code (got %s)" code)
      true
      (code = "A020" || code = "A023")

let test_opt_level_parsing () =
  List.iter
    (fun (s, expect) ->
      match Finch.Config.opt_level_of_string s with
      | Ok l ->
        check_bool
          (Printf.sprintf "parse %s" s)
          true (l = expect)
      | Error e -> Alcotest.failf "parse %s: %s" s e)
    [ "0", Finch.Config.O0; "2", Finch.Config.O2; "O0", Finch.Config.O0;
      "o2", Finch.Config.O2 ];
  (* O1 was folded into O2 *)
  List.iter
    (fun s ->
      check_bool ("reject level " ^ s) true
        (Result.is_error (Finch.Config.opt_level_of_string s)))
    [ "1"; "O1"; "3" ]

let suite =
  ( "optimizer",
    [
      Alcotest.test_case "opt levels bit-identical on hotspot matrix" `Slow
        test_opt_levels_bit_identical_hotspot;
      Alcotest.test_case "opt levels bit-identical on corner (odd steps)" `Slow
        test_opt_levels_bit_identical_corner_odd_steps;
      Alcotest.test_case "conflicting pair must not fuse" `Quick
        test_conflicting_pair_must_not_fuse;
      Alcotest.test_case "safe pair fuses" `Quick test_safe_pair_fuses;
      Alcotest.test_case "opaque body does not fuse" `Quick
        test_opaque_body_does_not_fuse;
      Alcotest.test_case "dead assigns eliminated" `Quick
        test_dead_assign_elimination;
      Alcotest.test_case "transfers coalesced" `Quick test_transfer_coalescing;
      Alcotest.test_case "golden optimized gpu listing" `Quick
        test_golden_optimized_gpu_listing;
      Alcotest.test_case "fused step-pair listing" `Quick
        test_fused_step_listing;
      Alcotest.test_case "optimized IR clean for all backends" `Quick
        test_optimized_ir_clean_for_all_backends;
      Alcotest.test_case "unsafe hoist rejected by the analyses" `Quick
        test_unsafe_hoist_rejected_by_analyses;
      Alcotest.test_case "opt level parsing" `Quick test_opt_level_parsing;
    ] )
