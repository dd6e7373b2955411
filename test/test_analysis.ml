(* Static analyzer and sanitizer tests: the seeded-defect fixtures
   report exactly their expected codes, every shipped scenario lints
   clean under every backend spec, findings feed the metrics registry,
   and the runtime sanitizer is bit-identical on defect-free programs
   while counting reads of poisoned storage. *)

module A = Finch_analysis

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ---- seeded-defect fixtures: exact code multisets ---------------- *)

let test_fixtures_exact_codes () =
  List.iter
    (fun (f : A.Fixtures.fixture) ->
      let expect, found = A.Fixtures.check f in
      Alcotest.(check (list string))
        (f.A.Fixtures.fname ^ ": " ^ f.A.Fixtures.descr)
        (List.map A.Finding.id expect)
        (List.map A.Finding.id found))
    A.Fixtures.all

let test_catalogue_roundtrip () =
  List.iter
    (fun c ->
      match A.Finding.of_id (A.Finding.id c) with
      | Some c' -> check_bool ("round-trip " ^ A.Finding.id c) true (c = c')
      | None -> Alcotest.failf "id %s does not round-trip" (A.Finding.id c))
    A.Finding.catalogue;
  check_bool "unknown id rejected" true (A.Finding.of_id "A999" = None);
  (* the fixtures must exercise a substantial slice of the catalogue *)
  let covered =
    List.sort_uniq compare
      (List.concat_map (fun f -> f.A.Fixtures.expect) A.Fixtures.all)
  in
  check_bool "at least 6 distinct defect classes seeded" true
    (List.length covered >= 6);
  check_int "every catalogue code has a fixture"
    (List.length A.Finding.catalogue)
    (List.length covered)

let test_ignore_codes_filter () =
  (* suppressing a fixture's code yields an empty report *)
  let f =
    List.find
      (fun f -> f.A.Fixtures.fname = "missing-phase")
      A.Fixtures.all
  in
  let r =
    A.Driver.check_ir ~ignore_codes:[ A.Finding.Missing_phase ]
      f.A.Fixtures.fctx f.A.Fixtures.ir
  in
  check_int "suppressed" 0 (List.length r.A.Driver.findings)

(* ---- zero findings for every scenario x backend x overlap -------- *)

let backends =
  [ "serial"; "threads:2"; "bands:2"; "cells:2"; "cells:3"; "cells:4";
    "hybrid:2x2"; "gpu"; "gpu:a6000:2"; "gpu:a6000:2x2" ]

let test_scenarios_lint_clean () =
  List.iter
    (fun (sname, mk) ->
      List.iter
        (fun spec ->
          let tgt =
            match Finch.Config.target_of_string spec with
            | Ok t -> t
            | Error e -> Alcotest.fail e
          in
          List.iter
            (fun overlap ->
              let built = mk () in
              let p = built.Bte.Setup.problem in
              Finch.Problem.set_target p tgt;
              Finch.Problem.set_overlap p overlap;
              let r = A.Driver.check_problem p in
              if r.A.Driver.findings <> [] then begin
                A.Driver.pp_report stdout r;
                Alcotest.failf "%s %s%s: %d findings (expected none)" sname
                  spec
                  (if overlap then " +overlap" else "")
                  (List.length r.A.Driver.findings)
              end)
            [ false; true ])
        backends)
    [ "hotspot", (fun () -> Bte.Setup.build Bte.Setup.small_hotspot);
      "corner", fun () -> Bte.Setup.build_corner Bte.Setup.small_corner ]

(* ---- findings are counted in the metrics registry ---------------- *)

let test_findings_feed_metrics () =
  Prt.Metrics.enable ();
  Prt.Metrics.reset_all ();
  (* a fixture with one error and one with one warning *)
  let by name = List.find (fun f -> f.A.Fixtures.fname = name) A.Fixtures.all in
  ignore (A.Fixtures.check (by "undefined-read"));
  ignore (A.Fixtures.check (by "missing-phase"));
  let c name = Prt.Metrics.value (Prt.Metrics.counter name) in
  check_int "analysis.errors" 1 (c "analysis.errors");
  check_int "analysis.warnings" 1 (c "analysis.warnings");
  Prt.Metrics.reset_all ();
  Prt.Metrics.disable ()

(* ---- runtime sanitizer ------------------------------------------- *)

(* the tiny hotspot used across the solver tests *)
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
    nsteps = 8;
  }

let solve_with target =
  let built = Bte.Setup.build tiny in
  Finch.Problem.set_target built.Bte.Setup.problem target;
  Finch.Solve.solve built.Bte.Setup.problem

let test_sanitizer_bit_identical () =
  (* on defect-free programs the sanitized run must produce bit-identical
     fields and count zero poison reads *)
  List.iter
    (fun (label, target) ->
      let o1 = solve_with target in
      let reads = ref (-1) in
      let o2 =
        A.Sanitize.with_sanitizer (fun () ->
            let o = solve_with target in
            reads := A.Sanitize.poison_reads ();
            o)
      in
      check_int (label ^ ": no poison reads") 0 !reads;
      check_bool (label ^ ": sanitizer off afterwards") false
        (A.Sanitize.enabled ());
      List.iter
        (fun name ->
          let d =
            Fvm.Field.max_abs_diff (Finch.Solve.field o1 name)
              (Finch.Solve.field o2 name)
          in
          if d > 0. then
            Alcotest.failf "%s: sanitized %s differs by %g" label name d)
        [ "I"; "T" ])
    [ "serial", Finch.Config.Cpu Finch.Config.Serial;
      "cells:2", Finch.Config.Cpu (Finch.Config.Cell_parallel 2);
      "gpu", Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 };
      "gpu:2", Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 2 } ]

let test_sanitizer_detects_poison () =
  A.Sanitize.with_sanitizer (fun () ->
      (* ghost cells poisoned, then "read" by a commit-style scan *)
      let f = Fvm.Field.create ~name:"u" ~ncells:8 ~ncomp:2 () in
      Fvm.Field.fill f 1.;
      Fvm.Field.poison_cells f [| 5; 6 |];
      check_bool "poison is NaN" true (Fvm.Field.is_poison (Fvm.Field.get f 5 0));
      check_int "untouched cells stay clean" 0
        (Fvm.Field.count_poison_cells f [| 0; 1; 2 |]);
      (* counts poisoned values: 2 cells x 2 components *)
      let leaked = Fvm.Field.count_poison_cells f [| 4; 5; 6; 7 |] in
      check_int "poisoned values counted" 4 leaked;
      Fvm.Field.record_poison leaked;
      check_int "reads recorded" 4 (A.Sanitize.poison_reads ());
      (* fresh device buffers are poisoned too while the mode is on *)
      let dev = Gpu_sim.Memory.create_device Gpu_sim.Spec.a6000 in
      let buf = Gpu_sim.Memory.alloc dev ~label:"t" ~size:4 in
      check_bool "device alloc poisoned" true
        (Float.is_nan buf.Gpu_sim.Memory.device_data.{0}))

(* ---- communication-schedule plans -------------------------------- *)

let target_of spec =
  match Finch.Config.target_of_string spec with
  | Ok t -> t
  | Error e -> Alcotest.fail e

let problem_on spec =
  let built = Bte.Setup.build tiny in
  let p = built.Bte.Setup.problem in
  Finch.Problem.set_target p (target_of spec);
  p

let test_comm_plan_of_problem () =
  (* partitioned targets carry a plan; single-address-space ones don't *)
  List.iter
    (fun spec ->
      check_bool (spec ^ ": no plan") true
        (A.Comm.plan_of_problem (problem_on spec) = None))
    [ "serial"; "threads:2"; "bands:2"; "hybrid:2x2"; "gpu"; "gpu:a6000:2" ];
  (match A.Comm.plan_of_problem (problem_on "cells:3") with
   | Some (A.Comm.Ranks halo) ->
     check_int "cells:3 halo over 3 ranks" 3 halo.Fvm.Halo.nranks
   | _ -> Alcotest.fail "cells:3: expected a Ranks plan");
  match A.Comm.plan_of_problem (problem_on "gpu:a6000:2x2") with
  | Some (A.Comm.Grid { ndevices; tile_halo }) ->
    check_int "2x2 grid devices per rank" 2 ndevices;
    check_int "tile halo over 2 tiles" 2 tile_halo.Fvm.Halo.nranks
  | _ -> Alcotest.fail "gpu:a6000:2x2: expected a Grid plan"

let test_comm_elaborate () =
  let p = problem_on "cells:3" in
  let plan =
    match A.Comm.plan_of_problem p with
    | Some pl -> pl
    | None -> Alcotest.fail "cells:3: expected a plan"
  in
  let note = Finch.Ir.meta ~phase:Finch.Ir.Ph_communication () in
  let tree =
    Finch.Ir.Seq [ Finch.Ir.Halo_exchange { vars = [ "u"; "s" ]; note } ]
  in
  let sched = A.Comm.elaborate plan tree in
  check_int "one round per exchanged variable" 2
    (List.length sched.A.Comm.sc_rounds);
  check_int "no D2d pushes in a CPU tree" 0
    (List.length sched.A.Comm.sc_pushes);
  List.iter
    (fun (rd : A.Comm.round) ->
      check_bool "send/recv halves mirror each other" true
        (rd.A.Comm.rd_sends = rd.A.Comm.rd_recvs);
      check_bool "elaborated rounds use the runtime posting order" true
        (rd.A.Comm.rd_recv_before_send = []);
      (* every channel of the plan appears as a message *)
      List.iter
        (fun (src, dst, ncells) ->
          check_bool
            (Printf.sprintf "channel %d->%d present" src dst)
            true
            (List.exists
               (fun (e : A.Comm.entry) ->
                 e.A.Comm.e_src = src && e.A.Comm.e_dst = dst
                 && Array.length e.A.Comm.e_cells = ncells)
               rd.A.Comm.rd_sends))
        (Fvm.Halo.channels
           (match plan with
            | A.Comm.Ranks h -> h
            | A.Comm.Grid { tile_halo; _ } -> tile_halo)))
    sched.A.Comm.sc_rounds;
  (* an elaborated schedule is self-consistent: matching, deadlock and
     coverage all pass.  The toy tree never reads the exchanged ghosts,
     so the only findings are the two redundancy warnings — exactly one
     per exchanged variable *)
  let ctx = A.Ctx.of_problem p in
  Alcotest.(check (list string))
    "elaborated schedule verifies clean (bar dead-ghost warnings)"
    [ "A031"; "A031" ]
    (List.map
       (fun (f : A.Finding.t) -> A.Finding.id f.A.Finding.code)
       (A.Comm.run ~comm:(A.Comm.Elaborate plan) ctx tree))

let test_sanitizer_alloc_clean_when_off () =
  check_bool "sanitizer off" false (A.Sanitize.enabled ());
  let dev = Gpu_sim.Memory.create_device Gpu_sim.Spec.a6000 in
  let buf = Gpu_sim.Memory.alloc dev ~label:"t" ~size:4 in
  check_bool "device alloc zeroed" true (buf.Gpu_sim.Memory.device_data.{0} = 0.)

let suite =
  ( "analysis",
    [
      Alcotest.test_case "fixtures report exact codes" `Quick
        test_fixtures_exact_codes;
      Alcotest.test_case "catalogue round-trips" `Quick
        test_catalogue_roundtrip;
      Alcotest.test_case "ignore_codes suppression" `Quick
        test_ignore_codes_filter;
      Alcotest.test_case "scenarios lint clean on all backends" `Quick
        test_scenarios_lint_clean;
      Alcotest.test_case "findings feed metrics" `Quick
        test_findings_feed_metrics;
      Alcotest.test_case "sanitizer bit-identical when clean" `Quick
        test_sanitizer_bit_identical;
      Alcotest.test_case "sanitizer counts poison reads" `Quick
        test_sanitizer_detects_poison;
      Alcotest.test_case "alloc clean when sanitizer off" `Quick
        test_sanitizer_alloc_clean_when_off;
      Alcotest.test_case "comm plan per target" `Quick
        test_comm_plan_of_problem;
      Alcotest.test_case "comm schedule elaboration" `Quick
        test_comm_elaborate;
    ] )
