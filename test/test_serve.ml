(* Serve-layer tests: Solve_request JSON round-trips (property), the
   Finch facade vs the hand-wired pipeline (bit-identity), scheduler
   admission/queueing/deadline edge cases, and the headline batching
   property — batched GPU execution bit-identical to solo solves across
   scenario x backend x opt level. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let () = Bte.Setup.register_scenarios ()

(* run [f] with the metrics registry enabled, restoring the previous
   enablement after (other suites depend on the default-off state) *)
let with_metrics f =
  let was = Prt.Metrics.enabled () in
  Prt.Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was then Prt.Metrics.disable ()) f

let cval name = Prt.Metrics.value (Prt.Metrics.counter name)

(* tiny request: seconds-scale full matrix *)
let tiny ?(scenario = "hotspot") ?(nx = 8) ?(nsteps = 4)
    ?(backend = Finch.Config.Cpu Finch.Config.Serial)
    ?(opt_level = Finch.Config.O2) ?t_hot ?deadline_s ?label () =
  { (Finch.Solve_request.make ?t_hot ?deadline_s ?label scenario) with
    Finch.Solve_request.nx;
    ny = 8;
    ndirs = 4;
    nbands = 3;
    nsteps;
    backend;
    opt_level }

let gpu1 = Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 }

(* ---------- Solve_request JSON ---------- *)

let arb_request =
  let open QCheck.Gen in
  let backend =
    oneofl
      [ Finch.Config.Cpu Finch.Config.Serial;
        Finch.Config.Cpu (Finch.Config.Threaded 3);
        Finch.Config.Cpu (Finch.Config.Band_parallel 2);
        Finch.Config.Cpu (Finch.Config.Cell_parallel 4);
        Finch.Config.Cpu (Finch.Config.Hybrid (2, 2));
        gpu1;
        Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 2; ranks = 2 } ]
  in
  let gen =
    let* scenario = oneofl [ "hotspot"; "corner"; "made-up" ] in
    let* nx = 1 -- 64 and* ny = 1 -- 64 in
    let* ndirs = 2 -- 16 and* nbands = 1 -- 12 and* nsteps = 1 -- 40 in
    let* t_hot = opt (float_range 1. 900.) in
    let* t_cold = opt (float_range 1. 900.) in
    let* backend = backend in
    let* opt_level =
      oneofl [ Finch.Config.O0; Finch.Config.O2 ]
    in
    let* eval_mode =
      oneofl [ Finch.Config.Closure; Finch.Config.Tape; Finch.Config.Native ]
    in
    let* overlap = bool in
    let* deadline_s = opt (float_range 0. 60.) in
    let* label = opt (string_size ~gen:printable (1 -- 20)) in
    return
      { (Finch.Solve_request.make ?t_hot ?t_cold ?deadline_s ?label scenario) with
        Finch.Solve_request.nx;
        ny;
        ndirs;
        nbands;
        nsteps;
        backend;
        opt_level;
        eval_mode;
        overlap }
  in
  QCheck.make ~print:Finch.Solve_request.to_string gen

let prop_json_roundtrip =
  QCheck.Test.make ~name:"request JSON round-trips" ~count:300 arb_request
    (fun r ->
      match Finch.Solve_request.of_string (Finch.Solve_request.to_string r) with
      | Ok r' -> Finch.Solve_request.equal r r'
      | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e)

let test_json_defaults () =
  (* missing optional members take the make defaults *)
  match Finch.Solve_request.of_string {|{"scenario":"hotspot"}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok r ->
    check_bool "defaults" true
      (Finch.Solve_request.equal r (Finch.Solve_request.make "hotspot"))

let test_json_rejects () =
  let bad s =
    match Finch.Solve_request.of_string s with
    | Ok _ -> Alcotest.failf "accepted %s" s
    | Error _ -> ()
  in
  bad {|{"nx": 4}|};                         (* no scenario *)
  bad {|{"scenario":"hotspot","nx":0}|};     (* validate: positive dims *)
  bad {|{"scenario":"hotspot","deadline_s":-1}|};
  bad {|{"scenario":"hotspot","backend":"warp:9"}|};
  bad {|{"scenario":"hotspot"} trailing|};   (* trailing garbage *)
  bad {|{"scenario":}|}

let test_batch_key () =
  let r = tiny () in
  let k = Finch.Solve_request.batch_key in
  check_string "temps excluded" (k r) (k { r with Finch.Solve_request.t_hot = Some 401. });
  check_string "label excluded" (k r)
    (k { r with Finch.Solve_request.label = Some "x" });
  check_string "deadline excluded" (k r)
    (k { r with Finch.Solve_request.deadline_s = Some 9. });
  check_bool "dims included" false
    (k r = k { r with Finch.Solve_request.nx = 9 });
  check_bool "backend included" false
    (k r = k { r with Finch.Solve_request.backend = gpu1 });
  check_bool "opt included" false
    (k r = k { r with Finch.Solve_request.opt_level = Finch.Config.O0 })

(* ---------- facade ---------- *)

let test_facade_matches_direct () =
  let req = tiny () in
  let res =
    match Finch.solve req with
    | Ok r -> r
    | Error e -> Alcotest.failf "facade: %s" (Finch.Solve_error.to_string e)
  in
  (* the hand-wired pipeline the facade replaces *)
  let sc =
    Bte.Setup.scenario_of_request Bte.Setup.small_hotspot req
  in
  let built = Bte.Setup.build sc in
  let direct =
    Finch.Solve.solve built.Bte.Setup.problem
  in
  check_string "solution name" "T" res.Finch.Solve_result.solution_name;
  Alcotest.(check (float 0.))
    "bit-identical to direct pipeline" 0.
    (Fvm.Field.max_abs_diff res.Finch.Solve_result.solution
       (Finch.Solve.field direct "T"))

let test_facade_unknown_scenario () =
  match Finch.solve (Finch.Solve_request.make "no-such-scenario") with
  | Error (Finch.Solve_error.Unknown_scenario s as e) ->
    check_string "name echoed" "no-such-scenario" s;
    check_bool "message lists the registered scenarios" true
      (Tutil.contains (Finch.Solve_error.to_string e) "hotspot")
  | Error e -> Alcotest.failf "wrong error: %s" (Finch.Solve_error.to_string e)
  | Ok _ -> Alcotest.fail "solved an unregistered scenario"

(* a 2x2 hotspot with 2 bands: 4 cells, 2 values of the band index *)
let over_partitioned spec =
  match Finch.Config.target_of_string spec with
  | Ok backend ->
    { (tiny ~nx:2 ~backend ()) with
      Finch.Solve_request.ny = 2;
      nbands = 2;
      nsteps = 2 }
  | Error m -> Alcotest.fail m

let test_facade_invalid_request () =
  (match Finch.solve (tiny ~nx:0 ()) with
   | Error (Finch.Solve_error.Invalid_request _) -> ()
   | Error e -> Alcotest.failf "wrong error: %s" (Finch.Solve_error.to_string e)
   | Ok _ -> Alcotest.fail "solved an invalid request");
  (* more ranks, domains or devices than the problem holds *)
  List.iter
    (fun spec ->
      match Finch.solve (over_partitioned spec) with
      | Error (Finch.Solve_error.Invalid_request m) ->
        check_bool (spec ^ ": message names the spec") true
          (Tutil.contains m spec)
      | Error e ->
        Alcotest.failf "%s: wrong error: %s" spec (Finch.Solve_error.to_string e)
      | Ok _ -> Alcotest.failf "%s: solved an over-partitioned request" spec)
    [ "bands:3"; "cells:8"; "threads:8"; "hybrid:3x1"; "hybrid:2x8";
      "gpu:a6000:3"; "gpu:a6000:8x1" ]

(* ---------- scheduler edge cases ---------- *)

let test_empty_drain () =
  let t = Finch_serve.Scheduler.create () in
  Finch_serve.Scheduler.drain t;
  check_int "still empty" 0 (Finch_serve.Scheduler.queue_depth t)

let test_queue_full () =
  let t = Finch_serve.Scheduler.create ~max_queue:2 () in
  let t1 = Finch_serve.Scheduler.submit t (tiny ()) in
  let t2 = Finch_serve.Scheduler.submit t (tiny ()) in
  let t3 = Finch_serve.Scheduler.submit t (tiny ()) in
  check_bool "first admitted" true (Finch_serve.Scheduler.outcome t1 = None);
  check_bool "second admitted" true (Finch_serve.Scheduler.outcome t2 = None);
  (match Finch_serve.Scheduler.outcome t3 with
   | Some (Finch_serve.Scheduler.Rejected m) ->
     check_bool "reason names the bound" true (Tutil.contains m "queue full")
   | _ -> Alcotest.fail "third request was not rejected");
  Finch_serve.Scheduler.drain t;
  check_bool "admitted requests completed" true
    (match Finch_serve.Scheduler.outcome t1, Finch_serve.Scheduler.outcome t2 with
     | Some (Finch_serve.Scheduler.Completed _),
       Some (Finch_serve.Scheduler.Completed _) -> true
     | _ -> false)

let test_invalid_rejected_at_submit () =
  let t = Finch_serve.Scheduler.create () in
  let tk = Finch_serve.Scheduler.submit t (tiny ~nx:0 ()) in
  (match Finch_serve.Scheduler.outcome tk with
   | Some (Finch_serve.Scheduler.Rejected m) ->
     check_bool "reason" true (Tutil.contains m "invalid request")
   | _ -> Alcotest.fail "invalid request was not rejected at submit");
  check_int "never queued" 0 (Finch_serve.Scheduler.queue_depth t)

let test_over_partitioned_rejected () =
  (* rejected with a named error; the request behind it still runs *)
  let t = Finch_serve.Scheduler.create () in
  let bad = Finch_serve.Scheduler.submit t (over_partitioned "cells:8") in
  let good = Finch_serve.Scheduler.submit t (tiny ~nsteps:2 ()) in
  Finch_serve.Scheduler.drain t;
  (match Finch_serve.Scheduler.outcome bad with
   | Some (Finch_serve.Scheduler.Rejected m) ->
     check_bool "reason names the spec" true (Tutil.contains m "cells:8")
   | _ -> Alcotest.fail "over-partitioned request was not rejected");
  match Finch_serve.Scheduler.outcome good with
  | Some (Finch_serve.Scheduler.Completed _) -> ()
  | _ -> Alcotest.fail "the valid request behind it did not complete"

let test_deadline_expiry () =
  (* fake clock: submission at t=0, execution at t=2 — the head request
     (no deadline) still runs; the queued one with a 0.5 s deadline has
     expired by the time it is picked *)
  let now = ref 0. in
  let t = Finch_serve.Scheduler.create ~now:(fun () -> !now) () in
  let t1 = Finch_serve.Scheduler.submit t (tiny ()) in
  let t2 = Finch_serve.Scheduler.submit t (tiny ~deadline_s:0.5 ()) in
  now := 2.;
  Finch_serve.Scheduler.drain t;
  check_bool "head completed" true
    (match Finch_serve.Scheduler.outcome t1 with
     | Some (Finch_serve.Scheduler.Completed _) -> true
     | _ -> false);
  (match Finch_serve.Scheduler.outcome t2 with
   | Some (Finch_serve.Scheduler.Timed_out by) ->
     Tutil.check_close ~eps:1e-9 "exceeded by" 1.5 by
   | _ -> Alcotest.fail "deadlined request did not time out")

let test_default_deadline () =
  let now = ref 0. in
  let t =
    Finch_serve.Scheduler.create ~default_deadline_s:1. ~now:(fun () -> !now) ()
  in
  let tk = Finch_serve.Scheduler.submit t (tiny ()) in
  now := 3.;
  Finch_serve.Scheduler.drain t;
  check_bool "timed out under the scheduler default" true
    (match Finch_serve.Scheduler.outcome tk with
     | Some (Finch_serve.Scheduler.Timed_out _) -> true
     | _ -> false)

let test_batch_split_incompatible () =
  with_metrics (fun () ->
      let b0 = cval "serve.batches" in
      let t = Finch_serve.Scheduler.create () in
      (* same batch key only for the two nx=8 GPU requests; the nx=9
         request must be left out of their batch and run alone *)
      let outs =
        Finch_serve.Scheduler.run_all t
          [ tiny ~backend:gpu1 ~t_hot:350. ();
            tiny ~backend:gpu1 ~nx:9 ();
            tiny ~backend:gpu1 ~t_hot:360. () ]
      in
      check_int "all three completed" 3
        (List.length
           (List.filter
              (function Finch_serve.Scheduler.Completed _ -> true | _ -> false)
              outs));
      check_int "exactly one batch formed" 1 (cval "serve.batches" - b0))

let test_cpu_requests_never_batch () =
  with_metrics (fun () ->
      let b0 = cval "serve.batches" in
      let t = Finch_serve.Scheduler.create () in
      let outs =
        Finch_serve.Scheduler.run_all t [ tiny (); tiny (); tiny () ]
      in
      check_int "all completed" 3
        (List.length
           (List.filter
              (function Finch_serve.Scheduler.Completed _ -> true | _ -> false)
              outs));
      check_int "no CPU batches" 0 (cval "serve.batches" - b0))

(* ---------- batched vs solo bit-identity ---------- *)

(* the ISSUE acceptance matrix: scenario x {serial, cells:2, gpu} x
   {O0, O2}; a three-request temperature sweep run through a batching
   scheduler with the caches on must produce exactly the fields the
   cold per-request pipeline produces *)
let test_batched_matches_solo () =
  List.iter
    (fun scenario ->
      List.iter
        (fun backend ->
          List.iter
            (fun opt_level ->
              let base_t =
                match scenario with "corner" -> 150. | _ -> 350.
              in
              let reqs =
                List.map
                  (fun i ->
                    tiny ~scenario ~backend ~opt_level
                      ~t_hot:(base_t +. (5. *. float_of_int i))
                      ~label:(Printf.sprintf "t%d" i) ())
                  [ 0; 1; 2 ]
              in
              let solve_via ~batching ~use_cache =
                let t =
                  Finch_serve.Scheduler.create ~batching ~use_cache ()
                in
                List.map
                  (function
                    | Finch_serve.Scheduler.Completed r ->
                      r.Finch.Solve_result.solution
                    | Finch_serve.Scheduler.Rejected m ->
                      Alcotest.failf "rejected: %s" m
                    | Finch_serve.Scheduler.Timed_out _ ->
                      Alcotest.fail "timed out")
                  (Finch_serve.Scheduler.run_all t reqs)
              in
              let batched = solve_via ~batching:true ~use_cache:true in
              let solo = solve_via ~batching:false ~use_cache:false in
              List.iteri
                (fun i (b, s) ->
                  Alcotest.(check (float 0.))
                    (Printf.sprintf "%s %s O%s #%d"
                       scenario
                       (Finch.Config.target_name backend)
                       (Finch.Config.opt_level_name opt_level)
                       i)
                    0.
                    (Fvm.Field.max_abs_diff b s))
                (List.combine batched solo))
            [ Finch.Config.O0; Finch.Config.O2 ])
        [ Finch.Config.Cpu Finch.Config.Serial;
          Finch.Config.Cpu (Finch.Config.Cell_parallel 2);
          gpu1 ])
    [ "hotspot"; "corner" ]

let test_batch_counters_gpu () =
  with_metrics (fun () ->
      let b0 = cval "serve.batches" and l0 = cval "serve.batched_launches" in
      let t = Finch_serve.Scheduler.create () in
      let outs =
        Finch_serve.Scheduler.run_all t
          [ tiny ~backend:gpu1 ~t_hot:350. ();
            tiny ~backend:gpu1 ~t_hot:355. () ]
      in
      check_int "both completed" 2
        (List.length
           (List.filter
              (function Finch_serve.Scheduler.Completed _ -> true | _ -> false)
              outs));
      check_int "one batch" 1 (cval "serve.batches" - b0);
      check_bool "batched launches recorded" true
        (cval "serve.batched_launches" - l0 > 0))

(* ---------- batched-IR analysis gate ---------- *)

(* the scheduler's second gate: the request-batched IR itself is linted
   before dispatch.  On a compatible GPU batch the rewrite must lint
   clean (so batching actually runs, no silent solo fallback) and keep
   the documented shape: kernels stay single batched launches, host
   phases and transfers run under a per-request loop *)
let test_batched_ir_lints_clean () =
  with_metrics (fun () ->
      let prep req =
        match Finch.prepare req with
        | Ok p -> p.Finch.pr_problem
        | Error e -> Alcotest.fail (Finch.Solve_error.to_string e)
      in
      let problems =
        Array.of_list
          (List.map prep
             [ tiny ~backend:gpu1 ~t_hot:350. ();
               tiny ~backend:gpu1 ~t_hot:355. () ])
      in
      let ir =
        Finch_serve.Batch.batched_ir problems
      in
      let count pred =
        Finch.Ir.fold (fun n node -> if pred node then n + 1 else n) 0 ir
      in
      let batch_kernels =
        count (function
          | Finch.Ir.Kernel { kname; _ } ->
            let n = String.length kname in
            n >= 6 && String.sub kname (n - 6) 6 = "_batch"
          | _ -> false)
      in
      check_bool "kernels kept as batched launches" true (batch_kernels > 0);
      check_int "no un-batched kernels" batch_kernels
        (count (function Finch.Ir.Kernel _ -> true | _ -> false));
      check_bool "host phases wrapped per request" true
        (count (function
           | Finch.Ir.Loop { range = Finch.Ir.Index "request"; _ } -> true
           | _ -> false)
         > 0);
      let rep = Finch_serve.Batch.check problems in
      check_int "batched IR lints clean" 0
        (List.length rep.Finch_analysis.Driver.findings);
      (* and the scheduler therefore batches without falling back *)
      let f0 = cval "serve.batch_fallbacks"
      and e0 = cval "serve.batch_analysis_errors" in
      let t = Finch_serve.Scheduler.create () in
      let outs =
        Finch_serve.Scheduler.run_all t
          [ tiny ~backend:gpu1 ~t_hot:350. ();
            tiny ~backend:gpu1 ~t_hot:355. () ]
      in
      check_int "both completed" 2
        (List.length
           (List.filter
              (function Finch_serve.Scheduler.Completed _ -> true | _ -> false)
              outs));
      check_int "no analysis errors on the batched IR" 0
        (cval "serve.batch_analysis_errors" - e0);
      check_int "no solo fallback" 0 (cval "serve.batch_fallbacks" - f0))

(* one data-movement plan, the first problem's, serves a whole batch, so
   problems whose post-step callbacks read or write different fields must
   not share one *)
let test_batch_rejects_differing_post_io () =
  let prep req =
    match Finch.prepare req with
    | Ok p -> p.Finch.pr_problem
    | Error e -> Alcotest.fail (Finch.Solve_error.to_string e)
  in
  let a = prep (tiny ~backend:gpu1 ~t_hot:350. ()) in
  let b = prep (tiny ~backend:gpu1 ~t_hot:355. ()) in
  check_bool "same contract batches" true
    (Finch_serve.Batch.compatible [| a; b |] = Ok ());
  let update = (List.hd b.Finch.Problem.post_step).Finch.Problem.pc_fn in
  b.Finch.Problem.post_step <- [];
  Finch.Problem.post_step_function b update;
  match Finch_serve.Batch.compatible [| a; b |] with
  | Ok () -> Alcotest.fail "differing post-step I/O must not batch"
  | Error m ->
    check_bool "names the callback I/O" true (Tutil.contains m "post-step")

let suite =
  ( "serve",
    [
      QCheck_alcotest.to_alcotest prop_json_roundtrip;
      Alcotest.test_case "request JSON defaults" `Quick test_json_defaults;
      Alcotest.test_case "request JSON rejects" `Quick test_json_rejects;
      Alcotest.test_case "batch key scope" `Quick test_batch_key;
      Alcotest.test_case "facade matches direct pipeline" `Quick
        test_facade_matches_direct;
      Alcotest.test_case "facade unknown scenario" `Quick
        test_facade_unknown_scenario;
      Alcotest.test_case "facade invalid request" `Quick
        test_facade_invalid_request;
      Alcotest.test_case "scheduler empty drain" `Quick test_empty_drain;
      Alcotest.test_case "scheduler queue full" `Quick test_queue_full;
      Alcotest.test_case "scheduler invalid at submit" `Quick
        test_invalid_rejected_at_submit;
      Alcotest.test_case "scheduler rejects over-partitioned" `Quick
        test_over_partitioned_rejected;
      Alcotest.test_case "scheduler deadline expiry" `Quick
        test_deadline_expiry;
      Alcotest.test_case "scheduler default deadline" `Quick
        test_default_deadline;
      Alcotest.test_case "incompatible request splits batch" `Quick
        test_batch_split_incompatible;
      Alcotest.test_case "cpu requests never batch" `Quick
        test_cpu_requests_never_batch;
      Alcotest.test_case "batched matches solo (matrix)" `Quick
        test_batched_matches_solo;
      Alcotest.test_case "gpu batch counters" `Quick test_batch_counters_gpu;
      Alcotest.test_case "batched IR lints clean" `Quick
        test_batched_ir_lints_clean;
      Alcotest.test_case "differing post-step I/O never batches" `Quick
        test_batch_rejects_differing_post_io;
    ] )
