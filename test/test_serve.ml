(* Serve-layer tests: Solve_request JSON round-trips (property), the
   Finch facade vs the hand-wired pipeline (bit-identity), scheduler
   admission/queueing/deadline/ordering edge cases, and served results
   bit-identical to per-request Finch.solve across scenario x backend x
   opt level. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let () = Bte.Setup.register_scenarios ()

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
    let* eval_mode = oneofl [ Finch.Config.Closure; Finch.Config.Native ] in
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
      "gpu:a6000:3"; "gpu:a6000:8x1" ];
  (* the removed tape evaluator: a named error at every entry point,
     never an exception *)
  let tape = { (tiny ()) with Finch.Solve_request.eval_mode = Finch.Config.Tape } in
  (match Finch.solve tape with
   | Error (Finch.Solve_error.Invalid_request m) ->
     check_bool "tape: message names tape" true (Tutil.contains m "tape")
   | Error e -> Alcotest.failf "tape: wrong error: %s" (Finch.Solve_error.to_string e)
   | Ok _ -> Alcotest.fail "solved a tape request");
  (match
     Finch.Solve_request.of_string
       {|{"scenario":"hotspot","nx":4,"ny":4,"eval":"tape"}|}
   with
   | Error m -> check_bool "tape JSON: message names tape" true (Tutil.contains m "tape")
   | Ok _ -> Alcotest.fail "parsed a tape request");
  let t = Finch_serve.Scheduler.create () in
  (match Finch_serve.Scheduler.outcome (Finch_serve.Scheduler.submit t tape) with
   | Some (Finch_serve.Scheduler.Rejected m) ->
     check_bool "tape: rejected naming tape" true (Tutil.contains m "tape")
   | _ -> Alcotest.fail "the scheduler did not reject a tape request");
  match Finch.Problem.set_eval_mode (Finch.Problem.init "t") Finch.Config.Tape with
  | exception Finch.Problem.Problem_error m ->
    check_bool "set_eval_mode: message names tape" true (Tutil.contains m "tape")
  | () -> Alcotest.fail "set_eval_mode accepted tape"

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

(* one request per round: a request that cannot share anything with its
   neighbours still runs in its submission slot *)
let test_drain_fifo () =
  let was = Prt.Trace.enabled () in
  Prt.Trace.clear ();
  Prt.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      if not was then Prt.Trace.disable ();
      Prt.Trace.clear ())
    (fun () ->
      let labels = [ "first"; "second"; "third" ] in
      let outs =
        Finch_serve.Scheduler.run_all
          (Finch_serve.Scheduler.create ())
          [ tiny ~backend:gpu1 ~label:"first" ();
            tiny ~backend:gpu1 ~nx:9 ~label:"second" ();
            tiny ~backend:gpu1 ~label:"third" () ]
      in
      check_int "all three completed" 3
        (List.length
           (List.filter
              (function Finch_serve.Scheduler.Completed _ -> true | _ -> false)
              outs));
      (* each solve leaves one span on the serve track, named after the
         request's label *)
      let solved =
        List.filter_map
          (fun (ev : Prt.Trace.event) ->
            if ev.Prt.Trace.ev_cat = "serve" then
              List.find_opt (Tutil.contains ev.Prt.Trace.ev_name) labels
            else None)
          (Prt.Trace.events ())
      in
      Alcotest.(check (list string)) "solved in submission order" labels solved)

(* ---------- served vs per-request solve bit-identity ---------- *)

let served_fields = [ "I"; "T"; "Io"; "beta" ]

let field_of (r : Finch.Solve_result.t) name =
  Finch.Solve.field r.Finch.Solve_result.outcome name

let completed = function
  | Finch_serve.Scheduler.Completed r -> r
  | Finch_serve.Scheduler.Rejected m -> Alcotest.failf "rejected: %s" m
  | Finch_serve.Scheduler.Timed_out _ -> Alcotest.fail "timed out"

let solved req =
  match Finch.solve req with
  | Ok c -> c
  | Error e -> Alcotest.fail (Finch.Solve_error.to_string e)

let check_same what r cold =
  List.iter
    (fun name ->
      Alcotest.(check (float 0.))
        (what ^ " " ^ name) 0.
        (Fvm.Field.max_abs_diff (field_of r name) (field_of cold name)))
    served_fields

(* scenario x {serial, cells:2, gpu} x {O0, O2}: a three-request
   temperature sweep through a scheduler that reuses scenario tables must
   produce exactly the fields a per-request Finch.solve with cold tables
   produces *)
let test_served_matches_solve () =
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
              let served =
                Finch_serve.Scheduler.run_all
                  (Finch_serve.Scheduler.create ~use_cache:true ())
                  reqs
              in
              List.iteri
                (fun i (req, out) ->
                  check_same
                    (Printf.sprintf "%s %s O%s #%d" scenario
                       (Finch.Config.target_name backend)
                       (Finch.Config.opt_level_name opt_level)
                       i)
                    (completed out) (solved req))
                (List.combine reqs served))
            [ Finch.Config.O0; Finch.Config.O2 ])
        [ Finch.Config.Cpu Finch.Config.Serial;
          Finch.Config.Cpu (Finch.Config.Cell_parallel 2);
          gpu1 ])
    [ "hotspot"; "corner" ]

(* Table reuse is each scheduler's own setting, passed to its
   preparations: a reusing and a fresh scheduler drained alternately in
   one process both return exactly Finch.solve's fields; the reusing one
   builds no tables for a temperature it has seen, the fresh one builds
   them every time, and a Finch.solve after a reusing drain builds fresh
   ones ([bte.table_builds] counts every construction). *)
let test_schedulers_own_table_reuse () =
  Prt.Metrics.enable ();
  Fun.protect ~finally:Prt.Metrics.disable @@ fun () ->
  let builds = Prt.Metrics.counter "bte.table_builds" in
  let reuse = Finch_serve.Scheduler.create ~use_cache:true () in
  let fresh = Finch_serve.Scheduler.create ~use_cache:false () in
  let drained sched req =
    let b0 = Prt.Metrics.value builds in
    let tk = Finch_serve.Scheduler.submit sched req in
    Finch_serve.Scheduler.drain sched;
    match Finch_serve.Scheduler.outcome tk with
    | Some out -> completed out, Prt.Metrics.value builds - b0
    | None -> Alcotest.fail "the drain did not resolve the ticket"
  in
  List.iteri
    (fun i t_hot ->
      let req = tiny ~backend:gpu1 ~t_hot ~label:(Printf.sprintf "a%d" i) () in
      let r_reuse, b_reuse = drained reuse req in
      let r_fresh, b_fresh = drained fresh req in
      let b0 = Prt.Metrics.value builds in
      let cold = solved req in
      let b_solve = Prt.Metrics.value builds - b0 in
      let what = Printf.sprintf "#%d (%g K)" i t_hot in
      check_same (what ^ " reusing") r_reuse cold;
      check_same (what ^ " fresh") r_fresh cold;
      if i >= 2 then
        Alcotest.(check int) (what ^ ": a seen temperature reuses") 0 b_reuse;
      Alcotest.(check int) (what ^ ": the fresh scheduler builds") 1 b_fresh;
      Alcotest.(check int) (what ^ ": Finch.solve builds fresh tables") 1 b_solve)
    [ 361.; 366.; 361.; 366. ]

let suite =
  ( "serve",
    [
      QCheck_alcotest.to_alcotest prop_json_roundtrip;
      Alcotest.test_case "request JSON defaults" `Quick test_json_defaults;
      Alcotest.test_case "request JSON rejects" `Quick test_json_rejects;
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
      Alcotest.test_case "drain runs in submission order" `Quick
        test_drain_fifo;
      Alcotest.test_case "served results equal Finch.solve (matrix)" `Quick
        test_served_matches_solve;
      Alcotest.test_case "schedulers keep their own table reuse" `Quick
        test_schedulers_own_table_reuse;
    ] )
