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

(* ---------- the stage cache ---------- *)

let cval name = Prt.Metrics.value (Prt.Metrics.counter name)

(* counter deltas over [f ()]: stage hits, misses, evictions, table
   builds and face stagings *)
type counts = { hits : int; misses : int; evictions : int; builds : int; stagings : int }

let counted f =
  let names =
    [ "stage.hits"; "stage.misses"; "stage.evictions"; "bte.table_builds";
      "lower.face_stagings" ]
  in
  let before = List.map cval names in
  let x = f () in
  match List.map2 (fun n b -> cval n - b) names before with
  | [ hits; misses; evictions; builds; stagings ] ->
    x, { hits; misses; evictions; builds; stagings }
  | _ -> assert false

let with_metrics f =
  Prt.Metrics.enable ();
  Fun.protect ~finally:Prt.Metrics.disable f

(* A warm request through one cache equals a fresh solve at exact zero,
   on every executor shape and both evaluators, and builds nothing its
   temperature does not change: its four entries (tables, mesh,
   equation, face tables) hit. *)
let test_cache_hit_equals_fresh () =
  Finch_codegen.Codegen.install ();
  with_metrics @@ fun () ->
  let targets =
    [ "serial"; "cells:2"; "threads:2"; "bands:2"; "gpu:a6000" ]
  in
  List.iter
    (fun spec ->
      List.iter
        (fun eval_mode ->
          let backend =
            match Finch.Config.target_of_string spec with
            | Ok t -> t
            | Error m -> Alcotest.fail m
          in
          let req =
            { (tiny ~backend ~t_hot:358. ()) with Finch.Solve_request.eval_mode }
          in
          let what =
            Printf.sprintf "%s %s" spec (Finch.Config.eval_mode_name eval_mode)
          in
          let cache = Finch.Stage_cache.create () in
          let through () =
            match Finch.solve ~cache req with
            | Ok r -> r
            | Error e -> Alcotest.fail (Finch.Solve_error.to_string e)
          in
          let cold, n = counted through in
          check_int (what ^ ": cold misses") 4 n.misses;
          let warm, n = counted through in
          check_int (what ^ ": warm hits") 4 n.hits;
          check_int (what ^ ": warm misses") 0 n.misses;
          check_int (what ^ ": warm stagings") 0 n.stagings;
          check_int (what ^ ": warm table builds") 0 n.builds;
          let fresh = solved req in
          check_same (what ^ " cold") cold fresh;
          check_same (what ^ " warm") warm fresh)
        [ Finch.Config.Closure; Finch.Config.Native ])
    targets

let prepare_solve cache req =
  counted (fun () ->
      match Finch.prepare ~cache req with
      | Error e -> Alcotest.fail (Finch.Solve_error.to_string e)
      | Ok prep -> (
        match Finch.solve_prepared req prep with
        | Ok r -> r
        | Error e -> Alcotest.fail (Finch.Solve_error.to_string e)))

(* Each key holds every value its builder reads: a new temperature
   misses only the tables, and each other change misses what it reads. *)
let test_cache_keys () =
  with_metrics @@ fun () ->
  let cache = Finch.Stage_cache.create () in
  let run req = snd (prepare_solve cache req) in
  let base = tiny ~t_hot:360. () in
  let n = run base in
  check_int "first: four misses" 4 n.misses;
  check_int "first: one staging" 1 n.stagings;
  let n = run { base with Finch.Solve_request.t_hot = Some 370. } in
  check_int "new temperature: the tables miss" 1 n.misses;
  check_int "new temperature: one table build" 1 n.builds;
  check_int "new temperature: mesh, equation and faces hit" 3 n.hits;
  check_int "new temperature: no staging" 0 n.stagings;
  (* another ndirs: new Sx/Sy values and extents, same mesh *)
  let n = run { base with Finch.Solve_request.ndirs = 8 } in
  check_int "ndirs: only the mesh hits" 1 n.hits;
  check_int "ndirs: faces staged" 1 n.stagings;
  (* corner: the same nx/ny on another lx/ly *)
  let n = run (tiny ~scenario:"corner" ~t_hot:360. ()) in
  check_int "corner: the equation hits, the mesh does not" 1 n.hits;
  check_int "corner: faces staged" 1 n.stagings;
  let n = run base in
  check_int "hotspot again: every entry hits" 4 n.hits

(* a problem the tests build by hand: du/dt = -surface(flux) on a mesh
   the cache may hold *)
let hand_problem ?cache ?mesh ?(cx = Finch.Entity.Const 1.) ~dt flux =
  let p = Finch.Problem.init "hand" in
  Finch.Problem.domain p 2;
  let mesh =
    match mesh with
    | Some m -> m
    | None -> Fvm.Mesh_gen.rectangle ~nx:4 ~ny:3 ~lx:1. ~ly:1. ()
  in
  Finch.Problem.set_mesh p mesh;
  Finch.Problem.set_steps p ~dt ~nsteps:2;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"cx" cx in
  let _ = Finch.Problem.coefficient p ~name:"cy" (Finch.Entity.Const 0.5) in
  Finch.Problem.initial p u (Finch.Problem.Init_fn (fun x _ -> x.(0) +. x.(1)));
  let eq = Finch.Problem.conservation_form ?cache p u ("-surface(" ^ flux ^ ")") in
  p, eq

let held_mesh cache =
  Finch.Stage_cache.find (Some cache) Finch.Stage_cache.mesh
    (fun _ -> Some "hand-4x3")
    (fun () -> Fvm.Mesh_gen.rectangle ~nx:4 ~ny:3 ~lx:1. ~ly:1. ())

let stagings_of cache p =
  (snd (counted (fun () -> ignore (Finch.Solve.solve ~cache p)))).stagings

let test_cache_misses_and_never () =
  with_metrics @@ fun () ->
  let cache = Finch.Stage_cache.create () in
  let mesh = held_mesh cache in
  let upwind = "upwind([cx;cy], u)" and timed = "dt*upwind([cx;cy], u)" in
  let stagings ?cx ?(mesh = mesh) ~dt flux =
    stagings_of cache (fst (hand_problem ~cache ~mesh ?cx ~dt flux))
  in
  check_int "first staging" 1 (stagings ~dt:0.01 upwind);
  check_int "a dt-free integrand hits at another dt" 0 (stagings ~dt:0.02 upwind);
  check_int "an integrand reading dt: first dt" 1 (stagings ~dt:0.01 timed);
  check_int "an integrand reading dt: same dt hits" 0 (stagings ~dt:0.01 timed);
  check_int "an integrand reading dt: another dt misses" 1 (stagings ~dt:0.02 timed);
  check_int "another coefficient value misses" 1
    (stagings ~cx:(Finch.Entity.Const 2.) ~dt:0.01 upwind);
  (* never cached: a function coefficient, a mesh the cache does not hold *)
  let fn = Finch.Entity.Space_fn (fun x -> 1. +. x.(0)) in
  let p, _ = hand_problem ~cache ~mesh ~cx:fn ~dt:0.01 upwind in
  check_bool "a function coefficient has no key" true (Finch.Lower.stage_key p = None);
  let _, n = counted (fun () -> ignore (Finch.Solve.solve ~cache p)) in
  check_int "function coefficient: staged" 1 n.stagings;
  check_int "function coefficient: no face entry" 0 (n.hits + n.misses);
  check_int "function coefficient: staged again" 1 (stagings_of cache p);
  let own = Fvm.Mesh_gen.rectangle ~nx:4 ~ny:3 ~lx:1. ~ly:1. () in
  let p, _ = hand_problem ~cache ~mesh:own ~dt:0.01 upwind in
  let _, n = counted (fun () -> ignore (Finch.Solve.solve ~cache p)) in
  check_int "own mesh: staged" 1 n.stagings;
  check_int "own mesh: no face entry" 0 (n.hits + n.misses);
  check_int "own mesh: staged again" 1 (stagings_of cache p);
  (* a cached result equals a fresh one *)
  let p, _ = hand_problem ~cache ~mesh ~dt:0.01 timed in
  let fresh, _ = hand_problem ~dt:0.01 timed in
  Alcotest.(check (float 0.)) "cached faces: same u" 0.
    (Fvm.Field.max_abs_diff (Finch.Solve.solve ~cache p).Finch.Solve.u
       (Finch.Solve.solve fresh).Finch.Solve.u)

(* a redefined operator misses the transformed equation *)
let test_cache_operator_generation () =
  let cache = Finch.Stage_cache.create () in
  let mesh = held_mesh cache in
  let eq () = snd (hand_problem ~cache ~mesh ~dt:0.01 "myflux([cx;cy], u)") in
  (* a name no other test expands *)
  Finch.Operators.define "myflux" Finch.Operators.upwind;
  let first = eq () in
  check_bool "same generation: a hit" true (eq () == first);
  Finch.Operators.define "myflux" Finch.Operators.central;
  let second = eq () in
  check_bool "after define: a miss" true (second != first);
  check_bool "after define: the new expansion" false
    (Finch_symbolic.Expr.equal first.Finch.Transform.rsurf
       second.Finch.Transform.rsurf)

let test_cache_evicts_lru () =
  with_metrics @@ fun () ->
  let cache = Finch.Stage_cache.create () in
  let k : int Finch.Stage_cache.kind = Finch.Stage_cache.kind () in
  let get i = Finch.Stage_cache.find (Some cache) k (fun _ -> Some (string_of_int i)) (fun () -> i) in
  let cap = Finch.Stage_cache.capacity in
  let _, n = counted (fun () -> for i = 0 to cap - 1 do ignore (get i) done) in
  check_int "fills to capacity" cap n.misses;
  check_int "no eviction below capacity" 0 n.evictions;
  let _, n = counted (fun () -> get 0) in
  check_int "entry 0 hits, now most recent" 1 n.hits;
  let _, n = counted (fun () -> get cap) in
  check_int "one past capacity evicts" 1 n.evictions;
  let _, n = counted (fun () -> get 0) in
  check_int "the recently used entry stays" 1 n.hits;
  let _, n = counted (fun () -> get 1) in
  check_int "the least recently used went" 1 n.misses;
  (* another kind never meets this one's entries *)
  let k' : int Finch.Stage_cache.kind = Finch.Stage_cache.kind () in
  check_int "kinds are apart" (-1)
    (Finch.Stage_cache.find (Some cache) k' (fun _ -> Some "0") (fun () -> -1))

(* Each scheduler owns its cache, or none: a caching and a cache-less
   scheduler drained alternately in one process both return exactly
   Finch.solve's fields.  After the first request of the shape the
   caching one stages no face tables, and for a temperature it has seen
   it builds no tables and misses nothing; the cache-less one and a
   Finch.solve after a caching drain build and stage every time. *)
let test_schedulers_own_table_reuse () =
  with_metrics @@ fun () ->
  let reuse = Finch_serve.Scheduler.create ~use_cache:true () in
  let fresh = Finch_serve.Scheduler.create ~use_cache:false () in
  let drained sched req =
    counted (fun () ->
        let tk = Finch_serve.Scheduler.submit sched req in
        Finch_serve.Scheduler.drain sched;
        match Finch_serve.Scheduler.outcome tk with
        | Some out -> completed out
        | None -> Alcotest.fail "the drain did not resolve the ticket")
  in
  List.iteri
    (fun i t_hot ->
      let req = tiny ~backend:gpu1 ~t_hot ~label:(Printf.sprintf "a%d" i) () in
      let r_reuse, n_reuse = drained reuse req in
      let r_fresh, n_fresh = drained fresh req in
      let cold, n_solve = counted (fun () -> solved req) in
      let what = Printf.sprintf "#%d (%g K)" i t_hot in
      check_same (what ^ " reusing") r_reuse cold;
      check_same (what ^ " fresh") r_fresh cold;
      if i >= 1 then
        check_int (what ^ ": a seen shape stages nothing") 0 n_reuse.stagings;
      if i >= 2 then begin
        check_int (what ^ ": a seen temperature builds no tables") 0 n_reuse.builds;
        check_int (what ^ ": a seen temperature misses nothing") 0 n_reuse.misses
      end;
      check_int (what ^ ": the fresh scheduler builds") 1 n_fresh.builds;
      check_int (what ^ ": the fresh scheduler stages") 1 n_fresh.stagings;
      check_int (what ^ ": the fresh scheduler has no cache") 0
        (n_fresh.hits + n_fresh.misses);
      check_int (what ^ ": Finch.solve builds fresh tables") 1 n_solve.builds;
      check_int (what ^ ": Finch.solve stages") 1 n_solve.stagings)
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
      Alcotest.test_case "stage cache: a hit equals a fresh build" `Quick
        test_cache_hit_equals_fresh;
      Alcotest.test_case "stage cache: keys hold what builders read" `Quick
        test_cache_keys;
      Alcotest.test_case "stage cache: misses and uncached stagings" `Quick
        test_cache_misses_and_never;
      Alcotest.test_case "stage cache: operator redefinition misses" `Quick
        test_cache_operator_generation;
      Alcotest.test_case "stage cache: least recently used evicted" `Quick
        test_cache_evicts_lru;
    ] )
