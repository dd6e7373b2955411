(* Autotuner tests: the backend-spec grammar round-trip (property, the
   full target grammar including GxR grids and 1xR canonicalization),
   plan JSON/apply semantics, tuner determinism on a fixed profile,
   safety of every emitted plan through the analysis gate, the
   two-level decision cache (memory hit, disk hit, tune.cache_hits),
   and the compile-cost separation the bench hygiene relies on. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let () = Bte.Setup.register_scenarios ()

let with_metrics f =
  let was = Prt.Metrics.enabled () in
  Prt.Metrics.enable ();
  Fun.protect ~finally:(fun () -> if not was then Prt.Metrics.disable ()) f

let cval name = Prt.Metrics.value (Prt.Metrics.counter name)

let tiny ?(scenario = "hotspot") ?(nx = 8) ?(nsteps = 4)
    ?(backend = Finch.Config.Auto) () =
  { (Finch.Solve_request.make scenario) with
    Finch.Solve_request.nx;
    ny = 8;
    ndirs = 4;
    nbands = 3;
    nsteps;
    backend }

(* a fixed profile so decisions don't depend on the host running the
   suite *)
let profile =
  { Finch_tune.Tune.cores = 4; gpu = "a6000"; native_ok = false }

let fresh_cache_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  d

(* ---------- backend spec grammar (property) ---------- *)

let gen_target =
  let open QCheck.Gen in
  let small = 1 -- 9 in
  oneof
    [ return Finch.Config.Auto;
      return (Finch.Config.Cpu Finch.Config.Serial);
      map (fun n -> Finch.Config.Cpu (Finch.Config.Threaded n)) small;
      map (fun n -> Finch.Config.Cpu (Finch.Config.Band_parallel n)) small;
      map (fun n -> Finch.Config.Cpu (Finch.Config.Cell_parallel n)) small;
      map2
        (fun r d -> Finch.Config.Cpu (Finch.Config.Hybrid (r, d)))
        small small;
      (let* spec = oneofl [ Gpu_sim.Spec.a6000; Gpu_sim.Spec.a100 ] in
       let* devices = small and* ranks = small in
       return (Finch.Config.Gpu { spec; devices; ranks })) ]

let arb_target = QCheck.make ~print:Finch.Config.target_name gen_target

let prop_target_round_trip =
  QCheck.Test.make ~name:"target_name / target_of_string round-trip"
    ~count:500 arb_target (fun t ->
      match Finch.Config.target_of_string (Finch.Config.target_name t) with
      | Ok t' -> t' = t
      | Error m -> QCheck.Test.fail_reportf "%s" m)

(* printing never loses information: two distinct targets never share a
   spec string (the name doubles as a cache/report key) *)
let prop_target_name_injective =
  QCheck.Test.make ~name:"distinct targets print distinct specs" ~count:500
    (QCheck.pair arb_target arb_target) (fun (a, b) ->
      a = b
      || not
           (String.equal (Finch.Config.target_name a)
              (Finch.Config.target_name b)))

let test_target_spellings () =
  let parse s =
    match Finch.Config.target_of_string s with
    | Ok t -> t
    | Error m -> Alcotest.failf "%s should parse: %s" s m
  in
  (* 1xR grids canonicalize onto the rank spelling *)
  check_string "1x4 prints as ranks" "gpu:a6000:4"
    (Finch.Config.target_name (parse "gpu:a6000:1x4"));
  check_string "2x3 grid kept" "gpu:a6000:2x3"
    (Finch.Config.target_name (parse "gpu:a6000:2x3"));
  check_string "1x1 is the bare device" "gpu:a6000"
    (Finch.Config.target_name (parse "gpu:a6000:1x1"));
  check_string "auto round-trips" "auto"
    (Finch.Config.target_name (parse "AUTO"));
  List.iter
    (fun s ->
      match Finch.Config.target_of_string s with
      | Ok _ -> Alcotest.failf "%s should not parse" s
      | Error _ -> ())
    [ "gpu:a6000:0x4"; "gpu:a6000:2x"; "gpu:nope"; "cells:0"; "autos";
      "hybrid:2"; "threads:-1"; "" ]

(* ---------- plans ---------- *)

let test_plan_basics () =
  let pl =
    Finch_tune.Plan.make ~opt_level:Finch.Config.O0 ~overlap:true
      (Finch.Config.Cpu (Finch.Config.Cell_parallel 2))
  in
  (match Finch_tune.Plan.of_json (Finch_tune.Plan.to_json pl) with
   | Ok pl' -> check_bool "json round-trip" true (Finch_tune.Plan.equal pl pl')
   | Error m -> Alcotest.fail m);
  (* the removed tape evaluator does not parse *)
  (match
     Finch_tune.Plan.of_json
       (Finch.Json.Obj
          [ "backend", Finch.Json.Str "serial"; "opt", Finch.Json.Str "2";
            "eval", Finch.Json.Str "tape"; "overlap", Finch.Json.Bool false ])
   with
   | Error m -> check_bool "tape plan: message names tape" true (Tutil.contains m "tape")
   | Ok _ -> Alcotest.fail "Plan.of_json accepted eval tape");
  (match Finch_tune.Plan.make Finch.Config.Auto with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "Plan.make must reject Auto");
  (* apply overrides the execution knobs and nothing else *)
  let req = { (tiny ()) with Finch.Solve_request.label = Some "keep" } in
  let req' = Finch_tune.Plan.apply pl req in
  check_string "backend applied" "cells:2"
    (Finch.Config.target_name req'.Finch.Solve_request.backend);
  check_bool "overlap applied" true req'.Finch.Solve_request.overlap;
  check_bool "label kept" true
    (req'.Finch.Solve_request.label = Some "keep");
  check_int "nsteps kept" req.Finch.Solve_request.nsteps
    req'.Finch.Solve_request.nsteps

(* ---------- determinism ---------- *)

let test_deterministic () =
  Finch_tune.Tune.set_cache_dir (fresh_cache_dir "finch_tune_det");
  let req = tiny () in
  let plan () =
    (* force:true skips cache reads, so both calls really search *)
    match Finch_tune.Tune.plan ~profile ~force:true req with
    | Ok d -> d
    | Error m -> Alcotest.fail m
  in
  let a = plan () and b = plan () in
  check_bool "same plan both runs" true
    (Finch_tune.Plan.equal a.Finch_tune.Tune.dc_plan
       b.Finch_tune.Tune.dc_plan);
  check_bool "same ranking both runs" true
    (List.for_all2
       (fun (x : Finch_tune.Tune.candidate) (y : Finch_tune.Tune.candidate) ->
         Finch_tune.Plan.equal x.Finch_tune.Tune.cd_plan
           y.Finch_tune.Tune.cd_plan)
       a.Finch_tune.Tune.dc_candidates b.Finch_tune.Tune.dc_candidates);
  (* the profile is part of the decision: a GPU-less single-core host
     cannot pick a pool or hybrid plan it has no cores for *)
  let one_core = { profile with Finch_tune.Tune.cores = 1 } in
  List.iter
    (fun (pl : Finch_tune.Plan.t) ->
      match pl.Finch_tune.Plan.target with
      | Finch.Config.Cpu (Finch.Config.Threaded _ | Finch.Config.Hybrid _) ->
        Alcotest.failf "1-core profile offered %s" (Finch_tune.Plan.name pl)
      | _ -> ())
    (Finch_tune.Tune.candidates ~profile:one_core req)

(* ---------- safety: emitted plans pass the analysis gate ---------- *)

let test_safe_plans () =
  Finch_tune.Tune.set_cache_dir (fresh_cache_dir "finch_tune_safe");
  List.iter
    (fun (scenario, nx) ->
      let req = tiny ~scenario ~nx () in
      match Finch_tune.Tune.plan ~profile ~force:true req with
      | Error m -> Alcotest.fail m
      | Ok d ->
        let solved = Finch_tune.Plan.apply d.Finch_tune.Tune.dc_plan req in
        check_bool "resolved backend is concrete" true
          (solved.Finch.Solve_request.backend <> Finch.Config.Auto);
        (match Finch.prepare solved with
         | Error e -> Alcotest.fail (Finch.Solve_error.to_string e)
         | Ok prep ->
           let rep =
             Finch_analysis.Driver.check_problem prep.Finch.pr_problem
           in
           check_int
             (Printf.sprintf "%s: chosen plan analyzes clean" scenario)
             0 rep.Finch_analysis.Driver.errors))
    [ "hotspot", 8; "corner", 6 ]

let test_resolve_passthrough () =
  let concrete = tiny ~backend:(Finch.Config.Cpu Finch.Config.Serial) () in
  (match Finch_tune.Tune.resolve ~profile concrete with
   | Ok (req, None) -> check_bool "untouched" true (req == concrete)
   | Ok (_, Some _) -> Alcotest.fail "concrete request must not be planned"
   | Error m -> Alcotest.fail m);
  (* prepare refuses an unresolved auto backend outright *)
  match Finch.prepare (tiny ()) with
  | Error (Finch.Solve_error.Invalid_request _) -> ()
  | Error e -> Alcotest.fail (Finch.Solve_error.to_string e)
  | Ok _ -> Alcotest.fail "prepare must reject backend=auto"

(* ---------- decision cache ---------- *)

let test_cache_hits () =
  with_metrics (fun () ->
      Finch_tune.Tune.set_cache_dir (fresh_cache_dir "finch_tune_cache");
      Finch_tune.Tune.clear_memo ();
      let req = tiny () in
      let h0 = cval "tune.cache_hits" and m0 = cval "tune.cache_misses" in
      let d1 =
        match Finch_tune.Tune.plan ~profile req with
        | Ok d -> d
        | Error m -> Alcotest.fail m
      in
      check_bool "cold: computed" true
        (d1.Finch_tune.Tune.dc_origin = Finch_tune.Tune.Computed);
      check_int "cold: one miss" (m0 + 1) (cval "tune.cache_misses");
      let d2 =
        match Finch_tune.Tune.plan ~profile req with
        | Ok d -> d
        | Error m -> Alcotest.fail m
      in
      check_bool "warm: memo hit" true
        (d2.Finch_tune.Tune.dc_origin = Finch_tune.Tune.Memory_hit);
      check_int "warm: one hit" (h0 + 1) (cval "tune.cache_hits");
      (* drop the in-process memo: the disk level must still answer *)
      Finch_tune.Tune.clear_memo ();
      let d3 =
        match Finch_tune.Tune.plan ~profile req with
        | Ok d -> d
        | Error m -> Alcotest.fail m
      in
      check_bool "disk hit after memo clear" true
        (d3.Finch_tune.Tune.dc_origin = Finch_tune.Tune.Disk_hit);
      check_bool "all levels agree" true
        (Finch_tune.Plan.equal d1.Finch_tune.Tune.dc_plan
           d3.Finch_tune.Tune.dc_plan);
      check_string "same cache key" d1.Finch_tune.Tune.dc_key
        d3.Finch_tune.Tune.dc_key;
      (* a different shape is a different decision *)
      match Finch_tune.Tune.plan ~profile (tiny ~nx:6 ()) with
      | Ok d4 ->
        check_bool "shape changes the key" true
          (d4.Finch_tune.Tune.dc_key <> d1.Finch_tune.Tune.dc_key)
      | Error m -> Alcotest.fail m)

(* a cache that cannot be used is a value, never an exception: an entry
   path that cannot be read is a miss, and a decision that cannot be
   written is an [Error] naming the directory *)
let test_cache_failures_are_values () =
  let resolve dir =
    Finch_tune.Tune.set_cache_dir dir;
    Finch_tune.Tune.clear_memo ();
    match Finch_tune.Tune.resolve ~profile (tiny ()) with
    | r -> r
    | exception e ->
      Alcotest.failf "resolve raised %s" (Printexc.to_string e)
  in
  let expect_error label dir =
    match resolve dir with
    | Ok _ -> Alcotest.failf "%s: expected an error" label
    | Error m ->
      check_bool (label ^ ": names the directory") true (Tutil.contains m dir)
  in
  Fun.protect
    ~finally:(fun () ->
      Finch_tune.Tune.set_cache_dir (fresh_cache_dir "finch_tune_cache"))
    (fun () ->
      (* the cache directory cannot be created: its parent is a file *)
      let file = Filename.temp_file "finch_tune_file" "" in
      expect_error "unwritable directory" (Filename.concat file "x");
      Sys.remove file;
      (* a directory sits where the decision's entry belongs *)
      let dir = fresh_cache_dir "finch_tune_blocked" in
      let key =
        match Finch_tune.Tune.cache_key ~profile (tiny ()) with
        | Ok k -> k
        | Error m -> Alcotest.fail m
      in
      Sys.mkdir dir 0o755;
      let entry = Filename.concat dir ("tune_" ^ key ^ ".json") in
      Sys.mkdir entry 0o755;
      expect_error "directory at the entry path" dir;
      Sys.rmdir entry;
      Sys.rmdir dir)

(* the machine profile is part of the key: a decision tuned on one host
   never leaks onto a differently-shaped one *)
let test_cache_key_profile () =
  let req = tiny () in
  let key p =
    match Finch_tune.Tune.cache_key ~profile:p req with
    | Ok k -> k
    | Error m -> Alcotest.fail m
  in
  check_bool "profile in key" true
    (key profile <> key { profile with Finch_tune.Tune.cores = 8 });
  check_string "key is stable" (key profile) (key profile)

(* ---------- the decision key: memoized, byte-identical (property) ---- *)

let key ?measure_steps ?(profile = profile) req =
  match Finch_tune.Tune.cache_key ?measure_steps ~profile req with
  | Ok k -> k
  | Error m -> Alcotest.fail m

(* the key as computed before the program digest was memoized: a fresh
   canonical serial preparation on every call *)
let formula_key ?(measure_steps = 0) ~profile (req : Finch.Solve_request.t) =
  let canonical =
    Finch_tune.Plan.apply
      (Finch_tune.Plan.make (Finch.Config.Cpu Finch.Config.Serial))
      req
  in
  match Finch.prepare canonical with
  | Error e -> Alcotest.fail (Finch.Solve_error.to_string e)
  | Ok prep ->
    let src =
      Finch.Emit_source.to_julia (Finch.Ir.build_cpu prep.Finch.pr_problem)
    in
    let dims =
      Printf.sprintf "%s|%dx%d|d%d|b%d|s%d" req.Finch.Solve_request.scenario
        req.Finch.Solve_request.nx req.Finch.Solve_request.ny
        req.Finch.Solve_request.ndirs req.Finch.Solve_request.nbands
        req.Finch.Solve_request.nsteps
    in
    let mode =
      if measure_steps > 0 then Printf.sprintf "measured:%d" measure_steps
      else "model"
    in
    Digest.to_hex
      (Digest.string
         (String.concat "|"
            [ Digest.to_hex (Digest.string src); dims;
              Finch_tune.Tune.profile_digest profile; mode ]))

let gen_shape =
  let open QCheck.Gen in
  let* scenario = oneofl [ "hotspot"; "corner" ] in
  let* nx = 2 -- 8 and* ny = 2 -- 8 and* ndirs = oneofl [ 2; 4; 8 ]
  and* nbands = 1 -- 3 and* nsteps = 1 -- 4 in
  return (Finch.Solve_request.make ~nx ~ny ~ndirs ~nbands ~nsteps scenario)

(* [shape] with random values in every field the key must ignore *)
let gen_free (shape : Finch.Solve_request.t) =
  let open QCheck.Gen in
  let* t_hot = opt (float_range 150. 400.)
  and* t_cold = opt (float_range 80. 300.)
  and* backend = gen_target
  and* opt_level = oneofl [ Finch.Config.O0; Finch.Config.O2 ]
  and* eval_mode = oneofl [ Finch.Config.Closure; Finch.Config.Native ]
  and* overlap = bool
  and* label = opt (string_size ~gen:printable (0 -- 6))
  and* deadline_s = opt (float_range 0. 10.) in
  return
    { shape with
      Finch.Solve_request.t_hot; t_cold; backend; opt_level; eval_mode;
      overlap; label; deadline_s }

(* [r] with exactly one field the key depends on changed *)
let gen_reshaped (r : Finch.Solve_request.t) =
  let open QCheck.Gen in
  let* d = 0 -- 5 in
  (* a different value of [v] among the [n] values from [lo] *)
  let shift lo n v = lo + ((v - lo + 1 + (d mod (n - 1))) mod n) in
  let dirs = [| 2; 4; 8 |] in
  let dir_index =
    match r.Finch.Solve_request.ndirs with 2 -> 0 | 4 -> 1 | _ -> 2
  in
  oneofl
    [ { r with
        Finch.Solve_request.scenario =
          (if r.Finch.Solve_request.scenario = "hotspot" then "corner"
           else "hotspot") };
      { r with Finch.Solve_request.nx = shift 2 7 r.Finch.Solve_request.nx };
      { r with Finch.Solve_request.ny = shift 2 7 r.Finch.Solve_request.ny };
      { r with Finch.Solve_request.ndirs = dirs.(shift 0 3 dir_index) };
      { r with
        Finch.Solve_request.nbands = shift 1 3 r.Finch.Solve_request.nbands };
      { r with
        Finch.Solve_request.nsteps = shift 1 4 r.Finch.Solve_request.nsteps } ]

let arb_key_case =
  let gen =
    let open QCheck.Gen in
    let* shape = gen_shape in
    let* a = gen_free shape and* b = gen_free shape in
    let* reshaped = gen_reshaped a in
    return (a, b, reshaped)
  in
  QCheck.make
    ~print:(fun (a, b, c) ->
      String.concat "\n" (List.map Finch.Solve_request.to_string [ a; b; c ]))
    gen

let prop_keys_preserved =
  QCheck.Test.make ~name:"memoized decision keys equal the formula"
    ~count:25 arb_key_case (fun (a, b, reshaped) ->
      let expect what ok = ok || QCheck.Test.fail_reportf "%s" what in
      Finch_tune.Tune.clear_memo ();
      let cold = key a in
      let warm = key a in
      let expected = formula_key ~profile a in
      expect "cold key = formula" (cold = expected)
      && expect "warm key = formula" (warm = expected)
      && expect "plan fields, label, deadline and temperatures share a key"
           (key b = cold)
      && expect "a different shape never shares a key" (key reshaped <> cold)
      && expect "a different profile never shares a key"
           (key ~profile:{ profile with Finch_tune.Tune.cores = 8 } a <> cold)
      && expect "a different refinement mode never shares a key"
           (key ~measure_steps:2 a <> cold))

(* ---------- the program digest memo ---------- *)

let probe_req ?t_hot scenario =
  Finch.Solve_request.make ~nx:4 ~ny:4 ~ndirs:2 ~nbands:1 ~nsteps:1 ?t_hot
    ~backend:Finch.Config.Auto scenario

(* run [f] with [name] registered to [build]; the name is gone after *)
let with_scenario name build f =
  Finch.register_scenario name build;
  Fun.protect ~finally:(fun () -> Hashtbl.remove Finch.scenario_registry name) f

let test_warm_resolve_builds_nothing () =
  (* hotspot's builder, counting its calls *)
  let hotspot = Hashtbl.find Finch.scenario_registry "hotspot" in
  let calls = ref 0 in
  with_scenario "probe-keys" (fun ~cache req -> incr calls; hotspot ~cache req)
  @@ fun () ->
  with_metrics @@ fun () ->
  Finch_tune.Tune.set_cache_dir (fresh_cache_dir "finch_tune_keys");
  Finch_tune.Tune.clear_memo ();
  let resolve req =
    let b0 = !calls and k0 = cval "tune.key_builds" in
    match Finch_tune.Tune.resolve ~profile req with
    | Ok (_, Some d) -> d, !calls - b0, cval "tune.key_builds" - k0
    | Ok (_, None) -> Alcotest.fail "an auto request must be planned"
    | Error m -> Alcotest.fail m
  in
  let req = probe_req "probe-keys" in
  let _, builds, keys = resolve req in
  check_int "cold: one key build" 1 keys;
  check_bool "cold: the gate prepares candidates too" true (builds > 1);
  let d, builds, keys = resolve req in
  check_bool "warm: memo hit" true
    (d.Finch_tune.Tune.dc_origin = Finch_tune.Tune.Memory_hit);
  check_int "warm: no scenario build" 0 builds;
  check_int "warm: no key build" 0 keys;
  let d, builds, keys =
    resolve { req with Finch.Solve_request.t_hot = Some 360. }
  in
  check_bool "new t_hot: still a memo hit" true
    (d.Finch_tune.Tune.dc_origin = Finch_tune.Tune.Memory_hit);
  check_int "new t_hot: one scenario build" 1 builds;
  check_int "new t_hot: one key build" 1 keys;
  (* the key's span nests in the plan's *)
  Prt.Trace.clear ();
  Prt.Trace.enable ();
  let events =
    Fun.protect
      ~finally:(fun () -> Prt.Trace.disable (); Prt.Trace.clear ())
      (fun () -> ignore (resolve req); Prt.Trace.events ())
  in
  let span name =
    match
      List.find_opt
        (fun (e : Prt.Trace.event) -> e.Prt.Trace.ev_name = name)
        events
    with
    | Some e -> e
    | None -> Alcotest.failf "no %s span" name
  in
  let p = span "tune:plan" and k = span "tune:key" in
  check_bool "tune:key inside tune:plan" true
    (k.Prt.Trace.ev_ts >= p.Prt.Trace.ev_ts
     && k.Prt.Trace.ev_ts +. k.Prt.Trace.ev_dur
        <= p.Prt.Trace.ev_ts +. p.Prt.Trace.ev_dur)

let test_key_errors_not_memoized () =
  let error req =
    match Finch_tune.Tune.resolve ~profile req with
    | Error m -> m
    | Ok _ -> Alcotest.fail "expected an error"
  in
  List.iter
    (fun (what, req) -> check_string what (error req) (error req))
    [ "unknown scenario", probe_req "no-such-scenario";
      "nx = 0", { (probe_req "hotspot") with Finch.Solve_request.nx = 0 } ];
  (* a build that failed is retried on the next call, never remembered *)
  let hotspot = Hashtbl.find Finch.scenario_registry "hotspot" in
  let attempts = ref 0 and failing = ref true in
  with_scenario "probe-flaky"
    (fun ~cache req ->
      incr attempts;
      if !failing then failwith "probe build failed" else hotspot ~cache req)
  @@ fun () ->
  let req = probe_req "probe-flaky" in
  (match
     Finch_tune.Tune.cache_key ~profile req,
     Finch_tune.Tune.cache_key ~profile req
   with
   | Error a, Error b -> check_string "same error twice" a b
   | _ -> Alcotest.fail "a failing build must be an Error");
  check_int "each failing call builds again" 2 !attempts;
  failing := false;
  check_string "recovers once the build succeeds" (formula_key ~profile req)
    (key req)

let test_key_memo_cap () =
  with_metrics @@ fun () ->
  Finch_tune.Tune.clear_memo ();
  let cap = Finch.program_digest_cap in
  let key_builds f =
    let k0 = cval "tune.key_builds" in
    f ();
    cval "tune.key_builds" - k0
  in
  let touch i = ignore (key (probe_req ~t_hot:(300. +. float_of_int i) "hotspot")) in
  let touch_range n = for i = 0 to n - 1 do touch i done in
  check_int "cap requests: one build each" cap
    (key_builds (fun () -> touch_range cap));
  check_int "all memoized at the cap" 0
    (key_builds (fun () -> touch_range cap));
  check_int "one past the cap builds" 1 (key_builds (fun () -> touch cap));
  check_int "and evicted the older entries" 1
    (key_builds (fun () -> touch 0));
  check_int "the newest survives" 0 (key_builds (fun () -> touch cap))

(* du/dt = [rhs] on the request's mesh: two [rhs] are two programs *)
let decay rhs ~cache (req : Finch.Solve_request.t) =
  let p = Finch.Problem.init "decay" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p
    (Fvm.Mesh_gen.rectangle ~nx:req.Finch.Solve_request.nx
       ~ny:req.Finch.Solve_request.ny ~lx:1. ~ly:1. ());
  Finch.Problem.set_steps p ~dt:1e-2 ~nsteps:req.Finch.Solve_request.nsteps;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.) in
  let _ = Finch.Problem.coefficient p ~name:"s" (Finch.Entity.Const 1.) in
  Finch.Problem.initial p u (Finch.Problem.Init_const 1.);
  let _ = Finch.Problem.conservation_form p u rhs in
  { Finch.pr_problem = p; pr_solution = "u"; pr_cache = cache }

let test_reregistration_drops_digests () =
  with_scenario "probe-rereg" (decay "-k*u") @@ fun () ->
  let req = probe_req "probe-rereg" in
  let before = key req in
  (* the same name now builds the program with an added source term *)
  Finch.register_scenario "probe-rereg" (decay "-k*u + s");
  let after = key req in
  check_bool "re-registration changes the key" true (before <> after);
  check_string "to the formula's" (formula_key ~profile req) after

(* ---------- bench hygiene: compile cost is one-off and visible ------- *)

let test_compile_separation () =
  if not (Finch_tune.Tune.detect_profile ()).Finch_tune.Tune.native_ok then
    ()  (* no toolchain: nothing to separate *)
  else
    with_metrics (fun () ->
        Finch_codegen.Codegen.set_cache_dir
          (fresh_cache_dir "finch_tune_codegen");
        (* earlier suites may have compiled this program: drop the
           in-process memo so the first solve is genuinely cold *)
        Finch_codegen.Codegen.clear_memo ();
        Finch_codegen.Codegen.install ();
        let req =
          { (tiny ~backend:(Finch.Config.Cpu Finch.Config.Serial) ()) with
            Finch.Solve_request.eval_mode = Finch.Config.Native }
        in
        let solve () =
          let k0 = cval "codegen.compile_ns" in
          match Finch.solve req with
          | Ok _ -> cval "codegen.compile_ns" - k0
          | Error e -> Alcotest.fail (Finch.Solve_error.to_string e)
        in
        (* cold: the native build runs and is accounted; warm: the cached
           kernel binds with zero compile time — the invariant that lets
           the bench keep compile_ns out of its best-of wall times *)
        let cold = solve () in
        let warm = solve () in
        check_bool "cold solve compiles" true (cold > 0);
        check_int "warm solve does not" 0 warm)

let suite =
  ( "tune",
    [
      QCheck_alcotest.to_alcotest prop_target_round_trip;
      QCheck_alcotest.to_alcotest prop_target_name_injective;
      Alcotest.test_case "target spec spellings" `Quick test_target_spellings;
      Alcotest.test_case "plan basics" `Quick test_plan_basics;
      Alcotest.test_case "deterministic planning" `Quick test_deterministic;
      Alcotest.test_case "emitted plans analyze clean" `Quick test_safe_plans;
      Alcotest.test_case "resolve passthrough" `Quick test_resolve_passthrough;
      Alcotest.test_case "decision cache levels" `Quick test_cache_hits;
      Alcotest.test_case "profile keys the cache" `Quick test_cache_key_profile;
      Alcotest.test_case "cache failures are values" `Quick
        test_cache_failures_are_values;
      Alcotest.test_case "compile cost separated" `Quick test_compile_separation;
      QCheck_alcotest.to_alcotest prop_keys_preserved;
      Alcotest.test_case "warm resolve builds nothing" `Quick
        test_warm_resolve_builds_nothing;
      Alcotest.test_case "key errors are not memoized" `Quick
        test_key_errors_not_memoized;
      Alcotest.test_case "key memo capped" `Quick test_key_memo_cap;
      Alcotest.test_case "re-registration drops digests" `Quick
        test_reregistration_drops_digests;
    ] )
