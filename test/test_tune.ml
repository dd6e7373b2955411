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

let arb_target =
  let open QCheck.Gen in
  let gen =
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
  in
  QCheck.make ~print:Finch.Config.target_name gen

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
    ] )
