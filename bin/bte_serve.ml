(* Solver-service benchmark driver.

     bte_serve                 -- temperature-sweep workload over both
                                  scenarios, cold vs warm scenario
                                  tables, and a self-validated
                                  BENCH_serve.json
     bte_serve --requests 6 --backend gpu --opt 2

   The workload is kALDo-style: R requests per scenario differing only in
   the hot-spot temperature, each requested K times.  Two scheduler
   passes run the same requests and differ in one factor, the stage
   cache: the cold pass has none and builds every request's physics
   tables, mesh, equation and face tables afresh; the warm pass's
   scheduler owns one and reuses them across requests.  Each request is
   submitted and drained alone, so its latency runs from the scheduler
   picking it to its ticket resolving: preparation, the analysis gate
   and the solve.  Results must be bit-identical; the emitted JSON
   carries requests/s, p50/p95 latency, host CPU, modelled device time
   and the stage cache's hits, misses and evictions per pass, and
   validates itself. *)

open Cmdliner

let requests_t =
  Arg.(
    value & opt int 6
    & info [ "requests" ] ~docv:"N"
        ~doc:"Temperature points per scenario in the sweep (default 6).")

let scenario_t =
  Arg.(
    value
    & opt (enum [ "hotspot", `Hotspot; "corner", `Corner; "both", `Both ])
        `Both
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:"Scenario family to sweep: hotspot, corner or both.")

let backend_t =
  Arg.(
    value & opt string "gpu"
    & info [ "backend" ] ~docv:"SPEC"
        ~doc:
          "Backend every request runs on: serial, threads:N, bands:N, \
           cells:N, hybrid:RxD or gpu[:NAME].")

let opt_t =
  Arg.(
    value & opt string "2"
    & info [ "opt" ] ~docv:"LEVEL" ~doc:"IR optimization level: 0 or 2.")

let eval_t =
  Arg.(
    value
    & opt
        (enum
           [ "closure", Finch.Config.Closure; "native", Finch.Config.Native ])
        Finch.Config.Closure
    & info [ "eval" ] ~docv:"MODE"
        ~doc:"RHS evaluator: closure or native.")

let nx_t =
  Arg.(value & opt int 12 & info [ "nx" ] ~docv:"N" ~doc:"Cells per side.")

let ndirs_t =
  Arg.(value & opt int 4 & info [ "dirs" ] ~docv:"N" ~doc:"Directions.")

let nbands_t =
  Arg.(value & opt int 4 & info [ "bands" ] ~docv:"N" ~doc:"LA bands.")

let nsteps_t =
  Arg.(value & opt int 6 & info [ "steps" ] ~docv:"N" ~doc:"Time steps.")

let repeat_t =
  Arg.(
    value & opt int 3
    & info [ "repeat" ] ~docv:"K"
        ~doc:
          "Times each temperature point is requested (default 3) — service \
           traffic repeats queries, which is what the stage cache pays off \
           on.")

let json_t =
  Arg.(
    value & opt string "BENCH_serve.json"
    & info [ "json" ] ~docv:"PATH" ~doc:"Where to write the benchmark JSON.")

let trace_t =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:"Also export a Chrome trace of the warm pass.")

(* The sweep: R temperature points per scenario, each requested K times
   (interleaved, like repeated service traffic).  Temperature is a
   value-only change, so one lowered program per scenario. *)
let sweep ~scenarios ~requests ~repeat ~nx ~ndirs ~nbands ~nsteps ~backend
    ~opt_level ~eval_mode =
  List.concat_map
    (fun rep ->
      List.concat_map
        (fun scenario ->
          let base = if scenario = "corner" then 150.0 else 350.0 in
          List.init requests (fun i ->
              let t_hot =
                base
                +. 25.0 *. float_of_int i /. float_of_int (max 1 (requests - 1))
              in
              Finch.Solve_request.make ~nx ~ny:nx ~ndirs ~nbands ~nsteps ~t_hot
                ~backend ~opt_level ~eval_mode
                ~label:(Printf.sprintf "%s@%.1fK#%d" scenario t_hot rep)
                scenario))
        scenarios)
    (List.init (max 1 repeat) (fun r -> r))

let percentile p xs =
  match xs with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let idx = int_of_float (p *. float_of_int (n - 1)) in
    a.(min (n - 1) idx)

type pass = {
  label : string;
  wall_s : float;
  rps : float;
  p50_ms : float;
  p95_ms : float;
  cpu_ms : float;  (* host CPU per completed request *)
  kernel_ms : float;  (* modelled device kernel time per completed request *)
  stage : (string * int) list;  (* stage cache counters over the pass *)
  completed : int;
  results : (string * Finch.Solve_result.t) list;  (* label -> result *)
}

let counter name = Prt.Metrics.value (Prt.Metrics.counter name)

let stage_counters = [ "stage.hits"; "stage.misses"; "stage.evictions" ]

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One drain round per request: its latency runs from the scheduler
   picking it to its ticket resolving. *)
let serve_one sched req =
  let tk = Finch_serve.Scheduler.submit sched req in
  let t0 = Unix.gettimeofday () in
  Finch_serve.Scheduler.drain sched;
  let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  Finch_serve.Scheduler.outcome tk, ms

let run_pass ~label ~use_cache reqs =
  let sched = Finch_serve.Scheduler.create ~use_cache () in
  let kernel_ns0 = counter "gpu.kernel_ns" in
  let stage0 = List.map counter stage_counters in
  let cpu0 = cpu_s () in
  let t0 = Unix.gettimeofday () in
  let served = List.map (serve_one sched) reqs in
  let wall_s = Unix.gettimeofday () -. t0 in
  let cpu_used = cpu_s () -. cpu0 in
  let kernel_ns = counter "gpu.kernel_ns" - kernel_ns0 in
  let stage =
    List.map2 (fun name c0 -> name, counter name - c0) stage_counters stage0
  in
  let completed_ms =
    List.filter_map
      (fun ((req : Finch.Solve_request.t), (oc, ms)) ->
        match oc with
        | Some (Finch_serve.Scheduler.Completed r) ->
          Some
            ( ( (match req.Finch.Solve_request.label with
                 | Some l -> l
                 | None -> r.Finch.Solve_result.trace_id),
                r ),
              ms )
        | Some (Finch_serve.Scheduler.Rejected reason) ->
          Printf.eprintf "%s: request rejected: %s\n" label reason;
          None
        | Some (Finch_serve.Scheduler.Timed_out by) ->
          Printf.eprintf "%s: request timed out by %.3fs\n" label by;
          None
        | None ->
          Printf.eprintf "%s: request left unresolved by its drain\n" label;
          None)
      (List.combine reqs served)
  in
  let results = List.map fst completed_ms in
  let latencies = List.map snd completed_ms in
  let completed = List.length results in
  let per_req x = x /. float_of_int (max 1 completed) in
  { label;
    wall_s;
    rps = float_of_int completed /. wall_s;
    p50_ms = percentile 0.50 latencies;
    p95_ms = percentile 0.95 latencies;
    cpu_ms = per_req (cpu_used *. 1e3);
    kernel_ms = per_req (float_of_int kernel_ns /. 1e6);
    stage;
    completed;
    results }

let pass_json (p : pass) =
  Finch.Json.Obj
    ([ "wall_s", Finch.Json.Num p.wall_s;
      "requests_per_s", Finch.Json.Num p.rps;
      "p50_ms", Finch.Json.Num p.p50_ms;
      "p95_ms", Finch.Json.Num p.p95_ms;
      "host_cpu_ms_per_req", Finch.Json.Num p.cpu_ms;
      "kernel_ms_modelled_per_req", Finch.Json.Num p.kernel_ms;
      "completed", Finch.Json.Num (float_of_int p.completed) ]
    @ List.map
        (fun (name, v) ->
          ( String.map (fun c -> if c = '.' then '_' else c) name,
            Finch.Json.Num (float_of_int v) ))
        p.stage)

let print_pass (p : pass) =
  Printf.printf
    "  %-5s %6.2f req/s  p50 %7.1f ms  p95 %7.1f ms  host CPU %6.2f ms/req  \
     kernel %6.3f ms-model/req  %s\n%!"
    p.label p.rps p.p50_ms p.p95_ms p.cpu_ms p.kernel_ms
    (String.concat " "
       (List.map (fun (name, v) -> Printf.sprintf "%s %d" name v) p.stage))

(* largest difference over every field of two results of one request *)
let max_field_diff (a : Finch.Solve_result.t) (b : Finch.Solve_result.t) =
  List.fold_left2
    (fun acc (_, fa) (_, fb) -> Float.max acc (Fvm.Field.max_abs_diff fa fb))
    0. a.Finch.Solve_result.outcome.Finch.Solve.fields
    b.Finch.Solve_result.outcome.Finch.Solve.fields

let serve_cmd requests repeat scenario backend opt eval_mode nx ndirs nbands
    nsteps json_path trace_path =
  Bte.Setup.register_scenarios ();
  Prt.Metrics.enable ();
  let backend =
    match Finch.Config.target_of_string backend with
    | Ok t -> t
    | Error e ->
      Printf.eprintf "error: bad backend spec: %s\n" e;
      exit 2
  in
  let opt_level =
    match Finch.Config.opt_level_of_string opt with
    | Ok l -> l
    | Error e ->
      Printf.eprintf "error: %s\n" e;
      exit 2
  in
  if eval_mode = Finch.Config.Native then
    Finch_codegen.Codegen.install ();
  let scenarios =
    match scenario with
    | `Hotspot -> [ "hotspot" ]
    | `Corner -> [ "corner" ]
    | `Both -> [ "hotspot"; "corner" ]
  in
  let reqs =
    sweep ~scenarios ~requests ~repeat ~nx ~ndirs ~nbands ~nsteps ~backend
      ~opt_level ~eval_mode
  in
  Printf.printf "workload: %d requests (%s x %d temps x %d), %s\n%!"
    (List.length reqs)
    (String.concat "+" scenarios)
    requests repeat
    (Finch.Solve_request.summary (List.hd reqs));
  (* cold pass: no stage cache, every request builds everything afresh *)
  let cold = run_pass ~label:"cold" ~use_cache:false reqs in
  print_pass cold;
  (* warm pass: the same requests through a scheduler that owns a cache *)
  (match trace_path with Some _ -> Prt.Trace.enable () | None -> ());
  let warm = run_pass ~label:"warm" ~use_cache:true reqs in
  print_pass warm;
  (* bit-identity: the cache must not move any field of any request *)
  let max_diff =
    List.fold_left
      (fun acc (lbl, r) ->
        match List.assoc_opt lbl warm.results with
        | Some rw -> Float.max acc (max_field_diff r rw)
        | None -> infinity)
      0.0 cold.results
  in
  let all_completed =
    cold.completed = List.length reqs && warm.completed = List.length reqs
  in
  let validated = all_completed && max_diff = 0.0 && warm.rps > cold.rps in
  Printf.printf "  max |warm - cold| = %g;  %s\n%!" max_diff
    (if validated then "validated" else "VALIDATION FAILED");
  let j =
    Finch.Json.Obj
      [ "bench", Finch.Json.Str "serve";
        "scenarios", Finch.Json.List (List.map (fun s -> Finch.Json.Str s) scenarios);
        ( "request",
          Finch.Json.Obj
            [ "temps_per_scenario", Finch.Json.Num (float_of_int requests);
              "repeat", Finch.Json.Num (float_of_int repeat);
              "nx", Finch.Json.Num (float_of_int nx);
              "dirs", Finch.Json.Num (float_of_int ndirs);
              "bands", Finch.Json.Num (float_of_int nbands);
              "steps", Finch.Json.Num (float_of_int nsteps);
              "backend", Finch.Json.Str (Finch.Config.target_name backend);
              "opt", Finch.Json.Str (Finch.Config.opt_level_name opt_level);
              "eval", Finch.Json.Str (Finch.Config.eval_mode_name eval_mode) ] );
        "total_requests", Finch.Json.Num (float_of_int (List.length reqs));
        "cold", pass_json cold;
        "warm", pass_json warm;
        "max_abs_diff", Finch.Json.Num max_diff;
        ( "stage_cache_speedup",
          Finch.Json.Num (if cold.rps > 0.0 then warm.rps /. cold.rps else 0.0) );
        "validated", Finch.Json.Bool validated ]
  in
  let oc = open_out json_path in
  output_string oc (Finch.Json.to_string ~indent:2 j);
  output_string oc "\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" json_path;
  (match trace_path with
   | Some p ->
     Prt.Trace.write_chrome p;
     Printf.printf "wrote %s\n%!" p
   | None -> ());
  if not validated then exit 1

let () =
  let term =
    Term.(
      const serve_cmd $ requests_t $ repeat_t $ scenario_t $ backend_t $ opt_t
      $ eval_t $ nx_t $ ndirs_t $ nbands_t $ nsteps_t $ json_t $ trace_t)
  in
  let info =
    Cmd.info "bte_serve" ~version:"1.0"
      ~doc:
        "Solver service benchmark: temperature sweeps through the serve \
         scheduler without and with a stage cache, with a \
         self-validated BENCH_serve.json."
  in
  exit (Cmd.eval (Cmd.v info term))
