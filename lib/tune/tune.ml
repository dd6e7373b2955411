(* Perfmodel-guided execution-plan search.  See tune.mli and
   docs/TUNER.md for the policy; the shape of the two-level decision
   cache deliberately mirrors lib/codegen's kernel cache. *)

let m_scored = Prt.Metrics.counter "tune.candidates_scored"
let m_trials = Prt.Metrics.counter "tune.measured_trials"
let m_hits = Prt.Metrics.counter "tune.cache_hits"
let m_misses = Prt.Metrics.counter "tune.cache_misses"
let m_switches = Prt.Metrics.counter "tune.plan_switches"

(* ------------------------------------------------------------------ *)
(* Machine profile.                                                    *)
(* ------------------------------------------------------------------ *)

type profile = { cores : int; gpu : string; native_ok : bool }

let profile_memo : profile option ref = ref None

let detect_profile () =
  match !profile_memo with
  | Some p -> p
  | None ->
    let native_ok =
      Sys.backend_type = Sys.Native
      && Sys.command "command -v ocamlfind > /dev/null 2>&1" = 0
    in
    let p =
      {
        cores = max 1 (Domain.recommended_domain_count ());
        gpu = String.lowercase_ascii Gpu_sim.Spec.a6000.Gpu_sim.Spec.name;
        native_ok;
      }
    in
    profile_memo := Some p;
    p

let profile_digest p =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "cores=%d;gpu=%s;native=%b" p.cores p.gpu p.native_ok))

(* ------------------------------------------------------------------ *)
(* Candidate enumeration: every plan the profile and the problem shape *)
(* structurally admit.  Bounded by construction, not truncation.       *)
(* ------------------------------------------------------------------ *)

(* resolved shape of a request (TA bands materialize on top of the LA
   count, exactly as Perfmodel.shape_of_scenario derives it) *)
let shape_of_request (req : Finch.Solve_request.t) : Bte.Perfmodel.shape =
  let disp = Bte.Dispersion.make ~n_la:req.Finch.Solve_request.nbands in
  {
    Bte.Perfmodel.ncells = req.Finch.Solve_request.nx * req.Finch.Solve_request.ny;
    ndirs = req.Finch.Solve_request.ndirs;
    nbands = Bte.Dispersion.nbands disp;
    nsteps = req.Finch.Solve_request.nsteps;
    boundary_faces = 2 * (req.Finch.Solve_request.nx + req.Finch.Solve_request.ny);
  }

let dedupe_ints xs =
  List.sort_uniq compare xs

let targets_of profile (shape : Bte.Perfmodel.shape) =
  let nb = shape.Bte.Perfmodel.nbands in
  let nc = shape.Bte.Perfmodel.ncells in
  let cpu s = Finch.Config.Cpu s in
  let threads =
    dedupe_ints [ 2; profile.cores ]
    (* never oversubscribe: a pool wider than the host's cores only adds
       contention, so single-core profiles offer no threaded plan *)
    |> List.filter (fun n -> n >= 2 && n <= profile.cores && n <= nc)
    |> List.map (fun n -> cpu (Finch.Config.Threaded n))
  in
  let bands =
    [ 2; 4 ]
    |> List.filter (fun n -> n <= nb)
    |> List.map (fun n -> cpu (Finch.Config.Band_parallel n))
  in
  let cells =
    [ 2; 4 ]
    |> List.filter (fun n -> n <= nc)
    |> List.map (fun n -> cpu (Finch.Config.Cell_parallel n))
  in
  let hybrid =
    if profile.cores >= 4 && nb >= 2 && nc >= 2 then
      [ cpu (Finch.Config.Hybrid (2, 2)) ]
    else []
  in
  let spec =
    try Gpu_sim.Spec.by_name profile.gpu
    with Invalid_argument _ -> Gpu_sim.Spec.a6000
  in
  let gpu devices ranks = Finch.Config.Gpu { spec; devices; ranks } in
  let gpus =
    [ gpu 1 1 ]
    @ (if nb >= 2 then [ gpu 1 2 ] else [])
    @ (if nc >= 2 then [ gpu 2 1 ] else [])
    @ if nb >= 2 && nc >= 2 then [ gpu 2 2 ] else []
  in
  (cpu Finch.Config.Serial :: threads) @ bands @ cells @ hybrid @ gpus

let is_cpu = function Finch.Config.Cpu _ -> true | _ -> false

(* overlap only where an executor has a nonblocking path to hide: the
   cell-parallel halo exchange and the GPU transfer/frontier streams *)
let overlap_capable = function
  | Finch.Config.Cpu (Finch.Config.Cell_parallel n) -> n > 1
  | Finch.Config.Gpu _ -> true
  | Finch.Config.Cpu _ | Finch.Config.Auto -> false

let candidates ?profile (req : Finch.Solve_request.t) =
  let profile = match profile with Some p -> p | None -> detect_profile () in
  let shape = shape_of_request req in
  targets_of profile shape
  |> List.concat_map (fun target ->
         let evals =
           Finch.Config.Closure
           :: (if profile.native_ok && is_cpu target then
                 [ Finch.Config.Native ]
               else [])
         in
         let overlaps = false :: (if overlap_capable target then [ true ] else []) in
         List.concat_map
           (fun opt_level ->
             List.concat_map
               (fun eval_mode ->
                 List.map
                   (fun overlap ->
                     Plan.make ~opt_level ~eval_mode ~overlap target)
                   overlaps)
               evals)
           [ Finch.Config.O0; Finch.Config.O2 ])

(* ------------------------------------------------------------------ *)
(* Scoring: Perfmodel runtime plus the knobs the model is blind to.    *)
(* ------------------------------------------------------------------ *)

(* how much faster the generated kernel sweeps the intensity DOFs than
   the closure interpreter (the boundary callbacks stay host OCaml either
   way): BENCH_cpu.json's serial_native_sweep_speedup read 3.35 when this
   was set and about 1.9 since the interpreter reuses lane groups.  Kept
   at 3 until a host calibration prices both evaluators: moving it alone
   could move the plans the tuner picks. *)
let native_sweep_speedup = 3.0

(* per-dispatch overheads separating the optimizer levels: O0 pays one
   pool region / kernel launch per band loop, O2's fused+batched
   schedule pays O(1) per step.  Values are coarse but only their
   ordering matters to the ranking. *)
let launch_overhead_s = 5e-6
let region_overhead_s = 10e-6

(* fraction of the exchange the double-buffered paths actually hide
   (the frontier still synchronizes once per step) *)
let overlap_hide_fraction = 0.8

let strategy_of_target = function
  | Finch.Config.Cpu Finch.Config.Serial -> Bte.Perfmodel.Serial
  | Finch.Config.Cpu (Finch.Config.Threaded n) -> Bte.Perfmodel.Threads n
  | Finch.Config.Cpu (Finch.Config.Band_parallel n) -> Bte.Perfmodel.Bands n
  | Finch.Config.Cpu (Finch.Config.Cell_parallel n) -> Bte.Perfmodel.Cells n
  | Finch.Config.Cpu (Finch.Config.Hybrid (r, d)) -> Bte.Perfmodel.Hybrid (r, d)
  | Finch.Config.Gpu { devices; ranks; _ } ->
    Bte.Perfmodel.Gpu_grid (devices, ranks)
  | Finch.Config.Auto -> invalid_arg "Tune: unresolved auto target"

let dispatch_overhead (shape : Bte.Perfmodel.shape) (p : Plan.t) =
  let nb = float_of_int shape.Bte.Perfmodel.nbands in
  let per_step =
    match p.Plan.target, p.Plan.opt_level with
    | Finch.Config.Gpu _, Finch.Config.O0 -> launch_overhead_s *. nb
    | Finch.Config.Gpu _, Finch.Config.O2 -> launch_overhead_s
    | Finch.Config.Cpu (Finch.Config.Threaded _ | Finch.Config.Hybrid _),
      Finch.Config.O0 ->
      region_overhead_s *. 2. *. nb
    | Finch.Config.Cpu (Finch.Config.Threaded _ | Finch.Config.Hybrid _), _ ->
      region_overhead_s *. 2.
    (* serial/SPMD closures: negligible, but a per-band epsilon keeps
       the O0-vs-O2 ranking deterministic instead of a float tie *)
    | Finch.Config.Cpu _, Finch.Config.O0 -> 1e-9 *. nb
    | Finch.Config.Cpu _, _ -> 1e-9
    | Finch.Config.Auto, _ -> 0.
  in
  per_step *. float_of_int shape.Bte.Perfmodel.nsteps

let predict_shape (shape : Bte.Perfmodel.shape) (p : Plan.t) =
  let calib =
    match p.Plan.eval_mode, p.Plan.target with
    | Finch.Config.Native, Finch.Config.Cpu _ ->
      {
        Bte.Perfmodel.default with
        Bte.Perfmodel.dsl_dof_time =
          Bte.Perfmodel.default.Bte.Perfmodel.dsl_dof_time
          /. native_sweep_speedup;
      }
    | _ -> Bte.Perfmodel.default
  in
  let strategy = strategy_of_target p.Plan.target in
  let base = Bte.Perfmodel.run_time ~calib ~shape strategy in
  let hidden =
    if not p.Plan.overlap then 0.
    else
      match p.Plan.target with
      | Finch.Config.Cpu (Finch.Config.Cell_parallel n) when n > 1 ->
        let om = Bte.Perfmodel.cells_overlap ~calib ~shape ~p:n () in
        om.Bte.Perfmodel.hidden *. float_of_int shape.Bte.Perfmodel.nsteps
      | Finch.Config.Gpu _ ->
        let b = Bte.Perfmodel.run_breakdown ~calib ~shape strategy in
        overlap_hide_fraction
        *. min b.Prt.Breakdown.communication b.Prt.Breakdown.intensity
      | _ -> 0.
  in
  Float.max 0. (base -. hidden) +. dispatch_overhead shape p

let predict (req : Finch.Solve_request.t) (p : Plan.t) =
  match predict_shape (shape_of_request req) p with
  | t -> t
  | exception Invalid_argument _ -> infinity

(* ------------------------------------------------------------------ *)
(* Candidate table: scored, deterministically ranked.                  *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Scored
  | Legal
  | Rejected of string
  | Unpredictable of string

type candidate = {
  cd_plan : Plan.t;
  cd_predicted_s : float;
  cd_verdict : verdict;
  cd_measured_s : float option;
}

type origin = Computed | Memory_hit | Disk_hit

type decision = {
  dc_plan : Plan.t;
  dc_predicted_s : float;
  dc_measured_s : float option;
  dc_candidates : candidate list;
  dc_origin : origin;
  dc_key : string;
}

let opt_rank = function Finch.Config.O2 -> 0 | Finch.Config.O0 -> 1

(* ranking: modelled seconds, then (on exact float ties) prefer the
   higher opt level, the sync schedule and the lexicographic name — a
   total order, so the choice is reproducible run to run *)
let compare_candidates a b =
  match compare a.cd_predicted_s b.cd_predicted_s with
  | 0 -> (
    match compare (opt_rank a.cd_plan.Plan.opt_level) (opt_rank b.cd_plan.Plan.opt_level) with
    | 0 -> (
      match Bool.compare a.cd_plan.Plan.overlap b.cd_plan.Plan.overlap with
      | 0 -> compare (Plan.name a.cd_plan) (Plan.name b.cd_plan)
      | c -> c)
    | c -> c)
  | c -> c

let score_all profile req =
  let shape = shape_of_request req in
  let scored =
    List.map
      (fun p ->
        match predict_shape shape p with
        | t -> { cd_plan = p; cd_predicted_s = t; cd_verdict = Scored;
                 cd_measured_s = None }
        | exception Invalid_argument m ->
          { cd_plan = p; cd_predicted_s = infinity;
            cd_verdict = Unpredictable m; cd_measured_s = None })
      (candidates ~profile req)
  in
  Prt.Metrics.add m_scored (List.length scored);
  List.stable_sort compare_candidates scored

(* ------------------------------------------------------------------ *)
(* The analysis gate: prepare the plan's request and lint its program.  *)
(* A failing plan is discarded — the tuner never edits a program.       *)
(* ------------------------------------------------------------------ *)

let gate ?cache req (c : candidate) =
  match c.cd_verdict with
  | Unpredictable _ -> c
  | _ -> (
    match Finch.prepare ?cache (Plan.apply c.cd_plan req) with
    | Error e -> { c with cd_verdict = Rejected (Finch.Solve_error.to_string e) }
    | Ok prep -> (
      match Finch_analysis.Driver.check_problem prep.Finch.pr_problem with
      | rep ->
        if rep.Finch_analysis.Driver.errors > 0 then
          { c with
            cd_verdict =
              Rejected
                (Printf.sprintf "analysis found %d error(s)"
                   rep.Finch_analysis.Driver.errors) }
        else { c with cd_verdict = Legal }
      | exception e ->
        { c with cd_verdict = Rejected (Printexc.to_string e) }))

(* ------------------------------------------------------------------ *)
(* Measured refinement: short calibration runs on the real executors.   *)
(* ------------------------------------------------------------------ *)

let measure_once ?cache ~steps req (c : candidate) =
  let treq = Plan.apply c.cd_plan req in
  let treq =
    { treq with
      Finch.Solve_request.nsteps = min steps treq.Finch.Solve_request.nsteps;
      deadline_s = None;
      label = Some "tune-trial" }
  in
  Prt.Metrics.incr m_trials;
  match Finch.solve ?cache treq with
  | Ok res -> Some res.Finch.Solve_result.wall_s
  | Error _ -> None

(* trial rounds interleave across the shortlist (one solve per candidate
   per round) so clock drift — warmup, frequency scaling, cache state —
   biases no candidate; each candidate keeps its best trial *)
let measure_shortlist ?cache ~steps ~trials req gated =
  let arr = Array.of_list gated in
  let best = Array.make (Array.length arr) infinity in
  for _ = 1 to max 1 trials do
    Array.iteri
      (fun i c ->
        match c.cd_verdict with
        | Legal -> (
          match measure_once ?cache ~steps req c with
          | Some w -> best.(i) <- Float.min best.(i) w
          | None -> ())
        | _ -> ())
      arr
  done;
  Array.to_list
    (Array.mapi
       (fun i c ->
         if best.(i) = infinity then c
         else { c with cd_measured_s = Some best.(i) })
       arr)

(* measured walls within this factor of the minimum count as ties
   broken by the deterministic model ranking.  Kept tight: wall-clock
   noise is one-sided (scheduling delays only add time), so best-trial
   minima converge to the true floors and a wider window would hand a
   systematically slower plan the win whenever the model prefers it *)
let measured_tie = 1.005

(* ------------------------------------------------------------------ *)
(* Two-level decision cache (mirrors the codegen kernel cache).         *)
(* ------------------------------------------------------------------ *)

let cache_dir_override : string option ref = ref None
let set_cache_dir d = cache_dir_override := Some d

let cache_dir () =
  match !cache_dir_override with
  | Some d -> d
  | None -> (
    match Sys.getenv_opt "FINCH_TUNE_CACHE_DIR" with
    | Some d -> d
    | None ->
      Filename.concat (Sys.getcwd ()) (Filename.concat "_build" "finch_tune"))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let memo : (string, Plan.t * float) Hashtbl.t = Hashtbl.create 8

let clear_memo () =
  Hashtbl.reset memo;
  Finch.clear_program_digests ()

let entry_path key = Filename.concat (cache_dir ()) ("tune_" ^ key ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

(* an entry that cannot be read (missing, unreadable, a directory) is a
   miss, as a corrupt one is *)
let disk_load key =
  match read_file (entry_path key) with
  | exception (Sys_error _ | End_of_file) -> None
  | text -> (
    match Finch.Json.of_string text with
    | Error _ -> None
    | Ok j -> (
      match Finch.Json.member "plan" j with
      | None -> None
      | Some pj -> (
        match Plan.of_json pj with
        | Error _ -> None
        | Ok plan ->
          let predicted =
            match Finch.Json.member "predicted_s" j with
            | Some v -> (match Finch.Json.to_num v with Ok f -> f | Error _ -> nan)
            | None -> nan
          in
          Some (plan, predicted))))

(* a decision that cannot be written is an error naming the directory:
   the caller asked for a cache it does not get *)
let disk_store ~key ~profile (plan : Plan.t) predicted =
  let j =
    Finch.Json.Obj
      [
        "key", Finch.Json.Str key;
        "plan", Plan.to_json plan;
        "predicted_s", Finch.Json.Num predicted;
        "profile", Finch.Json.Str (profile_digest profile);
      ]
  in
  let dir = cache_dir () in
  let fail reason =
    Error
      (Printf.sprintf "tune: cannot write the decision cache in %s: %s" dir
         reason)
  in
  match
    mkdir_p dir;
    write_file (entry_path key) (Finch.Json.to_string ~indent:2 j ^ "\n")
  with
  | () -> Ok ()
  | exception Sys_error m -> fail m
  | exception Unix.Unix_error (e, _, _) -> fail (Unix.error_message e)

(* the problem's identity independent of any backend choice: the naive
   program text of a canonical serial preparation (value-independent:
   coefficients appear by name; memoized by [Finch.program_digest]) plus
   the full grid shape *)
let cache_key ?(measure_steps = 0) ?cache ~profile
    (req : Finch.Solve_request.t) =
  let canonical = Plan.apply (Plan.make (Finch.Config.Cpu Finch.Config.Serial)) req in
  match Finch.program_digest ?cache canonical with
  | Error e -> Error (Finch.Solve_error.to_string e)
  | Ok program ->
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
    Ok
      (Digest.to_hex
         (Digest.string
            (String.concat "|"
               [ program; dims; profile_digest profile; mode ])))

(* ------------------------------------------------------------------ *)
(* The planner.                                                        *)
(* ------------------------------------------------------------------ *)

let choose ?cache ~shortlist ~measure_steps ~measure_trials req scored =
  (* walk the ranking, gating candidates until [shortlist] are legal or
     the table is exhausted; rejected candidates stay in the table with
     their verdicts for the explain output *)
  let legal = ref 0 in
  let gated =
    List.map
      (fun c ->
        if !legal >= shortlist then c
        else
          let c = gate ?cache req c in
          (match c.cd_verdict with Legal -> incr legal | _ -> ());
          c)
      scored
  in
  let refined =
    if measure_steps > 0 then
      measure_shortlist ?cache ~steps:measure_steps ~trials:measure_trials
        req gated
    else gated
  in
  let winner =
    if measure_steps > 0 then begin
      (* measured minimum among the survivors; anything within
         [measured_tie] of it counts as tied and the first such
         candidate in model-ranking order wins *)
      let best =
        List.fold_left
          (fun acc c ->
            match c.cd_verdict, c.cd_measured_s with
            | Legal, Some m -> Float.min acc m
            | _ -> acc)
          infinity refined
      in
      if best = infinity then
        List.find_opt (fun c -> c.cd_verdict = Legal) refined
      else
        List.find_opt
          (fun c ->
            match c.cd_verdict, c.cd_measured_s with
            | Legal, Some m -> m <= measured_tie *. best
            | _ -> false)
          refined
    end
    else List.find_opt (fun c -> c.cd_verdict = Legal) refined
  in
  winner, refined

let plan ?profile ?(shortlist = 4) ?(measure_steps = 0)
    ?(measure_trials = 1) ?(force = false) ?cache
    (req : Finch.Solve_request.t) =
  let profile = match profile with Some p -> p | None -> detect_profile () in
  Prt.Trace.span ~cat:"tune" Prt.Trace.main "tune:plan" (fun () ->
      match
        Prt.Trace.span ~cat:"tune" Prt.Trace.main "tune:key" (fun () ->
            cache_key ~measure_steps ?cache ~profile req)
      with
      | Error e -> Error e
      | Ok key -> (
        let cached =
          if force then None
          else
            match Hashtbl.find_opt memo key with
            | Some (p, t) -> Some (p, t, Memory_hit)
            | None -> (
              match disk_load key with
              | Some (p, t) -> Some (p, t, Disk_hit)
              | None -> None)
        in
        match cached with
        | Some (p, t, origin) ->
          Prt.Metrics.incr m_hits;
          Hashtbl.replace memo key (p, t);
          Ok
            { dc_plan = p; dc_predicted_s = t; dc_measured_s = None;
              dc_candidates = []; dc_origin = origin; dc_key = key }
        | None ->
          Prt.Metrics.incr m_misses;
          let scored = score_all profile req in
          let winner, table =
            choose ?cache ~shortlist ~measure_steps ~measure_trials req
              scored
          in
          (match winner with
           | None -> Error "tune: no candidate plan survived the analysis gate"
           | Some w ->
             (* a recorded decision that changes on recompute is a plan
                switch (profile drift, measurement noise, model change) *)
             (match disk_load key with
              | Some (prev, _) when not (Plan.equal prev w.cd_plan) ->
                Prt.Metrics.incr m_switches
              | _ -> ());
             Result.map
               (fun () ->
                 Hashtbl.replace memo key (w.cd_plan, w.cd_predicted_s);
                 { dc_plan = w.cd_plan;
                   dc_predicted_s = w.cd_predicted_s;
                   dc_measured_s = w.cd_measured_s;
                   dc_candidates = table;
                   dc_origin = Computed;
                   dc_key = key })
               (disk_store ~key ~profile w.cd_plan w.cd_predicted_s))))

let resolve ?profile ?post_io:_ ?shortlist ?measure_steps ?measure_trials ?force
    ?cache (req : Finch.Solve_request.t) =
  match req.Finch.Solve_request.backend with
  | Finch.Config.Auto ->
    Result.map
      (fun d -> Plan.apply d.dc_plan req, Some d)
      (plan ?profile ?shortlist ?measure_steps ?measure_trials ?force
         ?cache req)
  | Finch.Config.Cpu _ | Finch.Config.Gpu _ -> Ok (req, None)
