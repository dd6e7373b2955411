(* Benchmark executor.  Runs one workload described by a JSON spec and
   writes a raw JSON report; perfbench/run.py generates the spec from
   the seed and turns the report into metrics.

     main.exe SPEC.json

   The executor reaches the system only through its public entry
   points (Finch.prepare / Finch.solve_prepared, Finch_tune.Tune.resolve
   and predict, Finch_serve.Scheduler.submit / drain).  It times each
   call from outside and reads Prt.Metrics counters as deltas.

   Phases of one process:
     setup      scenario registration, Codegen.install, the warm-up
                requests (cold native compiles, cold tuner plans,
                program-cache fills).  setup_s runs from the spawn
                time the launcher passes in to the end of the warm-up.
     reference  one reference solve per distinct timed request, outside
                both setup_s and the timed phase.
     timed      a closed loop (one client) or an open loop (arrivals on
                a schedule, one thread submitting and draining).

   In a traced run, Prt.Trace and Prt.Metrics are on during setup and on
   every other timed unit (request or drain); the untraced units in
   between give the tracing overhead. *)

module J = Finch.Json
module Req = Finch.Solve_request
module M = Prt.Metrics
module Sched = Finch_serve.Scheduler

let now = Unix.gettimeofday

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let ok_or what = function Ok v -> v | Error e -> fail "%s: %s" what e

let member k j =
  match J.member k j with Some v -> v | None -> fail "spec: missing %S" k

let num k j = ok_or k (J.to_num (member k j))
let str k j = ok_or k (J.to_str (member k j))
let bool k j = ok_or k (J.to_bool (member k j))

let list k j =
  match member k j with J.List l -> l | _ -> fail "spec: %S is not a list" k

let req_of j = ok_or "request" (Req.of_json j)
let post_io = Bte.Setup.post_io

(* ------------------------------------------------------------------ *)
(* Tracing switch and bench-side spans.                                *)

let set_tracing on =
  if on then (Prt.Trace.enable (); M.enable ())
  else (Prt.Trace.disable (); M.disable ())

let bench_track = Prt.Trace.track "perfbench"

(* a span of request [id] *)
let span ~id name ~t0 ~t1 =
  Prt.Trace.complete bench_track ~cat:"perfbench"
    ~args:[ "trace_id", float_of_int id ]
    name ~t0 ~t1

let counter_delta before = Finch.metrics_delta before (M.counter_values ())

let obj_of_counts l = J.Obj (List.map (fun (k, v) -> k, J.Num (float_of_int v)) l)
let obj_of_floats l = J.Obj (List.map (fun (k, v) -> k, J.Num v) l)

let gc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words, s.Gc.major_collections

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM of this process, MiB; 0 where /proc is absent *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.
      | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb ->
            kb /. 1024.)
      | _ -> scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Host speed probe.  The host runs other tenants on the same physical
   cores, and while one is busy this process runs up to 2x slower for
   seconds to minutes; process CPU time grows with it.  The slowdown
   hits code that issues independent operations (the solver, the
   front end) and barely touches a chain of dependent ones, so the probe
   is a fixed loop of four independent float sums over an L1-resident
   array.  It is timed around every timed unit (request or drain) and
   in every set-up process; run.py scales each unit's times by it.  Its
   code and data are the benchmark's own, so no change to the program
   can move it. *)
let probe_buf = Array.init 2048 (fun i -> float_of_int (i land 15))

let probe () =
  let t0 = now () in
  let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
  for _ = 1 to 240 do
    let i = ref 0 in
    while !i < Array.length probe_buf do
      a0 := !a0 +. (probe_buf.(!i) *. 1.0001);
      a1 := !a1 +. (probe_buf.(!i + 1) *. 0.9999);
      a2 := !a2 +. (probe_buf.(!i + 2) *. 1.0002);
      a3 := !a3 +. (probe_buf.(!i + 3) *. 0.9998);
      i := !i + 4
    done
  done;
  ignore (Sys.opaque_identity (!a0 +. !a1 +. !a2 +. !a3));
  now () -. t0

(* the probe time around a unit: the mean of the probes just before and
   just after it *)
let probe_around last =
  let p = probe () in
  let around = (!last +. p) /. 2. in
  last := p;
  around

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* ------------------------------------------------------------------ *)
(* Output check against reference solves.                              *)

(* requests are keyed by their wire form, so value-identical requests
   share one reference *)
let key_of (r : Req.t) = Req.to_string { r with Req.label = None }

let references : (string, Fvm.Field.t) Hashtbl.t = Hashtbl.create 16

(* The gathered unknown (the intensity I), which every plan assembles
   from all ranks and devices.  [Solve_result.solution] (T) is rank 0's
   view on cell-parallel plans, so it differs from serial there. *)
let checked_field (res : Finch.Solve_result.t) =
  res.Finch.Solve_result.outcome.Finch.Solve.u

(* [override]: the reference plan's backend/opt/eval, or None for the
   solo run of the request itself on its own backend *)
let compute_reference override (r : Req.t) =
  let k = key_of r in
  if not (Hashtbl.mem references k) then begin
    let rr =
      match override with
      | None -> r
      | Some (backend, opt_level, eval_mode) ->
        { r with Req.backend; opt_level; eval_mode; overlap = false }
    in
    match Finch.solve rr with
    | Ok res -> Hashtbl.replace references k (checked_field res)
    | Error e ->
      fail "reference solve failed for %s: %s" (Req.summary rr)
        (Finch.Solve_error.to_string e)
  end

let matches_reference (r : Req.t) (res : Finch.Solve_result.t) =
  match Hashtbl.find_opt references (key_of r) with
  | None -> false
  | Some ref_field -> (
    match Fvm.Field.max_abs_diff ref_field (checked_field res) with
    | 0.0 -> true
    | d ->
      Printf.eprintf "perfbench: %s differs from its reference by %g\n%!"
        (Req.summary r) d;
      false
    | exception e ->
      Printf.eprintf "perfbench: %s cannot be compared: %s\n%!" (Req.summary r)
        (Printexc.to_string e);
      false)

(* ------------------------------------------------------------------ *)
(* Closed loop: one client, request after request.                     *)

type plans = (string, string) Hashtbl.t  (* scenario -> chosen plan name *)

(* Native states that fell back to the closure interpreter.  The
   codegen hook returns None on every fallback path (unsupported program,
   failed compile, failed bind); a request that fell back would be timed
   on the wrong evaluator while its results still match, so it counts as
   failed. *)
let native_fallbacks = ref 0

let count_native_fallbacks () =
  let hook = !Finch.Lower.native_hook in
  Finch.Lower.native_hook :=
    fun st ->
      let entry = hook st in
      if Option.is_none entry then incr native_fallbacks;
      entry

(* Resolve (auto only), prepare and solve one request.  Returns the
   result and the bench-side layer timings in ms. *)
let closed_request ~plans ~id (req : Req.t) =
  let t0 = now () in
  let resolved =
    if req.Req.backend = Finch.Config.Auto then begin
      let a = now () in
      let r = Finch_tune.Tune.resolve ~post_io req in
      let b = now () in
      span ~id "tune.resolve" ~t0:a ~t1:b;
      match r with
      | Error e -> Error ("tuner: " ^ e), [ "tune.resolve", (b -. a) *. 1e3 ]
      | Ok (r', dec) ->
        (match dec with
         | Some d ->
           let name = Finch_tune.Plan.name d.Finch_tune.Tune.dc_plan in
           (match Hashtbl.find_opt plans req.Req.scenario with
            | Some prev when prev <> name ->
              Hashtbl.replace plans req.Req.scenario (prev ^ " | " ^ name)
            | Some _ -> ()
            | None -> Hashtbl.replace plans req.Req.scenario name)
         | None -> ());
        Ok r', [ "tune.resolve", (b -. a) *. 1e3 ]
    end
    else Ok req, []
  in
  let result, layers =
    match resolved with
    | Error e, layers -> Error e, layers
    | Ok r, layers -> (
      let a = now () in
      let prep = Finch.prepare r in
      let b = now () in
      span ~id "bte.prepare" ~t0:a ~t1:b;
      let layers = layers @ [ "bte.prepare", (b -. a) *. 1e3 ] in
      match prep with
      | Error e -> Error (Finch.Solve_error.to_string e), layers
      | Ok prep ->
        let res =
          Finch.solve_prepared ~trace_id:(Printf.sprintf "req-%d" id) r prep
        in
        let c = now () in
        span ~id "core.solve" ~t0:b ~t1:c;
        ( Result.map_error Finch.Solve_error.to_string res
          |> Result.map (fun x -> r, x),
          layers @ [ "core.solve", (c -. b) *. 1e3 ] ))
  in
  let t1 = now () in
  span ~id "request" ~t0 ~t1;
  t0, t1, result, layers

let phase_ms (b : Prt.Breakdown.t) =
  [ "phase.intensity", b.Prt.Breakdown.intensity *. 1e3;
    "phase.temperature", b.Prt.Breakdown.temperature *. 1e3;
    "phase.communication", b.Prt.Breakdown.communication *. 1e3;
    "phase.boundary", b.Prt.Breakdown.boundary *. 1e3;
    "phase.other", b.Prt.Breakdown.other *. 1e3 ]

(* modelled runtime of the plan a resolved request ran on, ms *)
let predicted_ms (r : Req.t) =
  match Finch_tune.Plan.of_request r with
  | plan -> Finch_tune.Tune.predict r plan *. 1e3
  | exception Invalid_argument _ -> 0.

let run_closed ~trace ~seconds ~plans ~warmup =
  List.iteri
    (fun i r ->
      match closed_request ~plans ~id:(-1 - i) r with
      | _, _, Ok _, _ -> ()
      | _, _, Error e, _ -> fail "warm-up request failed: %s" e)
    (List.concat warmup);
  let timed reqs =
    if Array.length reqs = 0 then fail "spec: no requests";
    let records = ref [] in
    let last_probe = ref (probe ()) in
    let t_start = now () in
    let i = ref 0 in
    while now () -. t_start < seconds do
      let req = reqs.(!i mod Array.length reqs) in
      let traced = trace && !i mod 2 = 0 in
      set_tracing traced;
      let c0 = if traced then M.counter_values () else [] in
      let g0 = gc_words () in
      let u0 = cpu_s () in
      let fb0 = !native_fallbacks in
      let t0, t1, result, layers = closed_request ~plans ~id:!i req in
      let u1 = cpu_s () in
      let fell_back = !native_fallbacks > fb0 in
      if fell_back then
        Printf.eprintf "perfbench: request %d fell back to the interpreter\n%!" !i;
      let g1 = gc_words () in
      let counts = if traced then counter_delta c0 else [] in
      set_tracing false;
      let ok, extra =
        match result with
        | Ok (r, res) ->
          ( matches_reference req res && not fell_back,
            if traced then
              phase_ms res.Finch.Solve_result.breakdown
              @ [ "predicted", predicted_ms r ]
            else [] )
        | Error e ->
          Printf.eprintf "perfbench: request %d failed: %s\n%!" !i e;
          false, []
      in
      records :=
        J.Obj
          [ "start", J.Num (t0 -. t_start);
            "done", J.Num (t1 -. t_start);
            "ok", J.Bool ok;
            "traced", J.Bool traced;
            "cpu", J.Num (u1 -. u0);
            "probe", J.Num (probe_around last_probe);
            "gc_minor_words", J.Num (fst g1 -. fst g0);
            "gc_major", J.Num (float_of_int (snd g1 - snd g0));
            "ms", obj_of_floats (if traced then layers @ extra else []);
            "counts", obj_of_counts counts ]
        :: !records;
      incr i
    done;
    List.rev !records
  in
  timed

(* ------------------------------------------------------------------ *)
(* Open loop: arrivals on a schedule, submitted and drained by one     *)
(* thread.  A request's latency runs from its due time to the return   *)
(* of the drain that resolved it.                                      *)

let drain_traced sched ~id =
  let a = now () in
  Sched.drain sched;
  let b = now () in
  Prt.Trace.complete bench_track ~cat:"perfbench"
    ~args:[ "drain", float_of_int id ]
    "serve.drain" ~t0:a ~t1:b;
  a, b

let hist_sum_count name =
  let h = M.histogram name in
  M.hist_sum h, M.hist_count h

let run_open ~trace ~sched ~warmup =
  List.iter
    (fun group ->
      let tks = List.map (Sched.submit sched) group in
      Sched.drain sched;
      List.iter
        (fun tk ->
          match Sched.outcome tk with
          | Some (Sched.Completed _) -> ()
          | _ -> fail "warm-up request did not complete")
        tks)
    warmup;
  let timed arr =
    let n = Array.length arr in
    let submit_at = Array.make n 0. in
    let done_at = Array.make n 0. in
    let ok = Array.make n false in
    let traced_req = Array.make n false in
    let drain_of = Array.make n (-1) in
    let phases = Array.make n [] in
    let drains = ref [] in
    let last_probe = ref (probe ()) in
    let t_start = now () in
    let next = ref 0 in
    let pending = ref [] in
    let ndrain = ref 0 in
    while !next < n || !pending <> [] do
      let rec submit_due () =
        if !next < n && t_start +. fst arr.(!next) <= now () then begin
          let i = !next in
          submit_at.(i) <- now () -. t_start;
          pending := (i, Sched.submit sched (snd arr.(i))) :: !pending;
          incr next;
          submit_due ()
        end
      in
      submit_due ();
      if !pending <> [] then begin
        let traced = trace && !ndrain mod 2 = 0 in
        set_tracing traced;
        let c0 = if traced then M.counter_values () else [] in
        let bs0 = hist_sum_count "serve.batch_size" in
        let g0 = gc_words () in
        let u0 = cpu_s () in
        let fb0 = !native_fallbacks in
        let a, b = drain_traced sched ~id:!ndrain in
        let u1 = cpu_s () in
        let fell_back = !native_fallbacks > fb0 in
        if fell_back then
          Printf.eprintf "perfbench: drain %d fell back to the interpreter\n%!"
            !ndrain;
        let g1 = gc_words () in
        let counts = if traced then counter_delta c0 else [] in
        let bs1 = hist_sum_count "serve.batch_size" in
        set_tracing false;
        List.iter
          (fun (i, tk) ->
            done_at.(i) <- b -. t_start;
            traced_req.(i) <- traced;
            drain_of.(i) <- !ndrain;
            if traced then
              span ~id:i "request" ~t0:(t_start +. fst arr.(i)) ~t1:b;
            match Sched.outcome tk with
            | Some (Sched.Completed res) ->
              ok.(i) <- matches_reference (snd arr.(i)) res && not fell_back;
              if traced then phases.(i) <- phase_ms res.Finch.Solve_result.breakdown
            | Some (Sched.Rejected m) ->
              Printf.eprintf "perfbench: request %d rejected: %s\n%!" i m
            | Some (Sched.Timed_out by) ->
              Printf.eprintf "perfbench: request %d timed out by %.3fs\n%!" i by
            | None -> Printf.eprintf "perfbench: request %d unresolved\n%!" i)
          !pending;
        drains :=
          J.Obj
            [ "start", J.Num (a -. t_start);
              "done", J.Num (b -. t_start);
              "requests", J.Num (float_of_int (List.length !pending));
              "traced", J.Bool traced;
              "cpu", J.Num (u1 -. u0);
              "probe", J.Num (probe_around last_probe);
              "gc_minor_words", J.Num (fst g1 -. fst g0);
              "gc_major", J.Num (float_of_int (snd g1 - snd g0));
              "batch_size_sum", J.Num (fst bs1 -. fst bs0);
              "batch_size_count", J.Num (float_of_int (snd bs1 - snd bs0));
              "counts", obj_of_counts counts ]
          :: !drains;
        pending := [];
        incr ndrain
      end
      (* poll rather than sleep until the next arrival, so no request is
         submitted late by a sleep's wake-up delay *)
      else if !next < n then
        while now () < t_start +. fst arr.(!next) do () done
    done;
    let records =
      List.init n (fun i ->
          J.Obj
            [ "due", J.Num (fst arr.(i));
              "submit", J.Num submit_at.(i);
              "done", J.Num done_at.(i);
              "ok", J.Bool ok.(i);
              "drain", J.Num (float_of_int drain_of.(i));
              "traced", J.Bool traced_req.(i);
              "ms", obj_of_floats phases.(i) ])
    in
    records, List.rev !drains
  in
  timed

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let reference_override spec =
  match member "reference" spec with
  | J.Null -> None
  | j ->
    Some
      ( ok_or "reference backend" (Finch.Config.target_of_string (str "backend" j)),
        ok_or "reference opt" (Finch.Config.opt_level_of_string (str "opt" j)),
        match str "eval" j with
        | "closure" -> Finch.Config.Closure
        | "native" -> Finch.Config.Native
        | "tape" -> Finch.Config.Tape
        | s -> fail "reference eval: unknown mode %S" s )

let write_report path j =
  let oc = open_out path in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc

let read_json path =
  let ic = open_in_bin path in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  ok_or path (J.of_string s)

let int_of j = ok_or "index" (J.to_int j)

let () =
  if Array.length Sys.argv <> 2 then fail "usage: main.exe SPEC.json";
  let spec = read_json Sys.argv.(1) in
  let trace = bool "trace" spec in
  let cache_dir = str "cache_dir" spec in
  let report = str "report" spec in
  let open_loop = str "loop" spec = "open" in
  let warmup =
    List.map
      (function J.List l -> List.map req_of l | _ -> fail "spec: bad warm-up group")
      (list "warmup" spec)
  in
  if trace then set_tracing true;
  (* -------- setup -------- *)
  Bte.Setup.register_scenarios ();
  Finch_codegen.Codegen.set_cache_dir (Filename.concat cache_dir "codegen");
  Finch_tune.Tune.set_cache_dir (Filename.concat cache_dir "tune");
  Finch_codegen.Codegen.install ~post_io ();
  count_native_fallbacks ();
  let plans : plans = Hashtbl.create 4 in
  let timed =
    if open_loop then begin
      let sched =
        Sched.create
          ~max_queue:(int_of_float (num "max_queue" spec))
          ~max_batch:(int_of_float (num "max_batch" spec))
          ~use_cache:true ~batching:true ~post_io ()
      in
      let run = run_open ~trace ~sched ~warmup in
      fun distinct timed_spec ->
        let arrivals =
          Array.of_list
            (List.map
               (function
                 | J.List [ due; idx ] ->
                   ok_or "due" (J.to_num due), distinct.(int_of idx)
                 | _ -> fail "spec: bad arrival")
               (list "arrivals" timed_spec))
        in
        let records, drains = run arrivals in
        [ "records", J.List records; "drains", J.List drains ]
    end
    else begin
      let run =
        run_closed ~trace ~seconds:(num "seconds" spec) ~plans ~warmup
      in
      fun distinct timed_spec ->
        let seq =
          Array.of_list
            (List.map (fun j -> distinct.(int_of j)) (list "sequence" timed_spec))
        in
        [ "records", J.List (run seq); "drains", J.List [] ]
    end
  in
  if !native_fallbacks > 0 then
    fail "native code generation fell back to the interpreter in warm-up";
  let setup_s = now () -. num "t_spawn" spec in
  let setup_counts = if trace then M.counter_values () else [] in
  set_tracing false;
  let probes = List.init 15 (fun _ -> J.Num (probe ())) in
  let base =
    [ "setup_s", J.Num setup_s;
      "setup_probes", J.List probes;
      "setup_counts",
      obj_of_counts (List.filter (fun (_, v) -> v <> 0) setup_counts);
      "plans",
      J.Obj
        (List.sort compare
           (Hashtbl.fold (fun k v acc -> (k, J.Str v) :: acc) plans [])) ]
  in
  if bool "setup_only" spec then begin
    write_report report (J.Obj base);
    rm_rf cache_dir;
    exit 0
  end;
  (* -------- references (outside setup_s and the timed phase) -------- *)
  let timed_spec = read_json (str "timed" spec) in
  let distinct = Array.of_list (List.map req_of (list "distinct" timed_spec)) in
  Array.iter (compute_reference (reference_override spec)) distinct;
  (* -------- timed phase -------- *)
  Gc.compact ();
  let cpu0 = cpu_s () in
  let w0 = now () in
  let body = timed distinct timed_spec in
  let wall = now () -. w0 in
  let cpu = cpu_s () -. cpu0 in
  let peak = peak_rss_mb () in
  if trace then Prt.Trace.write_chrome (str "trace_out" spec);
  write_report report
    (J.Obj
       (base
       @ [ "cpu_s", J.Num cpu;
           "wall_s", J.Num wall;
           "peak_rss_mb", J.Num peak;
           "trace_events", J.Num (float_of_int (Prt.Trace.event_count ())) ]
       @ body));
  rm_rf cache_dir
