(** The [Finch] facade — the library's public surface.

    Alongside the classic module tree (re-exported below: {!Problem},
    {!Solve}, {!Config}, ...), this root module defines the request/result
    API that external entry points use: one {!Solve_request.t} record in,
    one {!Solve_result.t} out.  Callers no longer hand-wire
    [Problem.set_*] mutations; they describe the solve as data and the
    facade prepares, runs and packages it — attaching a trace id, a
    per-request span on the ["serve"] trace track, a wall-clock latency
    and the metrics-counter deltas the run produced.

    Scenario constructors live outside this library (the BTE physics
    layer depends on [finch], not the reverse), so scenarios arrive
    through {!register_scenario}: [Bte.Setup.register_scenarios ()]
    installs ["hotspot"] and ["corner"].  [Solve.solve] remains the
    internal engine underneath.

    A preparation may build its shape-only artefacts through a
    {!Stage_cache.t} its caller owns ([?cache] of {!prepare},
    {!program_digest} and {!solve}, handed to the registered builder):
    the scenario's physics tables, the mesh, the transformed equation,
    and at solve time the interior face tables.  The preparation carries
    its cache to {!solve_prepared}.  Without one, the default, every
    artefact is built fresh; no cache is process state. *)

module Config = Config
module Dataflow = Dataflow
module Emit_source = Emit_source
module Entity = Entity
module Eval = Eval
module Ir = Ir
module Json = Json
module Lower = Lower
module Operators = Operators
module Problem = Problem
module Ranks = Ranks
module Solve = Solve
module Solve_request = Solve_request
module Stage_cache = Stage_cache
module Target_cpu = Target_cpu
module Target_gpu = Target_gpu
module Transform = Transform

(* ------------------------------------------------------------------ *)
(* scenario registry                                                  *)

type prepared = {
  pr_problem : Problem.t;
  pr_solution : string;  (** name of the primary solution field *)
  pr_cache : Stage_cache.t option;
    (** the cache the builder was handed; {!solve_prepared} stages the
        face tables through it *)
}

(* A builder takes the cache it may build its shape-only artefacts
   through (tables, mesh, equation), [None] for fresh ones: an entry is
   keyed by every value its builder reads, so either way the problem is
   bit-identical. *)
let scenario_registry :
    (string, cache:Stage_cache.t option -> Solve_request.t -> prepared) Hashtbl.t =
  Hashtbl.create 8

(* the [program_digest] memo: a registration may change any name's
   program, so it drops every entry *)
let program_digests : (string, string) Hashtbl.t = Hashtbl.create 16

let register_scenario name build =
  Hashtbl.reset program_digests;
  Hashtbl.replace scenario_registry name build

let scenario_names () =
  Hashtbl.fold (fun k _ acc -> k :: acc) scenario_registry []
  |> List.sort compare

(** Why a request was not solved. *)
module Solve_error = struct
  type t =
    | Invalid_request of string
      (** the record failed {!Solve_request.validate} *)
    | Unknown_scenario of string
      (** no constructor registered under this name *)
    | Engine_failure of string
      (** the solver raised; the message carries the exception text *)

  let to_string = function
    | Invalid_request m -> "invalid request: " ^ m
    | Unknown_scenario s ->
      Printf.sprintf "unknown scenario %S (registered: %s)" s
        (String.concat ", " (scenario_names ()))
    | Engine_failure m -> "engine failure: " ^ m
end

(** What a solved request returns: the primary solution field plus the
    run's observability payload. *)
module Solve_result = struct
  type t = {
    solution : Fvm.Field.t;  (** the scenario's primary field (e.g. [T]) *)
    solution_name : string;  (** its name in [outcome.fields] *)
    breakdown : Prt.Breakdown.t;  (** per-phase wall-clock split *)
    metrics : (string * int) list;
      (** counter deltas attributable to this solve (sorted by name,
          zero-delta entries dropped) *)
    trace_id : string;  (** e.g. ["req-42"], also the trace span name *)
    wall_s : float;
      (** wall seconds of the solve alone ({!solve_prepared}'s span):
          preparation, tuning and queueing are not in it *)
    outcome : Solve.outcome;  (** full engine outcome, for power users *)
  }
end

let prepare ?cache (req : Solve_request.t) :
    (prepared, Solve_error.t) result =
  match Solve_request.validate req with
  | Error m -> Error (Solve_error.Invalid_request m)
  | Ok () when req.Solve_request.backend = Config.Auto ->
    (* lowering and the executors have no notion of "auto": the tuner
       (finch_tune) must have replaced it with a concrete plan by now *)
    Error
      (Solve_error.Invalid_request
         "backend auto must be resolved by the tuner before prepare")
  | Ok () ->
    (match Hashtbl.find_opt scenario_registry req.Solve_request.scenario with
     | None -> Error (Solve_error.Unknown_scenario req.Solve_request.scenario)
     | Some build ->
       (match build ~cache req with
        | prep ->
          let p = prep.pr_problem in
          Problem.set_target p req.Solve_request.backend;
          Problem.set_eval_mode p req.Solve_request.eval_mode;
          Problem.set_opt_level p req.Solve_request.opt_level;
          Problem.set_overlap p req.Solve_request.overlap;
          (* a request for more ranks than the problem holds is invalid,
             not an engine failure *)
          (match Ranks.check p with
           | Ok () -> Ok prep
           | Error m -> Error (Solve_error.Invalid_request m))
        | exception e ->
          Error (Solve_error.Engine_failure (Printexc.to_string e))))

(* ------------------------------------------------------------------ *)
(* program digests                                                    *)

(** Most requests {!program_digest} remembers; the entry past it drops
    them all. *)
let program_digest_cap = 64

(* the tuner's decision key is the only caller, hence the name *)
let m_key_builds = Prt.Metrics.counter "tune.key_builds"

(** Forget every memoized {!program_digest}. *)
let clear_program_digests () = Hashtbl.reset program_digests

(** Hex digest of the naive program text of [req]'s preparation
    ([Emit_source.to_julia (Ir.build_cpu problem)]; value-independent,
    coefficients appear by name).  Memoized on the request's wire form
    with [label] and [deadline_s] cleared (the wire form prints floats
    exactly, so equal keys are equal requests): the request is prepared, and
    [tune.key_builds] counted, only on first sight.  An [Error] is never
    memoized.  [cache] goes to that preparation. *)
let program_digest ?cache (req : Solve_request.t) :
    (string, Solve_error.t) result =
  let key =
    Solve_request.to_string
      { req with Solve_request.label = None; deadline_s = None }
  in
  match Hashtbl.find_opt program_digests key with
  | Some d -> Ok d
  | None ->
    Result.map
      (fun prep ->
        let d =
          Digest.to_hex
            (Digest.string (Emit_source.to_julia (Ir.build_cpu prep.pr_problem)))
        in
        Prt.Metrics.incr m_key_builds;
        if Hashtbl.length program_digests >= program_digest_cap then
          clear_program_digests ();
        Hashtbl.replace program_digests key d;
        d)
      (prepare ?cache req)

(* ------------------------------------------------------------------ *)
(* request execution                                                  *)

let trace_counter = Atomic.make 0
let fresh_trace_id () = Printf.sprintf "req-%d" (Atomic.fetch_and_add trace_counter 1)
let serve_track () = Prt.Trace.track "serve"

let metrics_delta before after =
  (* [after] may contain names absent from [before]; treat those as
     starting at zero.  Drop zero deltas to keep results readable. *)
  List.filter_map
    (fun (name, v1) ->
      let v0 =
        match List.assoc_opt name before with Some v -> v | None -> 0
      in
      if v1 - v0 <> 0 then Some (name, v1 - v0) else None)
    after

let solve_prepared ?trace_id (req : Solve_request.t) (prep : prepared) :
    (Solve_result.t, Solve_error.t) result =
  let trace_id = match trace_id with Some t -> t | None -> fresh_trace_id () in
  let before = Prt.Metrics.counter_values () in
  let t0 = Unix.gettimeofday () in
  match Solve.solve ?cache:prep.pr_cache prep.pr_problem with
  | outcome ->
    let t1 = Unix.gettimeofday () in
    let label =
      match req.Solve_request.label with
      | Some l -> Printf.sprintf "%s (%s)" trace_id l
      | None -> trace_id
    in
    Prt.Trace.complete (serve_track ()) ~cat:"serve" label ~t0 ~t1;
    let solution =
      match List.assoc_opt prep.pr_solution outcome.Solve.fields with
      | Some f -> f
      | None -> outcome.Solve.u
    in
    Ok
      { Solve_result.solution;
        solution_name = prep.pr_solution;
        breakdown = outcome.Solve.breakdown;
        metrics = metrics_delta before (Prt.Metrics.counter_values ());
        trace_id;
        wall_s = t1 -. t0;
        outcome }
  | exception e -> Error (Solve_error.Engine_failure (Printexc.to_string e))

let solve ?cache (req : Solve_request.t) :
    (Solve_result.t, Solve_error.t) result =
  match prepare ?cache req with
  | Error e -> Error e
  | Ok prep -> solve_prepared req prep
