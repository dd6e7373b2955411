(* Admission, queueing and dispatch: a bounded FIFO of solve requests
   drained one request per round, in submission order.  Each round pops
   the head; a request whose deadline has passed when it is picked times
   out without running; otherwise it is planned, prepared, gated by the
   analysis and solved alone.  Admission rejects on a full queue or an
   invalid request. *)

let m_requests = Prt.Metrics.counter "serve.requests"
let m_completed = Prt.Metrics.counter "serve.completed"
let m_rejected = Prt.Metrics.counter "serve.rejected"
let m_timed_out = Prt.Metrics.counter "serve.timed_out"
let g_queue_depth = Prt.Metrics.gauge "serve.queue_depth"
let h_latency = Prt.Metrics.histogram "serve.latency_ns"

type outcome =
  | Completed of Finch.Solve_result.t
  | Rejected of string
  | Timed_out of float

type ticket = {
  tk_req : Finch.Solve_request.t;
  tk_trace : string;
  tk_submitted : float;
  mutable tk_outcome : outcome option;
}

type t = {
  max_queue : int;
  default_deadline_s : float option;
  cache : Finch.Stage_cache.t option;  (* this scheduler's own, if any *)
  now : unit -> float;
  queue : ticket Queue.t;
}

let create ?(max_queue = 64) ?max_batch:_ ?default_deadline_s
    ?(use_cache = true) ?batching:_ ?post_io:_ ?(now = Unix.gettimeofday) () =
  { max_queue;
    default_deadline_s;
    cache = (if use_cache then Some (Finch.Stage_cache.create ()) else None);
    now;
    queue = Queue.create () }

let queue_depth t = Queue.length t.queue
let set_depth t = Prt.Metrics.set g_queue_depth (float_of_int (queue_depth t))

let resolve t (tk : ticket) outcome =
  tk.tk_outcome <- Some outcome;
  (match outcome with
   | Completed _ ->
     Prt.Metrics.incr m_completed;
     Prt.Metrics.observe h_latency ((t.now () -. tk.tk_submitted) *. 1e9)
   | Rejected _ -> Prt.Metrics.incr m_rejected
   | Timed_out _ -> Prt.Metrics.incr m_timed_out)

let submit t req =
  Prt.Metrics.incr m_requests;
  let tk =
    { tk_req = req;
      tk_trace = Finch.fresh_trace_id ();
      tk_submitted = t.now ();
      tk_outcome = None }
  in
  (match Finch.Solve_request.validate req with
   | Error m -> resolve t tk (Rejected ("invalid request: " ^ m))
   | Ok () ->
     if queue_depth t >= t.max_queue then
       resolve t tk
         (Rejected (Printf.sprintf "queue full (%d)" t.max_queue))
     else begin
       Queue.push tk t.queue;
       set_depth t
     end);
  tk

let outcome (tk : ticket) = tk.tk_outcome
let trace_id (tk : ticket) = tk.tk_trace

(* Tuner resolution, preparation and analysis gate.  A backend=auto
   request is planned here (model-only, so the decision is deterministic
   and amortized by the tuner's two-level cache).  An exception from any
   stage rejects this request only: it must not abort the drain and
   strand the rest of the queue. *)
let prepare t (tk : ticket) =
  (* every preparation stages through the scheduler's cache, the
     tuner's included; without one, every build stays cold *)
  try
    match Finch_tune.Tune.resolve ?cache:t.cache tk.tk_req with
    | Error m -> Error (Finch.Solve_error.Invalid_request ("tuner: " ^ m))
    | Ok (req, _) ->
      Result.map
        (fun prep ->
          req, prep, Finch_analysis.Driver.check_problem prep.Finch.pr_problem)
        (Finch.prepare ?cache:t.cache req)
  with e -> Error (Finch.Solve_error.Engine_failure (Printexc.to_string e))

(* seconds the request's deadline had passed by at pick time *)
let expired t (tk : ticket) =
  let deadline =
    match tk.tk_req.Finch.Solve_request.deadline_s with
    | Some d -> Some d
    | None -> t.default_deadline_s
  in
  match deadline with
  | None -> None
  | Some d ->
    let waited = t.now () -. tk.tk_submitted in
    if waited > d then Some (waited -. d) else None

let run t (tk : ticket) =
  match expired t tk with
  | Some by -> Timed_out by
  | None -> (
    match prepare t tk with
    | Error e -> Rejected (Finch.Solve_error.to_string e)
    | Ok (_, _, report) when report.Finch_analysis.Driver.errors > 0 ->
      Rejected
        (Printf.sprintf "analysis found %d error(s)"
           report.Finch_analysis.Driver.errors)
    | Ok (req, prep, _) -> (
      match Finch.solve_prepared ~trace_id:tk.tk_trace req prep with
      | Ok res -> Completed res
      | Error e -> Rejected (Finch.Solve_error.to_string e)))

(* one request per round, in submission order *)
let drain t =
  while not (Queue.is_empty t.queue) do
    let tk = Queue.pop t.queue in
    set_depth t;
    resolve t tk (run t tk)
  done

let run_all t reqs =
  let tickets = List.map (submit t) reqs in
  drain t;
  List.map
    (fun tk ->
      match tk.tk_outcome with
      | Some o -> o
      | None -> Rejected "scheduler did not resolve the ticket")
    tickets
