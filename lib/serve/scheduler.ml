(* Admission, queueing and batched dispatch: a bounded FIFO of solve
   requests drained in rounds.  Each round pops the head, coalesces
   every queued request inside the next max_batch window that shares its
   batch key, and runs the group — batched on the GPU engine when legal,
   solo otherwise.  Deadlines are checked when a request is picked for
   execution; admission rejects on a full queue or an invalid request;
   the analysis gate rejects programs with errors. *)

let m_requests = Prt.Metrics.counter "serve.requests"
let m_completed = Prt.Metrics.counter "serve.completed"
let m_rejected = Prt.Metrics.counter "serve.rejected"
let m_timed_out = Prt.Metrics.counter "serve.timed_out"
let m_batches = Prt.Metrics.counter "serve.batches"
let m_batch_errors = Prt.Metrics.counter "serve.batch_analysis_errors"
let m_batch_warnings = Prt.Metrics.counter "serve.batch_analysis_warnings"
let m_batch_fallbacks = Prt.Metrics.counter "serve.batch_fallbacks"
let g_queue_depth = Prt.Metrics.gauge "serve.queue_depth"
let h_latency = Prt.Metrics.histogram "serve.latency_ns"
let h_batch_size = Prt.Metrics.histogram "serve.batch_size"

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

(* one queued request; the tuner resolution, prepared problem and
   analysis verdict are memoized across drain rounds so a request
   inspected for co-batching but left queued is not re-planned or
   re-lowered when it reaches the head *)
type item = {
  it_ticket : ticket;
  mutable it_req : Finch.Solve_request.t;
    (* tk_req with backend=auto replaced by the tuner's plan; equal to
       tk_req for concrete requests *)
  mutable it_prep :
    ( Finch.prepared * Finch_analysis.Driver.report,
      Finch.Solve_error.t )
    result
    option;
}

type t = {
  max_queue : int;
  max_batch : int;
  default_deadline_s : float option;
  use_cache : bool;
  batching : bool;
  now : unit -> float;
  mutable queue : item list;  (* head first; bounded by max_queue *)
}

let create ?(max_queue = 64) ?(max_batch = 8) ?default_deadline_s
    ?(use_cache = true) ?(batching = true) ?post_io:_
    ?(now = Unix.gettimeofday) () =
  { max_queue; max_batch; default_deadline_s; use_cache; batching; now;
    queue = [] }

let queue_depth t = List.length t.queue
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
     if List.length t.queue >= t.max_queue then
       resolve t tk
         (Rejected (Printf.sprintf "queue full (%d)" t.max_queue))
     else begin
       t.queue <-
         t.queue
         @ [ { it_ticket = tk; it_req = req; it_prep = None } ];
       set_depth t
     end);
  tk

let outcome (tk : ticket) = tk.tk_outcome
let trace_id (tk : ticket) = tk.tk_trace

(* tuner resolution + prepare + analysis gate, memoized on the item.
   A backend=auto request is planned here (model-only, so the decision
   is deterministic and amortized by the tuner's two-level cache); the
   resolved request drives preparation and the batch key, so auto
   requests that land on the same plan co-batch like hand-picked
   ones.  An exception from any stage rejects this request only: it
   must not abort the drain and strand the rest of the queue. *)
let prep_of t (it : item) =
  match it.it_prep with
  | Some r -> r
  | None ->
    (* use_cache switches scenario-table reuse; off, every build stays
       cold (the historical per-invocation pipeline) *)
    Finch.set_scenario_cache t.use_cache;
    let r =
      try
        match Finch_tune.Tune.resolve it.it_ticket.tk_req with
        | Error m ->
          Error (Finch.Solve_error.Invalid_request ("tuner: " ^ m))
        | Ok (req, _) ->
          it.it_req <- req;
          Result.map
            (fun prep ->
              prep, Finch_analysis.Driver.check_problem prep.Finch.pr_problem)
            (Finch.prepare req)
      with e -> Error (Finch.Solve_error.Engine_failure (Printexc.to_string e))
    in
    it.it_prep <- Some r;
    r

let deadline_of t (req : Finch.Solve_request.t) =
  match req.Finch.Solve_request.deadline_s with
  | Some d -> Some d
  | None -> t.default_deadline_s

(* true when the request's deadline had already passed at pick time *)
let expired t (it : item) =
  match deadline_of t it.it_ticket.tk_req with
  | None -> None
  | Some d ->
    let waited = t.now () -. it.it_ticket.tk_submitted in
    if waited > d then Some (waited -. d) else None

let solve_solo t (it : item) (prep : Finch.prepared) =
  match
    Finch.solve_prepared ~trace_id:it.it_ticket.tk_trace it.it_req prep
  with
  | Ok res -> resolve t it.it_ticket (Completed res)
  | Error e -> resolve t it.it_ticket (Rejected (Finch.Solve_error.to_string e))

let solve_batched t (group : (item * Finch.prepared) list) =
  let items = Array.of_list (List.map fst group) in
  let preps = Array.of_list (List.map snd group) in
  let problems = Array.map (fun p -> p.Finch.pr_problem) preps in
  Prt.Metrics.incr m_batches;
  Prt.Metrics.observe h_batch_size (float_of_int (Array.length items));
  let before = Prt.Metrics.counter_values () in
  let t0 = t.now () in
  match Batch.run problems with
  | outcomes ->
    let t1 = t.now () in
    let delta = Finch.metrics_delta before (Prt.Metrics.counter_values ()) in
    Array.iteri
      (fun i (oc : Finch.Solve.outcome) ->
        let it = items.(i) in
        let prep = preps.(i) in
        let label =
          match it.it_ticket.tk_req.Finch.Solve_request.label with
          | Some l -> Printf.sprintf "%s (%s)" it.it_ticket.tk_trace l
          | None -> it.it_ticket.tk_trace
        in
        Prt.Trace.complete (Prt.Trace.track "serve") ~cat:"serve" label ~t0
          ~t1;
        let solution =
          match List.assoc_opt prep.Finch.pr_solution oc.Finch.Solve.fields with
          | Some f -> f
          | None -> oc.Finch.Solve.u
        in
        resolve t it.it_ticket
          (Completed
             { Finch.Solve_result.solution;
               solution_name = prep.Finch.pr_solution;
               breakdown = oc.Finch.Solve.breakdown;
               metrics = delta;  (* batch-wide: device work is shared *)
               trace_id = it.it_ticket.tk_trace;
               wall_s = t1 -. t0;
               outcome = oc }))
      outcomes
  | exception e ->
    Array.iter
      (fun it ->
        resolve t it.it_ticket
          (Rejected ("engine failure: " ^ Printexc.to_string e)))
      items

(* one drain round: pop the head; gather the followers that share its
   batch key from the next max_batch-sized window; execute the group *)
let round t =
  match t.queue with
  | [] -> ()
  | head :: rest ->
    t.queue <- rest;
    (match expired t head with
     | Some by -> resolve t head.it_ticket (Timed_out by)
     | None ->
       (match prep_of t head with
        | Error e ->
          resolve t head.it_ticket
            (Rejected (Finch.Solve_error.to_string e))
        | Ok (prep, report) ->
          if report.Finch_analysis.Driver.errors > 0 then
            resolve t head.it_ticket
              (Rejected
                 (Printf.sprintf "analysis found %d error(s)"
                    report.Finch_analysis.Driver.errors))
          else begin
            (* coalescing window: same batch key and a clean analysis,
               FIFO order kept for everything left behind *)
            let key = Finch.Solve_request.batch_key head.it_req in
            let group = ref [ head, prep ] in
            if t.batching && t.max_batch > 1 then begin
              let kept = ref [] in
              let scanned = ref 0 in
              List.iter
                (fun it ->
                  if
                    List.length !group < t.max_batch
                    && !scanned < t.max_batch - 1
                    && expired t it = None
                  then begin
                    incr scanned;
                    match prep_of t it with
                    | Ok (p, r)
                      when r.Finch_analysis.Driver.errors = 0
                           && Finch.Solve_request.batch_key it.it_req = key ->
                      group := (it, p) :: !group
                    | _ -> kept := it :: !kept
                  end
                  else kept := it :: !kept)
                t.queue;
              t.queue <- List.rev !kept
            end;
            let group = List.rev !group in
            set_depth t;
            (match group with
             | [ (it, prep) ] -> solve_solo t it prep
             | _ ->
               let problems =
                 Array.of_list
                   (List.map (fun (_, p) -> p.Finch.pr_problem) group)
               in
               if Batch.compatible problems = Ok () then begin
                 (* gate the batching rewrite itself: lint the
                    request-batched IR, not only the per-request
                    program (which already passed above) *)
                 let rep = Batch.check problems in
                 Prt.Metrics.add m_batch_errors
                   rep.Finch_analysis.Driver.errors;
                 Prt.Metrics.add m_batch_warnings
                   rep.Finch_analysis.Driver.warnings;
                 if rep.Finch_analysis.Driver.errors > 0 then begin
                   (* the solo programs are vetted; only the batched
                      schedule is unsafe — fall back to solo runs *)
                   Prt.Metrics.incr m_batch_fallbacks;
                   List.iter (fun (it, p) -> solve_solo t it p) group
                 end
                 else solve_batched t group
               end
               else
                 (* equal batch keys but not a batchable backend (CPU
                    targets, multi-device): run solo *)
                 List.iter (fun (it, p) -> solve_solo t it p) group)
          end));
    set_depth t

let drain t =
  while t.queue <> [] do
    round t
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
