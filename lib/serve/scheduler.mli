(** Admission, queueing and dispatch of solve requests.

    Requests are submitted into a bounded FIFO queue and processed by
    {!drain}, one request per round in submission order: each round
    pops the head and solves it alone through {!Finch.solve_prepared}.
    Admission rejects on a full queue or an invalid/unknown request; a
    request whose deadline has passed when it is picked times out
    without running; the analysis gate
    ([Finch_analysis.Driver.check_problem], run once per request)
    rejects requests whose program carries errors.

    Requests with [backend = auto] are planned per request by the
    autotuner ({!Finch_tune.Tune.resolve}, model-only so the choice is
    deterministic) when picked; the resolved request drives preparation.

    Observability: every request gets a trace id and a span on the
    ["serve"] track covering its solve; the queue depth is the
    [serve.queue_depth] gauge; submit-to-done latency lands in the
    [serve.latency_ns] histogram; counters [serve.requests] /
    [serve.completed] / [serve.rejected] / [serve.timed_out] track
    totals. *)

type outcome =
  | Completed of Finch.Solve_result.t
  | Rejected of string  (** refused before running; the reason *)
  | Timed_out of float
    (** deadline had passed when picked; seconds it was exceeded by *)

type ticket
(** Handle for one submitted request. *)

type t
(** A scheduler instance.  Schedulers are single-threaded by design —
    [submit]/[drain] from one thread; the solver itself parallelizes
    underneath per the request's backend. *)

val create :
  ?max_queue:int ->
  ?max_batch:int ->
  ?default_deadline_s:float ->
  ?use_cache:bool ->
  ?batching:bool ->
  ?post_io:Finch.Problem.callback_io ->
  ?now:(unit -> float) ->
  unit ->
  t
(** [max_queue] bounds admission (default 64); [default_deadline_s]
    applies to requests carrying no deadline (default none); with
    [use_cache] (default true) the scheduler owns one
    {!Finch.Stage_cache.t} and hands it to every preparation it runs,
    the tuner's included ([?cache] of {!Finch.prepare} and
    [Finch_tune.Tune.resolve]), so a request of a shape seen before
    builds only what its temperatures change: its physics tables, if
    new.  The mesh, the transformed equation and the interior face
    tables are hits.  Off, there is no cache, and every request builds
    everything cold.  The cache is this scheduler's, used from the
    domain that drains it; schedulers with different settings coexist.
    [now] injects a clock for deadline tests (default
    [Unix.gettimeofday]).  [max_batch], [batching] and [post_io] are
    ignored: every request runs as its own solve, and each problem
    carries its callbacks' I/O ({!Finch.Problem.post_io}); the
    parameters stay only for existing callers. *)

val submit : t -> Finch.Solve_request.t -> ticket
(** Enqueue a request.  A full queue or a failed
    [Finch.Solve_request.validate] resolves the ticket immediately as
    [Rejected]; otherwise the ticket resolves during a later {!drain}. *)

val drain : t -> unit
(** Process the queue to empty, resolving every pending ticket. *)

val outcome : ticket -> outcome option
(** The ticket's resolution, or [None] while still queued. *)

val trace_id : ticket -> string
(** The trace id assigned at submission (also the span name on the
    ["serve"] track). *)

val queue_depth : t -> int
(** Requests currently queued. *)

val run_all : t -> Finch.Solve_request.t list -> outcome list
(** Submit every request, drain, and return the outcomes in submission
    order. *)
