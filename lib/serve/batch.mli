(** Batched multi-request GPU execution: the O2 band-batching idea with
    one more axis.

    [run] takes N configured problems that share one program shape (same
    mesh and index dimensions, step count, optimizer level, evaluator,
    single-device synchronous GPU target) and executes them against one
    simulated device with a request-major thread space: each launch
    covers [requests x cells x chunk] degrees of freedom, where the
    chunk is the owned component slice the solo executor would use (all
    components in one batched launch at O2, one slice per band at
    O0).  Every thread performs exactly the computation the solo run's
    thread performs, against that request's own device buffers, so
    results are bit-identical to solving each request alone — the
    property the serve tests assert across scenario x opt level.

    Host phases (boundary contributions, combine, post-step callback,
    per-step uploads) run per request on that request's own state and
    are charged to its own breakdown; modelled device time is shared and
    charged in equal shares.  One [serve.batched_launches] counter tick
    per launch. *)

val compatible : Finch.Problem.t array -> (unit, string) result
(** Whether the problems may legally share batched launches: at least
    one, all single-device synchronous GPU with equal spec name, step
    count, optimizer level, evaluator, post-step callback I/O
    ({!Finch.Problem.post_io}: the first problem's data-movement plan
    serves the batch) and unknown shape.  [Error] explains the first
    violation. *)

val batched_ir : Finch.Problem.t array -> Finch.Ir.node
(** The IR image of the schedule {!run} executes: the shared solo GPU
    program with kernels kept as single batched launches and every
    host phase / transfer wrapped in a per-request [Index "request"]
    loop.  @raise Invalid_argument when {!compatible} fails. *)

val check : Finch.Problem.t array -> Finch_analysis.Driver.report
(** Run the full static analysis (including the data-movement plan
    cross-check) over {!batched_ir}: the serve layer's gate on the
    batching rewrite itself, not only the per-request program.
    @raise Invalid_argument when {!compatible} fails. *)

val run : Finch.Problem.t array -> Finch.Solve.outcome array
(** Execute the batch; the outcome array is index-aligned with the
    input.  @raise Invalid_argument when {!compatible} fails. *)
