(** Optimizing middle end: verified IR-to-IR rewrites between the
    program builders ({!Finch.Ir}) and the execution targets.

    The pipeline is selected by {!Finch.Config.opt_level}: O0 is the
    identity, O2 runs the CPU-side passes (cell-loop fusion, dead-assign
    elimination, transfer coalescing and — when the target's fused pool
    schedule is legal — step-pair fusion) and the device-side passes
    (band-kernel batching, loop-invariant upload hoisting).  Every pass that changes the tree is re-checked by the
    {!Finch_analysis} Wellformed/Race/Movement/Comm passes; a pass whose
    output carries any finding absent from its input is rejected — the
    pre-pass IR is kept and the rejection recorded — so an unsafe
    rewrite (including one that drops or retargets a halo exchange or
    D2d push, A025–A032) can never reach an executor.  See
    docs/OPTIMIZER.md. *)

type stats = {
  loops_fused : int;
      (** adjacent parallel cell loops merged, plus step pairs fused
          (region-level loop fusion) *)
  steps_fused : int;  (** steps loops rewritten to the fused-pair schedule *)
  kernels_batched : int;
      (** sequential per-index launch loops folded into batched kernels *)
  assigns_eliminated : int;  (** dead assignments removed *)
  transfers_coalesced : int;  (** adjacent same-cadence transfer nodes merged *)
  h2d_hoisted : int;  (** loop-invariant per-step uploads hoisted *)
}
(** Counts of accepted rewrites, also mirrored to the [opt.*] metrics
    ([opt.loops_fused], [opt.kernels_fused], [opt.assigns_eliminated],
    [opt.transfers_coalesced], [opt.h2d_hoisted], [opt.steps_fused];
    rejections land on [opt.passes_rejected]). *)

type rejection = {
  rej_pass : string;  (** name of the rejected pass *)
  rej_finding : Finch_analysis.Finding.t;
      (** the first new finding its output introduced *)
}
(** One rejected pass: the rewrite was discarded and the pre-pass IR
    kept. *)

type result = {
  ir : Finch.Ir.node;  (** the optimized (or untouched, at O0) program *)
  stats : stats;  (** accepted-rewrite counts *)
  rejected : rejection list;  (** passes vetoed by the analyses, in order *)
}
(** Outcome of one pipeline run. *)

val no_stats : stats
(** All-zero counts. *)

val can_fuse_cell_loops : Finch.Ir.node list -> Finch.Ir.node list -> bool
(** Legality of merging two adjacent parallel cell-loop bodies: both
    must be pure compute (assigns/flux updates only, so their footprint
    is fully visible), and neither body's in-place writes may be read
    across faces (CELL2) by the other — that pair is exactly the
    forgot-double-buffering race (A011) once the bodies share an
    iteration.  Double-buffered writes never conflict. *)

val fuse_cell_loops : Finch.Ir.node -> Finch.Ir.node * int
(** Merge adjacent parallel [Cells] loops wherever
    {!can_fuse_cell_loops} holds (chains collapse left to right),
    collapsing one parallel region — and its pool barrier — per merge.
    Returns the rewritten tree and the number of merges. *)

val eliminate_dead_assigns :
  live_out:string list -> Finch.Ir.node -> Finch.Ir.node * int
(** Remove [Assign] nodes whose destination is neither in [live_out]
    nor read anywhere in the tree; loops left holding only comments go
    with them.  Returns the tree and the number of assigns removed. *)

val coalesce_transfers : Finch.Ir.node -> Finch.Ir.node * int
(** Merge adjacent [H2d]/[H2d] and [D2h]/[D2h] pairs of the same
    cadence into one node over the union of their variables (one copy
    invocation instead of two).  Returns the tree and the merge count. *)

val fuse_steps : Finch.Ir.node -> Finch.Ir.node * int
(** Rewrite each [Steps] loop to the fused step-pair schedule the
    threaded executor runs at O2: the body appears twice (phase A, then
    phase B on swapped buffer roles) under half the trip count, one
    pool region and one internal barrier per pair.  Only applied when
    [Target_cpu.fused_schedule_ok] holds for the problem. *)

val batch_band_kernels : Finch.Ir.node -> Finch.Ir.node * int
(** Collapse sequential per-index launch loops wrapping a single
    [Kernel] into the bare kernel, folding the index into the launch
    grid: one batched cells×dirs×bands launch instead of a launch per
    band.  Returns the tree and the number of loops collapsed. *)

val hoist_invariant_h2d : Finch.Ir.node -> Finch.Ir.node * int
(** Hoist out of the [Steps] loop every per-step upload of a variable
    no IR-visible node in the loop writes.  Callbacks are opaque to
    this legality check, so the verification harness (Movement with the
    data-movement plan) is what vetoes hoists crossing a callback
    write; see the rejection contract in docs/ANALYSIS.md. *)

val optimize :
  ?plan:Finch.Dataflow.plan ->
  ?comm:Finch_analysis.Comm.input ->
  ?live_out:string list ->
  ?fuse_step_pairs:bool ->
  level:Finch.Config.opt_level ->
  Finch_analysis.Ctx.t ->
  Finch.Ir.node ->
  result
(** Run the pipeline for [level] over a tree, verifying each pass as
    described above ([plan] additionally arms the Movement plan
    cross-check, A023; [comm] the communication-schedule checks,
    A025–A032).  [live_out] (default empty) names variables whose final
    values are observed by the caller; [fuse_step_pairs] (default
    false) enables {!fuse_steps} — the caller asserts the executor-side
    legality via [Target_cpu.fused_schedule_ok]. *)

val optimize_problem : Finch.Problem.t -> result
(** Build the naive program for a configured problem (the O0 shape:
    CPU-strategy IR, or the per-band device IR with its data-movement
    plan) and run {!optimize} at the problem's [opt_level], with all
    declared variables live out, step-pair fusion iff the threaded
    target's fused schedule is legal, the plan cross-check armed on GPU
    targets, and the communication-schedule checks armed on
    mesh-partitioned targets ({!Finch_analysis.Comm.plan_of_problem}). *)
