(** CPU code-generation target: the per-rank bodies of the serial,
    band-parallel (equation-partitioned), cell-parallel (mesh-partitioned),
    threaded and MPI+threads hybrid strategies.

    {!Ranks} decides what each rank owns and runs a body once per rank
    (as [Prt.Spmd] fibers when there are several), so every strategy is
    comparable DOF-for-DOF with the serial run — the double-buffered
    explicit scheme makes all of them produce identical results.  Each
    body builds its rank's state over [faces], the solve's face tables
    ({!Lower.stage_interior}, built once for every rank), takes the
    problem's [nsteps] steps
    (its sweep, post-step callbacks, clock) and
    returns the state with every breakdown it filled.  A lone rank's
    steps span on the ["main"] trace track, several ranks' phases on
    ["spmd rank R"]. *)

val direct :
  Problem.t -> faces:Eval.faces -> Lower.rankinfo ->
  allreduce:(float array -> unit) ->
  Lower.state * Prt.Breakdown.t list
(** Serial and band ranks: each step advances the owned DOFs with
    {!Lower.rk_step} — the configured time scheme, which off the serial
    target is forward Euler ([Solve] rejects other steppers there).  The
    post-step callback performs the cross-band reduction through
    [allreduce]. *)

val halo :
  Problem.t -> faces:Eval.faces -> plan:Fvm.Halo.t -> Lower.rankinfo ->
  allreduce:(float array -> unit) -> Lower.state * Prt.Breakdown.t list
(** Cell ranks: after each commit the rank sends its frontier cells of
    the unknown to its neighbours along [plan] and posts its ghost
    receives ({!Fvm.Halo.start_exchange}).  Synchronously it receives at
    once; with the problem's overlap flag it receives in the next step,
    between the sweep of interior cells (whose stencils read no ghosts)
    and the sweep of the frontier — bit-identical either way. *)

val pooled :
  Problem.t -> faces:Eval.faces -> pool:Prt.Pool.t -> Lower.rankinfo ->
  allreduce:(float array -> unit) -> Lower.state * Prt.Breakdown.t list
(** Threads and hybrid ranks: the rank state runs the post-steps, and
    each step's sweep runs on [pool] over blocks of cells, one worker
    state per domain sharing the rank's storage.  Hybrid ranks are
    cooperative fibers, so their parallel regions take turns on the one
    pool all ranks share.

    When {!fused_schedule_ok} holds, two timesteps are fused into one
    pool region with a single internal barrier (the commit becomes a
    buffer-role swap), halving [pool.regions] and [pool.barrier_waits];
    bit-identical to the classic schedule. *)

val fused_schedule_ok : Problem.t -> bool
(** Whether the fused step-pair schedule is legal for this problem: a
    [threads:N] target at [opt_level] O2, forward Euler, every expression
    boundary condition of the unknown closed (no entity references), and
    the post-step writes ({!Problem.post_io}) neither the unknown nor
    any field the surface term reads at the neighbouring cell.  A
    callback registered without a declaration writes every variable, so
    its problem keeps the classic schedule. *)
