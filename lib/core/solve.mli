(** Top-level driver — the paper's [solve(I)]: run a configured problem
    on its code-generation target and package the results. *)

type outcome = {
  u : Fvm.Field.t;                      (** gathered unknown after the run *)
  fields : (string * Fvm.Field.t) list;
    (** every variable after the run, gathered from the ranks' owned
        cells and component slices on partitioned targets *)
  breakdown : Prt.Breakdown.t;
  gpu : Target_gpu.result option;
    (** present for GPU runs: rank 0's record, with the summed breakdown *)
  states : Lower.state array;  (** every rank's state, rank 0 first *)
}

val solve : ?cache:Stage_cache.t -> Problem.t -> outcome
(** Run the problem on its target and gather the outcome: {!Ranks} lays
    the target's ranks out over the problem, each runs its target's
    per-rank body ({!Target_cpu.direct}, {!Target_cpu.halo},
    {!Target_cpu.pooled} or {!Target_gpu.run_rank}), and rank 0 receives
    every field and the summed breakdown.  The interior face tables
    ({!Lower.stage_interior}) are staged once, before any rank starts;
    with [cache] they are an entry keyed by the mesh's entry
    ({!Stage_cache.serial}) and {!Lower.stage_key}, and staged fresh
    when the mesh is not an entry or the key is [None].  The GPU
    data-movement planner
    and the fused-schedule legality check read the post-step callbacks'
    declared I/O from the problem ({!Problem.post_io}).  Raises
    [Problem.Problem_error] naming the stepper and the target when a
    time stepper other than [Euler_explicit] meets a non-serial target
    (only the serial body runs multi-stage and point-implicit steps),
    and with {!Ranks.check}'s message when the counts do not fit the
    problem or the target is an unresolved [Auto].  Raises
    {!Target_gpu.Gpu_error} when a GPU target's data-movement plan places
    the interior update on the host. *)

val field : outcome -> string -> Fvm.Field.t
(** [field outcome name]: the gathered variable [name].  Raises
    [Problem.Problem_error] if the problem declares no such variable. *)
