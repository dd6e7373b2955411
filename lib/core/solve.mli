(** Top-level driver — the paper's [solve(I)]: dispatch a configured
    problem to its code-generation target and package the results. *)

type outcome = {
  u : Fvm.Field.t;                      (** gathered unknown after the run *)
  fields : (string * Fvm.Field.t) list;
    (** every variable after the run, gathered from the ranks' owned
        cells and component slices on partitioned targets *)
  breakdown : Prt.Breakdown.t;
  gpu : Target_gpu.result option;       (** present for GPU runs *)
  states : Lower.state array;
}

val default_band_index : Problem.t -> string
(** The index split by band-parallel runs when none is given: the last
    declared index. *)

val solve :
  ?band_index:string -> ?post_io:Dataflow.callback_io -> Problem.t -> outcome
(** Run the problem on its target and gather the outcome.  [band_index]
    names the index band-parallel targets split (default
    {!default_band_index}); [post_io] declares the post-step callback's
    reads and writes to the GPU data-movement planner.  Raises
    [Problem.Problem_error] naming the stepper and the target when a time
    stepper other than [Euler_explicit] meets a non-serial target: only
    the serial executor runs multi-stage and point-implicit steps.
    Raises {!Target_gpu.Gpu_error} when a GPU target's data-movement plan
    places the interior update on the host.  Raises [Invalid_argument]
    on an unresolved [Auto] target. *)

val field : outcome -> string -> Fvm.Field.t
(** [field outcome name]: the gathered variable [name].  Raises
    [Problem.Problem_error] if the problem declares no such variable. *)
