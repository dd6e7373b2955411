(** Hybrid CPU/GPU code-generation target (paper Sec. II-B, Fig. 6).

    Per step: async interior kernel on the simulated device (one thread
    per DOF, flattened loops, boundary faces skipped) → CPU boundary
    callbacks overlapping it → synchronize, download, combine → host
    post-step → re-upload of the variables the data-movement plan marks
    as per-step device inputs. Kernels really execute on device buffers
    (distinct memory), so the numerics are testable against the CPU
    targets; timings come from the roofline model.

    One per-rank body ({!run_rank}) serves every GPU target: R
    band-slice ranks of G mesh-tiling devices each, one device per rank
    being G = 1.  The pieces below are its building blocks, shared with
    the serve layer's request-batched executor. *)

exception Gpu_error of string

type result = {
  state : Lower.state;         (** host-side state *)
  device : Gpu_sim.Memory.device;
  breakdown : Prt.Breakdown.t; (** modelled GPU/transfers + real CPU time *)
  plan : Dataflow.plan;
  profile_threads : int;       (** grid size, for the profiler report *)
}

val run_rank :
  Problem.t -> spec:Gpu_sim.Spec.t ->
  tiling:Fvm.Decomp2d.t -> Lower.rankinfo ->
  allreduce:(float array -> unit) -> result
(** One rank of the problem's [Gpu { devices = G; ranks = R }] target, as
    {!Ranks.run} calls it: the rank owns its rank info's slice of the
    band index and drives G devices of kind [spec] with global ids [rank*G ..],
    one per tile of [tiling], which exchange ghost cells by peer copies.
    The rank joins the others in the temperature update's [allreduce];
    the result carries its host state, its breakdown and its first
    device.  Results do not depend on G or R.

    With the problem's overlap flag set, each device's transfers run on
    a second (copy) stream against a double-buffered unknown: the result
    download is enqueued behind the kernel and overlaps the boundary
    host work, and next-step uploads stay in flight until the following
    launch joins them.  Numerics are bit-identical; only the modelled
    timeline and the Communication share of the breakdown change.
    Raises {!Gpu_error} if the data-movement plan places the interior
    update on the host ({!device_plan}). *)

(** {2 Pieces of the schedule} *)

type mirror = {
  dev : Gpu_sim.Memory.device;
  bufs : (string * Gpu_sim.Memory.buffer) list;
      (** one device buffer per host field, by variable name *)
  u_new : Gpu_sim.Memory.buffer array;
      (** the kernel's result buffers for the unknown, by step parity *)
  states : Lower.state array;
      (** the host state rebound to the device storage, one per result
          buffer: what kernel threads evaluate against *)
}
(** A host state's device-resident copy. *)

val mirror :
  ?prefix:string -> nbuf:int -> Gpu_sim.Memory.device -> Lower.state ->
  mirror
(** [mirror ~nbuf dev host] allocates on [dev] a buffer per host field
    and [nbuf] result buffers (two when transfers overlap, so step N's
    download may still be in flight at step N+1's launch), and rebinds
    [host] to them ({!Lower.rebind}).  Buffer labels are [prefix] (default
    empty) followed by the variable name, ["u_new"] or ["u_new.alt"]. *)

val upload_all : Lower.state -> mirror -> float
(** Upload every host field into its mirror in full; returns the
    modelled seconds. *)

val interior_cost : Lower.state -> Gpu_sim.Kernel.cost
(** Per-thread roofline cost of the interior kernel: the volume term and
    one flux per face, four times over for index arithmetic and
    predication, and the unknown's traffic plus a cache-amortized share
    of neighbour and coefficient loads. *)

val owned_comps : Lower.state -> int array
(** The unknown's components the state's rank computes, ascending:
    {!Lower.owned_comps} over its index ranges, or all of them. *)

val launch_chunks : Lower.state -> int array array
(** {!owned_comps} split into the component slices one step launches a
    kernel each for: all in one batched launch at O2, one slice per
    value of the unknown's slow index at O0. *)

val update_dof : Lower.state -> int -> int -> unit
(** [update_dof ds cell comp]: one kernel thread — the DOF advanced by
    [dt] times its interior-face residual, read from [ds]'s unknown and
    written to its [u_new]. *)

val boundary_part : Lower.state -> into:Fvm.Field.t -> int array -> unit
(** [boundary_part host ~into owned]: the host's share of a step — zero
    [into], then accumulate every boundary face's contribution to the
    [owned] components ({!Lower.boundary_contributions}), the only ones
    {!combine_boundary} reads back. *)

val combine_boundary : Lower.state -> u_bdry:Fvm.Field.t -> int array -> unit
(** [combine_boundary host ~u_bdry owned]: set the unknown to the
    downloaded interior result plus [u_bdry] on every cell and each of
    the [owned] components. *)

val sanitize_scan : Lower.state -> int array -> unit
(** In sanitize mode, count poisoned values of the unknown over every
    cell and the given owned components ({!Fvm.Field.record_poison}): a
    kernel that read a never-uploaded buffer shows up here.  Other
    components may legitimately hold poison on band-slice ranks. *)

val device_plan : Problem.t -> Dataflow.plan
(** The problem's data-movement plan ({!Dataflow.plan_for_problem}).
    Raises {!Gpu_error} when the plan places [interior_update] on the
    host: the executors always launch the interior kernel on the device,
    and such a plan uploads none of its inputs. *)

val every_step_h2d : Dataflow.plan -> string list
(** The variables the data-movement plan re-uploads after every step. *)
