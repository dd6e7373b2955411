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
    being G = 1. *)

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
  tiling:Fvm.Decomp2d.t -> faces:Eval.faces -> Lower.rankinfo ->
  allreduce:(float array -> unit) -> result
(** One rank of the problem's [Gpu { devices = G; ranks = R }] target, as
    {!Ranks.run} calls it, over the solve's face tables [faces] (its
    host state and every device mirror read the same ones): the rank
    owns its rank info's slice of the
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
    update on the host: the kernel always runs on the device, and such a
    plan uploads none of its inputs. *)
