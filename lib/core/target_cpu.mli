(** CPU code-generation target: serial, band-parallel (equation-
    partitioned) and cell-parallel (mesh-partitioned) executors, plus a
    shared-memory variant on OCaml domains.

    The distributed strategies run as SPMD rank programs under [Prt.Spmd]
    (deterministic in-process message passing) and are therefore
    comparable DOF-for-DOF with the serial executor — the double-buffered
    explicit scheme makes all of them produce identical results. *)

exception Target_error of string

type result = {
  states : Lower.state array; (** one per rank; index 0 for serial *)
  breakdown : Prt.Breakdown.t;
}

val primary : result -> Lower.state
(** Rank 0's state: the one [Solve] gathers a partitioned run's owned
    slices into and reports. *)

val noop_allreduce : float array -> unit
(** The allreduce of a lone rank: leaves its argument unchanged. *)

val step_serial : Lower.state -> unit
(** One time step on one state: pre-step callbacks, the configured time
    scheme over the owned DOFs, post-step callbacks, then the clock and
    step counter advance. *)

val run_serial : Problem.t -> result
(** Build one state owning everything and take the problem's [nsteps]
    steps on it. *)

val run_band_parallel : Problem.t -> index:string -> nranks:int -> result
(** Partition the given index's range across ranks; the post-step
    callback performs its cross-band reduction through [st_allreduce]. *)

val run_cell_parallel : ?overlap:bool -> Problem.t -> nranks:int -> result
(** RCB mesh partition with per-step halo exchange of the unknown.  With
    [~overlap:true] the exchange is split around the next step's sweep:
    ghost values travel as nonblocking [Prt.Spmd] messages while interior
    cells (whose stencils read no ghosts) are swept, and the frontier is
    swept after they land — bit-identical to the synchronous path (the
    default), with the per-step barriers removed. *)

val run_threaded :
  ?post_io:Dataflow.callback_io -> Problem.t -> ndomains:int -> result
(** Shared-memory parallel sweep over cell ranges on a persistent
    [Prt.Pool] of OCaml domains (spawned once per solve); each domain has
    its own env/closures, fields are shared.  Per-worker breakdown
    counters are aggregated into the result like the SPMD executors.

    At [opt_level >= O1] and when {!fused_schedule_ok} holds, two
    timesteps are fused into one pool region with a single internal
    barrier (the commit becomes a buffer-role swap), halving
    [pool.regions] and [pool.barrier_waits]; bit-identical to the classic
    schedule.  [post_io] declares the post-step callbacks' reads/writes
    for the legality check — without it, problems with post-steps keep
    the classic schedule. *)

val fused_schedule_ok : ?post_io:Dataflow.callback_io -> Problem.t -> bool
(** Whether the fused step-pair schedule is legal for this problem:
    [opt_level >= O1], forward Euler, no pre-step callbacks, every
    expression boundary condition of the unknown closed (no entity
    references), and declared post-step writes neither the unknown nor
    any field the surface term reads at the neighbouring cell. *)

val make_parity : Lower.state -> Lower.state
(** The B-parity of a worker state: unknown binding moved onto the
    [u_new] storage and the double buffer onto the [u] storage, so a
    sweep of the parity state is the "odd" step of the fused schedule.
    Clock and step refs are shared with the worker. *)

val run_hybrid :
  Problem.t -> index:string -> nranks:int -> ndomains:int -> result
(** MPI+threads hybrid: band-parallel SPMD ranks whose sweeps run on a
    shared persistent domain pool over cell ranges. *)
