(** How a target's ranks share a problem — the one decision that tells
    the parallel strategies apart (paper Section III-C/D).

    Band ranks ([bands:N], the ranks of [hybrid:RxD] and of
    [gpu:NAME:R]) each own a contiguous block of the last declared index;
    cell ranks ([cells:N]) each own an RCB tile of the mesh and exchange
    ghosts along a halo plan; a GPU rank's devices tile the mesh; serial
    and threaded runs are one rank owning everything.  The executors are
    per-rank bodies that {!run} calls once per rank, and the static Comm
    pass reads the same layout, so the schedule it verifies is the one
    that executes. *)

type t = {
  infos : Lower.rankinfo array;  (** one per rank, in rank order *)
  halo : Fvm.Halo.t option;
      (** cell ranks: the ghost-exchange plan between their tiles *)
  tiling : Fvm.Decomp2d.t option;
      (** GPU targets: the cell tiling every rank's devices share *)
}
(** The layout of one problem on its target. *)

val noop_allreduce : float array -> unit
(** The allreduce of a lone rank: leaves its argument unchanged. *)

val check : Problem.t -> (unit, string) result
(** Whether the problem holds its target's counts: every count positive,
    no more band ranks than values of the last declared index (the one
    band ranks split), and no more cell ranks, pool domains or devices
    than mesh cells.  The message names the target spec and both
    counts, e.g. ["cells:8 needs 8 cells, the mesh has 4"].  An
    unresolved [Auto] target fails too. *)

val of_problem : Problem.t -> t
(** The layout of the problem's target.  Raises [Problem.Problem_error]
    with {!check}'s message when the counts do not fit. *)

val track : Lower.rankinfo -> Prt.Trace.track
(** The trace track a rank's phases go on: ["main"] for a lone rank,
    ["spmd rank R"] otherwise. *)

val run :
  t -> (Lower.rankinfo -> allreduce:(float array -> unit) -> 'a) -> 'a array
(** [run t body] calls [body info ~allreduce] once per rank and returns
    the results in rank order.  A lone rank runs directly with
    {!noop_allreduce}; several run as {!Prt.Spmd} fibers joined by
    {!Prt.Spmd.allreduce_sum}. *)
