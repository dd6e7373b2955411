(** Data-movement analysis and CPU/GPU task placement.

    "The DSL automatically partitions tasks between the CPU and GPU by
    minimizing the data movement." Tasks carry read/write sets and a work
    estimate; user-callback tasks are pinned to the CPU. The optimizer
    enumerates placements of the free tasks, estimates per-step wall time
    as compute + PCIe traffic, and keeps the minimum; the winning
    placement induces the per-variable transfer schedule (once vs. every
    step, each direction). *)

type side = Cpu_side | Gpu_side

type task = {
  t_name : string;
  t_reads : string list;
  t_writes : string list;
  t_pinned : side option; (** user callbacks are pinned to the CPU *)
  t_flops : float;        (** per-step work estimate *)
}

type var_info = { v_name : string; v_bytes : int }

type placement = (string * side) list

type transfer = {
  tr_var : string;
  tr_h2d_every_step : bool; (** produced on host, consumed on device *)
  tr_d2h_every_step : bool; (** produced on device, consumed on host *)
  tr_h2d_once : bool;       (** static device input *)
}

type plan = {
  placement : placement;
  transfers : transfer list;
  bytes_per_step : int;
  bytes_once : int;
}

val side_of : placement -> task -> side
(** Where a task runs: its pin if it has one, else its placement.
    Raises [Not_found] for an unpinned task the placement omits. *)

val schedule : tasks:task list -> vars:var_info list -> placement -> plan
(** The transfer schedule induced by a fixed placement. *)

type rates = {
  cpu_flops : float;
  gpu_flops : float;
  pcie : float;
}

val default_rates : rates
(** The host, device and PCIe rates every placement is costed with:
    5 GFLOP/s, 500 GFLOP/s and 16 GB/s. *)

val plan_cost : tasks:task list -> rates -> plan -> float
(** Estimated seconds per step of a plan: each task's work at its side's
    rate plus the per-step traffic at the PCIe rate, serialized. *)

val optimize : tasks:task list -> vars:var_info list -> plan
(** Enumerate placements of unpinned tasks (2^k) and keep the cheapest
    under {!default_rates}, breaking ties toward less traffic, then
    toward more GPU tasks. *)

val tasks_of_problem : Problem.t -> task list
(** The problem's per-step tasks: the interior update (free), the
    boundary update (pinned to the CPU) and, when post-step callbacks
    are registered, one CPU-pinned [post_step] task whose reads and
    writes are {!Problem.post_io}. *)

val vars_of_problem : Problem.t -> var_info list
(** Every variable and coefficient with its full size in bytes; a
    function-of-space coefficient counts as materialized per cell. *)

val plan_for_problem : Problem.t -> plan
(** {!optimize} over the problem's tasks and variables. *)

val ir_transfers : plan -> (string * bool) list
(** The (variable, uploaded-every-step) pairs [Ir.build_gpu] consumes:
    one entry per device input the plan uploads, once or per step. *)
