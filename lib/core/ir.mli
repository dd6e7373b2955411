(** Intermediate representation: a target-independent computational graph
    describing the generated program, carrying comment and metadata nodes
    "to facilitate generation of easily readable code" (paper Sec. II-A).

    [Emit_source] renders it as Julia-like or CUDA-like listings;
    [Dataflow] analyses it; the executors mirror its structure. *)

open Finch_symbolic

type phase = Ph_intensity | Ph_temperature | Ph_communication | Ph_boundary

type meta = {
  m_comment : string option;
  m_phase : phase option;
  m_flops : float; (** per innermost iteration; 0 when not annotated *)
}

val meta : ?comment:string -> ?phase:phase -> ?flops:float -> unit -> meta
(** A node annotation; [flops] defaults to 0 (not annotated). *)

type loop_range =
  | Cells
  | Faces_of_cell
  | Index of string
  | Steps

type node =
  | Comment of string
  | Seq of node list
  | Loop of { range : loop_range; body : node list; parallel : bool }
  | Assign of {
      dest : string;
      dest_new : bool;
      expr : Expr.t;
      reduce : [ `Set | `Add ];
      note : meta;
    }
  | Flux_update of {
      var : string; (** fused conservation-form update *)
      rvol : Expr.t;
      rsurf : Expr.t;
      note : meta;
    }
  | Boundary_cpu of { var : string; note : meta }
  | Callback of { note : meta }
    (** the problem's post-step callbacks, run on the host *)
  | Swap_buffers of string
  | Halo_exchange of { vars : string list; note : meta }
  | Allreduce of { what : string; vars : string list; note : meta }
  | Kernel of { kname : string; body : node list; note : meta }
  | H2d of { vars : string list; every_step : bool }
  | D2h of { vars : string list; every_step : bool }
  | D2d of { vars : string list; note : meta }
    (** multi-device ghost push: owner devices peer-copy the listed
        variables' tile-frontier cells into their neighbours' ghost
        regions (NVLink within a node, host staging across) *)
  | Stream_sync
  | Advance_time

val fold : ('a -> node -> 'a) -> 'a -> node -> 'a
(** Fold over every node of a tree in pre-order, descending into
    sequences, loops and kernel bodies. *)

val writes : node -> string list
(** Variable names a node tree writes (sorted, unique).  Communication
    and transfer nodes write the destination copy of each listed variable
    (ghost region, device or host mirror — name spaces are collapsed);
    [Swap_buffers v] publishes [v].  [Callback] nodes are opaque — their
    effects are declared via {!Problem.post_io}. *)

val reads : node -> string list
(** Variable names a node tree reads (sorted, unique), with the same
    copy-collapsing and callback-opacity conventions as {!writes}. *)

val dof_loops : Problem.t -> node list -> node list
(** Wrap a body in the per-DOF loop nest in the configured assembly order
    (default: cells outermost, then the declared indices). *)

val step_body : Problem.t -> Transform.equation -> node list
(** One step's update of the equation's unknown: a fused
    conservation-form {!Flux_update} annotated with its per-DOF flop
    estimate, inside the {!dof_loops} nest. *)

val build_cpu : Problem.t -> node
(** The CPU program (serial or the rank-local body of an SPMD program,
    with halo-exchange/allreduce nodes per the configured strategy). *)

val build_gpu : Problem.t -> transfers:(string * bool) list -> node
(** The hybrid CPU/GPU program (paper Fig. 6): async interior kernel, CPU
    boundary callback overlapping it, sync/download/combine, host
    post-step, re-upload. [transfers] lists device inputs as
    (variable, uploaded-every-step). *)
