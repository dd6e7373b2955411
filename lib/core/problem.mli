(** Script-level problem description — the OCaml counterpart of the
    paper's Julia input script ([initFinch], [domain], [solverType],
    [timeStepper], [mesh], [index]/[variable]/[coefficient], [boundary],
    [callbackFunction], [postStepFunction], [conservationForm],
    [assemblyLoops], [useCUDA], [solve]).

    A value of type {!t} is a mutable builder; lowering and code
    generation happen in [Solve.solve]. *)

open Finch_symbolic

exception Problem_error of string

(** Context handed to boundary-condition callbacks — the paper's
    user-supplied functions, always executed on the CPU. *)
type bc_ctx = {
  bc_mesh : Fvm.Mesh.t;
  bc_field : string -> Fvm.Field.t;
  bc_coef : string -> Entity.coefficient;
  bc_face : int;
  bc_cell : int;               (** interior cell adjacent to the face *)
  bc_normal : float array;     (** outward unit normal *)
  bc_ivals : (string * int) list; (** current 0-based index values *)
  bc_comp : int;               (** flattened component of the variable *)
  bc_time : float;
  bc_args : float array;       (** numeric literals from the bc string *)
}

val bc_ival : bc_ctx -> string -> int

type bc_callback = bc_ctx -> float

(** Context handed to pre-/post-step callbacks (e.g. the BTE temperature
    update). [st_index_range] exposes the index subrange owned by this
    rank in band-parallel runs; [st_allreduce] sums elementwise across
    ranks (identity for serial); [st_cells] is the owned cell set in
    mesh-partitioned runs. *)
type step_ctx = {
  st_mesh : Fvm.Mesh.t;
  st_field : string -> Fvm.Field.t;
  st_coef : string -> Entity.coefficient;
  st_time : float;
  st_dt : float;
  st_step : int;
  st_rank : int;
  st_nranks : int;
  st_index_range : string -> int * int;
  st_allreduce : float array -> unit;
  st_cells : int array option;
}

type step_callback = step_ctx -> unit

type bc_spec =
  | Bc_expr of Expr.t
  | Bc_callback of { name : string; args : float array }

type bc = {
  bc_var : string;
  bc_region : int;
  bc_kind : Config.bc_kind;
  bc_spec : bc_spec;
}

type initial_spec =
  | Init_const of float
  | Init_fn of (float array -> int -> float) (** position, component *)

type t = {
  name : string;
  mutable dim : int;
  mutable solver : Config.solver_type;
  mutable stepper : Config.time_stepper;
  mutable dt : float;
  mutable nsteps : int;
  mutable mesh : Fvm.Mesh.t option;
  mutable target : Config.target;
  mutable indices : Entity.index list;
  mutable variables : Entity.variable list;
  mutable coefficients : Entity.coefficient list;
  mutable callbacks : (string * bc_callback) list;
  mutable bcs : bc list;
  mutable initials : (string * initial_spec) list;
  mutable pre_step : step_callback list;
  mutable post_step : step_callback list;
  mutable equations : Transform.equation list;
  mutable loop_order : string list option;
  mutable eval_mode : Config.eval_mode; (** Closure unless overridden *)
  mutable overlap : bool;
      (** overlap communication with computation where the target has
          point-to-point messages or transfers; off by default *)
  mutable opt_level : Config.opt_level;
      (** middle-end optimization level, [O2] by default; every level is
          bit-identical to [O0] (see docs/OPTIMIZER.md) *)
}

val init : string -> t

(** {2 Configuration commands} *)

val domain : t -> int -> unit
val solver_type : t -> Config.solver_type -> unit
val time_stepper : t -> Config.time_stepper -> unit
val set_steps : t -> dt:float -> nsteps:int -> unit

val use_cuda :
  ?spec:Gpu_sim.Spec.t -> ?devices:int -> ?ranks:int -> t -> unit
(** The paper's [useCUDA()]: switch code generation to the hybrid target.
    [devices] simulated devices per rank partition the cell axis;
    [ranks] SPMD ranks partition the band axis (both default to 1). *)

val set_target : t -> Config.target -> unit

(** Select the right-hand-side evaluator: the optimizing register tape
    (default) or the plain closure tree. *)
val set_eval_mode : t -> Config.eval_mode -> unit

val set_overlap : t -> bool -> unit
(** Enable communication/computation overlap: the cell-parallel executor
    splits its halo exchange around the sweep ({!Target_cpu.run_cell_parallel})
    and the GPU target routes each device's per-step transfers through a
    second stream ({!Target_gpu.run}).  Results are bit-identical either way;
    targets without point-to-point messages (serial, bands, threads,
    hybrid — collectives only) ignore the flag. *)

val set_opt_level : t -> Config.opt_level -> unit
(** Select the optimization level applied by the IR middle end ([Opt])
    and mirrored by the executors: [O0] disables fusion/batching (naive
    per-loop regions and per-band launches), [O1] fuses pool regions on
    the threaded path, [O2] (default) additionally batches device
    launches across bands.  Results are bit-identical at every level. *)

val set_mesh : t -> Fvm.Mesh.t -> unit
val mesh_file : t -> string -> unit

(** {2 Entities} *)

val find_index : t -> string -> Entity.index option
val index : t -> name:string -> range:int * int -> Entity.index
val find_variable : t -> string -> Entity.variable option

val variable :
  t -> name:string -> ?location:Entity.location ->
  ?indices:Entity.index list -> unit -> Entity.variable

val find_coefficient : t -> string -> Entity.coefficient option
val coefficient :
  t -> name:string -> ?index:Entity.index -> Entity.coef_value ->
  Entity.coefficient

(** {2 Callbacks and conditions} *)

val callback_function : t -> string -> bc_callback -> unit
val find_callback : t -> string -> bc_callback option

val boundary : t -> Entity.variable -> int -> Config.bc_kind -> string -> unit
(** [boundary p var region kind spec] parses [spec]: a call form whose
    head is a registered callback becomes a callback condition (numeric
    literal arguments are collected; entity arguments reach the callback
    via its context, as the paper's "interpreted automatically" note
    describes); anything else is a symbolic expression evaluated per
    boundary face. *)

val initial : t -> Entity.variable -> initial_spec -> unit
val pre_step_function : t -> step_callback -> unit
val post_step_function : t -> step_callback -> unit

(** {2 Equations} *)

val conservation_form : t -> Entity.variable -> string -> Transform.equation
(** Parse, expand and classify a conservation-form equation; validates
    that referenced entities are declared. *)

val assembly_loops : t -> string list -> unit
(** The paper's [assemblyLoops]: the generated loop-nest order, as index
    names plus the pseudo-entry ["elements"]. *)

(** {2 Accessors} *)

val mesh_exn : t -> Fvm.Mesh.t
val the_equation : t -> Transform.equation
val bcs_for : t -> string -> bc list
