(** Script-level problem description — the OCaml counterpart of the
    paper's Julia input script ([initFinch], [domain], [solverType],
    [timeStepper], [mesh], [index]/[variable]/[coefficient], [boundary],
    [callbackFunction], [postStepFunction], [conservationForm],
    [assemblyLoops], [useCUDA], [solve]).

    A value of type {!t} is a mutable builder; lowering and code
    generation happen in [Solve.solve]. *)

open Finch_symbolic

exception Problem_error of string

(** One boundary face as a boundary-condition callback sees it when it
    is staged — the paper's user-supplied functions, always executed on
    the CPU. *)
type bc_ctx = {
  bc_mesh : Fvm.Mesh.t;
  bc_field : string -> Fvm.Field.t;
      (** the storage of the state being staged; raises
          [Lower.Lower_error] naming the callback for an undeclared
          variable *)
  bc_coef : string -> Entity.coefficient;
  bc_face : int;
  bc_cell : int;               (** interior cell adjacent to the face *)
  bc_normal : float array;     (** outward unit normal *)
  bc_args : float array;       (** numeric literals from the bc string *)
}

type bc_callback = bc_ctx -> int -> float
(** A staged boundary condition.  Lowering applies the callback to each
    boundary face of its region once per solver state, never per step or
    per component: [Lower.build] stages every face of the state it
    builds before the first step, and [Lower.rebind] stages every face
    again against the rebound storage on the state's first boundary
    evaluation (device mirrors, which never evaluate a boundary, stage
    nothing).  The
    context's [bc_field] reads that state's own storage, so what the
    returned function captures is what that state sweeps.  The returned
    function maps a flat component of the variable (first declared
    index fastest) to the face's flux integrand — or, for a Dirichlet
    condition, its ghost value — and the state calls it once per step
    for each component it owns.  Keep the staged data small: it lives as
    long as the state. *)

(** Context handed to post-step callbacks (e.g. the BTE temperature
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

type callback_io = { cb_reads : string list; cb_writes : string list }
(** What a post-step callback reads and writes, by variable name.  The
    callback itself is opaque; this declaration is what the GPU
    data-movement planner, the static analysis and the fused CPU schedule
    see of it (see {!post_io}).  [cb_writes] may also name coefficients
    the callback changes in place: [Lower.stage_interior] tabulates the
    surface integrand's coefficient-reading tests once per solve and
    relies on this declaration to leave out every test that reads a
    written coefficient (a callback without a declaration may write any
    coefficient, so then no such test is tabulated). *)

type post_callback = {
  pc_fn : step_callback;
  pc_io : callback_io option;  (** [None]: registered without a declaration *)
}
(** A registered post-step callback together with its declaration. *)

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
  | Init_fn of (float array -> int -> float)
    (** position, component; a cell's components share one position
        array, which the function must not write *)

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
  mutable post_step : post_callback list;
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
(** The paper's [initFinch]: an empty 2-D finite-volume problem with the
    given name — forward Euler, one step of [1e-3], serial target,
    closure evaluator, no overlap, optimization level O2. *)

(** {2 Configuration commands} *)

val domain : t -> int -> unit
(** The paper's [domain]: the spatial dimension, 1, 2 or 3.  Raises
    {!Problem_error} otherwise. *)

val solver_type : t -> Config.solver_type -> unit
(** The paper's [solverType].  Code generation targets [FV];
    {!conservation_form} rejects [FE]. *)

val time_stepper : t -> Config.time_stepper -> unit
(** The paper's [timeStepper].  Only the serial target runs schemes other
    than [Euler_explicit]; [Solve.solve] rejects them elsewhere. *)

val set_steps : t -> dt:float -> nsteps:int -> unit
(** The time step and the number of steps [Solve.solve] takes.  Raises
    {!Problem_error} unless [dt > 0] and [nsteps >= 1]. *)

val use_cuda :
  ?spec:Gpu_sim.Spec.t -> ?devices:int -> ?ranks:int -> t -> unit
(** The paper's [useCUDA()]: switch code generation to the hybrid target.
    [devices] simulated devices per rank partition the cell axis;
    [ranks] SPMD ranks partition the band axis (both default to 1). *)

val set_target : t -> Config.target -> unit
(** The execution target [Solve.solve] runs: a CPU strategy, the GPU
    target, or [Auto] for the tuner to resolve first. *)

val set_eval_mode : t -> Config.eval_mode -> unit
(** Select the right-hand-side evaluator: the lane interpreter
    ([Closure], the default) or generated native code.  Raises
    {!Problem_error} on the retired [Config.Tape]. *)

val set_overlap : t -> bool -> unit
(** Enable communication/computation overlap: cell ranks wait for their
    ghost messages in the next step, between the interior and frontier
    sweeps ({!Target_cpu.halo}), and GPU ranks route each device's
    per-step transfers through a second stream ({!Target_gpu.run_rank}).
    Results are bit-identical either way; targets without point-to-point
    messages (serial, bands, threads, hybrid — collectives only) ignore
    the flag. *)

val set_opt_level : t -> Config.opt_level -> unit
(** Select the optimization level applied by the IR middle end ([Opt])
    and mirrored by the executors: [O0] disables fusion/batching (naive
    per-loop regions and per-band launches), [O2] (default) fuses step
    pairs on the threaded path and batches device launches across bands.
    Results are bit-identical at both levels. *)

val set_mesh : t -> Fvm.Mesh.t -> unit
(** The paper's [mesh] with a mesh built in memory.  Raises
    {!Problem_error} if its dimension differs from the {!domain}. *)

val mesh_file : t -> string -> unit
(** The paper's [mesh] from a Gmsh file ({!Fvm.Gmsh.read_file}), checked
    as {!set_mesh}. *)

(** {2 Entities} *)

val find_index : t -> string -> Entity.index option
(** The declared index of that name, if any. *)

val index : t -> name:string -> range:int * int -> Entity.index
(** The paper's [index]: declare an index over the inclusive integer
    [range].  Indices keep declaration order; band ranks split the last
    one.  Raises {!Problem_error} on a duplicate name. *)

val find_variable : t -> string -> Entity.variable option
(** The declared variable of that name, if any. *)

val variable :
  t -> name:string -> ?location:Entity.location ->
  ?indices:Entity.index list -> unit -> Entity.variable
(** The paper's [variable]: declare an unknown or auxiliary field, by
    default cell-located and scalar, with one component per combination
    of its [indices] values.  Raises {!Problem_error} on a duplicate
    name. *)

val find_coefficient : t -> string -> Entity.coefficient option
(** The declared coefficient of that name, if any. *)

val coefficient :
  t -> name:string -> ?index:Entity.index -> Entity.coef_value ->
  Entity.coefficient
(** The paper's [coefficient]: declare a constant, a function of
    position, or an array over [index].  Raises {!Problem_error} on a
    duplicate name. *)

(** {2 Callbacks and conditions} *)

val callback_function : t -> string -> bc_callback -> unit
(** The paper's [callbackFunction]: register a boundary callback under a
    name that {!boundary} specs may call.  A later registration of the
    same name shadows the earlier one. *)

val find_callback : t -> string -> bc_callback option
(** The boundary callback registered under that name, if any. *)

val boundary : t -> Entity.variable -> int -> Config.bc_kind -> string -> unit
(** [boundary p var region kind spec] parses [spec]: a call form whose
    head is a registered callback becomes a callback condition (numeric
    literal arguments are collected; entity arguments reach the callback
    via its context, as the paper's "interpreted automatically" note
    describes); anything else is a symbolic expression evaluated per
    boundary face. *)

val initial : t -> Entity.variable -> initial_spec -> unit
(** The paper's [initial]: the variable's initial condition, a constant
    or a function of cell centroid and component.  Variables without one
    start at zero. *)

val post_step_function : ?io:callback_io -> t -> step_callback -> unit
(** The paper's [postStepFunction]: append a callback every rank runs
    after each step's sweep, such as the BTE temperature update.  [io]
    declares the fields it reads and writes; without it the callback is
    taken to touch every variable. *)

val post_io : t -> callback_io
(** The post-step callbacks' contract: the union of their declarations
    in registration order; every declared variable, read and written,
    as soon as one callback was registered without [io]; nothing when no
    callback is registered. *)

(** {2 Equations} *)

val conservation_form :
  ?cache:Stage_cache.t -> t -> Entity.variable -> string -> Transform.equation
(** Parse, expand and classify a conservation-form equation; validates
    that referenced entities are declared.  With [cache], the transform
    ({!Transform.conservation_form}) is an entry keyed by the text, the
    problem's variable names, the unknown's name and indices (name, lo,
    hi) and {!Operators.generation}, so a redefined operator misses; the
    validation runs on every call. *)

val assembly_loops : t -> string list -> unit
(** The paper's [assemblyLoops]: the generated loop-nest order, as index
    names plus the pseudo-entry ["elements"]. *)

(** {2 Accessors} *)

val mesh_exn : t -> Fvm.Mesh.t
(** The configured mesh.  Raises {!Problem_error} when there is none. *)

val the_equation : t -> Transform.equation
(** The one declared equation.  Raises {!Problem_error} when there is
    none or more than one: the targets solve a single equation. *)

val bcs_for : t -> string -> bc list
(** The boundary conditions declared for the named variable, in
    declaration order. *)
