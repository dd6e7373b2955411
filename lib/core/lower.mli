(** Lowering: from a declared problem to executable state — field storage
    for every variable, the volume/flux expressions compiled to lane
    programs ({!Eval.program}), a per-face boundary table, and
    rank-ownership information. One state is built per rank; serial runs
    own everything.

    One walk visits a state's DOFs: per owned cell (cells outermost), its
    owned index tuples in the loop plan's order ([assemblyLoops], which
    orders only the tuples), in slices of at most the env's [lanes]
    ({!Eval.max_lanes} at most).  The interpreter evaluates each slice as
    a lane group: the slot loop behind {!update_interior} and the sweeps
    runs each face's integrand once per group, and every lane
    accumulates its own flux sum in face order.  A group whose slice
    repeats from one cell to the next is kept with its stamp, so every
    program's offsets, and the slot loop's rows into the face
    coefficient table, are derived once per distinct slice.  The generated kernel
    advances the same slices; {!commit} and the Runge-Kutta combinations
    visit their elements.

    One association serves every executor: u + dt·(rv + (P·sum)/V), the
    interior sum in the face form ({!Eval.form}) sum = 0 + Σ
    (area·K)[s]·V over the cell's interior slots in face order, then the
    boundary part 0 + Σ ((dt·area)·g)/V over the cell's conditioned
    boundary faces in face order (g the face's term), as lane groups on
    the CPU: the sweeps add it after each slice's interior update, the
    GPU host via {!boundary_contributions}.  With nothing to factor
    there is no P and the table holds the face area: sum = 0 + Σ
    area·rsurf. *)

exception Lower_error of string

(** A boundary face's condition: an expression compiled once per
    region, or a callback resolved once per region and staged per face
    in the state's [staged] table (see {!Problem.bc_callback}). *)
type bc_resolved =
  | RFlux_expr of Eval.program
  | RFlux_callback of bc_call
  | RDirichlet_expr of Eval.program
  | RDirichlet_callback of bc_call

(** A callback condition as the boundary string names it. *)
and bc_call = {
  call_name : string;              (** the callback's registered name *)
  call_fn : Problem.bc_callback;
  call_args : float array;         (** numeric literals from the bc string *)
}

type rankinfo = {
  rank : int;
  nranks : int;
  owned_cells : int array option; (** None = every cell *)
  index_ranges : (string * (int * int)) list;
    (** owned (offset, length) per partitioned index, 0-based *)
}

val serial_rankinfo : rankinfo
(** Rank 0 of 1, owning every cell and every index value. *)

(** The generated kernel of one state: the body emitted by
    [Emit_source.to_ocaml], compiled and bound by lib/codegen.  When a
    state carries one, {!sweep}/{!sweep_cells}/{!update_interior} hand
    it the slices the interpreter would evaluate as lane groups; the
    generated body is bit-identical by construction, so every executor
    schedule composes unchanged. *)
type native_entry = {
  n_advance : int -> int array -> int -> int -> unit;
      (** [n_advance cell comps off len]: [u_new <- u + dt * R] for the
          components [comps.(off) .. comps.(off + len - 1)] of [cell], R
          the volume term plus the interior faces *)
}

type lanebuf
(** A state's per-lane buffers, the layout of the unknown's components
    over the env's indices, and the owned cells owning a conditioned
    boundary face. *)

type state = {
  p : Problem.t;
  mesh : Fvm.Mesh.t;
  eq : Transform.equation;
  uvar : Entity.variable;
  u : Fvm.Field.t;       (** current values of the unknown *)
  u_new : Fvm.Field.t;   (** double buffer *)
  fields : (string * Fvm.Field.t) list;
  env : Eval.env;
  bindings : Eval.bindings;
  faces : Eval.faces;
      (** the solve's face tables ({!stage_interior}): built once per
          solve and shared read-only by every rank, pool worker and
          device mirror *)
  rvol : Eval.program;
  rsurf : Eval.program;
      (** reads [faces] (see {!Eval.program}); evaluated whole on a
          Dirichlet face, under the condition's ghost *)
  fpre : Eval.program option;
      (** the face form's P ({!Eval.form}), evaluated once per DOF *)
  fvar : Eval.program;
      (** the face form's V, evaluated once per interior face *)
  lanes : lanebuf;
  face_bc : bc_resolved option array;
      (** per face id; [None] on interior and unconstrained faces *)
  staged : (int -> float) array Lazy.t;
      (** per face id, a callback face's per-component function: the
          callback applied to the face's context over the state's own
          storage.  Forced by {!build}, and on the first boundary
          evaluation in a {!rebind} state. *)
  time : float ref;
  dt : float ref;
  step : int ref;
  info : rankinfo;
  breakdown : Prt.Breakdown.t;
  rvol_du : Eval.program Lazy.t;
    (** -d(rvol)/du, compiled lazily for the point-implicit stepper *)
  mutable native : native_entry option;
    (** generated entry points, set by the {!native_hook} when the
        problem's eval_mode is Native and codegen succeeded *)
}

val native_hook : (state -> native_entry option) ref
(** Backend hook consulted at state construction when eval_mode is
    Native: core cannot depend on lib/codegen, so [Finch_codegen.install]
    stores its emit-compile-load-bind pipeline here (returning [None]
    falls back to the interpreter). *)

val native_hook_installed : bool ref
(** Set by the codegen backend alongside {!native_hook}; when false, a
    Native-mode build warns once and falls back silently thereafter. *)

val field : state -> string -> Fvm.Field.t
(** [field st name] is the storage of variable [name].
    @raise Lower_error when the problem declares no such variable. *)

val coef_exn : Problem.t -> string -> Entity.coefficient
(** The declared coefficient of that name.
    @raise Lower_error when there is none. *)

val layout_of_var : Entity.variable -> (string * int * int) list
(** Per declared index of the variable: (index name, 1-based lower bound,
    stride of that index in the flat component number).  The first
    declared index is fastest. *)

val stage_interior : Problem.t -> Eval.faces
(** The lowering step that tabulates, once per solve, the face-invariant
    parts of the surface integrand for every (cell, local face) slot:
    the slot's neighbour (-1 on a boundary face), its signed normal
    [nsign * n_k], and the value of every [Cond] test of the integrand
    that reads only face geometry ([NORMAL_k], [FACEAREA]), numbers and
    coefficients, as a byte table over the slot and the values of the
    indices the test names (for the BTE, the upwind test per slot and
    direction).  A test reading a coefficient that a post-step callback
    declares it writes ({!Problem.post_io}'s [cb_writes]), or any
    coefficient once a callback declares nothing, is not staged: it is
    evaluated per DOF as before.  Staged tests are computed with the
    same float operations the per-DOF evaluation performed.

    It also factors the integrand into its face form E = P·K·V
    ({!Eval.form}) and tabulates [area·K] over the interior slots and
    the values of the indices K names; boundary slots hold 0, since
    no executor reads them.  P takes the top-level factors that read no
    face context (no [NORMAL_k], [FACEAREA], [CELL2] reference or staged
    test): they may read written coefficients and cell-local fields.  K
    takes the face-invariant factors (the staging rule above, so never a
    written coefficient), and the invariant part of a staged [Cond]
    whose branches factor with structurally equal K, or of a sum whose
    terms share one variant part.  V is the rest.  For the BTE, P =
    -1·vg[b], K = NORMAL_1·Sx[d] + NORMAL_2·Sy[d] over slot × d and V =
    [Cond(upwind, I[d,b], CELL2 I[d,b])].  When nothing factors the
    table holds the face area and V is the whole integrand, so the
    interior sum keeps the association [0 + Σ area·rsurf].  Counts each
    call in the [lower.face_stagings] metric.
    @raise Problem.Problem_error without a mesh or equation. *)

val build :
  ?info:rankinfo -> ?share_with:state -> ?private_clock:bool ->
  ?faces:Eval.faces -> Problem.t -> state
(** Build a rank's state. [share_with] reuses another state's field
    storage, face tables and time/dt refs (shared-memory workers) and
    skips initial conditions.  [private_clock] (with [share_with]) gives
    the worker its own dt/time refs seeded from the base, so a fused
    schedule can advance workers independently between barriers.
    [faces] are the solve's face tables, which [Solve] builds once for
    all ranks; without [faces] or [share_with] the state stages its own
    with {!stage_interior}.  Every callback
    boundary face is staged here, against the state's fields, so a
    callback that fails to stage raises before the first step.
    @raise Lower_error for an unknown callback, or a stage reading an
    undeclared variable or coefficient (the message names the
    callback). *)

val apply_initial_conditions : state -> unit
(** Fill every variable with its declared initial condition and copy the
    unknown into the double buffer.  {!build} calls it unless the state
    shares another state's storage. *)

val owned_comps :
  Entity.variable -> (string * (int * int)) list -> int array option
(** [owned_comps v index_ranges]: the flat components of [v], ascending,
    whose value of every partitioned index [v] carries lies in the
    rank's slice.  [None] when [v] carries no partitioned index: every
    rank then computes all of it.  The rule {!gather_fields} and the GPU
    executor use to decide what a band slice owns. *)

val gather_fields : into:state -> state array -> unit
(** [gather_fields ~into states] writes every variable's owned cells and
    owned component slices from each rank's state into [into]'s fields.
    [into] may be one of [states] (usually rank 0).  A variable carrying
    no partitioned index keeps [into]'s values: every rank computes it in
    full. *)

val sweep : state -> unit
(** Forward-Euler sweep of the owned DOFs into the double buffer, one
    slice at a time: per owned cell, its owned index tuples, the interior
    update through the generated kernel or as lane groups, then the
    slice's boundary part. *)

val sweep_cells : state -> int array -> unit
(** [sweep_cells st cells] is {!sweep} restricted to [cells] (a subset of
    the owned cells).  Per-DOF updates are independent, so sweeping
    disjoint subsets in any order is bit-identical to one full {!sweep};
    executors use this to sweep interior cells while ghost messages are
    in flight and frontier cells once they land. *)

val commit : state -> unit
(** Publish the double buffer for the owned DOFs. *)

val make_step_ctx : state -> allreduce:(float array -> unit) -> Problem.step_ctx
(** The context handed to post-step callbacks: this state's
    fields, clock, rank, owned index slices and cells, with [allreduce]
    as the cross-rank sum (a no-op on a lone rank). *)

val run_post_step : state -> allreduce:(float array -> unit) -> unit
(** Run the problem's post-step callbacks (the BTE temperature update)
    in declaration order. *)

(** {2 Hybrid GPU-target support} *)

val rebind :
  state -> fields:(string * Fvm.Field.t) list -> u_new:Fvm.Field.t -> state
(** A state whose programs read/write the given (device-view) storage,
    with its own env and lane buffers; time/dt refs, the face tables
    (the face coefficient's included) and the condition table [face_bc]
    shared with the base: P and V compile again against the new
    storage, the table is the base's.
    Callback faces stage again against the new storage, all at once on
    the state's first boundary evaluation: a state that never evaluates a
    boundary (a device mirror) stages nothing.  Expression conditions
    keep the base's programs (run on the same domain as the base's). *)

val update_interior : state -> int -> int array -> int -> int -> unit
(** [update_interior st cell comps off len], the GPU thread body of a
    block's threads on one cell: [u_new <- u + dt * R_interior] for the
    components [comps.(off) .. comps.(off + len - 1)] of [cell].  The
    generated kernel takes the whole slice; the interpreter evaluates it
    in lockstep, as lane groups of at most the env's [lanes].  A group
    holding the same components as the previous call (compared by
    content, so a caller may pass a fresh or reused array) is kept,
    unless someone touched it since. *)

val boundary_contributions : state -> into:Fvm.Field.t -> unit
(** Write the boundary part (see above) of every owned DOF of the owned
    cells that own a conditioned boundary face into [into], a field
    shaped like the unknown; its other values are left alone.  The cell
    list is computed once per state. *)

(** {2 Runge-Kutta stages (serial executor)} *)

val sweep_rhs : state -> into:Fvm.Field.t -> unit
(** Write R = (rvol + (P·Σ_interior (area·K)·V)/V) + the boundary part
    at scale 1 (0 + Σ (area·g)/V) of every owned DOF of the current
    unknown into [into]: one Runge-Kutta stage derivative. *)

val set_combination : state -> base:Fvm.Field.t -> a:float -> k:Fvm.Field.t -> unit
(** Set the unknown's owned DOFs to [base + a * k]: the intermediate
    state a Runge-Kutta stage evaluates at.
    @raise Invalid_argument unless [base] and [k] have the unknown's
    shape and layout. *)

val sweep_point_implicit : state -> unit
(** Relaxation treated implicitly via the symbolic linearization,
    advection explicit (interior faces, then the boundary part at scale
    1) — removes the dt*max(1/tau) stability bound. *)

val rk_step : state -> unit
(** One step of the configured scheme (Euler / RK2 midpoint / classic
    RK4), advancing the unknown in place. *)
