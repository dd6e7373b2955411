(** Compilation of symbolic expressions to evaluation closures.

    [compile] resolves every entity reference to a direct field or
    coefficient access once; the resulting closure reads loop state
    (current cell, face, index values) from a mutable environment owned by
    the executor and performs no lookups or allocation in the inner loop.

    Recognized special symbols: [dt], [t]/[time], [pi], [x]/[y]/[z] (cell
    centroid), [VOLUME], [FACEAREA], [NORMAL_k] (outward normal component
    as seen from the current cell: the current slot's entry of the face
    tables, {!faces}). *)

exception Compile_error of string

type env = {
  mesh : Fvm.Mesh.t;
  dt : float ref;
  time : float ref;
  mutable cell : int;
  mutable cell2 : int;   (** neighbour across the current face; -1 = ghost *)
  mutable face : int;
  mutable slot : int;
    (** the current (cell, local face) slot of the {!faces} tables *)
  mutable ghost : (string -> int -> float) option;
    (** boundary ghost accessor: variable name -> component -> value *)
  ivals : (string * int ref) list; (** current 0-based index values *)
  mutable epoch : int;
    (** traversal counter; executors bump it once per DOF traversal so tape
        evaluation knows mutable inputs (fields, dt, time) may have changed *)
}

val make_env :
  mesh:Fvm.Mesh.t -> dt:float ref -> time:float ref ->
  index_names:string list -> env

val bump_epoch : env -> unit

val ival : env -> string -> int ref
(** The mutable cell holding an index's current value; raises
    {!Compile_error} for unknown indices. *)

type binding =
  | Bfield of Fvm.Field.t * (string * int * int) list
    (** field + per-index (name, 1-based lo, stride) layout *)
  | Bcoef_const of float
  | Bcoef_arr of float array * string * int
  | Bcoef_fn of (float array -> float)

type bindings = (string * binding) list

type compiled = env -> float

(** The face-invariant part of a surface integrand, tabulated once per
    solve over the (cell, local face) slots by [Lower.stage_interior].
    Cell [c]'s slots are [slot_start.(c) + i] for its faces
    [cell_faces.(c).(i)] in mesh order.  Built once and read by every
    state of the solve; never written after it is built. *)
type faces = {
  dim : int;
  slot_start : int array;    (** per cell, its first slot; ncells + 1 entries *)
  slot_nbr : int array;      (** per slot: the neighbour cell, -1 on a boundary face *)
  slot_normal : float array;
      (** per slot x [dim]: the face normal as seen from the slot's cell
          ([nsign * n_k]) *)
  tests : staged list;       (** the staged [Cond] tests *)
}

(** One staged [Cond] test: its value at every slot and every value of
    the indices it reads. *)
and staged = {
  test : Finch_symbolic.Expr.t;  (** the test the table replaces *)
  names : (string * int) list;
      (** the indices the test reads, with their extents *)
  width : int;                   (** product of those extents *)
  holds : Bytes.t;
      (** at [slot * width + offset] (first name fastest): ['\001'] where
          the test is nonzero, ['\000'] elsewhere *)
}

val compile : ?faces:faces -> bindings -> Finch_symbolic.Expr.t -> compiled
(** With [faces], [NORMAL_k] reads the current slot's signed normal and
    a [Cond] whose test is one of [faces.tests] reads its table instead
    of evaluating the test.  Raises {!Compile_error} on unknown
    entities, unresolved operator calls, misused indexed entities, or a
    [NORMAL_k] without [faces]. *)

(** {2 Tape compilation}

    [compile_tape] lowers the expression to a flat register tape (SSA op
    array evaluated over a preallocated float array) with
    common-subexpression elimination; at run time, ops whose inputs
    (epoch / cell / index variables) did not change since the previous
    call keep their register value, hoisting loop-invariant subterms out
    of the inner loops.  Results are bit-identical to the closure
    evaluator.  A tape holds mutable cache state: use one tape per
    state/env, not shared across domains. *)

type tape

val compile_tape : ?faces:faces -> bindings -> Finch_symbolic.Expr.t -> tape
(** Raises {!Compile_error} like {!compile}.  Leaves read [faces] as
    {!compile} does; a staged test still runs as tape ops. *)

val tape_run : tape -> env -> float

val tape_compiled : tape -> compiled
(** The tape as a drop-in [compiled] closure. *)

val tape_length : tape -> int
(** Total ops in the tape (post-CSE). *)

val tape_runs : tape -> int
(** Number of [tape_run] calls since the last reset. *)

val tape_executed : tape -> int
(** Cumulative ops actually executed (cache misses) since the last
    reset; [tape_executed / (tape_runs * tape_length)] is the dynamic
    evaluation ratio. *)

val tape_reset_stats : tape -> unit

type cost = { flops : float; loads : int }

val cost : Finch_symbolic.Expr.t -> cost
(** Static per-evaluation FLOP and load-count estimate, consumed by the
    GPU roofline model. *)

val tape_cost : tape -> cost
(** Post-CSE static cost of one full tape evaluation, with the same
    per-op weights as {!cost}. *)
