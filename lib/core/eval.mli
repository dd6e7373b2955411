(** Compilation of symbolic expressions to lane programs.

    [program] resolves every entity reference to a direct field or
    coefficient access once.  The result evaluates over a {e lane group}:
    DOFs that share one cell (and face), one lane per component, the way a
    GPU warp runs its threads in lockstep.  Each node of the program loops
    over the group's active lanes into a preallocated buffer, so dispatch
    is paid once per group and an evaluation allocates nothing.  Every
    lane performs exactly the float operations a per-DOF evaluation
    performs, in the same order, so results are bit-identical whatever
    the group.  A [Cond] splits the active lanes by its test and runs
    each branch on its own lanes only: no lane reads across a face, reads
    a shifted index or calls a coefficient function that a one-lane
    evaluation of its DOF would not.  {!compile}, the scalar entry, is
    the same program run on one lane.

    Recognized special symbols: [dt], [t]/[time], [pi], [x]/[y]/[z] (cell
    centroid), [VOLUME], [FACEAREA], [NORMAL_k] (outward normal component
    as seen from the current cell: the current slot's entry of the face
    tables, {!faces}). *)

exception Compile_error of string

val max_lanes : int
(** The most lanes one group holds (256: one kernel block). *)

(** A lane group.  Lane [l]'s value of the env's [k]-th index (in
    [make_env]'s [index_names] order) is [iv.(k).(l)]; the cell, face
    and slot are the env's, shared by every lane.  Whoever writes [n] or
    [iv] calls {!touch} before the next {!run}: a program derives each
    lane's field components, coefficient indices and staged-test
    offsets once per group and reuses them until the stamp changes. *)
type lanes = {
  mutable n : int;        (** lanes in the group, at most the env's [lanes] *)
  iv : int array array;   (** per index, per lane: the 0-based value *)
  mutable stamp : int;    (** changed by {!touch} *)
}

val touch : lanes -> unit
(** Mark the group's lanes as changed. *)


type env = {
  mesh : Fvm.Mesh.t;
  dt : float ref;
  time : float ref;
  mutable cell : int;
  mutable cell2 : int;   (** neighbour across the current face; -1 = ghost *)
  mutable face : int;
  mutable slot : int;
    (** the current (cell, local face) slot of the {!faces} tables *)
  mutable ghost : (string -> int -> int -> float) option;
    (** boundary ghost accessor: variable name -> lane -> component ->
        value *)
  ivals : (string * int ref) list;
    (** current 0-based index values: what {!compile}'s one lane reads *)
  lanes : int;  (** lanes a group may hold; sizes every program's scratch *)
  group : lanes;  (** the current lane group, written by the executor *)
  one : lanes;  (** {!compile}'s one-lane group *)
}

val make_env :
  lanes:int -> mesh:Fvm.Mesh.t -> dt:float ref -> time:float ref ->
  index_names:string list -> env
(** An env whose groups hold at most [lanes] lanes (1 to {!max_lanes}). *)

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

type program
(** A compiled lane program.  It binds to the env of its first run —
    resolving index names (an unknown index raises {!Compile_error}
    then) and allocating its scratch, one buffer of the env's [lanes]
    entries per node — and serves that env only: one program per state,
    and so per domain. *)

val program : ?faces:faces -> bindings -> Finch_symbolic.Expr.t -> program
(** With [faces], [NORMAL_k] reads the current slot's signed normal and
    a [Cond] whose test is one of [faces.tests] reads its table, per
    lane, instead of evaluating the test.  Raises {!Compile_error} on
    unknown entities, index-arity mismatches, unresolved operator calls,
    misused indexed entities, or a [NORMAL_k] without [faces]. *)

val run : program -> env -> float array
(** Evaluate over the env's current group: lane [l]'s value is at [l] of
    the result, a buffer the program owns until its next run.  A read
    through an index shift outside the field's components raises
    {!Compile_error}, as does a [Cell2] read on a boundary slot with no
    ghost accessor. *)

val compile : ?faces:faces -> bindings -> Finch_symbolic.Expr.t -> compiled
(** The scalar entry: {!program} run on one lane holding the env's
    current index values ([ivals]).  Raises like {!program} and {!run}. *)

type cost = { flops : float; loads : int }

val cost : Finch_symbolic.Expr.t -> cost
(** Static per-evaluation FLOP and load-count estimate, consumed by the
    GPU roofline model. *)
