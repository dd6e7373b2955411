(** Solver configuration enumerations (script options). *)

type solver_type =
  | FV (** finite volume — the method used throughout the paper *)
  | FE (** accepted for completeness; code generation targets FV *)

type time_stepper =
  | Euler_explicit       (** the paper's scheme *)
  | RK2                  (** explicit midpoint (extension) *)
  | RK4                  (** classic four-stage (extension) *)
  | Euler_point_implicit
    (** source linearized symbolically and treated implicitly, advection
        explicit — removes the stiff relaxation bound on dt (extension) *)

val stepper_stages : time_stepper -> int
(** Right-hand-side evaluations per step: 1 for the Euler steppers, 2 for
    [RK2], 4 for [RK4]. *)

val stepper_name : time_stepper -> string
(** The DSL spelling of a stepper, e.g. ["EULER_EXPLICIT"] or ["RK4"]. *)

type bc_kind =
  | Flux      (** prescribes the surface-term integrand (possibly callback) *)
  | Dirichlet (** prescribes the ghost/boundary value *)

val bc_kind_name : bc_kind -> string

(** Parallel execution strategies explored in the paper (Sec. III-C/D),
    plus shared-memory extensions. *)
type strategy =
  | Serial
  | Cell_parallel of int (** mesh partitioned into n pieces *)
  | Band_parallel of int (** equation index space partitioned into n pieces *)
  | Threaded of int      (** shared-memory domain pool over cell ranges *)
  | Hybrid of int * int
    (** band-parallel ranks x pool domains per rank (MPI+threads hybrid) *)

type target =
  | Cpu of strategy
  | Gpu of { spec : Gpu_sim.Spec.t; devices : int; ranks : int }
    (** [ranks] SPMD processes over the band axis, each driving
        [devices] simulated devices over the cell axis; devices exchange
        ghosts device-to-device (simulated NVLink within a node, host
        staging across).  [devices = ranks = 1] is the single-device
        target. *)
  | Auto
    (** placeholder resolved by the autotuner ([finch_tune],
        docs/TUNER.md) before preparation: entry points replace it with
        the winning plan's concrete target.  Executors and lowering
        never see [Auto]; {!Finch.prepare} rejects it. *)

val target_name : target -> string
(** Canonical backend spec of a target: ["auto"], ["serial"],
    ["threads:N"], ["bands:N"], ["cells:N"], ["hybrid:RxD"],
    ["gpu:NAME"], ["gpu:NAME:RANKS"] or ["gpu:NAME:GxR"] (G devices per
    rank when G > 1).  Round-trips through {!target_of_string}. *)

val target_of_string : string -> (target, string) result
(** Parse a backend spec
    [auto|serial|threads:N|bands:N|cells:N|hybrid:RxD|gpu[:NAME[:RANKS|:GxR]]]
    (case-insensitive; GPU names as accepted by {!Gpu_sim.Spec.by_name},
    defaulting to [a6000] with one device and one rank; [gpu:NAME:1xR]
    is the same target as [gpu:NAME:R]).
    [Error msg] describes the expected grammar on malformed input. *)

(** How compiled right-hand sides are executed: [Closure], the lane
    interpreter ({!Eval.program}), or [Native], generated OCaml compiled
    and dynlinked behind a content-hash cache (docs/CODEGEN.md; falls
    back to the interpreter with a warning when the toolchain or
    emission is unavailable).

    [Tape] is a retired constructor: the register-tape evaluator it
    named was removed.  It is kept only so the benchmark harness
    (perfbench) still compiles, until that harness names evaluators by
    string.  No parser produces it, and every entry
    point rejects it with a named error ({!tape_removed}):
    [Solve_request.validate], hence [Finch.prepare] and the serve
    scheduler, and [Problem.set_eval_mode]. *)
type eval_mode = Closure | Tape | Native

val eval_mode_name : eval_mode -> string
(** ["closure"], ["native"] (and ["tape"] for the retired constructor):
    the CLI and JSON spelling of an evaluator. *)

val tape_removed : string
(** The message every rejection of [Tape] carries. *)

val eval_mode_of_string : string -> (eval_mode, string) result
(** Parse ["closure"|"native"] (case-insensitive).  ["tape"] is an
    [Error] saying the evaluator was removed; any other string an
    [Error] naming the expected values. *)

(** Optimization level of the IR middle end and the matching executor
    schedules: [O0] naive lowering (one pool region / kernel launch per
    IR loop), [O2] CPU loop and step-pair fusion, dead-assign
    elimination, transfer coalescing, band-batched device launches and
    loop-invariant H2d hoisting.  Both levels are bit-identical; see
    docs/OPTIMIZER.md. *)
type opt_level = O0 | O2

val opt_level_name : opt_level -> string
(** ["0"] or ["2"] — the CLI spelling of a level. *)

val opt_level_of_string : string -> (opt_level, string) result
(** Parse ["0"|"2"] (also accepts ["O0"] and ["O2"], case-insensitive).
    [Error msg] describes the expected grammar on malformed input,
    including the retired level ["1"]. *)
