(** An execution plan — the unit the autotuner searches over.

    A plan is plain data: the concrete backend target (never
    [Config.Auto]), the optimizer level, the evaluator and the overlap
    toggle.  Applying a plan to a solve request overrides exactly those
    knobs and nothing else, so two requests that differ only in
    temperatures resolve onto the same plan. *)

type t = {
  target : Finch.Config.target;  (** concrete backend; never [Auto] *)
  opt_level : Finch.Config.opt_level;
  eval_mode : Finch.Config.eval_mode;
  overlap : bool;       (** comm/compute overlap on SPMD/GPU paths *)
}

val make :
  ?opt_level:Finch.Config.opt_level ->
  ?eval_mode:Finch.Config.eval_mode ->
  ?overlap:bool ->
  Finch.Config.target ->
  t
(** [make target] with defaults [O2], [Closure], no overlap.  Raises
    [Invalid_argument] on [Config.Auto]. *)

val name : t -> string
(** Canonical one-line spelling, e.g. ["gpu:a6000 opt=2 eval=closure
    sync"] — stable across runs, usable as a report label. *)

val equal : t -> t -> bool
(** Structural equality (targets compare via their canonical spec). *)

val of_request : Finch.Solve_request.t -> t
(** The plan a concrete request already encodes.  Raises
    [Invalid_argument] if the request's backend is [Auto]. *)

val apply : t -> Finch.Solve_request.t -> Finch.Solve_request.t
(** Rewrite the request's backend, opt level, evaluator and overlap to
    the plan's; every other field (scenario, dims, temperatures,
    deadline, label) is untouched. *)

val to_json : t -> Finch.Json.t
(** Serialize (backend in the {!Finch.Config.target_name} grammar). *)

val of_json : Finch.Json.t -> (t, string) result
(** Parse; inverse of {!to_json}. *)
