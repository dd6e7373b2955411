(** Analysis driver: runs {!Wellformed}, {!Race}, {!Movement} and
    {!Comm} over an IR program and aggregates a report.  Totals are
    mirrored to the [analysis.errors] / [analysis.warnings] metrics. *)

type report = {
  findings : Finding.t list;  (** errors first, then warnings *)
  errors : int;  (** findings with error severity *)
  warnings : int;  (** findings with warning severity *)
}
(** Aggregated result of one check. *)

val empty : report
(** A report with no findings. *)

val check_ir :
  ?plan:Finch.Dataflow.plan -> ?comm:Comm.input ->
  ?ignore_codes:Finding.code list -> Ctx.t -> Finch.Ir.node -> report
(** Run all passes over a tree; [ignore_codes] suppresses listed codes
    (for vetted programs), [plan] enables the A023 cross-check, [comm]
    activates the A025–A032 schedule verification. *)

val check_problem :
  ?ignore_codes:Finding.code list -> Finch.Problem.t -> report
(** Check the program the executors will mirror for this problem: the
    CPU-strategy IR, or the hybrid GPU IR built from the data-movement
    plan (which is then also cross-checked).  On mesh-partitioned
    targets the communication plan is derived with
    {!Comm.plan_of_problem} and the elaborated schedule verified. *)

val pp_report : out_channel -> report -> unit
(** Print each finding plus an error/warning tally, indented. *)
