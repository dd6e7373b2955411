(** Analysis context: entity facts the passes need beyond the IR tree —
    name classification, initial-value coverage, partitioning, and the
    declared effects of opaque user callbacks. *)

type t = {
  variables : string list;  (** declared variable names *)
  coefficients : string list;
      (** declared coefficient names (constant memory on the device) *)
  cell_vars : string list;  (** variables stored per mesh cell *)
  defined : string list;
      (** names with a value before the program runs: coefficients plus
          variables with an initial condition *)
  partitioned : bool;
      (** mesh-partitioned run (ghost regions need halo exchanges) *)
  cb_reads : string list;  (** variables the post-step callbacks read *)
  cb_writes : string list;  (** variables the post-step callbacks write *)
}

val make :
  ?variables:string list -> ?coefficients:string list ->
  ?cell_vars:string list -> ?defined:string list -> ?partitioned:bool ->
  ?cb_reads:string list -> ?cb_writes:string list -> unit -> t
(** Explicit construction (fixtures and tests); everything defaults
    empty/false. *)

val of_problem : Finch.Problem.t -> t
(** Derive the context from a configured problem; the callback reads and
    writes are its post-step contract, {!Finch.Problem.post_io}. *)

val is_cell_var : t -> string -> bool
(** Whether a name is a per-cell variable. *)

val is_coefficient : t -> string -> bool
(** Whether a name is a coefficient. *)
