(** A solve request — the unit of work the public API and the serve
    scheduler operate on.

    One record captures everything a caller previously hand-wired
    through [Problem.set_*]: the scenario, mesh and discretization
    dimensions, step count, temperature parameters, backend, optimizer
    level and evaluator.  Requests are plain data: they can be hashed,
    queued, serialized ({!to_json}/{!of_json}) and compared for
    batch-compatibility without touching solver state. *)

type t = {
  scenario : string;
    (** registered scenario name, e.g. ["hotspot"] or ["corner"] *)
  nx : int;               (** mesh cells in x *)
  ny : int;               (** mesh cells in y *)
  ndirs : int;            (** angular directions *)
  nbands : int;           (** LA frequency bands *)
  nsteps : int;           (** explicit time steps *)
  t_hot : float option;   (** hot boundary/source temperature, K *)
  t_cold : float option;  (** background temperature, K *)
  backend : Config.target;
  opt_level : Config.opt_level;
  eval_mode : Config.eval_mode;
  overlap : bool;         (** comm/compute overlap on SPMD/GPU paths *)
  deadline_s : float option;
    (** serve-layer admission deadline, seconds from submission *)
  label : string option;  (** free-form tag echoed into traces *)
}

val make :
  ?nx:int ->
  ?ny:int ->
  ?ndirs:int ->
  ?nbands:int ->
  ?nsteps:int ->
  ?t_hot:float ->
  ?t_cold:float ->
  ?backend:Config.target ->
  ?opt_level:Config.opt_level ->
  ?eval_mode:Config.eval_mode ->
  ?overlap:bool ->
  ?deadline_s:float ->
  ?label:string ->
  string ->
  t
(** [make scenario] builds a request with the given scenario name and
    small defaults (24x24 mesh, 8 directions, 8 bands, 20 steps, serial
    backend, O2, closure evaluator, no overlap, no deadline). *)

val validate : t -> (unit, string) result
(** Structural checks independent of scenario registration: positive
    dimensions and step counts, positive temperatures when given, an
    evaluator that exists (not the retired [Config.Tape]), non-negative
    deadline. *)

val equal : t -> t -> bool
(** Structural equality (GPU backends compare by spec name and
    shape). *)

val to_json : t -> Json.t
(** Serialize for the service queue / wire protocols.  The backend is
    spelled with the canonical {!Config.target_name} grammar. *)

val of_json : Json.t -> (t, string) result
(** Parse a request; inverse of {!to_json}.  Unknown members are
    ignored; missing optional members take the {!make} defaults; the
    backend string goes through {!Config.target_of_string} and the
    evaluator through {!Config.eval_mode_of_string}. *)

val of_string : string -> (t, string) result
(** [of_json] composed with {!Json.of_string}. *)

val to_string : t -> string
(** Compact single-line JSON of {!to_json}. *)

val summary : t -> string
(** One-line human description: scenario, dims, backend, opt, eval. *)
