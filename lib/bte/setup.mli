(** Scenario construction: encodes the phonon BTE in the DSL exactly as
    the paper's input script (Sec. III-B / appendix listing) and wires the
    physics callbacks.

    Scenarios: [hotspot] — the main demonstration (cold isothermal bottom
    wall, isothermal top wall with a centred Gaussian hot spot, symmetric
    sides, initial equilibrium at the cold temperature); [corner] — the
    Fig. 10 variant with the source against a corner of an elongated
    domain at 100 K. *)

type scenario = {
  sname : string;
  lx : float;
  ly : float;
  nx : int;
  ny : int;
  ndirs : int;
  n_la_bands : int;   (** frequency bands; resolved count is larger *)
  t_cold : float;
  t_hot : float;
  hot_radius : float; (** 1/e^2 radius of the Gaussian, m *)
  hot_center : float; (** x position of the peak, m *)
  dt : float;
  nsteps : int;
}

val paper_hotspot : scenario
(** 525 um square, 120x120 cells, 20 directions, 40 frequency bands (55
    resolved), dt = 1e-12 s (the appendix's stable value). *)

val small_hotspot : scenario
(** A sub-micron reduced configuration (Knudsen number near one) that runs
    in seconds. *)

val paper_corner : scenario
(** The Fig. 10 corner domain: 200x50 um, 160x40 cells, 20 directions,
    40 frequency bands, 100 K walls with a 150 K source against the left
    corner, dt = 1e-12 s. *)

val small_corner : scenario
(** A reduced corner configuration (8x2 um, 32x8 cells, 8 directions,
    8 bands) at the same temperatures, for runs in seconds. *)

type built = {
  problem : Finch.Problem.t;
  scenario : scenario; (** with dt clamped to the stability bound *)
  disp : Dispersion.t;
  angles : Angles.t;
  eqtab : Equilibrium.t;
  temp_model : Temperature.model;
  mesh : Fvm.Mesh.t;
}

val cfl_dt : scenario -> Dispersion.t -> float
(** Stability bound: advective CFL AND the relaxation-rate bound
    dt * max(1/tau) < 1 (high-frequency bands have tau of a few ps). *)

val post_io : Finch.Problem.callback_io
(** The temperature update's contract, {!Temperature.post_io}; the
    scenarios register their callback with it. *)

val build :
  ?enforce_cfl:bool -> ?stepper:Finch.Config.time_stepper ->
  ?cache:Finch.Stage_cache.t -> scenario -> built
(** With the point-implicit stepper only the advective CFL bound applies
    to dt (the relaxation-rate bound disappears).  With [cache], three
    shape-only artefacts are entries of it, each bit-identical to a
    fresh build: the physics tables (dispersion, angles, equilibrium,
    temperature model) keyed by (LA bands, directions, t_cold, t_hot);
    the mesh ([Fvm.Mesh_gen.rectangle]) keyed by (nx, ny, lx, ly); and
    the transformed equation ({!Finch.Problem.conservation_form}).
    Without one, the default, all three are built fresh.  Every fresh
    table construction counts in the [bte.table_builds] metric. *)

val build_corner :
  ?enforce_cfl:bool -> ?stepper:Finch.Config.time_stepper ->
  ?cache:Finch.Stage_cache.t -> scenario -> built
(** {!build} with the source moved against the left corner
    ([hot_center = 0]). *)

val scenario_of_request : scenario -> Finch.Solve_request.t -> scenario
(** Concrete scenario for a request: the base record supplies the
    geometry (the physical domain size is kept, so growing [nx] refines
    the mesh); the request overrides discretization dimensions, step
    count and temperatures. *)

val register_scenarios : unit -> unit
(** Install ["hotspot"], ["corner"] and their paper-scale geometry
    variants ["hotspot-paper"] / ["corner-paper"] in the {!Finch}
    scenario registry, enabling [Finch.solve] on requests naming them.
    Entry points call this once at startup (archive linking drops
    unreferenced side effects, so registration must be explicit).
    Idempotent. *)

val base_of_scenario : string -> scenario option
(** The base record a registered scenario name builds from, for callers
    that report geometry (domain size, default temperatures) before the
    solve. *)

val request_of_base : scenario -> string -> Finch.Solve_request.t
(** A request whose discretization dimensions and step count match the
    base record exactly — the way to run the paper-scale variants, whose
    dims differ from the {!Finch.Solve_request.make} defaults. *)
