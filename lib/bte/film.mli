(** Cross-plane thin-film conduction: the phonon size effect.

    A 1-D slab between two isothermal walls, marched to a steady heat flux
    with the point-implicit stepper; the effective conductivity
    k_eff = q L / dT is far below the bulk value for films thin against
    the mean free path (ballistic limit) and approaches the model's own
    diffusive limit for thick films — the physics that motivates the BTE
    over Fourier's law at sub-micron scales. *)

type result = {
  thickness : float;
  k_eff : float;
  k_bulk : float;          (** the discretized model's diffusive limit *)
  ratio : float;           (** k_eff / k_bulk: the size-effect signature *)
  steps_run : int;
  flux_uniformity : float; (** steady-state check: relative flux variation *)
}

type config = {
  ncells : int;
  ndirs : int;
  n_la_bands : int;
  t_hot : float;
  t_cold : float;
  max_steps : int;
  flux_tol : float;
}

val default_config : config
(** 40 cells, 16 directions, 8 LA bands, walls at 305 and 295 K, at most
    40000 steps, steady once the mid-slab flux moves by at most 1e-4
    (relative) over 100 steps. *)

val build :
  config -> thickness:float ->
  Finch.Problem.t * Fvm.Mesh.t * Dispersion.t * Angles.t * float
(** The 1-D DSL problem for a slab; returns (problem, mesh, dispersion,
    angles, dt). *)

val cell_flux : Dispersion.t -> Angles.t -> Fvm.Field.t -> int -> float
(** q(c) = sum over (d,b) of w_d Sx_d I — no group-velocity factor:
    intensity is already an energy-flux density. *)

val diffusive_limit : Dispersion.t -> Angles.t -> Equilibrium.t -> float -> float
(** k of the discretized model in the Fourier limit:
    (1/2) Omega sum_b (dI0_b/dT) vg_b tau_b. *)

val effective_conductivity : ?cfg:config -> thickness:float -> unit -> result
(** March the slab of that thickness (m) in batches of 100 steps until
    the mid-slab flux is steady or [max_steps] is reached, then report
    k_eff = q L / dT against the diffusive limit ({!diffusive_limit}). *)
