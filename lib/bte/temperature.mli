(** The nonlinear temperature update — the paper's post-step user code.

    Per cell, the lattice temperature solves the scattering operator's
    energy balance (energy density per (d,b) is w I / vg, hence the 1/vg
    weights):

      F(T) = sum_b (rate_b(T) / vg_b) (Omega I0_b(T) - J_b) = 0,
      J_b = sum_d w_d I_(d,b).

    Newton's method with the exact Jacobian

      F'(T) = sum_b [Omega dI0_b/dT rate_b + (Omega I0_b - J_b) d rate_b/dT] / vg_b

    and a bisection fallback (the residual is increasing in T).  The
    rate term matters: the LA rates grow as T^3, and a Newton that leaves
    it out overshoots, so near 350 K it exhausted its iterations and
    bisected on about a third of the cell-solves.  With it, a cell-solve
    takes one or two residual evaluations.

    Every band-dependent quantity comes from one evaluator per iterate:
    the per-band rate constants are hoisted into the model by {!make},
    and the powers of T and the equilibrium-table stencil are computed
    once per iterate and shared by all bands.

    Because a converged Newton carries the last bit of its input into T,
    every executor reduces the same per-(cell, band) partials and folds
    them in band order: band-partitioned ranks sum an ncells x nbands
    array in which each slot has exactly one nonzero writer, so the
    result is exact and identical to the serial one. *)

(** Cross-band coupling of the balance: [Scalar_energy] balances
    emission at T against the absorbed power with the pre-update rates
    (the paper's "reduction of intensity across bands"); [Per_band]
    balances the per-band angular integrals with rates at the updated
    temperature — exactly energy-conserving for the next sweep.  Both
    reduce one value per (cell, band). *)
type reduction = Scalar_energy | Per_band

type model = {
  disp : Dispersion.t;
  eqtab : Equilibrium.t;
  angles : Angles.t;
  max_newton : int;
  tol : float;
  reduction : reduction;
  laws : Scattering.band_law array;  (** per-band rate factors *)
  vg : float array;                  (** per-band group velocity *)
}

val make :
  ?max_newton:int -> ?tol:float -> ?reduction:reduction ->
  disp:Dispersion.t -> eqtab:Equilibrium.t -> angles:Angles.t -> unit -> model
(** Build a model and hoist its per-band constants.  Defaults: at most
    30 Newton steps, |F| <= 1e-12 of the emission magnitude, and
    [Scalar_energy]. *)

val nbands : model -> int
(** Number of polarization-resolved bands. *)

val residual : model -> j:float array -> g:float -> float -> float * float
(** [residual m ~j ~g t] = (F, dF/dT) at [t] for
    F = sum_b (Omega I0_b - j.(b)) rate_b / vg_b - g.  The per-band form
    passes J_b and [g = 0]; the scalar form passes zeros and the absorbed
    power. *)

exception No_convergence of float
(** Bisection did not converge in 200 halvings; carries the midpoint. *)

val newton : model -> jb:(int -> float) -> guess:float -> float
(** [newton m ~jb ~guess]: the temperature balancing the per-band
    angular integrals [jb b], starting from [guess]. *)

val newton_scalar : model -> g:float -> guess:float -> float
(** [newton_scalar m ~g ~guess]: the temperature whose emission with
    rates at that temperature equals the absorbed power [g]. *)

val post_io : Finch.Problem.callback_io
(** The data-movement contract of {!post_step}: reads ["I"], writes
    ["Io"], ["beta"] and ["T"].  Register the callback with it
    ([Finch.Problem.post_step_function ~io:post_io]). *)

val post_step : model -> Finch.Problem.step_ctx -> unit
(** The callback wired into the DSL problem; expects fields "I" (over
    [d; b]), "Io" and "beta" (over [b]) and "T".  Reduces the
    per-(cell, band) partials through [st_allreduce] when bands are
    partitioned, then refreshes T, Io and beta on the owned cells and
    bands.  Adds its residual evaluations to the [bte.newton_iters] and
    [bte.bisection_steps] counters, once per call. *)
