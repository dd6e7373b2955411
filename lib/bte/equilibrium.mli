(** Band-integrated Bose-Einstein equilibrium intensity I0_b(T) and its
    temperature derivative, tabulated on a dense temperature grid for the
    O(1) lookups the per-cell Newton solve needs.

    I0_b(T) = (deg_p / Omega) * integral over the band of
              hbar w vg(w) D(w) f_BE(w, T) dw. *)

type t = {
  disp : Dispersion.t;
  omega_total : float;
  t_lo : float;
  t_hi : float;
  dt_grid : float;
  ntemps : int;
  i0 : float array array;
  di0 : float array array;
}

val f_bose : float -> float -> float
(** [f_bose w t]: Bose-Einstein occupation 1 / (exp(hbar w / k_B t) - 1). *)

val df_bose : float -> float -> float
(** [df_bose w t]: d f_BE / dT at frequency [w], temperature [t]. *)

val spectral : Dispersion.branch -> float -> float
(** hbar w vg D(w). *)

val quad_points : int
(** Midpoint-rule points per band in {!band_integral}. *)

val band_integral : Dispersion.band -> (float -> float) -> float
(** Midpoint-rule integral of spectral * f over a band, including the
    branch degeneracy. *)

val i0_exact : t -> int -> float -> float
(** Direct quadrature (no table). *)

val di0_exact : t -> int -> float -> float
(** [di0_exact tbl b t]: dI0_b/dT by direct quadrature (no table). *)

val make :
  ?t_lo:float -> ?t_hi:float -> ?dt_grid:float -> omega_total:float ->
  Dispersion.t -> t
(** Tabulate I0_b and dI0_b/dT for every band on the grid
    [t_lo, t_lo + dt_grid, ..., >= t_hi] (defaults 50 K, 600 K, 0.5 K).
    @raise Invalid_argument on an empty range or non-positive step. *)

val i0 : t -> int -> float -> float
(** Linear interpolation in the table; temperature clamped to the grid. *)

val di0 : t -> int -> float -> float
(** [di0 tbl b t]: the tabulated dI0_b/dT, interpolated like {!i0}. *)

val bands_at : t -> float -> i0:float array -> di0:float array -> unit
(** [bands_at tbl t ~i0 ~di0] stores every band's {!i0} and {!di0} at
    [t] — exactly those values — computing the interpolation stencil
    once for all bands. *)

val energy_density : t -> float -> float
(** Total equilibrium phonon energy density at T:
    sum over bands of Omega * I0_b / vg_b. *)
