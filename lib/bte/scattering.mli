(** Holland-model relaxation times, combined by Matthiessen's rule.
    Rates depend on frequency, branch and local temperature, which is why
    the solver refreshes per-cell 1/tau values after every temperature
    update. *)

val rate_impurity : float -> float
(** [rate_impurity w] = A w^4, the impurity (mass-difference) rate. *)

val rate_la : float -> float -> float
(** [rate_la w t] = B_L w^2 T^3, the LA normal + umklapp rate. *)

val rate_ta : float -> float -> float
(** [rate_ta w t]: TA normal rate B_TN w T^4 below [omega_half_ta],
    umklapp rate B_TU w^2 / sinh(hbar w / k_B T) above it. *)

val rate : Dispersion.branch -> float -> float -> float
(** [rate branch omega t] = combined 1/tau, floored away from zero to keep
    the explicit scheme well-behaved at omega -> 0. *)

val tau : Dispersion.branch -> float -> float -> float
(** [tau branch omega t] = 1 / {!rate}. *)

val band_rate : Dispersion.band -> float -> float
(** Rate at the band centre. *)

val band_tau : Dispersion.band -> float -> float
(** [band_tau band t] = 1 / {!band_rate}. *)

(** {2 Hoisted evaluation}

    The per-cell Newton solve evaluates every band's rate, and its
    temperature derivative, at each iterate.  A {!band_law} carries a
    band's temperature-independent factors, so an iterate costs one
    [pow] pair for all bands instead of one per band. *)

type band_law
(** A band's temperature-independent rate factors. *)

val band_law : Dispersion.band -> band_law
(** Hoist a band's factors, keeping {!band_rate}'s left-to-right
    products. *)

val rates_at :
  band_law array -> float -> rate:float array -> slope:float array -> unit
(** [rates_at laws t ~rate ~slope] stores band [b]'s rate at [t] in
    [rate.(b)], bit-identical to {!band_rate}, and its exact derivative
    d rate / dT in [slope.(b)]: 3 c T^2 (LA), 4 c T^3 (TA normal),
    c cosh x x / (T sinh^2 x) with x = hbar w / k_B T (TA umklapp), and
    0 where the floor holds. *)
