(* Holland-model relaxation times, combined by Matthiessen's rule.

   Rates depend on frequency, branch and local temperature; the solver
   refreshes per-cell 1/tau values in the temperature-update step because
   of this T dependence. *)

let rate_impurity w = Constants.a_impurity *. (w ** 4.)

let rate_la w t = Constants.b_l *. w *. w *. (t ** 3.)

let rate_ta w t =
  if w < Constants.omega_half_ta then Constants.b_tn *. w *. (t ** 4.)
  else begin
    let x = Constants.hbar *. w /. (Constants.kb *. t) in
    Constants.b_tu *. w *. w /. sinh x
  end

(* guard against pathological tiny rates at omega -> 0: they would make
   the explicit scheme's relaxation term stiff-free but the intensity
   unbounded in time; floor at a conservative value *)
let rate_floor = 1e4

(* [Float.max r rate_floor] for every r, NaN included, without a call *)
let floored r = if r < rate_floor then rate_floor else r

(* combined scattering rate 1/tau for a branch at (omega, T) *)
let rate branch w t =
  let r =
    rate_impurity w
    +.
    match branch with
    | Dispersion.LA -> rate_la w t
    | Dispersion.TA -> rate_ta w t
  in
  floored r

let tau branch w t = 1. /. rate branch w t

(* per-band rate at the band centre *)
let band_rate (b : Dispersion.band) t = rate b.Dispersion.branch b.Dispersion.w_center t
let band_tau b t = 1. /. band_rate b t

(* The temperature-independent factors of [band_rate], hoisted for the
   per-cell Newton solve.  Each keeps the left-to-right product of the
   formula above, so multiplying it by the shared temperature factor
   reproduces [band_rate] bit for bit. *)
type law =
  | La of float                 (* (b_l w) w;           rate = c T^3 *)
  | Ta_normal of float          (* b_tn w;              rate = c T^4 *)
  | Ta_umklapp of float * float (* (b_tu w) w, hbar w;  rate = c / sinh x *)

type band_law = { imp : float; law : law }

let band_law (b : Dispersion.band) =
  let w = b.Dispersion.w_center in
  { imp = rate_impurity w;
    law =
      (match b.Dispersion.branch with
       | Dispersion.LA -> La (Constants.b_l *. w *. w)
       | Dispersion.TA ->
         if w < Constants.omega_half_ta then Ta_normal (Constants.b_tn *. w)
         else Ta_umklapp (Constants.b_tu *. w *. w, Constants.hbar *. w)) }

let[@inline] set_rate rate slope b r dr =
  rate.(b) <- floored r;
  slope.(b) <- (if r < rate_floor then 0. else dr)

(* Every band's rate_b(T) into rate.(b) and its T-derivative into
   slope.(b), with the powers of T computed once for all bands:
     LA          d/dT c T^3      = 3 c T^2
     TA normal   d/dT c T^4      = 4 c T^3
     TA umklapp  d/dT c / sinh x = c cosh x x / (T sinh^2 x),  x = hbar w / k_B T
   and zero where the floor holds. *)
let rates_at laws t ~rate ~slope =
  let t2 = t *. t and t3 = t ** 3. and t4 = t ** 4. in
  let kbt = Constants.kb *. t in
  for b = 0 to Array.length laws - 1 do
    let { imp; law } = laws.(b) in
    match law with
    | La c -> set_rate rate slope b (imp +. (c *. t3)) (3. *. c *. t2)
    | Ta_normal c -> set_rate rate slope b (imp +. (c *. t4)) (4. *. c *. t3)
    | Ta_umklapp (c, hw) ->
      let x = hw /. kbt in
      let sh = sinh x in
      set_rate rate slope b (imp +. (c /. sh)) (c *. cosh x *. x /. (t *. sh *. sh))
  done
