(* Band-integrated equilibrium intensity I0_b(T) and its temperature
   derivative.

   The equilibrium phonon intensity per unit solid angle is

     I0_b(T) = (1/Omega) * deg_p * integral over the band of
                 hbar*omega * vg(omega) * D(omega) * f_BE(omega, T) domega

   with D the 3-D isotropic density of states and Omega the total angular
   measure of the discretization (2*pi in the 2-D setting).  Each band is
   integrated with a midpoint rule; values and derivatives are tabulated on
   a dense temperature grid for O(1) lookup in the per-cell Newton solve. *)

type t = {
  disp : Dispersion.t;
  omega_total : float;
  t_lo : float;
  t_hi : float;
  dt_grid : float;
  ntemps : int;
  (* i0.(b).(k): I0 of band b at grid temperature k *)
  i0 : float array array;
  di0 : float array array; (* dI0/dT on the same grid *)
}

let f_bose w t =
  let x = Constants.hbar *. w /. (Constants.kb *. t) in
  (* guard very small x: expm1 keeps precision *)
  1. /. Float.expm1 x

(* d f_BE / dT *)
let df_bose w t =
  let x = Constants.hbar *. w /. (Constants.kb *. t) in
  let e = Float.expm1 x in
  let ex = e +. 1. in
  x /. t *. ex /. (e *. e)

(* spectral integrand hbar w vg D(w) for one branch *)
let spectral branch w =
  Constants.hbar *. w *. Dispersion.vg_of_omega branch w *. Dispersion.dos branch w

let quad_points = 32

(* integral over one band of spectral * f(w) *)
let band_integral (b : Dispersion.band) f =
  let deg = Dispersion.degeneracy b.Dispersion.branch in
  let dw = (b.Dispersion.w_hi -. b.Dispersion.w_lo) /. float_of_int quad_points in
  let acc = ref 0. in
  for i = 0 to quad_points - 1 do
    let w = b.Dispersion.w_lo +. ((float_of_int i +. 0.5) *. dw) in
    acc := !acc +. (spectral b.Dispersion.branch w *. f w)
  done;
  deg *. !acc *. dw

let i0_exact tbl b t =
  let band = tbl.disp.Dispersion.bands.(b) in
  band_integral band (fun w -> f_bose w t) /. tbl.omega_total

let di0_exact tbl b t =
  let band = tbl.disp.Dispersion.bands.(b) in
  band_integral band (fun w -> df_bose w t) /. tbl.omega_total

let make ?(t_lo = 50.) ?(t_hi = 600.) ?(dt_grid = 0.5) ~omega_total disp =
  if t_hi <= t_lo || dt_grid <= 0. then invalid_arg "Equilibrium.make";
  let ntemps = int_of_float (ceil ((t_hi -. t_lo) /. dt_grid)) + 1 in
  let nb = Dispersion.nbands disp in
  let tbl =
    {
      disp;
      omega_total;
      t_lo;
      t_hi;
      dt_grid;
      ntemps;
      i0 = Array.make_matrix nb ntemps 0.;
      di0 = Array.make_matrix nb ntemps 0.;
    }
  in
  for b = 0 to nb - 1 do
    for k = 0 to ntemps - 1 do
      let t = t_lo +. (float_of_int k *. dt_grid) in
      tbl.i0.(b).(k) <- i0_exact tbl b t;
      tbl.di0.(b).(k) <- di0_exact tbl b t
    done
  done;
  tbl

let clamp tbl t = Float.min tbl.t_hi (Float.max tbl.t_lo t)

(* Linear interpolation on the grid, split into the temperature-only
   stencil (grid position, interval) and the per-row blend, so [bands_at]
   computes the stencil once for all bands and still produces exactly the
   values [i0]/[di0] return. *)
let[@inline] grid_pos tbl t = (clamp tbl t -. tbl.t_lo) /. tbl.dt_grid
let[@inline] interval tbl x = min (int_of_float x) (tbl.ntemps - 2)
let[@inline] lerp (row : float array) k frac =
  ((1. -. frac) *. row.(k)) +. (frac *. row.(k + 1))

let interp table tbl b t =
  let x = grid_pos tbl t in
  let k = interval tbl x in
  lerp table.(b) k (x -. float_of_int k)

let i0 tbl b t = interp tbl.i0 tbl b t
let di0 tbl b t = interp tbl.di0 tbl b t

let bands_at tbl t ~i0 ~di0 =
  let x = grid_pos tbl t in
  let k = interval tbl x in
  let frac = x -. float_of_int k in
  for b = 0 to Array.length tbl.i0 - 1 do
    i0.(b) <- lerp tbl.i0.(b) k frac;
    di0.(b) <- lerp tbl.di0.(b) k frac
  done

(* total equilibrium energy density at T: sum over bands of Omega * I0 / vg *)
let energy_density tbl t =
  let acc = ref 0. in
  for b = 0 to Dispersion.nbands tbl.disp - 1 do
    let vg = (Dispersion.band tbl.disp b).Dispersion.vg in
    acc := !acc +. (tbl.omega_total *. i0 tbl b t /. vg)
  done;
  !acc
