(* Cross-plane thin-film conduction: the classic phonon size effect.

   A 1-D slab of thickness L between two isothermal walls at T_hot and
   T_cold.  When L is large against the phonon mean free path the BTE
   reduces to Fourier's law and the effective conductivity approaches the
   bulk value; when L is comparable or smaller, boundary scattering cuts
   the conductivity down (ballistic limit).  This is the size effect that
   makes sub-micron thermal analysis require the BTE — the motivation in
   the paper's introduction — and a strong end-to-end check of the DSL on
   1-D meshes.

   The effective conductivity is extracted from the steady heat flux:
   k_eff = q L / (T_hot - T_cold),  q = sum over (d,b) of w_d Sx_d I. *)

type result = {
  thickness : float;
  k_eff : float;
  k_bulk : float;
  ratio : float;        (* k_eff / k_bulk *)
  steps_run : int;
  flux_uniformity : float; (* max relative flux variation across the slab *)
}

type config = {
  ncells : int;
  ndirs : int;
  n_la_bands : int;
  t_hot : float;
  t_cold : float;
  max_steps : int;
  flux_tol : float; (* steady-state criterion on flux drift per 100 steps *)
}

let default_config =
  {
    ncells = 40;
    ndirs = 16;
    n_la_bands = 8;
    t_hot = 305.;
    t_cold = 295.;
    max_steps = 40_000;
    flux_tol = 1e-4;
  }

(* build the 1-D problem for a slab of thickness [l] *)
let build cfg ~thickness =
  let disp = Dispersion.make ~n_la:cfg.n_la_bands in
  let nb = Dispersion.nbands disp in
  let angles = Angles.make_2d ~ndirs:cfg.ndirs in
  let t_mid = (cfg.t_hot +. cfg.t_cold) /. 2. in
  let eqtab =
    Equilibrium.make ~omega_total:angles.Angles.total ~t_lo:(t_mid /. 2.)
      ~t_hi:(2. *. t_mid) disp
  in
  let temp_model = Temperature.make ~disp ~eqtab ~angles () in
  let p = Finch.Problem.init "thin-film" in
  Finch.Problem.domain p 1;
  let mesh = Fvm.Mesh_gen.line ~n:cfg.ncells ~length:thickness in
  Finch.Problem.set_mesh p mesh;
  (* point-implicit stepping frees dt from the relaxation bound; only the
     advective CFL limit remains *)
  Finch.Problem.time_stepper p Finch.Config.Euler_point_implicit;
  let dx = thickness /. float_of_int cfg.ncells in
  let vmax =
    Array.fold_left
      (fun acc (b : Dispersion.band) -> Float.max acc b.Dispersion.vg)
      0. disp.Dispersion.bands
  in
  let dt = 0.4 *. dx /. vmax in
  Finch.Problem.set_steps p ~dt ~nsteps:1;

  let d = Finch.Problem.index p ~name:"d" ~range:(1, cfg.ndirs) in
  let b = Finch.Problem.index p ~name:"b" ~range:(1, nb) in
  let vI = Finch.Problem.variable p ~name:"I" ~indices:[ d; b ] () in
  let vIo = Finch.Problem.variable p ~name:"Io" ~indices:[ b ] () in
  let vbeta = Finch.Problem.variable p ~name:"beta" ~indices:[ b ] () in
  let vT = Finch.Problem.variable p ~name:"T" () in
  ignore
    (Finch.Problem.coefficient p ~name:"Sx" ~index:d
       (Finch.Entity.Arr (Array.copy angles.Angles.sx)));
  ignore
    (Finch.Problem.coefficient p ~name:"vg" ~index:b
       (Finch.Entity.Arr (Dispersion.vg_array disp)));

  let nd = cfg.ndirs in
  (* linear initial temperature profile speeds convergence *)
  let t_of pos =
    cfg.t_hot +. ((cfg.t_cold -. cfg.t_hot) *. pos.(0) /. thickness)
  in
  Finch.Problem.initial p vI
    (Finch.Problem.Init_fn (fun pos comp -> Equilibrium.i0 eqtab (comp / nd) (t_of pos)));
  Finch.Problem.initial p vIo
    (Finch.Problem.Init_fn (fun pos bb -> Equilibrium.i0 eqtab bb (t_of pos)));
  Finch.Problem.initial p vbeta
    (Finch.Problem.Init_fn
       (fun pos bb -> Scattering.band_rate (Dispersion.band disp bb) (t_of pos)));
  Finch.Problem.initial p vT (Finch.Problem.Init_fn (fun pos _ -> t_of pos));

  let bcctx = { Bc.disp; eqtab; angles } in
  Finch.Problem.callback_function p "hot_wall"
    (Bc.isothermal ~wall:(Bc.Const_wall cfg.t_hot) bcctx);
  Finch.Problem.callback_function p "cold_wall"
    (Bc.isothermal ~wall:(Bc.Const_wall cfg.t_cold) bcctx);
  Finch.Problem.boundary p vI 1 Finch.Config.Flux "hot_wall(I,vg,Sx,b,d,normal)";
  Finch.Problem.boundary p vI 2 Finch.Config.Flux "cold_wall(I,vg,Sx,b,d,normal)";
  Finch.Problem.post_step_function ~io:Temperature.post_io p
    (Temperature.post_step temp_model);
  ignore
    (Finch.Problem.conservation_form p vI
       "(Io[b] - I[d,b]) * beta[b] - surface(vg[b] * upwind([Sx[d]], I[d,b]))");
  p, mesh, disp, angles, dt

(* Heat flux through the slab at cell [c]: q = sum over (d,b) of
   w_d Sx_d I — intensity is already an energy-flux density, so no group
   velocity appears here (it lives inside I0 and the advection term). *)
let cell_flux (disp : Dispersion.t) (angles : Angles.t) fi c =
  let nd = angles.Angles.ndirs in
  let acc = ref 0. in
  for b = 0 to Dispersion.nbands disp - 1 do
    for d = 0 to nd - 1 do
      acc :=
        !acc
        +. (angles.Angles.weight.(d) *. angles.Angles.sx.(d)
            *. Fvm.Field.get fi c (d + (b * nd)))
    done
  done;
  !acc

(* The diffusive limit of the *discretized* model (2-D angular space,
   band-centred properties): expanding I = I0 - tau vg Sx dI0/dx and
   integrating the flux gives
     k = sum_b <Sx^2>_Omega * Omega * (dI0_b/dT) * vg_b * tau_b
   with <Sx^2> = 1/2 on the circle, Omega = 2 pi.  This (not the
   3-D-spherical bulk integral) is what k_eff must approach for thick
   films. *)
let diffusive_limit (disp : Dispersion.t) (angles : Angles.t)
    (eqtab : Equilibrium.t) t =
  let acc = ref 0. in
  for b = 0 to Dispersion.nbands disp - 1 do
    let band = Dispersion.band disp b in
    let tau = 1. /. Scattering.band_rate band t in
    acc := !acc +. (Equilibrium.di0 eqtab b t *. band.Dispersion.vg *. tau)
  done;
  0.5 *. angles.Angles.total *. !acc

(* march the 1-D problem to a steady flux and extract k_eff *)
let effective_conductivity ?(cfg = default_config) ~thickness () =
  let p, _mesh, disp, angles, _dt = build cfg ~thickness in
  let t_mid = (cfg.t_hot +. cfg.t_cold) /. 2. in
  let eqtab =
    Equilibrium.make ~omega_total:angles.Angles.total ~t_lo:(t_mid /. 2.)
      ~t_hi:(2. *. t_mid) disp
  in
  let st = Finch.Lower.build p in
  let mid = cfg.ncells / 2 in
  let flux () = cell_flux disp angles st.Finch.Lower.u mid in
  let prev = ref (flux ()) in
  let steps = ref 0 in
  let continue_ = ref true in
  while !continue_ && !steps < cfg.max_steps do
    for _ = 1 to 100 do
      Finch.Lower.rk_step st;
      Finch.Lower.run_post_step st ~allreduce:(fun _ -> ())
    done;
    steps := !steps + 100;
    let q = flux () in
    if Float.abs (q -. !prev) <= cfg.flux_tol *. Float.abs q then
      continue_ := false;
    prev := q
  done;
  let q = flux () in
  (* flux uniformity across the interior (steady state => divergence-free) *)
  let qmin = ref infinity and qmax = ref neg_infinity in
  for c = 2 to cfg.ncells - 3 do
    let qc = cell_flux disp angles st.Finch.Lower.u c in
    if qc < !qmin then qmin := qc;
    if qc > !qmax then qmax := qc
  done;
  let k_eff = q *. thickness /. (cfg.t_hot -. cfg.t_cold) in
  let k_bulk = diffusive_limit disp angles eqtab t_mid in
  {
    thickness;
    k_eff;
    k_bulk;
    ratio = k_eff /. k_bulk;
    steps_run = !steps;
    flux_uniformity = (!qmax -. !qmin) /. Float.abs q;
  }
