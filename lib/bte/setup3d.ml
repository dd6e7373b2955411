(* Coarse 3-D BTE scenario (paper Section III-A: "Some very coarse-grained
   3-dimensional runs were also performed successfully").

   A box with a cold isothermal floor (region 1), an isothermal ceiling
   carrying a Gaussian hot spot (region 2), and specular symmetry on the
   four side walls (regions 3..6).  Directions use the product sphere rule
   of [Angles.make_3d]; everything else (dispersion, scattering,
   temperature inversion) is shared with the 2-D setup. *)

type scenario3d = {
  sname : string;
  lx : float;
  ly : float;
  lz : float;
  nx : int;
  ny : int;
  nz : int;
  n_azimuthal : int;
  n_polar : int;
  n_la_bands : int;
  t_cold : float;
  t_hot : float;
  hot_radius : float;
  dt : float;
  nsteps : int;
}

(* the paper's "comparable resolution" 3-D case would need ~20x20 = 400
   directions; the demonstration default is deliberately coarse *)
let coarse =
  {
    sname = "box-coarse";
    lx = 2e-6;
    ly = 2e-6;
    lz = 2e-6;
    nx = 8;
    ny = 8;
    nz = 8;
    n_azimuthal = 6;
    n_polar = 4;
    n_la_bands = 6;
    t_cold = 300.;
    t_hot = 350.;
    hot_radius = 0.7e-6;
    dt = 1e-12;
    nsteps = 20;
  }

type built3d = {
  problem : Finch.Problem.t;
  scenario : scenario3d;
  disp : Dispersion.t;
  angles : Angles.t;
  eqtab : Equilibrium.t;
  temp_model : Temperature.model;
  mesh : Fvm.Mesh.t;
}

let cfl_dt sc disp =
  let dx =
    Float.min
      (sc.lx /. float_of_int sc.nx)
      (Float.min (sc.ly /. float_of_int sc.ny) (sc.lz /. float_of_int sc.nz))
  in
  let vmax =
    Array.fold_left
      (fun acc (b : Dispersion.band) -> Float.max acc b.Dispersion.vg)
      0. disp.Dispersion.bands
  in
  let rate_max =
    Array.fold_left
      (fun acc b -> Float.max acc (Scattering.band_rate b (Float.max sc.t_cold sc.t_hot)))
      0. disp.Dispersion.bands
  in
  Float.min (dx /. vmax /. 3.) (0.5 /. rate_max)

let build (sc : scenario3d) =
  let disp = Dispersion.make ~n_la:sc.n_la_bands in
  let nb = Dispersion.nbands disp in
  let angles = Angles.make_3d ~n_azimuthal:sc.n_azimuthal ~n_polar:sc.n_polar in
  let eqtab =
    Equilibrium.make ~omega_total:angles.Angles.total
      ~t_lo:(Float.max 2. (Float.min sc.t_cold sc.t_hot /. 2.))
      ~t_hi:(2. *. Float.max sc.t_cold sc.t_hot)
      disp
  in
  let temp_model = Temperature.make ~disp ~eqtab ~angles () in
  let dt = Float.min sc.dt (cfl_dt sc disp) in

  let p = Finch.Problem.init ("bte3d-" ^ sc.sname) in
  Finch.Problem.domain p 3;
  Finch.Problem.solver_type p Finch.Config.FV;
  Finch.Problem.time_stepper p Finch.Config.Euler_explicit;
  let mesh =
    Fvm.Mesh_gen.box ~nx:sc.nx ~ny:sc.ny ~nz:sc.nz ~lx:sc.lx ~ly:sc.ly ~lz:sc.lz ()
  in
  Finch.Problem.set_mesh p mesh;
  Finch.Problem.set_steps p ~dt ~nsteps:sc.nsteps;

  let d = Finch.Problem.index p ~name:"d" ~range:(1, angles.Angles.ndirs) in
  let b = Finch.Problem.index p ~name:"b" ~range:(1, nb) in
  let vI =
    Finch.Problem.variable p ~name:"I" ~location:Finch.Entity.Cell
      ~indices:[ d; b ] ()
  in
  let vIo =
    Finch.Problem.variable p ~name:"Io" ~location:Finch.Entity.Cell ~indices:[ b ] ()
  in
  let vbeta =
    Finch.Problem.variable p ~name:"beta" ~location:Finch.Entity.Cell ~indices:[ b ] ()
  in
  let vT = Finch.Problem.variable p ~name:"T" ~location:Finch.Entity.Cell () in
  ignore
    (Finch.Problem.coefficient p ~name:"Sx" ~index:d
       (Finch.Entity.Arr (Array.copy angles.Angles.sx)));
  ignore
    (Finch.Problem.coefficient p ~name:"Sy" ~index:d
       (Finch.Entity.Arr (Array.copy angles.Angles.sy)));
  ignore
    (Finch.Problem.coefficient p ~name:"Sz" ~index:d
       (Finch.Entity.Arr (Array.copy angles.Angles.sz)));
  ignore
    (Finch.Problem.coefficient p ~name:"vg" ~index:b
       (Finch.Entity.Arr (Dispersion.vg_array disp)));

  let nd = angles.Angles.ndirs in
  let i_init = Array.init nb (fun bb -> Equilibrium.i0 eqtab bb sc.t_cold) in
  Finch.Problem.initial p vI
    (Finch.Problem.Init_fn (fun _ comp -> i_init.(comp / nd)));
  Finch.Problem.initial p vIo (Finch.Problem.Init_fn (fun _ bb -> i_init.(bb)));
  Finch.Problem.initial p vbeta
    (Finch.Problem.Init_fn
       (fun _ bb -> Scattering.band_rate (Dispersion.band disp bb) sc.t_cold));
  Finch.Problem.initial p vT (Finch.Problem.Init_const sc.t_cold);

  let bcctx = { Bc.disp; eqtab; angles } in
  let hot_wall pos =
    let x = pos.(0) -. (sc.lx /. 2.) and y = pos.(1) -. (sc.ly /. 2.) in
    let r2 = (x *. x) +. (y *. y) in
    sc.t_cold
    +. ((sc.t_hot -. sc.t_cold)
        *. exp (-2. *. r2 /. (sc.hot_radius *. sc.hot_radius)))
  in
  Finch.Problem.callback_function p "isothermal_cold" (Bc.isothermal bcctx);
  Finch.Problem.callback_function p "isothermal_hot"
    (Bc.isothermal ~wall:(Bc.Profile_wall hot_wall) bcctx);
  Finch.Problem.callback_function p "symmetry" (Bc.symmetry bcctx);
  Finch.Problem.boundary p vI 1 Finch.Config.Flux
    (Printf.sprintf "isothermal_cold(I,vg,Sx,Sy,b,d,normal,%g)" sc.t_cold);
  Finch.Problem.boundary p vI 2 Finch.Config.Flux
    "isothermal_hot(I,vg,Sx,Sy,b,d,normal)";
  List.iter
    (fun r ->
      Finch.Problem.boundary p vI r Finch.Config.Flux "symmetry(I,Sx,Sy,b,d,normal)")
    [ 3; 4; 5; 6 ];

  Finch.Problem.post_step_function ~io:Temperature.post_io p
    (Temperature.post_step temp_model);

  ignore
    (Finch.Problem.conservation_form p vI
       "(Io[b] - I[d,b]) * beta[b] - surface(vg[b] * upwind([Sx[d];Sy[d];Sz[d]], I[d,b]))");
  { problem = p; scenario = { sc with dt }; disp; angles; eqtab; temp_model; mesh }
