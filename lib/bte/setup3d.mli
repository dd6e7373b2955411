(** Coarse 3-D BTE scenario (paper Sec. III-A: "very coarse-grained
    3-dimensional runs were also performed successfully"): a box with a
    cold isothermal floor, an isothermal ceiling carrying a Gaussian hot
    spot, and specular symmetry on the four side walls, using the sphere
    quadrature of {!Angles.make_3d}. *)

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

val coarse : scenario3d
(** A 2 um cube on an 8x8x8 mesh, 6x4 sphere directions, 6 LA bands,
    300 K floor and a 350 K hot spot, 20 steps: deliberately coarse (a
    resolution comparable to the 2-D runs would need about 400
    directions). *)

type built3d = {
  problem : Finch.Problem.t;
  scenario : scenario3d;
  disp : Dispersion.t;
  angles : Angles.t;
  eqtab : Equilibrium.t;
  temp_model : Temperature.model;
  mesh : Fvm.Mesh.t;
}

val cfl_dt : scenario3d -> Dispersion.t -> float
(** Stability bound: a third of the advective CFL step over the smallest
    cell edge, and the relaxation-rate bound dt * max(1/tau) < 1/2. *)

val build : scenario3d -> built3d
(** The 3-D DSL problem with dt clamped to {!cfl_dt}; the temperature
    update is registered with its contract ({!Temperature.post_io}). *)
