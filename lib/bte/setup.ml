(* Scenario construction: encodes the phonon BTE in the DSL exactly as the
   paper's input script does (Section III-B and the appendix listing), and
   wires the physics callbacks.

   Two scenarios are provided:
   - [hotspot]: the paper's main demonstration (Figs. 1-2): square domain,
     cold isothermal bottom wall, isothermal top wall with a centred
     Gaussian hot spot, symmetry sides, initial equilibrium at the cold
     temperature;
   - [corner]: the Fig. 10 variant: elongated domain with the heat source
     in one corner of the top wall at a lower base temperature. *)

type scenario = {
  sname : string;
  lx : float;
  ly : float;
  nx : int;
  ny : int;
  ndirs : int;
  n_la_bands : int;      (* frequency bands; polarization-resolved count is larger *)
  t_cold : float;        (* initial / cold-wall temperature, K *)
  t_hot : float;         (* hot-spot peak temperature, K *)
  hot_radius : float;    (* 1/e^2 radius of the Gaussian, m *)
  hot_center : float;    (* x position of the peak, m *)
  dt : float;
  nsteps : int;
}

(* The paper's full-scale configuration: 525um square, 120x120 cells,
   20 directions, 40 frequency bands (55 resolved), dt such that 100 steps
   span 100 ns. *)
let paper_hotspot =
  {
    sname = "hotspot";
    lx = 525e-6;
    ly = 525e-6;
    nx = 120;
    ny = 120;
    ndirs = 20;
    n_la_bands = 40;
    t_cold = 300.;
    t_hot = 350.;
    hot_radius = 10e-6;
    hot_center = 262.5e-6;
    dt = 1e-12;
    nsteps = 100;
  }

(* A reduced sub-micron configuration (Knudsen number near one, the regime
   the BTE exists for) that runs in seconds for tests and examples. *)
let small_hotspot =
  {
    sname = "hotspot-small";
    lx = 4e-6;
    ly = 4e-6;
    nx = 24;
    ny = 24;
    ndirs = 8;
    n_la_bands = 8;
    t_cold = 300.;
    t_hot = 350.;
    hot_radius = 1e-6;
    hot_center = 2e-6;
    dt = 1e-12;
    nsteps = 20;
  }

let paper_corner =
  {
    sname = "corner";
    lx = 200e-6;
    ly = 50e-6;
    nx = 160;
    ny = 40;
    ndirs = 20;
    n_la_bands = 40;
    t_cold = 100.;
    t_hot = 150.;
    hot_radius = 10e-6;
    hot_center = 0.;
    dt = 1e-12;
    nsteps = 100;
  }

let small_corner =
  {
    sname = "corner-small";
    lx = 8e-6;
    ly = 2e-6;
    nx = 32;
    ny = 8;
    ndirs = 8;
    n_la_bands = 8;
    t_cold = 100.;
    t_hot = 150.;
    hot_radius = 2e-6;
    hot_center = 0.;
    dt = 1e-12;
    nsteps = 20;
  }

type built = {
  problem : Finch.Problem.t;
  scenario : scenario;
  disp : Dispersion.t;
  angles : Angles.t;
  eqtab : Equilibrium.t;
  temp_model : Temperature.model;
  mesh : Fvm.Mesh.t;
}

(* Stability bound for the explicit scheme: the advective CFL condition
   AND the relaxation-rate bound dt * max(1/tau) < 1 (the high-frequency
   bands have tau of a few picoseconds at room temperature, which is why
   the paper's appendix uses dt = 1e-12 s). *)
let cfl_dt sc disp =
  let dx = Float.min (sc.lx /. float_of_int sc.nx) (sc.ly /. float_of_int sc.ny) in
  let vmax =
    Array.fold_left
      (fun acc (b : Dispersion.band) -> Float.max acc b.Dispersion.vg)
      0. disp.Dispersion.bands
  in
  let t_max_scenario = Float.max sc.t_cold sc.t_hot in
  let rate_max =
    Array.fold_left
      (fun acc b -> Float.max acc (Scattering.band_rate b t_max_scenario))
      0. disp.Dispersion.bands
  in
  Float.min (dx /. vmax /. 2.) (0.5 /. rate_max)

let post_io = Temperature.post_io

(* The physics tables are pure functions of (bands, directions,
   temperatures): identical inputs produce bit-identical tables, so a
   build handed a cache keeps them there under those four values. *)
let tables : (Dispersion.t * Angles.t * Equilibrium.t * Temperature.model)
    Finch.Stage_cache.kind =
  Finch.Stage_cache.kind ()

let m_table_builds = Prt.Metrics.counter "bte.table_builds"

let physics_tables ?cache (sc : scenario) =
  Finch.Stage_cache.find cache tables
    (fun _ ->
      Some (Printf.sprintf "%d|%d|%h|%h" sc.n_la_bands sc.ndirs sc.t_cold sc.t_hot))
    (fun () ->
      Prt.Metrics.incr m_table_builds;
      let disp = Dispersion.make ~n_la:sc.n_la_bands in
      let angles = Angles.make_2d ~ndirs:sc.ndirs in
      let eqtab =
        Equilibrium.make ~omega_total:angles.Angles.total
          ~t_lo:(Float.max 2. (Float.min sc.t_cold sc.t_hot /. 2.))
          ~t_hi:(2. *. Float.max sc.t_cold sc.t_hot)
          disp
      in
      let temp_model = Temperature.make ~disp ~eqtab ~angles () in
      disp, angles, eqtab, temp_model)

let build ?(enforce_cfl = true) ?(stepper = Finch.Config.Euler_explicit)
    ?cache (sc : scenario) =
  let disp, angles, eqtab, temp_model = physics_tables ?cache sc in
  let nb = Dispersion.nbands disp in
  (* the point-implicit stepper is free of the relaxation-rate bound, so
     only the advective CFL limit applies to it *)
  let dt =
    if not enforce_cfl then sc.dt
    else
      match stepper with
      | Finch.Config.Euler_point_implicit ->
        let dx =
          Float.min (sc.lx /. float_of_int sc.nx) (sc.ly /. float_of_int sc.ny)
        in
        let vmax =
          Array.fold_left
            (fun acc (b : Dispersion.band) -> Float.max acc b.Dispersion.vg)
            0. disp.Dispersion.bands
        in
        Float.min sc.dt (dx /. vmax /. 2.)
      | _ -> Float.min sc.dt (cfl_dt sc disp)
  in

  let p = Finch.Problem.init ("bte-" ^ sc.sname) in
  Finch.Problem.domain p 2;
  Finch.Problem.solver_type p Finch.Config.FV;
  Finch.Problem.time_stepper p stepper;
  let mesh =
    Finch.Stage_cache.find cache Finch.Stage_cache.mesh
      (fun _ -> Some (Printf.sprintf "rectangle|%d|%d|%h|%h" sc.nx sc.ny sc.lx sc.ly))
      (fun () -> Fvm.Mesh_gen.rectangle ~nx:sc.nx ~ny:sc.ny ~lx:sc.lx ~ly:sc.ly ())
  in
  Finch.Problem.set_mesh p mesh;
  Finch.Problem.set_steps p ~dt ~nsteps:sc.nsteps;

  (* indices and entities, as in the paper's listing *)
  let d = Finch.Problem.index p ~name:"d" ~range:(1, sc.ndirs) in
  let b = Finch.Problem.index p ~name:"b" ~range:(1, nb) in
  let vI =
    Finch.Problem.variable p ~name:"I" ~location:Finch.Entity.Cell
      ~indices:[ d; b ] ()
  in
  let vIo =
    Finch.Problem.variable p ~name:"Io" ~location:Finch.Entity.Cell
      ~indices:[ b ] ()
  in
  let _vbeta =
    Finch.Problem.variable p ~name:"beta" ~location:Finch.Entity.Cell
      ~indices:[ b ] ()
  in
  let _vT = Finch.Problem.variable p ~name:"T" ~location:Finch.Entity.Cell () in
  let _sx =
    Finch.Problem.coefficient p ~name:"Sx" ~index:d
      (Finch.Entity.Arr (Array.copy angles.Angles.sx))
  in
  let _sy =
    Finch.Problem.coefficient p ~name:"Sy" ~index:d
      (Finch.Entity.Arr (Array.copy angles.Angles.sy))
  in
  let _vg =
    Finch.Problem.coefficient p ~name:"vg" ~index:b
      (Finch.Entity.Arr (Dispersion.vg_array disp))
  in

  (* initial thermal equilibrium at the cold temperature *)
  let i_init = Array.init nb (fun bb -> Equilibrium.i0 eqtab bb sc.t_cold) in
  let beta_init =
    Array.init nb (fun bb -> Scattering.band_rate (Dispersion.band disp bb) sc.t_cold)
  in
  Finch.Problem.initial p vI
    (Finch.Problem.Init_fn (fun _pos comp -> i_init.(comp / sc.ndirs)));
  Finch.Problem.initial p vIo
    (Finch.Problem.Init_fn (fun _pos bb -> i_init.(bb)));
  Finch.Problem.initial p _vbeta (Finch.Problem.Init_fn (fun _pos bb -> beta_init.(bb)));
  Finch.Problem.initial p _vT (Finch.Problem.Init_const sc.t_cold);

  (* boundary conditions: bottom (1) cold isothermal; top (3) isothermal
     with the Gaussian hot spot; left (4) and right (2) symmetry *)
  let bcctx = { Bc.disp; eqtab; angles } in
  let hot_wall pos =
    let x = pos.(0) -. sc.hot_center in
    sc.t_cold
    +. ((sc.t_hot -. sc.t_cold)
        *. exp (-2. *. x *. x /. (sc.hot_radius *. sc.hot_radius)))
  in
  Finch.Problem.callback_function p "isothermal_cold" (Bc.isothermal bcctx);
  Finch.Problem.callback_function p "isothermal_hot"
    (Bc.isothermal ~wall:(Bc.Profile_wall hot_wall) bcctx);
  Finch.Problem.callback_function p "symmetry" (Bc.symmetry bcctx);
  Finch.Problem.boundary p vI 1 Finch.Config.Flux
    (Printf.sprintf "isothermal_cold(I,vg,Sx,Sy,b,d,normal,%g)" sc.t_cold);
  Finch.Problem.boundary p vI 3 Finch.Config.Flux
    "isothermal_hot(I,vg,Sx,Sy,b,d,normal)";
  Finch.Problem.boundary p vI 2 Finch.Config.Flux "symmetry(I,Sx,Sy,b,d,normal)";
  Finch.Problem.boundary p vI 4 Finch.Config.Flux "symmetry(I,Sx,Sy,b,d,normal)";

  (* the temperature update runs after every step *)
  Finch.Problem.post_step_function ~io:Temperature.post_io p
    (Temperature.post_step temp_model);

  (* the BTE in conservation form, as in the paper's listing (with the
     surface term's sign written explicitly; see DESIGN.md) *)
  let _eq =
    Finch.Problem.conservation_form ?cache p vI
      "(Io[b] - I[d,b]) * beta[b] - surface(vg[b] * upwind([Sx[d];Sy[d]], I[d,b]))"
  in
  ignore vIo;
  { problem = p; scenario = { sc with dt }; disp; angles; eqtab; temp_model; mesh }

(* The corner scenario differs only in geometry/temperatures: source on the
   top wall against the left corner. *)
let build_corner ?(enforce_cfl = true) ?stepper ?cache (sc : scenario) =
  build ~enforce_cfl ?stepper ?cache { sc with hot_center = 0. }

(* ------------------------------------------------------------------ *)
(* facade registration                                                *)

(* Derive a concrete scenario record from a request: the small_* record
   of the requested family supplies the geometry (the domain stays at
   the base physical size, so growing nx refines the mesh — the same
   convention the bench sweeps use); the request overrides the
   discretization dimensions, step count and temperatures. *)
let scenario_of_request base (req : Finch.Solve_request.t) =
  { base with
    nx = req.Finch.Solve_request.nx;
    ny = req.Finch.Solve_request.ny;
    ndirs = req.Finch.Solve_request.ndirs;
    n_la_bands = req.Finch.Solve_request.nbands;
    nsteps = req.Finch.Solve_request.nsteps;
    t_hot =
      (match req.Finch.Solve_request.t_hot with
       | Some t -> t
       | None -> base.t_hot);
    t_cold =
      (match req.Finch.Solve_request.t_cold with
       | Some t -> t
       | None -> base.t_cold) }

let prepared_of ~cache built =
  { Finch.pr_problem = built.problem; pr_solution = "T"; pr_cache = cache }

let register_scenarios () =
  Finch.register_scenario "hotspot" (fun ~cache req ->
      prepared_of ~cache (build ?cache (scenario_of_request small_hotspot req)));
  Finch.register_scenario "corner" (fun ~cache req ->
      prepared_of ~cache (build_corner ?cache (scenario_of_request small_corner req)));
  (* paper-scale geometry (Fig. 2 / Fig. 10 domains); the request still
     sets the discretization, so callers pass the paper dims explicitly
     (see [request_of_base]) *)
  Finch.register_scenario "hotspot-paper" (fun ~cache req ->
      prepared_of ~cache (build ?cache (scenario_of_request paper_hotspot req)));
  Finch.register_scenario "corner-paper" (fun ~cache req ->
      prepared_of ~cache (build_corner ?cache (scenario_of_request paper_corner req)))

let base_of_scenario = function
  | "hotspot" -> Some small_hotspot
  | "corner" -> Some small_corner
  | "hotspot-paper" -> Some paper_hotspot
  | "corner-paper" -> Some paper_corner
  | _ -> None

let request_of_base (base : scenario) name =
  { (Finch.Solve_request.make name) with
    Finch.Solve_request.nx = base.nx;
    ny = base.ny;
    ndirs = base.ndirs;
    nbands = base.n_la_bands;
    nsteps = base.nsteps }
