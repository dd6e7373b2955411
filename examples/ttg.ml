(* Transient thermal grating (TTG): a sinusoidal temperature perturbation
   of spatial period 2L decays in time.  Fourier's law predicts the decay
   rate gamma_F = alpha (pi/L)^2; when L is comparable to the phonon mean
   free paths the observed rate is *suppressed* (quasiballistic transport)
   — the experimental signature (Johnson et al., PRL 2013) that
   sub-continuum conduction is real, and a second physics validation of
   this BTE stack beyond the thin-film size effect.

   Setup: a 1-D domain [0, L] with specular (symmetry) walls at both ends
   and initial local equilibrium at T(x) = T0 + dT cos(pi x / L) — half a
   grating period; the symmetry walls continue it periodically.  We fit
   the decay rate of the fundamental-mode amplitude and compare with the
   Fourier rate computed from the same discretized model's diffusive
   conductivity and heat capacity. *)

open Bte

let t0 = 300.
let dt_amp = 4.

(* volumetric heat capacity of the discretized model:
   C = Omega * sum_b dI0_b/dT / vg_b *)
let discrete_heat_capacity (disp : Dispersion.t) (angles : Angles.t) eqtab t =
  let acc = ref 0. in
  for b = 0 to Dispersion.nbands disp - 1 do
    let band = Dispersion.band disp b in
    acc := !acc +. (Equilibrium.di0 eqtab b t /. band.Dispersion.vg)
  done;
  angles.Angles.total *. !acc

let build ~length ~ncells ~ndirs ~n_la_bands =
  let disp = Dispersion.make ~n_la:n_la_bands in
  let nb = Dispersion.nbands disp in
  let angles = Angles.make_2d ~ndirs in
  let eqtab =
    Equilibrium.make ~omega_total:angles.Angles.total ~t_lo:150. ~t_hi:600. disp
  in
  let temp_model = Temperature.make ~disp ~eqtab ~angles () in
  let p = Finch.Problem.init "ttg" in
  Finch.Problem.domain p 1;
  Finch.Problem.set_mesh p (Fvm.Mesh_gen.line ~n:ncells ~length);
  Finch.Problem.time_stepper p Finch.Config.Euler_point_implicit;
  let dx = length /. float_of_int ncells in
  let vmax =
    Array.fold_left
      (fun acc (b : Dispersion.band) -> Float.max acc b.Dispersion.vg)
      0. disp.Dispersion.bands
  in
  let dt = 0.4 *. dx /. vmax in
  Finch.Problem.set_steps p ~dt ~nsteps:1;
  let d = Finch.Problem.index p ~name:"d" ~range:(1, ndirs) in
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
  let t_of pos = t0 +. (dt_amp *. cos (Float.pi *. pos.(0) /. length)) in
  Finch.Problem.initial p vI
    (Finch.Problem.Init_fn
       (fun pos comp -> Equilibrium.i0 eqtab (comp / ndirs) (t_of pos)));
  Finch.Problem.initial p vIo
    (Finch.Problem.Init_fn (fun pos bb -> Equilibrium.i0 eqtab bb (t_of pos)));
  Finch.Problem.initial p vbeta
    (Finch.Problem.Init_fn
       (fun pos bb -> Scattering.band_rate (Dispersion.band disp bb) (t_of pos)));
  Finch.Problem.initial p vT (Finch.Problem.Init_fn (fun pos _ -> t_of pos));
  let bcctx = { Bc.disp; eqtab; angles } in
  Finch.Problem.callback_function p "symmetry" (Bc.symmetry bcctx);
  Finch.Problem.boundary p vI 1 Finch.Config.Flux "symmetry(I,Sx,b,d,normal)";
  Finch.Problem.boundary p vI 2 Finch.Config.Flux "symmetry(I,Sx,b,d,normal)";
  Finch.Problem.post_step_function ~io:Temperature.post_io p
    (Temperature.post_step temp_model);
  ignore
    (Finch.Problem.conservation_form p vI
       "(Io[b] - I[d,b]) * beta[b] - surface(vg[b] * upwind([Sx[d]], I[d,b]))");
  p, disp, angles, eqtab, dt

(* grating amplitude: difference between the hot end and the cold end *)
let amplitude st ~ncells =
  let ft = Finch.Lower.field st "T" in
  (Fvm.Field.get ft 0 0 -. Fvm.Field.get ft (ncells - 1) 0) /. 2.

let decay_rate ~length ~ncells ~ndirs ~n_la_bands =
  let p, disp, angles, eqtab, dt = build ~length ~ncells ~ndirs ~n_la_bands in
  let st = Finch.Lower.build p in
  let a0 = amplitude st ~ncells in
  (* march until the amplitude halves (or a step cap) *)
  let steps = ref 0 in
  let max_steps = 60_000 in
  let a = ref a0 in
  while !a > 0.5 *. a0 && !steps < max_steps do
    Finch.Lower.rk_step st;
    Finch.Lower.run_post_step st ~allreduce:(fun _ -> ());
    incr steps;
    a := amplitude st ~ncells
  done;
  let t_elapsed = float_of_int !steps *. dt in
  let gamma = log (a0 /. !a) /. t_elapsed in
  (* the same model's Fourier prediction *)
  let k = Film.diffusive_limit disp angles eqtab t0 in
  let c = discrete_heat_capacity disp angles eqtab t0 in
  let alpha = k /. c in
  let gamma_fourier = alpha *. (Float.pi /. length) ** 2. in
  gamma, gamma_fourier, !steps

let () =
  let quick = not (Array.exists (( = ) "--full") Sys.argv) in
  let ndirs = if quick then 8 else 16 in
  let n_la_bands = if quick then 6 else 8 in
  let ncells = if quick then 20 else 40 in
  Printf.printf
    "transient thermal grating: decay of a cos(pi x / L) perturbation\n";
  Printf.printf "(%d cells, %d dirs, %d LA bands; suppression = BTE rate / Fourier rate)\n\n"
    ncells ndirs n_la_bands;
  Printf.printf "%-14s %14s %14s %14s\n" "half-period L" "BTE [1/s]"
    "Fourier [1/s]" "suppression";
  let suppressions =
    List.map
      (fun l ->
        let g, gf, _ = decay_rate ~length:l ~ncells ~ndirs ~n_la_bands in
        Printf.printf "%-14s %14.3e %14.3e %14.3f\n%!"
          (Printf.sprintf "%g nm" (1e9 *. l))
          g gf (g /. gf);
        g /. gf)
      [ 100e-9; 400e-9; 2e-6 ]
  in
  print_newline ();
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 0.05 && increasing rest
    | _ -> true
  in
  Printf.printf
    "suppression approaches 1 for long gratings and drops for short ones: %b\n"
    (increasing suppressions);
  Printf.printf
    "(quasiballistic transport: heat carried by phonons with mean free paths\n\
    \ longer than the grating relaxes slower than Fourier predicts)\n"
