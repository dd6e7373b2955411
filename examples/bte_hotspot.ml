(* The paper's main demonstration (Section III, Figs. 1-2): a 2-D silicon
   slab with a cold isothermal bottom wall, an isothermal top wall carrying
   a centred Gaussian hot spot, and symmetric sides; 55 polarization-
   resolved spectral bands x N directions of phonon intensity advected by
   an upwind FVM scheme with the nonlinear temperature update after every
   step.

   Run with --full for the paper-scale configuration (slow); the default
   is a reduced grid that finishes in seconds.  An optional --gpu flag runs
   the hybrid CPU/GPU target on the simulated device. *)

open Bte

let () =
  let full = Array.exists (( = ) "--full") Sys.argv in
  let gpu = Array.exists (( = ) "--gpu") Sys.argv in
  let sc =
    if full then Setup.paper_hotspot
    else { Setup.small_hotspot with nsteps = 60 }
  in
  let built = Setup.build sc in
  let p = built.Setup.problem in
  if gpu then Finch.Problem.use_cuda p;
  Printf.printf "scenario %s: %dx%d cells, %d dirs, %d bands (%d LA + %d TA), dt=%.3g s, %d steps\n%!"
    sc.Setup.sname sc.Setup.nx sc.Setup.ny sc.Setup.ndirs
    (Dispersion.nbands built.Setup.disp)
    built.Setup.disp.Dispersion.n_la built.Setup.disp.Dispersion.n_ta
    built.Setup.scenario.Setup.dt sc.Setup.nsteps;

  let outcome = Finch.Solve.solve p in
  let ft = Finch.Solve.field outcome "T" in
  let stats =
    Diag.temperature_stats built.Setup.mesh ft ~t_ambient:sc.Setup.t_cold
  in
  Format.printf "%a@." Diag.pp_stats stats;
  Format.printf "breakdown: %a@." Prt.Breakdown.pp outcome.Finch.Solve.breakdown;

  (* vertical temperature profile through the hot spot *)
  let i = sc.Setup.nx / 2 in
  let prof = Diag.profile_y ft ~nx:sc.Setup.nx ~ny:sc.Setup.ny ~i in
  print_string "T profile through the hot spot (bottom -> top): ";
  Array.iteri
    (fun j t -> if j mod (max 1 (sc.Setup.ny / 8)) = 0 then Printf.printf "%.2f " t)
    prof;
  print_newline ();

  (match outcome.Finch.Solve.gpu with
   | Some g ->
     let report =
       Gpu_sim.Perf.report g.Finch.Target_gpu.device
         ~avg_threads:g.Finch.Target_gpu.profile_threads
     in
     print_endline (Gpu_sim.Perf.to_string report)
   | None -> ());

  Diag.to_csv built.Setup.mesh ft ~comp:0 "/tmp/bte_hotspot_T.csv";
  print_endline "temperature field written to /tmp/bte_hotspot_T.csv"
