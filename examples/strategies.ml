(* Exploring parallel strategies with the DSL (paper Section III-C):
   the same BTE problem solved with band-based and cell-based equation
   partitioning, the shared-memory threaded executor, and the hybrid GPU
   target — "the ease of exploring a variety of parallel strategies".

   Also demonstrates [assemblyLoops]: permuting the generated loop nest so
   the band loop is outermost, as the paper does for the band-parallel
   configuration, and shows that results are identical. *)

open Bte

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  r, Unix.gettimeofday () -. t0

let () =
  let sc = { Setup.small_hotspot with Setup.nx = 16; ny = 16; nsteps = 25 } in
  Printf.printf "BTE %dx%d cells, %d dirs, %d LA bands, %d steps\n\n%!"
    sc.Setup.nx sc.Setup.ny sc.Setup.ndirs sc.Setup.n_la_bands sc.Setup.nsteps;

  (* every strategy is the same request with a different backend — the
     facade prepares and runs it (Finch.solve = prepare + solve_prepared) *)
  Setup.register_scenarios ();
  let request target =
    { (Finch.Solve_request.make "hotspot") with
      Finch.Solve_request.nx = sc.Setup.nx;
      ny = sc.Setup.ny;
      ndirs = sc.Setup.ndirs;
      nbands = sc.Setup.n_la_bands;
      nsteps = sc.Setup.nsteps;
      backend = target }
  in
  let solve target =
    match Finch.solve (request target) with
    | Ok res ->
      res.Finch.Solve_result.outcome, res.Finch.Solve_result.wall_s
    | Error e -> failwith (Finch.Solve_error.to_string e)
  in

  let serial, t_serial = solve (Finch.Config.Cpu Finch.Config.Serial) in
  Printf.printf "%-22s %6.2f s\n%!" "serial" t_serial;

  let strategies =
    [ "band-parallel (4)", Finch.Config.Cpu (Finch.Config.Band_parallel 4);
      "cell-parallel (4)", Finch.Config.Cpu (Finch.Config.Cell_parallel 4);
      "threads (pool of 4)", Finch.Config.Cpu (Finch.Config.Threaded 4);
      "hybrid (2 ranks x 2)", Finch.Config.Cpu (Finch.Config.Hybrid (2, 2));
      "hybrid CPU+GPU", Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 } ]
  in
  List.iter
    (fun (name, target) ->
      let o, t = solve target in
      let diff =
        Fvm.Field.max_abs_diff serial.Finch.Solve.u o.Finch.Solve.u
        /. Float.max 1e-300 (Fvm.Field.max_abs serial.Finch.Solve.u)
      in
      Printf.printf "%-22s %6.2f s   max relative deviation vs serial: %.2e\n%!"
        name t diff)
    strategies;

  (* assemblyLoops: band loop outermost, as in the paper's listing
     assemblyLoops([band, "cells", direction]) *)
  let built = Setup.build sc in
  Finch.Problem.assembly_loops built.Setup.problem [ "b"; "elements"; "d" ];
  let o_perm, t_perm = wall (fun () -> Finch.Solve.solve built.Setup.problem) in
  Printf.printf "%-22s %6.2f s   max deviation vs default order: %.2e\n%!"
    "loops [b;cells;d]" t_perm
    (Fvm.Field.max_abs_diff serial.Finch.Solve.u o_perm.Finch.Solve.u);

  (* the communication-pattern comparison behind Fig. 3 *)
  let mesh = built.Setup.mesh in
  let nb = Dispersion.nbands built.Setup.disp in
  let comp = sc.Setup.ndirs * nb in
  print_newline ();
  Printf.printf "communication volume per step at 4 partitions (Fig. 3):\n";
  let part = Fvm.Partition.rcb_mesh mesh ~nparts:4 in
  let halo = Fvm.Halo.build mesh part in
  let halo_bytes =
    let acc = ref 0 in
    for r = 0 to 3 do
      acc := !acc + Fvm.Halo.bytes_per_round halo r ~ncomp:comp ~bytes_per:8
    done;
    !acc / 2 (* each value counted at sender and receiver *)
  in
  Printf.printf "  mesh partitioning : %7d B of ghost intensities (%d cut faces)\n"
    halo_bytes
    (Fvm.Partition.edge_cut mesh part);
  Printf.printf
    "  band partitioning : %7d B (one absorbed-power partial per cell and band)\n"
    (8 * mesh.Fvm.Mesh.ncells * nb);
  Printf.printf
    "  => partitioning the equations needs less communication, as the paper argues\n"
