(* Top-level driver: pair the problem's rank layout with its target's
   per-rank body and package the results, mirroring the paper's
   [solve(I)]. *)

type outcome = {
  u : Fvm.Field.t;                  (* gathered unknown after the run *)
  fields : (string * Fvm.Field.t) list; (* every variable, gathered *)
  breakdown : Prt.Breakdown.t;
  gpu : Target_gpu.result option;   (* present for GPU runs *)
  states : Lower.state array;
}

(* Post-solve metrics: the steps taken. *)
let m_steps = Prt.Metrics.counter "solve.steps"

let record_solve_metrics (p : Problem.t) =
  if Prt.Metrics.enabled () then Prt.Metrics.add m_steps p.Problem.nsteps

(* Only the serial target runs multi-stage and point-implicit steps.  The
   other bodies sweep and commit, which is forward Euler, and band ranks,
   which share the serial body, are held to it here. *)
let check_stepper (p : Problem.t) =
  match p.Problem.stepper, p.Problem.target with
  | Config.Euler_explicit, _ | _, Config.Cpu Config.Serial -> ()
  | stepper, target ->
    raise
      (Problem.Problem_error
         (Printf.sprintf
            "time stepper %s runs only on the serial target, not on %s"
            (Config.stepper_name stepper) (Config.target_name target)))

(* Staged face tables, keyed by the mesh entry they were staged on and
   everything else the staging reads: a mesh the cache does not hold has
   no key, so its tables are staged fresh. *)
let faces : Eval.faces Stage_cache.kind = Stage_cache.kind ()

let stage ?cache (p : Problem.t) =
  Stage_cache.find cache faces
    (fun c ->
      match Stage_cache.serial c Stage_cache.mesh (Problem.mesh_exn p) with
      | None -> None
      | Some mesh ->
        Option.map (fun k -> string_of_int mesh ^ "|" ^ k) (Lower.stage_key p))
    (fun () -> Lower.stage_interior p)

(* Every rank's state, the breakdowns it filled, and its GPU record.  The
   face tables are staged once, before any rank starts, and every rank
   reads them: no two domains race to build them, or to reach the
   cache. *)
let run_ranks ?cache (p : Problem.t) =
  let layout = Ranks.of_problem p in
  let faces = stage ?cache p in
  let cpu body =
    Array.map (fun (st, bs) -> st, bs, None) (Ranks.run layout body)
  in
  match p.Problem.target, layout.Ranks.halo, layout.Ranks.tiling with
  | Config.Cpu (Config.Serial | Config.Band_parallel _), _, _ ->
    cpu (Target_cpu.direct p ~faces)
  | Config.Cpu (Config.Cell_parallel _), Some plan, _ ->
    cpu (Target_cpu.halo p ~faces ~plan)
  | Config.Cpu (Config.Threaded n | Config.Hybrid (_, n)), _, _ ->
    Prt.Pool.with_pool ~size:n (fun pool ->
        cpu (Target_cpu.pooled p ~faces ~pool))
  | Config.Gpu { spec; _ }, _, Some tiling ->
    Array.map
      (fun (r : Target_gpu.result) ->
        r.Target_gpu.state, [ r.Target_gpu.breakdown ], Some r)
      (Ranks.run layout (Target_gpu.run_rank p ~spec ~tiling ~faces))
  | (Config.Cpu (Config.Cell_parallel _) | Config.Gpu _ | Config.Auto), _, _ ->
    invalid_arg "Solve: the rank layout does not fit the target"

let solve ?cache (p : Problem.t) =
  check_stepper p;
  let outcome =
    Prt.Trace.span ~cat:"solve" Prt.Trace.main "solve" (fun () ->
        let ranks = run_ranks ?cache p in
        let states = Array.map (fun (st, _, _) -> st) ranks in
        let breakdown =
          Prt.Breakdown.sum_distinct
            (List.concat_map (fun (_, bs, _) -> bs) (Array.to_list ranks))
        in
        (* rank 0 receives every rank's owned cells and component slices *)
        let st = states.(0) in
        Lower.gather_fields ~into:st states;
        let _, _, gpu = ranks.(0) in
        { u = st.Lower.u;
          fields = st.Lower.fields;
          breakdown;
          gpu = Option.map (fun g -> { g with Target_gpu.breakdown }) gpu;
          states })
  in
  record_solve_metrics p;
  outcome

let field outcome name =
  match List.assoc_opt name outcome.fields with
  | Some f -> f
  | None -> raise (Problem.Problem_error ("solve outcome: no field " ^ name))
