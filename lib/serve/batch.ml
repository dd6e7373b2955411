(* Batched multi-request GPU execution: the GPU executor's synchronous
   one-device schedule (Target_gpu.run_rank at G = R = 1) generalized with a
   request axis.  N compatible problems share one simulated device and
   one stream; every kernel launch covers requests x cells x chunk
   threads, where the chunk is the component slice the solo executor
   would launch (Target_gpu.launch_chunks: the whole component range in
   one batched launch at O2 — the Opt.batch_band_kernels shape — or
   one per-band slice at O0).  Mirrors, kernel body and cost, boundary
   combine, sanitizer scan and per-step uploads are the executor's own
   pieces; this module adds only the request axis.

   Bit-identity with solo execution holds by construction: each thread
   runs the exact per-DOF update of the solo kernel against its own
   request's device buffers, requests touch disjoint memory, and all
   host phases (boundary, combine, post-step) run per request on that
   request's own state in submission order. *)

let m_batched_launches = Prt.Metrics.counter "serve.batched_launches"
let m_steps = Prt.Metrics.counter "solve.steps"

let compatible (ps : Finch.Problem.t array) =
  let open Finch in
  if Array.length ps = 0 then Error "empty batch"
  else begin
    let p0 = ps.(0) in
    let describe (p : Problem.t) =
      match p.Problem.target with
      | Config.Gpu { spec; devices = 1; ranks = 1 } ->
        Ok spec.Gpu_sim.Spec.name
      | Config.Gpu _ -> Error "multi-device GPU targets cannot be batched"
      | Config.Cpu _ -> Error "CPU targets cannot share batched launches"
      | Config.Auto -> Error "unresolved auto target cannot be batched"
    in
    let rec go i =
      if i >= Array.length ps then Ok ()
      else
        let p = ps.(i) in
        match describe p0, describe p with
        | Error e, _ | _, Error e -> Error e
        | Ok n0, Ok n when n0 <> n ->
          Error (Printf.sprintf "device specs differ (%s vs %s)" n0 n)
        | Ok _, Ok _ ->
          if p.Problem.overlap || p0.Problem.overlap then
            Error "overlapped transfers cannot be batched"
          else if p.Problem.nsteps <> p0.Problem.nsteps then
            Error "step counts differ"
          else if p.Problem.opt_level <> p0.Problem.opt_level then
            Error "optimizer levels differ"
          else if p.Problem.eval_mode <> p0.Problem.eval_mode then
            Error "evaluator modes differ"
          else if Problem.post_io p <> Problem.post_io p0 then
            (* the first problem's data-movement plan serves the batch *)
            Error "post-step callback I/O differs"
          else go (i + 1)
    in
    go 1
  end

(* The IR image of the batched schedule [run] executes, derived from the
   shared solo program by the same transformation the executor applies:
   kernels keep one (request-major) batched launch, while every host
   phase and transfer — boundary, combine, callback, uploads, downloads
   — runs once per request inside an [Index "request"] loop.  Linting
   this tree (instead of only the per-request program) is what lets the
   analysis gate vet the batching rewrite itself. *)
let batched_ir (ps : Finch.Problem.t array) =
  let open Finch in
  (match compatible ps with
   | Ok () -> ()
   | Error e -> invalid_arg ("Batch.batched_ir: " ^ e));
  let p0 = ps.(0) in
  let plan = Dataflow.plan_for_problem p0 in
  let solo = Ir.build_gpu p0 ~transfers:(Dataflow.ir_transfers plan) in
  let per_request n =
    Ir.Loop { range = Ir.Index "request"; body = [ n ]; parallel = false }
  in
  let rec batchify (n : Ir.node) =
    match n with
    | Ir.Seq ns -> Ir.Seq (List.map batchify ns)
    | Ir.Loop l -> Ir.Loop { l with body = List.map batchify l.body }
    | Ir.Kernel k -> Ir.Kernel { k with kname = k.kname ^ "_batch" }
    | (Ir.Boundary_cpu _ | Ir.Callback _ | Ir.Swap_buffers _ | Ir.H2d _
      | Ir.D2h _) as n -> per_request n
    | n -> n
  in
  batchify solo

let check (ps : Finch.Problem.t array) =
  let open Finch in
  let p0 = ps.(0) in
  let ctx = Finch_analysis.Ctx.of_problem p0 in
  let plan = Dataflow.plan_for_problem p0 in
  let comm =
    Option.map
      (fun pl -> Finch_analysis.Comm.Elaborate pl)
      (Finch_analysis.Comm.plan_of_problem p0)
  in
  Finch_analysis.Driver.check_ir ~plan ?comm ctx (batched_ir ps)

let run (ps : Finch.Problem.t array) =
  let open Finch in
  (match compatible ps with
   | Ok () -> ()
   | Error e -> invalid_arg ("Batch.run: " ^ e));
  let n = Array.length ps in
  let p0 = ps.(0) in
  let spec =
    match p0.Problem.target with
    | Config.Gpu { spec; _ } -> spec
    | Config.Cpu _ | Config.Auto -> assert false
  in
  let allreduce = Ranks.noop_allreduce in
  let hosts = Array.map (fun p -> Lower.build p) ps in
  let host0 = hosts.(0) in
  let ncells = host0.Lower.mesh.Fvm.Mesh.ncells in
  let ncomp = Fvm.Field.ncomp host0.Lower.u in
  Array.iter
    (fun (h : Lower.state) ->
      if
        h.Lower.mesh.Fvm.Mesh.ncells <> ncells
        || Fvm.Field.ncomp h.Lower.u <> ncomp
      then invalid_arg "Batch.run: unknown shapes differ")
    hosts;
  let plan = Target_gpu.device_plan p0 in
  let dev = Gpu_sim.Memory.create_device spec in
  let clock = Gpu_sim.Stream.create_clock () in
  let stream = Gpu_sim.Stream.create dev in
  (* every request's mirrors and device-bound state, all resident on the
     one shared device *)
  let mirrors =
    Array.mapi
      (fun r host ->
        Target_gpu.mirror ~prefix:(Printf.sprintf "r%d." r) ~nbuf:1 dev host)
      hosts
  in
  let dstates = Array.map (fun (m : Target_gpu.mirror) -> m.states.(0)) mirrors in
  let cost = Target_gpu.interior_cost host0 in
  let owned = Target_gpu.owned_comps host0 in
  (* one kernel per solo launch chunk, its thread space request-major:
     threads [r * ncells * n_chunk ..] update request r, exactly as the
     solo kernel's thread [cell * n_chunk + slot] does *)
  let kernels =
    Array.map
      (fun chunk ->
        let n_chunk = Array.length chunk in
        let per_req = ncells * n_chunk in
        ( Gpu_sim.Kernel.make ~name:"interior_update_batch" ~cost (fun tid ->
              let rest = tid mod per_req in
              Target_gpu.update_dof dstates.(tid / per_req) (rest / n_chunk)
                chunk.(rest mod n_chunk)),
          n * per_req ))
      (Target_gpu.launch_chunks host0)
  in
  let u_bdrys =
    Array.map (fun _ -> Fvm.Field.create ~name:"u_bdry" ~ncells ~ncomp ()) hosts
  in
  let track = Prt.Trace.main in
  Array.iteri
    (fun r (host : Lower.state) ->
      Prt.Breakdown.record host.Lower.breakdown Prt.Breakdown.Communication
        (Target_gpu.upload_all host mirrors.(r)))
    hosts;
  let kernel_time_seen = ref 0. in
  let every_step = Target_gpu.every_step_h2d plan in
  for _ = 1 to p0.Problem.nsteps do
    (* 1. one async batched launch per chunk, covering every request.
       The kernels mutate the device states' envs directly, so
       invalidate their tape caches first. *)
    Array.iter (fun (ds : Lower.state) -> Eval.bump_epoch ds.Lower.env) dstates;
    Array.iter
      (fun (k, nthreads) ->
        Prt.Metrics.incr m_batched_launches;
        Gpu_sim.Stream.kernel stream clock k ~nthreads ())
      kernels;
    (* 2. boundary contributions on the CPU per request, overlapping
       the shared kernel *)
    Array.iteri
      (fun r (host : Lower.state) ->
        Prt.Breakdown.timed ~track host.Lower.breakdown Prt.Breakdown.Boundary
          (fun () -> Target_gpu.boundary_part host ~into:u_bdrys.(r) owned))
      hosts;
    (* 3. synchronize once; the modelled kernel time is shared, charged
       in equal shares *)
    Gpu_sim.Stream.synchronize stream clock;
    let kdelta = dev.Gpu_sim.Memory.kernel_time -. !kernel_time_seen in
    kernel_time_seen := dev.Gpu_sim.Memory.kernel_time;
    Array.iter
      (fun (host : Lower.state) ->
        Prt.Breakdown.record host.Lower.breakdown Prt.Breakdown.Intensity
          (kdelta /. float_of_int n))
      hosts;
    (* 4. download / combine / post-step / re-upload, per request *)
    Array.iteri
      (fun r (host : Lower.state) ->
        let m = mirrors.(r) in
        let b = host.Lower.breakdown in
        Prt.Breakdown.record b Prt.Breakdown.Communication
          (Gpu_sim.Memory.d2h dev m.Target_gpu.u_new.(0)
             (Fvm.Field.raw host.Lower.u_new));
        Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () ->
            Target_gpu.combine_boundary host ~u_bdry:u_bdrys.(r) owned);
        Target_gpu.sanitize_scan host owned;
        Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
            Lower.run_post_step host ~allreduce);
        List.iter
          (fun name ->
            Option.iter
              (fun buf ->
                Prt.Breakdown.record b Prt.Breakdown.Communication
                  (Gpu_sim.Memory.h2d dev buf
                     (Fvm.Field.raw (Lower.field host name))))
              (List.assoc_opt name m.Target_gpu.bufs))
          every_step;
        host.Lower.time := !(host.Lower.time) +. !(host.Lower.dt);
        incr host.Lower.step)
      hosts
  done;
  if Prt.Metrics.enabled () then
    Array.iter (fun (p : Problem.t) -> Prt.Metrics.add m_steps p.Problem.nsteps) ps;
  Array.map
    (fun (host : Lower.state) ->
      let gpu =
        { Target_gpu.state = host;
          device = dev;
          breakdown = host.Lower.breakdown;
          plan;
          profile_threads = n * ncells * ncomp }
      in
      { Solve.u = host.Lower.u;
        fields = host.Lower.fields;
        breakdown = host.Lower.breakdown;
        gpu = Some gpu;
        states = [| host |] })
    hosts
