(* Hybrid CPU/GPU code-generation target (paper Section II-B and Fig. 6).

   Per time step the generated program:
     1. launches the interior-update kernel asynchronously on the device
        (one thread per degree of freedom, loops flattened);
     2. computes the boundary contributions on the CPU with the
        user-supplied callbacks, overlapping the kernel;
     3. synchronizes, downloads the interior result, and combines it with
        the boundary part on the host;
     4. runs the post-step user code (the BTE temperature update) on the
        host;
     5. uploads the variables the device needs fresh next step, as decided
        by the data-movement analysis ([Dataflow]).

   The device is the [Gpu_sim] simulator: kernels really execute (on device
   buffers that are genuinely distinct memory), and their timing comes from
   the roofline model, so both numerics and the communication/compute
   balance are exercised. *)

exception Gpu_error of string

type result = {
  state : Lower.state;               (* host-side state *)
  device : Gpu_sim.Memory.device;
  breakdown : Prt.Breakdown.t;       (* modelled GPU/transfer + real CPU time *)
  plan : Dataflow.plan;
  profile_threads : int;             (* grid size used for profiling *)
}

(* single-device hybrid run; [info] restricts the rank to a band slice in
   multi-device configurations.  [overlap] routes the per-step transfers
   through a second (copy) stream against double-buffered unknown storage:
   the download of each step's result is enqueued behind the kernel and
   overlaps the boundary host work, uploads for the next step stay in
   flight until the next launch joins them.  Data effects are immediate in
   the simulator, so results are bit-identical; only the modelled timeline
   and the Communication accounting change. *)
let run_single ?post_io ?(info = Lower.serial_rankinfo)
    ?(allreduce = Target_cpu.noop_allreduce) ?(overlap = false) ~spec
    (p : Problem.t) =
  let host = Lower.build ~info p in
  let mesh = host.Lower.mesh in
  let ncells = mesh.Fvm.Mesh.ncells in
  let ncomp = Fvm.Field.ncomp host.Lower.u in
  let plan = Dataflow.plan_for_problem ?post_io p in
  let dev = Gpu_sim.Memory.create_device spec in
  let clock = Gpu_sim.Stream.create_clock () in
  let stream = Gpu_sim.Stream.create dev in
  (* Device mirrors for every variable the kernel touches, plus the double
     buffer for the unknown.  Coefficient arrays are compiled into the
     kernel closures directly (constant memory). *)
  let dev_fields =
    List.map
      (fun (name, f) ->
        let buf =
          Gpu_sim.Memory.alloc dev ~label:name ~size:(Fvm.Field.size f)
        in
        let view =
          Fvm.Field.of_bigarray ~name ~ncells:(Fvm.Field.ncells f)
            ~ncomp:(Fvm.Field.ncomp f) buf.Gpu_sim.Memory.device_data
        in
        name, (buf, view))
      host.Lower.fields
  in
  (* the unknown's device double buffer: one buffer synchronously, two
     alternating by step parity when transfers are overlapped (so a
     download of step N's result may still be in flight at step N+1's
     launch) *)
  let nbuf = if overlap then 2 else 1 in
  let u_new_bufs =
    Array.init nbuf (fun i ->
        Gpu_sim.Memory.alloc dev
          ~label:(if i = 0 then "u_new" else "u_new.alt")
          ~size:(Fvm.Field.size host.Lower.u_new))
  in
  (* device-bound states: same problem, env and closures compiled against
     the device field views, one per unknown buffer *)
  let dev_only = List.map (fun (n, (_, v)) -> n, v) dev_fields in
  let dstates =
    Array.map
      (fun (buf : Gpu_sim.Memory.buffer) ->
        let view =
          Fvm.Field.of_bigarray ~name:"u_new" ~ncells ~ncomp
            buf.Gpu_sim.Memory.device_data
        in
        Lower.rebind host ~fields:dev_only ~u_new:view)
      u_new_bufs
  in
  let dstate = dstates.(0) in
  (* kernel: one thread per DOF, interior faces only (boundary contributions
     are the CPU's job) *)
  let interior_cost =
    let open Eval in
    let cv = cost host.Lower.eq.Transform.rvol
    and cs = cost host.Lower.eq.Transform.rsurf in
    (* per-thread flops: volume part + one flux per face (quad mesh: 4);
       the factor on top accounts for index arithmetic and predication in
       real generated PTX *)
    let nfaces_per_cell = float_of_int (Array.length mesh.Fvm.Mesh.cell_faces.(0)) in
    let flops = (cv.flops +. (nfaces_per_cell *. cs.flops)) *. 4.0 in
    (* effective DRAM traffic per thread: the unknown in and out plus a
       cache-amortized share of neighbour and coefficient data *)
    let dram = 8. *. (2. +. (0.25 *. float_of_int (cv.loads + cs.loads))) in
    { Gpu_sim.Kernel.flops_per_thread = flops; dram_bytes_per_thread = dram }
  in
  (* the owned component slice: full range for a single device, a band
     slice per rank in multi-device runs.  The flattened thread space
     covers cells x owned components, as the paper's "flatten all of the
     loops and distribute each degree of freedom to separate threads". *)
  let nd =
    match host.Lower.uvar.Entity.vindices with
    | first :: _ -> Entity.index_extent first
    | [] -> 1
  in
  let owned_comps =
    match info.Lower.index_ranges with
    | [] -> Array.init ncomp (fun c -> c)
    | (_, (off, len)) :: _ ->
      (* the partitioned index is the unknown's second (slow) index *)
      Array.init (len * nd) (fun i -> (off * nd) + i)
  in
  let n_owned = Array.length owned_comps in
  let nthreads = ncells * n_owned in
  (* Launch batching (the IR-level Opt.batch_band_kernels rewrite,
     mirrored here): O1/O2 launch ONE batched cells×dirs×bands kernel per
     step; O0 keeps the naive per-band shape — one cells×dirs launch per
     owned slow-index value, each paying the modelled launch overhead.
     Per-DOF updates are independent, so any split of the thread space is
     bit-identical; with at most one declared index the shapes coincide. *)
  let comp_chunks =
    match p.Problem.opt_level with
    | Config.O0 when n_owned > nd && n_owned mod nd = 0 ->
      Array.init (n_owned / nd) (fun k -> Array.sub owned_comps (k * nd) nd)
    | _ -> [| owned_comps |]
  in
  let make_kernel (dstate : Lower.state) (chunk : int array) =
    let n_chunk = Array.length chunk in
    Gpu_sim.Kernel.make ~name:"interior_update" ~cost:interior_cost (fun tid ->
        let cell = tid / n_chunk and slot = tid mod n_chunk in
        let comp = chunk.(slot) in
        let env = dstate.Lower.env in
        env.Eval.cell <- cell;
        Lower.set_ivals_of_comp dstate comp;
        let v =
          Fvm.Field.get dstate.Lower.u cell comp
          +. (!(dstate.Lower.dt) *. Lower.dof_rhs_interior dstate)
        in
        Fvm.Field.set dstate.Lower.u_new cell comp v)
  in
  (* per unknown buffer: one kernel per chunk *)
  let kernels =
    Array.map (fun ds -> Array.map (make_kernel ds) comp_chunks) dstates
  in
  let launch_step stream (parity : int) =
    Array.iteri
      (fun i k ->
        Gpu_sim.Stream.kernel stream clock k
          ~nthreads:(ncells * Array.length comp_chunks.(i)) ())
      kernels.(parity)
  in
  (* boundary contribution accumulator on the host *)
  let u_bdry = Fvm.Field.create ~name:"u_bdry" ~ncells ~ncomp () in
  let b = host.Lower.breakdown in
  (* host-side phase spans: the main track for a single-device run, the
     rank's track when driven as an SPMD fiber (multi-device) *)
  let track =
    if info.Lower.nranks > 1 then Prt.Trace.rank info.Lower.rank
    else Prt.Trace.main
  in
  (* one-time uploads: everything the kernel reads *)
  List.iter
    (fun (name, (buf, _)) ->
      ignore name;
      let hf = List.assoc name host.Lower.fields in
      Prt.Breakdown.record b Prt.Breakdown.Communication
        (Gpu_sim.Memory.h2d dev buf (Fvm.Field.raw hf)))
    dev_fields;
  let kernel_time_seen = ref 0. in
  let every_step_h2d =
    List.filter_map
      (fun tr ->
        if tr.Dataflow.tr_h2d_every_step then Some tr.Dataflow.tr_var else None)
      plan.Dataflow.transfers
  in
  let combine_boundary () =
    for cell = 0 to ncells - 1 do
      Array.iter
        (fun comp ->
          let v =
            Fvm.Field.get host.Lower.u_new cell comp
            +. Fvm.Field.get u_bdry cell comp
          in
          Fvm.Field.set host.Lower.u cell comp v)
        owned_comps
    done
  in
  (* Sanitizer hook: in sanitize mode device buffers start NaN-poisoned
     (Memory.alloc), so a kernel reading a variable the transfer schedule
     never uploaded yields poisoned results.  After each combine, scan the
     owned slice of the unknown the step just produced — only owned comps:
     in multi-rank runs the downloaded u_new legitimately carries poison in
     comps this rank never computes. *)
  let sanitize_scan () =
    if Fvm.Field.sanitize_enabled () then begin
      let n = ref 0 in
      for cell = 0 to ncells - 1 do
        Array.iter
          (fun comp ->
            if Fvm.Field.is_poison (Fvm.Field.get host.Lower.u cell comp)
            then incr n)
          owned_comps
      done;
      Fvm.Field.record_poison !n
    end
  in
  if overlap then begin
    (* Overlapped schedule on two streams.  Host phases are real time;
       advancing the modelled clock by their measured duration lets the
       copy stream's transfers hide behind them on the modelled timeline,
       and Communication is charged only what the host work did not
       hide. *)
    let copy = Gpu_sim.Stream.create dev in
    let timed_host cat f =
      let t0 = Unix.gettimeofday () in
      let r = Prt.Breakdown.timed ~track b cat f in
      clock.Gpu_sim.Stream.now <-
        clock.Gpu_sim.Stream.now +. (Unix.gettimeofday () -. t0);
      r
    in
    for step = 0 to p.Problem.nsteps - 1 do
      let parity = step mod nbuf in
      Lower.run_pre_step host ~allreduce;
      (* 1. async kernel launch, ordered after the uploads still in
         flight on the copy stream; any residual upload time delays the
         launch and is charged as communication.  The kernel mutates the
         device state's env directly (outside iterate_dofs), so
         invalidate its tape caches: device fields changed since the
         last launch. *)
      let lag =
        Float.max 0.
          (copy.Gpu_sim.Stream.tail
           -. Float.max clock.Gpu_sim.Stream.now stream.Gpu_sim.Stream.tail)
      in
      if lag > 0. then Prt.Breakdown.record b Prt.Breakdown.Communication lag;
      Gpu_sim.Stream.join stream copy;
      Eval.bump_epoch dstates.(parity).Lower.env;
      launch_step stream parity;
      (* 2. download of this step's result, enqueued on the copy stream
         behind the kernel — in flight during the boundary host work *)
      Gpu_sim.Stream.join copy stream;
      Gpu_sim.Stream.d2h copy clock u_new_bufs.(parity)
        (Fvm.Field.raw host.Lower.u_new);
      (* 3. boundary contributions on the CPU, overlapping kernel and
         download *)
      timed_host Prt.Breakdown.Boundary (fun () ->
          Fvm.Field.fill u_bdry 0.;
          Lower.boundary_contributions host ~into:u_bdry);
      (* 4. drain: the kernel is charged at its roofline duration, the
         transfer only what the boundary work left exposed *)
      Prt.Breakdown.record b Prt.Breakdown.Intensity
        (dev.Gpu_sim.Memory.kernel_time -. !kernel_time_seen);
      kernel_time_seen := dev.Gpu_sim.Memory.kernel_time;
      Prt.Breakdown.record b Prt.Breakdown.Communication
        (Float.max 0.
           (copy.Gpu_sim.Stream.tail -. clock.Gpu_sim.Stream.now));
      Gpu_sim.Stream.synchronize copy clock;
      timed_host Prt.Breakdown.Intensity combine_boundary;
      sanitize_scan ();
      (* 5. post-step user code on the host *)
      timed_host Prt.Breakdown.Temperature (fun () ->
          Lower.run_post_step host ~allreduce);
      (* 6. uploads for the next step go out asynchronously; the next
         launch joins them *)
      List.iter
        (fun name ->
          match List.assoc_opt name dev_fields with
          | Some (buf, _) ->
            let hf = List.assoc name host.Lower.fields in
            Gpu_sim.Stream.h2d copy clock buf (Fvm.Field.raw hf)
          | None -> ())
        every_step_h2d;
      host.Lower.time := !(host.Lower.time) +. !(host.Lower.dt);
      incr host.Lower.step
    done;
    Gpu_sim.Stream.synchronize copy clock
  end
  else
    for _ = 1 to p.Problem.nsteps do
      Lower.run_pre_step host ~allreduce;
      (* 1. async kernel launch.  The kernel mutates the device state's env
         directly (outside iterate_dofs), so invalidate its tape caches
         here: device fields changed since the last launch. *)
      Eval.bump_epoch dstate.Lower.env;
      launch_step stream 0;
      (* 2. boundary contributions on the CPU, overlapping the kernel *)
      Prt.Breakdown.timed ~track b Prt.Breakdown.Boundary (fun () ->
          Fvm.Field.fill u_bdry 0.;
          Lower.boundary_contributions host ~into:u_bdry);
      (* 3. synchronize; download; combine *)
      Gpu_sim.Stream.synchronize stream clock;
      Prt.Breakdown.record b Prt.Breakdown.Intensity
        (dev.Gpu_sim.Memory.kernel_time -. !kernel_time_seen);
      kernel_time_seen := dev.Gpu_sim.Memory.kernel_time;
      Prt.Breakdown.record b Prt.Breakdown.Communication
        (Gpu_sim.Memory.d2h dev u_new_bufs.(0) (Fvm.Field.raw host.Lower.u_new));
      Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity combine_boundary;
      sanitize_scan ();
      (* 4. post-step user code on the host *)
      Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
          Lower.run_post_step host ~allreduce);
      (* 5. upload what the device needs fresh *)
      List.iter
        (fun name ->
          match List.assoc_opt name dev_fields with
          | Some (buf, _) ->
            let hf = List.assoc name host.Lower.fields in
            Prt.Breakdown.record b Prt.Breakdown.Communication
              (Gpu_sim.Memory.h2d dev buf (Fvm.Field.raw hf))
          | None -> ())
        every_step_h2d;
      host.Lower.time := !(host.Lower.time) +. !(host.Lower.dt);
      incr host.Lower.step
    done;
  { state = host; device = dev; breakdown = b; plan; profile_threads = nthreads }

(* Gather every variable's band slices into rank 0's fields. *)
let gather_ranks (results : result array) =
  let r0 = results.(0) in
  Lower.gather_fields ~into:r0.state (Array.map (fun r -> r.state) results);
  r0

(* Multi-device run: the paper's band-based partitioning across (device,
   rank) pairs.  Each rank owns a slice of the partitioned index (the
   unknown's slow index), drives its own simulated device, and joins the
   others in the temperature update's allreduce through the SPMD runtime.
   Results are gathered into rank 0's fields. *)
let run_multi ?post_io ?(overlap = false) ~spec ~ranks (p : Problem.t) =
  let band_index =
    match List.rev p.Problem.indices with
    | i :: _ -> i
    | [] -> raise (Gpu_error "multi-GPU run needs a partitioned index")
  in
  let extent = Entity.index_extent band_index in
  if ranks > extent then raise (Gpu_error "more GPU ranks than index values");
  let results = Array.make ranks None in
  Prt.Spmd.run ~nranks:ranks (fun rank ->
      let off, len =
        Fvm.Partition.block_range ~nitems:extent ~nparts:ranks rank
      in
      let info =
        { Lower.rank; nranks = ranks; owned_cells = None;
          index_ranges = [ band_index.Entity.iname, (off, len) ] }
      in
      let r =
        run_single ?post_io ~info ~allreduce:Prt.Spmd.allreduce_sum ~overlap
          ~spec p
      in
      results.(rank) <- Some r);
  let results =
    Array.map
      (function Some r -> r | None -> raise (Gpu_error "rank did not run"))
      results
  in
  let r0 = gather_ranks results in
  let breakdown =
    Prt.Breakdown.sum_distinct
      (Array.to_list (Array.map (fun r -> r.breakdown) results))
  in
  { r0 with breakdown }, results

(* ---- Multi-device grid target: G devices per rank x R ranks ---------

   The 2-D band x cell decomposition (Fvm.Decomp2d): each SPMD rank owns
   a contiguous band slice (exactly as [run_multi]) and drives [devices]
   simulated devices that tile the mesh by recursive coordinate
   bisection.  Per step, each device launches the interior kernel over
   its owned cells x the rank's owned components; the host computes
   boundaries, downloads each device's owned slice of the result,
   combines, runs the post-step callback, then uploads each device's
   owned slice of the fresh unknown and pushes ghost cells between
   devices with peer copies (simulated NVLink within a node, host
   staging across — see Gpu_sim.Topology).  Devices run concurrently, so
   kernel and transfer phases are charged at their per-step critical
   path (max over devices).  Data effects are immediate in the
   simulator and ghost values equal the host's fresh values, so results
   are bit-identical to the single-device target. *)

(* Stream-ordered partial transfers (see Memory.h2d_runs/d2h_runs). *)
let stream_h2d_runs (st : Gpu_sim.Stream.t) clock buf host ~runs =
  let dur = ref 0. in
  Gpu_sim.Stream.enqueue st clock ~dur:0. (fun () ->
      dur := Gpu_sim.Memory.h2d_runs st.Gpu_sim.Stream.device buf host ~runs);
  st.Gpu_sim.Stream.tail <- st.Gpu_sim.Stream.tail +. !dur

let stream_d2h_runs (st : Gpu_sim.Stream.t) clock buf host ~runs =
  let dur = ref 0. in
  Gpu_sim.Stream.enqueue st clock ~dur:0. (fun () ->
      dur := Gpu_sim.Memory.d2h_runs st.Gpu_sim.Stream.device buf host ~runs);
  st.Gpu_sim.Stream.tail <- st.Gpu_sim.Stream.tail +. !dur

(* One rank's share of the grid: [devices] devices with global ids
   [rank*devices ..], each owning one RCB cell tile of the rank's band
   slice. *)
let run_rank_grid ?post_io ?(info = Lower.serial_rankinfo)
    ?(allreduce = Target_cpu.noop_allreduce) ?(overlap = false) ~spec
    ~devices (p : Problem.t) =
  let host = Lower.build ~info p in
  let mesh = host.Lower.mesh in
  let ncells = mesh.Fvm.Mesh.ncells in
  let ncomp = Fvm.Field.ncomp host.Lower.u in
  let plan = Dataflow.plan_for_problem ?post_io p in
  let decomp =
    Fvm.Decomp2d.build mesh ~ndevices:devices ~nranks:info.Lower.nranks
  in
  let clock = Gpu_sim.Stream.create_clock () in
  let devs =
    Array.init devices (fun g ->
        Gpu_sim.Memory.create_device
          ~id:((info.Lower.rank * devices) + g)
          spec)
  in
  let streams = Array.map Gpu_sim.Stream.create devs in
  (* per-device mirrors of every variable the kernel touches *)
  let dev_fields =
    Array.map
      (fun dev ->
        List.map
          (fun (name, f) ->
            let buf =
              Gpu_sim.Memory.alloc dev ~label:name ~size:(Fvm.Field.size f)
            in
            let view =
              Fvm.Field.of_bigarray ~name ~ncells:(Fvm.Field.ncells f)
                ~ncomp:(Fvm.Field.ncomp f) buf.Gpu_sim.Memory.device_data
            in
            name, (buf, view))
          host.Lower.fields)
      devs
  in
  let nbuf = if overlap then 2 else 1 in
  let u_new_bufs =
    Array.mapi
      (fun _ dev ->
        Array.init nbuf (fun i ->
            Gpu_sim.Memory.alloc dev
              ~label:(if i = 0 then "u_new" else "u_new.alt")
              ~size:(Fvm.Field.size host.Lower.u_new)))
      devs
  in
  let dstates =
    Array.mapi
      (fun g bufs ->
        let dev_only = List.map (fun (n, (_, v)) -> n, v) dev_fields.(g) in
        Array.map
          (fun (buf : Gpu_sim.Memory.buffer) ->
            let view =
              Fvm.Field.of_bigarray ~name:"u_new" ~ncells ~ncomp
                buf.Gpu_sim.Memory.device_data
            in
            Lower.rebind host ~fields:dev_only ~u_new:view)
          bufs)
      u_new_bufs
  in
  let interior_cost =
    let open Eval in
    let cv = cost host.Lower.eq.Transform.rvol
    and cs = cost host.Lower.eq.Transform.rsurf in
    let nfaces_per_cell =
      float_of_int (Array.length mesh.Fvm.Mesh.cell_faces.(0))
    in
    let flops = (cv.flops +. (nfaces_per_cell *. cs.flops)) *. 4.0 in
    let dram = 8. *. (2. +. (0.25 *. float_of_int (cv.loads + cs.loads))) in
    { Gpu_sim.Kernel.flops_per_thread = flops; dram_bytes_per_thread = dram }
  in
  let nd =
    match host.Lower.uvar.Entity.vindices with
    | first :: _ -> Entity.index_extent first
    | [] -> 1
  in
  let owned_comps =
    match info.Lower.index_ranges with
    | [] -> Array.init ncomp (fun c -> c)
    | (_, (off, len)) :: _ -> Array.init (len * nd) (fun i -> (off * nd) + i)
  in
  let n_owned = Array.length owned_comps in
  let comp_chunks =
    match p.Problem.opt_level with
    | Config.O0 when n_owned > nd && n_owned mod nd = 0 ->
      Array.init (n_owned / nd) (fun k -> Array.sub owned_comps (k * nd) nd)
    | _ -> [| owned_comps |]
  in
  (* owned cells per device, and the packed element runs the transfers
     move: the unknown travels owned-only (ghosts arrive device-to-
     device), other per-step variables travel owned+ghost from the
     host *)
  let owned_cells = Array.init devices (Fvm.Decomp2d.owned_cells decomp) in
  let owned_runs_u =
    Array.map (fun cells -> Fvm.Decomp2d.cell_runs ~cells ~ncomp) owned_cells
  in
  let reach_cells =
    Array.init devices (fun g ->
        Array.append owned_cells.(g) decomp.Fvm.Decomp2d.halo.Fvm.Halo.ghosts.(g))
  in
  let d2d_plan =
    List.map
      (fun (src, dst, cells) ->
        src, dst, Fvm.Decomp2d.cell_runs ~cells ~ncomp)
      (Fvm.Decomp2d.d2d_edges decomp)
  in
  (* kernel over one device's owned cells x one component chunk *)
  let make_kernel g (dstate : Lower.state) (chunk : int array) =
    let n_chunk = Array.length chunk in
    let owned = owned_cells.(g) in
    Gpu_sim.Kernel.make ~name:"interior_update" ~cost:interior_cost (fun tid ->
        let cell = owned.(tid / n_chunk) and slot = tid mod n_chunk in
        let comp = chunk.(slot) in
        let env = dstate.Lower.env in
        env.Eval.cell <- cell;
        Lower.set_ivals_of_comp dstate comp;
        let v =
          Fvm.Field.get dstate.Lower.u cell comp
          +. (!(dstate.Lower.dt) *. Lower.dof_rhs_interior dstate)
        in
        Fvm.Field.set dstate.Lower.u_new cell comp v)
  in
  let kernels =
    Array.mapi
      (fun g states ->
        Array.map (fun ds -> Array.map (make_kernel g ds) comp_chunks) states)
      dstates
  in
  let launch_step g stream parity =
    let ncells_g = Array.length owned_cells.(g) in
    if ncells_g > 0 then
      Array.iteri
        (fun i k ->
          Gpu_sim.Stream.kernel stream clock k
            ~nthreads:(ncells_g * Array.length comp_chunks.(i))
            ())
        kernels.(g).(parity)
  in
  let u_bdry = Fvm.Field.create ~name:"u_bdry" ~ncells ~ncomp () in
  let b = host.Lower.breakdown in
  let track =
    if info.Lower.nranks > 1 then Prt.Trace.rank info.Lower.rank
    else Prt.Trace.main
  in
  (* one-time uploads run concurrently across devices: charge the max *)
  let t_once =
    Array.fold_left Float.max 0.
      (Array.mapi
         (fun g dev ->
           List.fold_left
             (fun acc (name, (buf, _)) ->
               let hf = List.assoc name host.Lower.fields in
               acc +. Gpu_sim.Memory.h2d dev buf (Fvm.Field.raw hf))
             0. dev_fields.(g))
         devs)
  in
  Prt.Breakdown.record b Prt.Breakdown.Communication t_once;
  let kernel_seen = Array.map (fun _ -> ref 0.) devs in
  let u_name = Fvm.Field.name host.Lower.u in
  let every_step_h2d =
    List.filter_map
      (fun tr ->
        if tr.Dataflow.tr_h2d_every_step then Some tr.Dataflow.tr_var else None)
      plan.Dataflow.transfers
  in
  (* per-step upload runs of one every-step variable on one device *)
  let upload_runs g name =
    match List.assoc_opt name dev_fields.(g) with
    | None -> None
    | Some (buf, view) ->
      let hf = List.assoc name host.Lower.fields in
      let runs =
        if name = u_name then owned_runs_u.(g)
        else
          Fvm.Decomp2d.cell_runs ~cells:reach_cells.(g)
            ~ncomp:(Fvm.Field.ncomp view)
      in
      Some (buf, hf, runs)
  in
  let combine_boundary () =
    for cell = 0 to ncells - 1 do
      Array.iter
        (fun comp ->
          let v =
            Fvm.Field.get host.Lower.u_new cell comp
            +. Fvm.Field.get u_bdry cell comp
          in
          Fvm.Field.set host.Lower.u cell comp v)
        owned_comps
    done
  in
  let sanitize_scan () =
    if Fvm.Field.sanitize_enabled () then begin
      let n = ref 0 in
      for cell = 0 to ncells - 1 do
        Array.iter
          (fun comp ->
            if Fvm.Field.is_poison (Fvm.Field.get host.Lower.u cell comp)
            then incr n)
          owned_comps
      done;
      Fvm.Field.record_poison !n
    end
  in
  (* max-over-devices of a per-device modelled duration: concurrent
     devices are charged at their critical path *)
  let record_max cat per_dev =
    let t = Array.fold_left Float.max 0. per_dev in
    if t > 0. then Prt.Breakdown.record b cat t
  in
  let record_intensity () =
    record_max Prt.Breakdown.Intensity
      (Array.mapi
         (fun g dev ->
           let d = dev.Gpu_sim.Memory.kernel_time -. !(kernel_seen.(g)) in
           kernel_seen.(g) := dev.Gpu_sim.Memory.kernel_time;
           d)
         devs)
  in
  if overlap then begin
    (* Overlapped schedule, one copy stream per device (the run_single
       two-stream pattern per device): result downloads chase the kernel
       on the copy stream and hide behind the boundary host work; next-
       step uploads and ghost peer copies go out after the post-step and
       stay in flight until the next launch joins them. *)
    let copies = Array.map Gpu_sim.Stream.create devs in
    let timed_host cat f =
      let t0 = Unix.gettimeofday () in
      let r = Prt.Breakdown.timed ~track b cat f in
      clock.Gpu_sim.Stream.now <-
        clock.Gpu_sim.Stream.now +. (Unix.gettimeofday () -. t0);
      r
    in
    for step = 0 to p.Problem.nsteps - 1 do
      let parity = step mod nbuf in
      Lower.run_pre_step host ~allreduce;
      record_max Prt.Breakdown.Communication
        (Array.mapi
           (fun g copy ->
             Float.max 0.
               (copy.Gpu_sim.Stream.tail
               -. Float.max clock.Gpu_sim.Stream.now
                    streams.(g).Gpu_sim.Stream.tail))
           copies);
      Array.iteri
        (fun g stream ->
          Gpu_sim.Stream.join stream copies.(g);
          Eval.bump_epoch dstates.(g).(parity).Lower.env;
          launch_step g stream parity)
        streams;
      Array.iteri
        (fun g copy ->
          Gpu_sim.Stream.join copy streams.(g);
          stream_d2h_runs copy clock u_new_bufs.(g).(parity)
            (Fvm.Field.raw host.Lower.u_new)
            ~runs:owned_runs_u.(g))
        copies;
      timed_host Prt.Breakdown.Boundary (fun () ->
          Fvm.Field.fill u_bdry 0.;
          Lower.boundary_contributions host ~into:u_bdry);
      record_intensity ();
      record_max Prt.Breakdown.Communication
        (Array.map
           (fun copy ->
             Float.max 0.
               (copy.Gpu_sim.Stream.tail -. clock.Gpu_sim.Stream.now))
           copies);
      Array.iter (fun copy -> Gpu_sim.Stream.synchronize copy clock) copies;
      timed_host Prt.Breakdown.Intensity combine_boundary;
      sanitize_scan ();
      timed_host Prt.Breakdown.Temperature (fun () ->
          Lower.run_post_step host ~allreduce);
      Array.iteri
        (fun g copy ->
          List.iter
            (fun name ->
              match upload_runs g name with
              | Some (buf, hf, runs) ->
                stream_h2d_runs copy clock buf (Fvm.Field.raw hf) ~runs
              | None -> ())
            every_step_h2d)
        copies;
      (* ghost peer copies, ordered after the owners' fresh uploads *)
      List.iter
        (fun (src, dst, runs) ->
          match List.assoc_opt u_name dev_fields.(src),
                List.assoc_opt u_name dev_fields.(dst) with
          | Some (src_buf, _), Some (dst_buf, _) ->
            Gpu_sim.Stream.join copies.(dst) copies.(src);
            Gpu_sim.Stream.d2d copies.(dst) clock ~src:devs.(src) ~src_buf
              dst_buf ~runs
          | _ -> ())
        d2d_plan;
      host.Lower.time := !(host.Lower.time) +. !(host.Lower.dt);
      incr host.Lower.step
    done;
    Array.iter (fun copy -> Gpu_sim.Stream.synchronize copy clock) copies
  end
  else
    for _ = 1 to p.Problem.nsteps do
      Lower.run_pre_step host ~allreduce;
      Array.iteri
        (fun g stream ->
          Eval.bump_epoch dstates.(g).(0).Lower.env;
          launch_step g stream 0)
        streams;
      Prt.Breakdown.timed ~track b Prt.Breakdown.Boundary (fun () ->
          Fvm.Field.fill u_bdry 0.;
          Lower.boundary_contributions host ~into:u_bdry);
      Array.iter (fun stream -> Gpu_sim.Stream.synchronize stream clock) streams;
      record_intensity ();
      (* download each device's owned slice of the result *)
      record_max Prt.Breakdown.Communication
        (Array.mapi
           (fun g dev ->
             Gpu_sim.Memory.d2h_runs dev u_new_bufs.(g).(0)
               (Fvm.Field.raw host.Lower.u_new)
               ~runs:owned_runs_u.(g))
           devs);
      Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity combine_boundary;
      sanitize_scan ();
      Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
          Lower.run_post_step host ~allreduce);
      (* per-step uploads: each device its owned (unknown) or
         owned+ghost (other variables) slice *)
      record_max Prt.Breakdown.Communication
        (Array.mapi
           (fun g dev ->
             List.fold_left
               (fun acc name ->
                 match upload_runs g name with
                 | Some (buf, hf, runs) ->
                   acc +. Gpu_sim.Memory.h2d_runs dev buf (Fvm.Field.raw hf) ~runs
                 | None -> acc)
               0. every_step_h2d)
           devs);
      (* ghost exchange: peer copies along the tile halo plan *)
      (let per_dev = Array.make devices 0. in
       List.iter
         (fun (src, dst, runs) ->
           match List.assoc_opt u_name dev_fields.(src),
                 List.assoc_opt u_name dev_fields.(dst) with
           | Some (src_buf, _), Some (dst_buf, _) ->
             let t =
               Gpu_sim.Memory.d2d ~src:devs.(src) ~src_buf ~dst:devs.(dst)
                 ~dst_buf ~runs
             in
             per_dev.(src) <- per_dev.(src) +. t;
             per_dev.(dst) <- per_dev.(dst) +. t
           | _ -> ())
         d2d_plan;
       record_max Prt.Breakdown.Communication per_dev);
      host.Lower.time := !(host.Lower.time) +. !(host.Lower.dt);
      incr host.Lower.step
    done;
  let nthreads =
    Array.fold_left (fun acc cells -> acc + (Array.length cells * n_owned))
      0 owned_cells
  in
  { state = host; device = devs.(0); breakdown = b; plan;
    profile_threads = nthreads }

(* The full grid: R ranks x G devices.  Ranks slice the band axis exactly
   as [run_multi]; each rank drives its devices via [run_rank_grid]. *)
let run_grid ?post_io ?(overlap = false) ~spec ~devices ~ranks
    (p : Problem.t) =
  if ranks <= 1 then begin
    let r = run_rank_grid ?post_io ~overlap ~spec ~devices p in
    r, [| r |]
  end
  else begin
    let band_index =
      match List.rev p.Problem.indices with
      | i :: _ -> i
      | [] -> raise (Gpu_error "multi-GPU run needs a partitioned index")
    in
    let extent = Entity.index_extent band_index in
    if ranks > extent then
      raise (Gpu_error "more GPU ranks than index values");
    let results = Array.make ranks None in
    Prt.Spmd.run ~nranks:ranks (fun rank ->
        let off, len =
          Fvm.Partition.block_range ~nitems:extent ~nparts:ranks rank
        in
        let info =
          { Lower.rank; nranks = ranks; owned_cells = None;
            index_ranges = [ band_index.Entity.iname, (off, len) ] }
        in
        let r =
          run_rank_grid ?post_io ~info ~allreduce:Prt.Spmd.allreduce_sum
            ~overlap ~spec ~devices p
        in
        results.(rank) <- Some r);
    let results =
      Array.map
        (function Some r -> r | None -> raise (Gpu_error "rank did not run"))
        results
    in
    let r0 = gather_ranks results in
    let breakdown =
      Prt.Breakdown.sum_distinct
        (Array.to_list (Array.map (fun r -> r.breakdown) results))
    in
    { r0 with breakdown }, results
  end

let run ?post_io (p : Problem.t) =
  let spec, devices, ranks =
    match p.Problem.target with
    | Config.Gpu { spec; devices; ranks } -> spec, devices, ranks
    | Config.Cpu _ | Config.Auto ->
      raise (Gpu_error "problem target is not a GPU")
  in
  let overlap = p.Problem.overlap in
  if devices > 1 then fst (run_grid ?post_io ~overlap ~spec ~devices ~ranks p)
  else if ranks <= 1 then run_single ?post_io ~overlap ~spec p
  else fst (run_multi ?post_io ~overlap ~spec ~ranks p)
