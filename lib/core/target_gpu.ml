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

   One per-rank body runs every GPU target: [Ranks] gives each of the R
   ranks a band slice and the tiling its G devices share (see
   [run_rank]).  One device per rank is its G = 1 case: one tile holding
   every cell, no ghosts, no peer copies, and every transfer a single
   full-buffer run.

   The device is the [Gpu_sim] simulator: kernels really execute (on device
   buffers that are genuinely distinct memory), a block at a time with the
   block's threads grouped by cell and run in lockstep by the lane
   interpreter, and their timing comes from the roofline model, so both
   numerics and the communication/compute balance are exercised. *)

exception Gpu_error of string

type result = {
  state : Lower.state;               (* host-side state *)
  device : Gpu_sim.Memory.device;
  breakdown : Prt.Breakdown.t;       (* modelled GPU/transfer + real CPU time *)
  plan : Dataflow.plan;
  profile_threads : int;             (* grid size used for profiling *)
}

(* ---- Pieces of the schedule -------------------------------------- *)

type mirror = {
  dev : Gpu_sim.Memory.device;
  bufs : (string * Gpu_sim.Memory.buffer) list;
  u_new : Gpu_sim.Memory.buffer array;
  states : Lower.state array;
}

(* Device mirrors of every host field, [nbuf] device buffers for the
   unknown's result (two alternate by step parity when transfers are
   overlapped, so a download of step N's result may still be in flight at
   step N+1's launch), and per result buffer the host state rebound to
   the device storage: same problem, its programs compiled against the
   device views.  Coefficient arrays are compiled into the kernel
   programs directly (constant memory). *)
let mirror ~nbuf dev (host : Lower.state) =
  let alloc name f =
    Gpu_sim.Memory.alloc dev ~label:name ~size:(Fvm.Field.size f)
  in
  let view name f (buf : Gpu_sim.Memory.buffer) =
    Fvm.Field.of_bigarray ~name ~ncells:(Fvm.Field.ncells f)
      ~ncomp:(Fvm.Field.ncomp f) buf.Gpu_sim.Memory.device_data
  in
  let bufs = List.map (fun (name, f) -> name, alloc name f) host.Lower.fields in
  let u_new =
    Array.init nbuf (fun i ->
        alloc (if i = 0 then "u_new" else "u_new.alt") host.Lower.u_new)
  in
  let views =
    List.map2
      (fun (name, f) (_, buf) -> name, view name f buf)
      host.Lower.fields bufs
  in
  let states =
    Array.map
      (fun buf ->
        Lower.rebind host ~fields:views
          ~u_new:(view "u_new" host.Lower.u_new buf))
      u_new
  in
  { dev; bufs; u_new; states }

(* Upload every mirrored variable in full; the modelled seconds. *)
let upload_all (host : Lower.state) m =
  List.fold_left
    (fun acc (name, buf) ->
      acc
      +. Gpu_sim.Memory.h2d m.dev buf (Fvm.Field.raw (Lower.field host name)))
    0. m.bufs

(* Per-thread roofline cost of the interior kernel. *)
let interior_cost (host : Lower.state) =
  let open Eval in
  let cv = cost host.Lower.eq.Transform.rvol
  and cs = cost host.Lower.eq.Transform.rsurf in
  (* per-thread flops: volume part + one flux per face (quad mesh: 4);
     the factor on top accounts for index arithmetic and predication in
     real generated PTX *)
  let nfaces_per_cell =
    float_of_int (Array.length host.Lower.mesh.Fvm.Mesh.cell_faces.(0))
  in
  let flops = (cv.flops +. (nfaces_per_cell *. cs.flops)) *. 4.0 in
  (* effective DRAM traffic per thread: the unknown in and out plus a
     cache-amortized share of neighbour and coefficient data *)
  let dram = 8. *. (2. +. (0.25 *. float_of_int (cv.loads + cs.loads))) in
  { Gpu_sim.Kernel.flops_per_thread = flops; dram_bytes_per_thread = dram }

(* The components of the unknown the state's rank computes: its band
   slice, or every component when the rank owns the whole index space.
   The flattened thread space covers cells x owned components, as the
   paper's "flatten all of the loops and distribute each degree of
   freedom to separate threads". *)
let owned_comps (host : Lower.state) =
  match Lower.owned_comps host.Lower.uvar host.Lower.info.Lower.index_ranges with
  | Some comps -> comps
  | None -> Array.init (Fvm.Field.ncomp host.Lower.u) Fun.id

(* Launch batching (the IR-level Opt.batch_band_kernels rewrite, mirrored
   here): O2 launches ONE batched cells x dirs x bands kernel per step;
   O0 keeps the naive per-band shape — one cells x dirs launch per owned
   slow-index value, each paying the modelled launch overhead.  Per-DOF
   updates are independent, so any split of the thread space is
   bit-identical; with at most one declared index the shapes coincide. *)
let launch_chunks (host : Lower.state) =
  let owned = owned_comps host in
  let n = Array.length owned in
  let nd =
    match host.Lower.uvar.Entity.vindices with
    | first :: _ -> Entity.index_extent first
    | [] -> 1
  in
  match host.Lower.p.Problem.opt_level with
  | Config.O0 when n > nd && n mod nd = 0 ->
    Array.init (n / nd) (fun k -> Array.sub owned (k * nd) nd)
  | _ -> [| owned |]

(* One kernel block over [cells] x [chunk] (thread [tid] is the DOF
   (cells.(tid / |chunk|), chunk.(tid mod |chunk|))): the block's threads
   [first .. first + n - 1] grouped by cell, each group advanced by its
   interior-face residual against the device-bound state [ds] (boundary
   contributions are the CPU's job).  A block may split a cell, and a
   cell's group never spans two blocks. *)
let update_block (ds : Lower.state) cells chunk first n =
  let n_chunk = Array.length chunk in
  let tid = ref first and stop = first + n in
  while !tid < stop do
    let j = !tid mod n_chunk in
    let len = min (stop - !tid) (n_chunk - j) in
    Lower.update_interior ds cells.(!tid / n_chunk) chunk j len;
    tid := !tid + len
  done

(* u <- downloaded interior result + boundary part on the owned slice,
   the sum every CPU sweep forms.  The three fields share one shape and
   layout, so one element index serves all three; reading the raw
   bigarrays keeps the floats unboxed. *)
let combine_boundary (host : Lower.state) ~u_bdry owned =
  let u = host.Lower.u in
  let ud = Fvm.Field.raw u
  and nd = Fvm.Field.raw host.Lower.u_new
  and bd = Fvm.Field.raw u_bdry in
  let cell_major = Fvm.Field.layout u = Fvm.Field.Cell_major in
  let ncells = Fvm.Field.ncells u and ncomp = Fvm.Field.ncomp u in
  for cell = 0 to ncells - 1 do
    for j = 0 to Array.length owned - 1 do
      let comp = owned.(j) in
      let e = if cell_major then (cell * ncomp) + comp else (comp * ncells) + cell in
      Bigarray.Array1.unsafe_set ud e
        (Bigarray.Array1.unsafe_get nd e +. Bigarray.Array1.unsafe_get bd e)
    done
  done

(* Sanitizer hook: in sanitize mode device buffers start NaN-poisoned
   (Memory.alloc), so a kernel reading a variable the transfer schedule
   never uploaded yields poisoned results.  After each combine, scan the
   owned slice of the unknown the step just produced — only owned comps:
   in multi-rank runs the downloaded u_new legitimately carries poison in
   comps this rank never computes. *)
let sanitize_scan (host : Lower.state) owned =
  if Fvm.Field.sanitize_enabled () then begin
    let n = ref 0 in
    for cell = 0 to host.Lower.mesh.Fvm.Mesh.ncells - 1 do
      Array.iter
        (fun comp ->
          if Fvm.Field.is_poison (Fvm.Field.get host.Lower.u cell comp) then
            incr n)
        owned
    done;
    Fvm.Field.record_poison !n
  end

(* The variables the data-movement plan re-uploads after every step. *)
let every_step_h2d (plan : Dataflow.plan) =
  List.filter_map
    (fun tr ->
      if tr.Dataflow.tr_h2d_every_step then Some tr.Dataflow.tr_var else None)
    plan.Dataflow.transfers

(* The data-movement plan the executor follows.  It always launches the
   interior update on the device, so a plan that places it on the host
   uploads none of its inputs and the kernels would read stale device
   data. *)
let device_plan (p : Problem.t) =
  let plan = Dataflow.plan_for_problem p in
  (match List.assoc_opt "interior_update" plan.Dataflow.placement with
   | Some Dataflow.Cpu_side ->
     raise
       (Gpu_error
          "the data-movement plan places interior_update on the host, but \
           the GPU executor runs it on the device")
   | Some Dataflow.Gpu_side | None -> ());
  plan

let m_host_exec_ns = Prt.Metrics.counter "gpu.host_exec_ns"

(* ---- The per-rank body: G devices per rank x R ranks ----------------

   The 2-D band x cell decomposition (Fvm.Decomp2d): each SPMD rank owns
   a contiguous band slice and drives the tiling's simulated devices,
   which tile the mesh by recursive coordinate bisection.  Per step, each
   device launches the interior kernel over its owned cells x the rank's
   owned components; the host computes boundaries, downloads each
   device's owned slice of the result, combines, runs the post-step
   callback, then uploads each device's owned slice of the fresh unknown
   and pushes ghost cells between devices with peer copies (simulated
   NVLink within a node, host staging across — see Gpu_sim.Topology).
   Devices run concurrently, so kernel and transfer phases are charged
   at their per-step critical path (max over devices).  Data effects are
   immediate in the simulator and ghost values equal the host's fresh
   values, so results do not depend on the device count. *)

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

(* One device of a rank's grid. *)
type slot = {
  m : mirror;
  stream : Gpu_sim.Stream.t;           (* compute stream *)
  copy : Gpu_sim.Stream.t;             (* transfer stream when overlapped *)
  cells : int array;                   (* owned RCB tile *)
  u_runs : (int * int) list;           (* the unknown's owned element runs *)
  uploads : (Gpu_sim.Memory.buffer * Fvm.Field.t * (int * int) list) list;
      (* per-step uploads: device buffer, host field, element runs *)
  kernels : Gpu_sim.Kernel.t array array;  (* per result buffer, per chunk *)
  mutable kernel_seen : float;         (* device kernel time charged so far *)
}

(* One rank's share of the grid: the tiling's G devices with global ids
   [rank*G ..], each owning one RCB cell tile of the rank's band slice.
   The problem's overlap flag routes the per-step transfers through a
   second (copy) stream per device against the double-buffered unknown:
   the download of each step's result is enqueued behind the kernel and
   overlaps the boundary host work, and uploads for the next step stay in
   flight until the next launch joins them.  Data effects are immediate
   in the simulator, so results are bit-identical; only the modelled
   timeline and the Communication accounting change. *)
let run_rank (p : Problem.t) ~spec ~(tiling : Fvm.Decomp2d.t) ~faces
    (info : Lower.rankinfo) ~allreduce =
  let host = Lower.build ~info ~faces p in
  let mesh = host.Lower.mesh in
  let ncomp = Fvm.Field.ncomp host.Lower.u in
  let plan = device_plan p in
  let devices = tiling.Fvm.Decomp2d.ndevices in
  let overlap = p.Problem.overlap in
  let clock = Gpu_sim.Stream.create_clock () in
  let nbuf = if overlap then 2 else 1 in
  let u_name = Fvm.Field.name host.Lower.u in
  let every_step = every_step_h2d plan in
  let cost = interior_cost host in
  let owned = owned_comps host in
  let chunks = launch_chunks host in
  (* kernel over one device's owned cells x one component chunk *)
  let kernel ds cells chunk =
    Gpu_sim.Kernel.make ~name:"interior_update" ~cost (update_block ds cells chunk)
  in
  let slots =
    Array.init devices (fun g ->
        let dev =
          Gpu_sim.Memory.create_device
            ~id:((info.Lower.rank * devices) + g)
            spec
        in
        let m = mirror ~nbuf dev host in
        let cells = Fvm.Decomp2d.owned_cells tiling g in
        let u_runs = Fvm.Decomp2d.cell_runs ~cells ~ncomp in
        (* the unknown travels owned-only (ghosts arrive device to device),
           other variables owned+ghost from the host *)
        let reach =
          Array.append cells tiling.Fvm.Decomp2d.halo.Fvm.Halo.ghosts.(g)
        in
        let uploads =
          List.filter_map
            (fun name ->
              Option.map
                (fun buf ->
                  let hf = Lower.field host name in
                  let runs =
                    if name = u_name then u_runs
                    else
                      Fvm.Decomp2d.cell_runs ~cells:reach
                        ~ncomp:(Fvm.Field.ncomp hf)
                  in
                  buf, hf, runs)
                (List.assoc_opt name m.bufs))
            every_step
        in
        { m;
          stream = Gpu_sim.Stream.create dev;
          copy = Gpu_sim.Stream.create dev;
          cells;
          u_runs;
          uploads;
          kernels =
            Array.map (fun ds -> Array.map (kernel ds cells) chunks) m.states;
          kernel_seen = 0. })
  in
  (* ghost edges between tiles: the unknown's owned runs a device pushes
     to a neighbour after every step *)
  let u_buf s = List.assoc u_name s.m.bufs in
  let d2d_plan =
    List.map
      (fun (src, dst, cells) -> src, dst, Fvm.Decomp2d.cell_runs ~cells ~ncomp)
      (Fvm.Decomp2d.d2d_edges tiling)
  in
  let track = Ranks.track info in
  (* Host wall time spent executing the thread bodies: its own counter and
     a span on the rank's track, never mixed into modelled kernel time or
     a phase; recorded only while metrics or tracing are on. *)
  let host_exec f =
    if Prt.Metrics.enabled () || Prt.Trace.enabled () then begin
      let t0 = Unix.gettimeofday () in
      f ();
      let t1 = Unix.gettimeofday () in
      Prt.Metrics.add m_host_exec_ns (int_of_float ((t1 -. t0) *. 1e9));
      Prt.Trace.complete track ~cat:"gpu-host" "kernel host exec (wall)" ~t0 ~t1
    end
    else f ()
  in
  let launch s parity =
    let ncells_g = Array.length s.cells in
    if ncells_g > 0 then
      Array.iteri
        (fun i k ->
          host_exec (fun () ->
              Gpu_sim.Stream.kernel s.stream clock k
                ~nthreads:(ncells_g * Array.length chunks.(i))
                ()))
        s.kernels.(parity)
  in
  (* the boundary part: rewritten each step where it is nonzero *)
  let u_bdry =
    Fvm.Field.create ~name:"u_bdry" ~ncells:mesh.Fvm.Mesh.ncells ~ncomp ()
  in
  let b = host.Lower.breakdown in
  (* max-over-devices of a per-device modelled duration: concurrent
     devices are charged at their critical path *)
  let record_max cat per_dev =
    let t = Array.fold_left Float.max 0. per_dev in
    if t > 0. then Prt.Breakdown.record b cat t
  in
  let record_intensity () =
    record_max Prt.Breakdown.Intensity
      (Array.map
         (fun s ->
           let kt = s.m.dev.Gpu_sim.Memory.kernel_time in
           let d = kt -. s.kernel_seen in
           s.kernel_seen <- kt;
           d)
         slots)
  in
  (* one-time uploads: everything the kernel reads *)
  record_max Prt.Breakdown.Communication
    (Array.map (fun s -> upload_all host s.m) slots);
  let u_new_host = Fvm.Field.raw host.Lower.u_new in
  if overlap then begin
    (* Overlapped schedule, one copy stream per device.  Host phases are
       real time; advancing the modelled clock by their measured duration
       lets the copy streams' transfers hide behind them on the modelled
       timeline, and Communication is charged only what the host work did
       not hide. *)
    let timed_host cat f =
      let t0 = Unix.gettimeofday () in
      let r = Prt.Breakdown.timed ~track b cat f in
      clock.Gpu_sim.Stream.now <-
        clock.Gpu_sim.Stream.now +. (Unix.gettimeofday () -. t0);
      r
    in
    for step = 0 to p.Problem.nsteps - 1 do
      let parity = step mod nbuf in
      (* 1. async kernel launches, ordered after the uploads still in
         flight on the copy streams; any residual upload time delays the
         launch and is charged as communication. *)
      record_max Prt.Breakdown.Communication
        (Array.map
           (fun s ->
             Float.max 0.
               (s.copy.Gpu_sim.Stream.tail
               -. Float.max clock.Gpu_sim.Stream.now
                    s.stream.Gpu_sim.Stream.tail))
           slots);
      Array.iter
        (fun s ->
          Gpu_sim.Stream.join s.stream s.copy;
          launch s parity)
        slots;
      (* 2. download of this step's result, enqueued on the copy streams
         behind the kernels — in flight during the boundary host work *)
      Array.iter
        (fun s ->
          Gpu_sim.Stream.join s.copy s.stream;
          stream_d2h_runs s.copy clock s.m.u_new.(parity) u_new_host
            ~runs:s.u_runs)
        slots;
      (* 3. boundary contributions on the CPU, overlapping kernel and
         download *)
      timed_host Prt.Breakdown.Boundary (fun () ->
          Lower.boundary_contributions host ~into:u_bdry);
      (* 4. drain: the kernel is charged at its roofline duration, the
         transfer only what the boundary work left exposed *)
      record_intensity ();
      record_max Prt.Breakdown.Communication
        (Array.map
           (fun s ->
             Float.max 0.
               (s.copy.Gpu_sim.Stream.tail -. clock.Gpu_sim.Stream.now))
           slots);
      Array.iter (fun s -> Gpu_sim.Stream.synchronize s.copy clock) slots;
      timed_host Prt.Breakdown.Intensity (fun () ->
          combine_boundary host ~u_bdry owned);
      sanitize_scan host owned;
      (* 5. post-step user code on the host *)
      timed_host Prt.Breakdown.Temperature (fun () ->
          Lower.run_post_step host ~allreduce);
      (* 6. uploads for the next step go out asynchronously, then ghost
         peer copies ordered after the owners' fresh uploads; the next
         launch joins them *)
      Array.iter
        (fun s ->
          List.iter
            (fun (buf, hf, runs) ->
              stream_h2d_runs s.copy clock buf (Fvm.Field.raw hf) ~runs)
            s.uploads)
        slots;
      List.iter
        (fun (src, dst, runs) ->
          let s = slots.(src) and d = slots.(dst) in
          Gpu_sim.Stream.join d.copy s.copy;
          Gpu_sim.Stream.d2d d.copy clock ~src:s.m.dev ~src_buf:(u_buf s)
            (u_buf d) ~runs)
        d2d_plan;
      host.Lower.time := !(host.Lower.time) +. !(host.Lower.dt);
      incr host.Lower.step
    done;
    Array.iter (fun s -> Gpu_sim.Stream.synchronize s.copy clock) slots
  end
  else
    for _ = 1 to p.Problem.nsteps do
      (* 1. async kernel launches *)
      Array.iter (fun s -> launch s 0) slots;
      (* 2. boundary contributions on the CPU, overlapping the kernels *)
      Prt.Breakdown.timed ~track b Prt.Breakdown.Boundary (fun () ->
          Lower.boundary_contributions host ~into:u_bdry);
      (* 3. synchronize; download each device's owned slice; combine *)
      Array.iter (fun s -> Gpu_sim.Stream.synchronize s.stream clock) slots;
      record_intensity ();
      record_max Prt.Breakdown.Communication
        (Array.map
           (fun s ->
             Gpu_sim.Memory.d2h_runs s.m.dev s.m.u_new.(0) u_new_host
               ~runs:s.u_runs)
           slots);
      Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () ->
          combine_boundary host ~u_bdry owned);
      sanitize_scan host owned;
      (* 4. post-step user code on the host *)
      Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
          Lower.run_post_step host ~allreduce);
      (* 5. upload what each device needs fresh *)
      record_max Prt.Breakdown.Communication
        (Array.map
           (fun s ->
             List.fold_left
               (fun acc (buf, hf, runs) ->
                 acc
                 +. Gpu_sim.Memory.h2d_runs s.m.dev buf (Fvm.Field.raw hf) ~runs)
               0. s.uploads)
           slots);
      (* 6. ghost exchange: peer copies along the tile halo plan; a copy
         occupies both ends *)
      (let per_dev = Array.make devices 0. in
       List.iter
         (fun (src, dst, runs) ->
           let t =
             Gpu_sim.Memory.d2d ~src:slots.(src).m.dev
               ~src_buf:(u_buf slots.(src)) ~dst:slots.(dst).m.dev
               ~dst_buf:(u_buf slots.(dst)) ~runs
           in
           per_dev.(src) <- per_dev.(src) +. t;
           per_dev.(dst) <- per_dev.(dst) +. t)
         d2d_plan;
       record_max Prt.Breakdown.Communication per_dev);
      host.Lower.time := !(host.Lower.time) +. !(host.Lower.dt);
      incr host.Lower.step
    done;
  let nthreads =
    Array.fold_left
      (fun acc s -> acc + (Array.length s.cells * Array.length owned))
      0 slots
  in
  { state = host; device = slots.(0).m.dev; breakdown = b; plan;
    profile_threads = nthreads }
