(* CPU code-generation target: the per-rank bodies of the serial,
   band-parallel (equation-partitioned), cell-parallel (mesh-partitioned),
   threaded and MPI+threads hybrid strategies.

   [Ranks] decides what each rank owns and calls a body once per rank —
   directly for a lone rank, as [Prt.Spmd] fibers (deterministic
   in-process message passing) otherwise — which makes every strategy
   directly comparable, DOF for DOF, with the serial run.  All bodies
   advance the same lowered state machinery from [Lower]. *)

(* The time loop every body shares: [advance] (the body's sweep of its
   DOFs), post-step callbacks (the BTE temperature update, whose
   cross-band reduction goes through [allreduce]), then the clock.  A
   lone rank's steps span on the main track. *)
let time_loop (st : Lower.state) ~allreduce advance =
  let track = Ranks.track st.Lower.info in
  let step () =
    advance ();
    Prt.Breakdown.timed ~track st.Lower.breakdown Prt.Breakdown.Temperature
      (fun () -> Lower.run_post_step st ~allreduce);
    st.Lower.time := !(st.Lower.time) +. !(st.Lower.dt);
    incr st.Lower.step
  in
  for _ = 1 to st.Lower.p.Problem.nsteps do
    if st.Lower.info.Lower.nranks > 1 then step ()
    else Prt.Trace.span ~cat:"step" Prt.Trace.main "step" step
  done

(* ------------------------------------------------------------------ *)
(* Serial and band ranks: the configured time scheme on owned DOFs.     *)
(* ------------------------------------------------------------------ *)

let direct (p : Problem.t) ~faces info ~allreduce =
  let st = Lower.build ~info ~faces p in
  let track = Ranks.track info in
  time_loop st ~allreduce (fun () ->
      Prt.Breakdown.timed ~track st.Lower.breakdown Prt.Breakdown.Intensity
        (fun () -> Lower.rk_step st));
  st, [ st.Lower.breakdown ]

(* ------------------------------------------------------------------ *)
(* Cell ranks: halo exchange of the unknown as point-to-point messages. *)
(* ------------------------------------------------------------------ *)

(* Sanitizer hook for the halo body: after each commit, scan the rank's
   owned cells for poison that a broken exchange let propagate into real
   data, then poison the ghost region so the next sweep can only observe
   stale ghosts as NaN.  A correct schedule overwrites every poisoned
   ghost before it is read (finish_exchange precedes every sweep that
   reads ghosts), so sanitized runs stay bit-identical. *)
let sanitize_commit (st : Lower.state) ~owned ~ghosts =
  if Fvm.Field.sanitize_enabled () then begin
    Fvm.Field.record_poison (Fvm.Field.count_poison_cells st.Lower.u owned);
    Fvm.Field.poison_cells st.Lower.u ghosts
  end

(* After each commit the rank sends its frontier values and posts its
   ghost receives.  Synchronously it waits for them at once.  With the
   problem's overlap flag it waits in the next step instead: interior
   cells (whose stencils read no ghosts) are swept while the messages
   are in flight, then the frontier once they land.  Ranks drift
   independently — the only synchronization is message matching — yet
   both schedules are bit-identical: per-DOF updates are
   order-independent, frontier sweeps see exactly the ghost values a
   synchronous exchange delivers, and the temperature update reads owned
   cells only. *)
let halo (p : Problem.t) ~faces ~plan (info : Lower.rankinfo) ~allreduce =
  let st = Lower.build ~info ~faces p in
  let b = st.Lower.breakdown in
  let track = Ranks.track info in
  let rank = info.Lower.rank in
  (* a cell rank owns one tile of the partition *)
  let owned = Option.get info.Lower.owned_cells in
  let interior, frontier = Fvm.Halo.split_cells plan rank ~owned in
  let timed phase f = Prt.Breakdown.timed ~track b phase f in
  let finish ses =
    timed Prt.Breakdown.Communication (fun () ->
        Fvm.Halo.finish_exchange ses st.Lower.u)
  in
  let pending = ref None in
  time_loop st ~allreduce (fun () ->
      (match !pending with
       | None -> timed Prt.Breakdown.Intensity (fun () -> Lower.sweep st)
       | Some ses ->
         timed Prt.Breakdown.Intensity (fun () -> Lower.sweep_cells st interior);
         finish ses;
         timed Prt.Breakdown.Intensity (fun () -> Lower.sweep_cells st frontier));
      timed Prt.Breakdown.Intensity (fun () -> Lower.commit st);
      sanitize_commit st ~owned ~ghosts:plan.Fvm.Halo.ghosts.(rank);
      let ses =
        timed Prt.Breakdown.Communication (fun () ->
            Fvm.Halo.start_exchange plan ~rank st.Lower.u)
      in
      if p.Problem.overlap then pending := Some ses else finish ses);
  (* drain the last overlapped round so no request is left unmatched *)
  Option.iter finish !pending;
  st, [ b ]

(* ------------------------------------------------------------------ *)
(* Threads and hybrid ranks: a shared domain pool over cell ranges.     *)
(* ------------------------------------------------------------------ *)

(* Each pool worker gets its own lowered state (own env and closures)
   over the rank's storage: fields and face tables are shared by pointing
   every worker at the rank state's.  Writes are disjoint (cell blocks
   within the rank's index slice), reads of the previous step go through
   the shared current buffer, so the sweep is race-free. *)
let make_workers ?(private_clock = false) (p : Problem.t) ~(base : Lower.state)
    ~ndomains =
  let part =
    Fvm.Partition.blocks ~nitems:base.Lower.mesh.Fvm.Mesh.ncells ~nparts:ndomains
  in
  Array.init ndomains (fun rank ->
      let info =
        { Lower.rank; nranks = ndomains;
          owned_cells = Some (Fvm.Partition.cells_of_rank part rank);
          index_ranges = base.Lower.info.Lower.index_ranges }
      in
      Lower.build ~info ~share_with:base ~private_clock p)

let breakdowns states =
  Array.to_list (Array.map (fun (st : Lower.state) -> st.Lower.breakdown) states)

(* One timestep's parallel region: every pool participant sweeps its cell
   range, all meet at the barrier (no domain may publish u_new while
   another still reads u), then commit.  Phase times land in each worker's
   own breakdown. *)
let pool_step pool (workers : Lower.state array) =
  Prt.Pool.run pool (fun rank ->
      let st = workers.(rank) in
      let b = st.Lower.breakdown in
      let track = Prt.Trace.worker rank in
      Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () -> Lower.sweep st);
      Prt.Pool.barrier pool;
      Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () -> Lower.commit st))

(* ------------------------------------------------------------------ *)
(* Fused threaded schedule (opt_level O2): one pool region per PAIR of  *)
(* timesteps with a single internal barrier — the executor mirror of    *)
(* the Opt.fuse_steps IR rewrite.                                       *)
(* ------------------------------------------------------------------ *)

(* The classic schedule spends one pool region and one barrier round per
   step ({sweep; barrier; commit}).  The fused schedule replaces the
   commit copy with a buffer-ROLE swap and packs two steps into one
   region:

     phase A: sweep u -> u_new; post-step on the A parity; advance;
     barrier;
     phase B: sweep u_new -> u; post-step on the B parity; advance.

   The "B parity" of a worker is a rebound state whose unknown binding
   points at the u_new storage (so reading the unknown reads what phase A
   just wrote) and whose double buffer is the u storage.  The one barrier
   protects the only cross-worker dependency: phase B's neighbour (Cell2)
   reads of values phase A wrote.  Legality, checked by
   [fused_schedule_ok]:
   - a [threads:N] target: hybrid ranks keep the classic schedule;
   - forward Euler only (the parity trick has no meaning for multi-stage
     schemes or the point-implicit solve's in-place reads);
   - every expression boundary condition of the unknown is closed (no
     entity references): expression BCs compile against the unswapped
     storage at build time, so one referencing a variable would read the
     stale buffer in phase B.  Callback BCs stay parity-safe because
     [Lower.rebind] stages them again against the B parity's own fields
     (its staged functions read the unknown through the u_new storage);
   - no field the post-step callbacks write ([Problem.post_io]) is read
     at the neighbouring cell by the surface term (within a phase, one
     worker's post-step writes would race with another's neighbour
     reads), nor is the unknown itself written — which rules out any
     callback registered without a declaration.  Post-steps run per
     worker restricted to its own cells — the step_ctx st_cells contract
     already relied on by the cell-parallel body. *)
let fused_schedule_ok (p : Problem.t) =
  let module E = Finch_symbolic.Expr in
  match p.Problem.target, p.Problem.opt_level with
  | Config.Cpu (Config.Threaded _), Config.O2 ->
    p.Problem.stepper = Config.Euler_explicit
    &&
    let eq = Problem.the_equation p in
    let closed_bcs =
      List.for_all
        (fun (bc : Problem.bc) ->
          match bc.Problem.bc_spec with
          | Problem.Bc_callback _ -> true
          | Problem.Bc_expr e -> E.ref_names e = [])
        (Problem.bcs_for p eq.Transform.eq_var)
    in
    let post_ok =
      let writes = (Problem.post_io p).Problem.cb_writes in
      let neighbour_reads =
        List.filter_map
          (fun (name, _, side) -> if side = E.Cell2 then Some name else None)
          (E.refs eq.Transform.rvol @ E.refs eq.Transform.rsurf)
      in
      (not (List.mem eq.Transform.eq_var writes))
      && List.for_all (fun w -> not (List.mem w neighbour_reads)) writes
    in
    closed_bcs && post_ok
  | _ -> false

(* The B-parity of a worker: unknown binding moved onto the u_new storage,
   double buffer moved onto the u storage.  Clock and step refs are shared
   with the worker (rebind inherits them), so advancing one advances both. *)
let make_parity (st : Lower.state) =
  let uname = st.Lower.uvar.Entity.vname in
  let fields =
    List.map
      (fun (n, f) -> if n = uname then n, st.Lower.u_new else n, f)
      st.Lower.fields
  in
  Lower.rebind st ~fields ~u_new:st.Lower.u

(* One fused region = two timesteps, one barrier. *)
let fused_region pool (workers : Lower.state array) (parity : Lower.state array) =
  Prt.Pool.run pool (fun rank ->
      let st_a = workers.(rank) and st_b = parity.(rank) in
      let b_a = st_a.Lower.breakdown and b_b = st_b.Lower.breakdown in
      let track = Prt.Trace.worker rank in
      Prt.Breakdown.timed ~track b_a Prt.Breakdown.Intensity (fun () ->
          Lower.sweep st_a);
      (* post-step of the first step reads the just-swept values through
         the B parity; it writes only this worker's cells, so it is safe
         before the barrier *)
      Prt.Breakdown.timed ~track b_b Prt.Breakdown.Temperature (fun () ->
          Lower.run_post_step st_b ~allreduce:Ranks.noop_allreduce);
      st_a.Lower.time := !(st_a.Lower.time) +. !(st_a.Lower.dt);
      incr st_a.Lower.step;
      Prt.Pool.barrier pool;
      Prt.Breakdown.timed ~track b_b Prt.Breakdown.Intensity (fun () ->
          Lower.sweep st_b);
      Prt.Breakdown.timed ~track b_a Prt.Breakdown.Temperature (fun () ->
          Lower.run_post_step st_a ~allreduce:Ranks.noop_allreduce);
      st_a.Lower.time := !(st_a.Lower.time) +. !(st_a.Lower.dt);
      incr st_a.Lower.step)

(* Trailing region for an odd step count: the classic step shape, but the
   post-step still runs per worker on its own cells. *)
let fused_tail pool (workers : Lower.state array) =
  Prt.Pool.run pool (fun rank ->
      let st = workers.(rank) in
      let b = st.Lower.breakdown in
      let track = Prt.Trace.worker rank in
      Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () ->
          Lower.sweep st);
      Prt.Pool.barrier pool;
      Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () ->
          Lower.commit st);
      Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
          Lower.run_post_step st ~allreduce:Ranks.noop_allreduce);
      st.Lower.time := !(st.Lower.time) +. !(st.Lower.dt);
      incr st.Lower.step)

(* The fused schedule of one [threads:N] rank: workers carry private
   clocks, each advancing its own time mid-region instead of racing on
   the base refs. *)
let fused (p : Problem.t) ~pool (base : Lower.state) =
  let workers =
    make_workers p ~base ~ndomains:(Prt.Pool.size pool) ~private_clock:true
  in
  let parity = Array.map make_parity workers in
  for _ = 1 to p.Problem.nsteps / 2 do
    Prt.Trace.span ~cat:"step" Prt.Trace.main "step-pair" (fun () ->
        fused_region pool workers parity);
    base.Lower.time := !(base.Lower.time) +. (2. *. !(base.Lower.dt));
    base.Lower.step := !(base.Lower.step) + 2
  done;
  if p.Problem.nsteps mod 2 = 1 then begin
    Prt.Trace.span ~cat:"step" Prt.Trace.main "step" (fun () ->
        fused_tail pool workers);
    base.Lower.time := !(base.Lower.time) +. !(base.Lower.dt);
    incr base.Lower.step
  end;
  base.Lower.breakdown :: (breakdowns workers @ breakdowns parity)

(* A rank whose sweeps run on the pool: the rank state runs the
   post-steps and owns the storage, its workers sweep cell blocks of it.
   Hybrid ranks are cooperative fibers, so their parallel regions take
   turns on the one shared pool. *)
let pooled (p : Problem.t) ~faces ~pool info ~allreduce =
  let base = Lower.build ~info ~faces p in
  if fused_schedule_ok p then base, fused p ~pool base
  else begin
    let workers = make_workers p ~base ~ndomains:(Prt.Pool.size pool) in
    time_loop base ~allreduce (fun () -> pool_step pool workers);
    base, base.Lower.breakdown :: breakdowns workers
  end
