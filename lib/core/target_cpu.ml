(* CPU code-generation target: serial, band-parallel (equation-partitioned)
   and cell-parallel (mesh-partitioned) executors, plus a shared-memory
   multithreaded variant using OCaml domains.

   The distributed strategies run as SPMD rank programs under [Prt.Spmd]
   (deterministic in-process message passing), which makes them directly
   comparable — DOF for DOF — with the serial executor.  All executors
   advance the same lowered state machinery from [Lower]. *)

exception Target_error of string

type result = {
  states : Lower.state array; (* one per rank; index 0 for serial *)
  breakdown : Prt.Breakdown.t;
}

let primary r = r.states.(0)

(* ------------------------------------------------------------------ *)
(* Serial                                                               *)
(* ------------------------------------------------------------------ *)

let noop_allreduce (_ : float array) = ()

let step_serial (st : Lower.state) =
  let b = st.Lower.breakdown in
  let track = Prt.Trace.main in
  Lower.run_pre_step st ~allreduce:noop_allreduce;
  (* the configured time stepper: forward Euler as in the paper, or an
     explicit Runge-Kutta scheme (extension) *)
  Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () -> Lower.rk_step st);
  Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
      Lower.run_post_step st ~allreduce:noop_allreduce);
  st.Lower.time := !(st.Lower.time) +. !(st.Lower.dt);
  incr st.Lower.step

let run_serial (p : Problem.t) =
  let st = Lower.build p in
  for _ = 1 to p.Problem.nsteps do
    Prt.Trace.span ~cat:"step" Prt.Trace.main "step" (fun () -> step_serial st)
  done;
  { states = [| st |]; breakdown = st.Lower.breakdown }

(* ------------------------------------------------------------------ *)
(* Band-parallel: partition a declared index's range across ranks.      *)
(* ------------------------------------------------------------------ *)

let run_band_parallel (p : Problem.t) ~index ~nranks =
  let idx =
    match Problem.find_index p index with
    | Some i -> i
    | None -> raise (Target_error ("band-parallel: unknown index " ^ index))
  in
  let extent = Entity.index_extent idx in
  if nranks > extent then
    raise (Target_error "band-parallel: more ranks than index values");
  let states = Array.make nranks None in
  Prt.Spmd.run ~nranks (fun rank ->
      let off, len = Fvm.Partition.block_range ~nitems:extent ~nparts:nranks rank in
      let info =
        { Lower.rank; nranks; owned_cells = None;
          index_ranges = [ index, (off, len) ] }
      in
      let st = Lower.build ~info p in
      states.(rank) <- Some st;
      let b = st.Lower.breakdown in
      let track = Prt.Trace.rank rank in
      for _ = 1 to p.Problem.nsteps do
        Lower.run_pre_step st ~allreduce:Prt.Spmd.allreduce_sum;
        Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () -> Lower.sweep st);
        Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () -> Lower.commit st);
        (* the post-step callback performs the cross-band reduction itself
           through st_allreduce (the paper's "reduction of intensity across
           bands" communication) *)
        Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
            Lower.run_post_step st ~allreduce:Prt.Spmd.allreduce_sum);
        st.Lower.time := !(st.Lower.time) +. !(st.Lower.dt);
        incr st.Lower.step
      done);
  let states =
    Array.map
      (function Some st -> st | None -> raise (Target_error "rank did not start"))
      states
  in
  let breakdown =
    Prt.Breakdown.sum_distinct
      (Array.to_list (Array.map (fun st -> st.Lower.breakdown) states))
  in
  { states; breakdown }

(* ------------------------------------------------------------------ *)
(* Cell-parallel: RCB mesh partition + halo exchange of the unknown.    *)
(* ------------------------------------------------------------------ *)

(* Sanitizer hook for the halo executors: after each commit, scan the
   rank's owned cells for poison that a broken exchange let propagate
   into real data, then poison the ghost region so the next sweep can
   only observe stale ghosts as NaN.  A correct schedule overwrites every
   poisoned ghost before it is read (blocking path: the blit round;
   overlap path: finish_exchange precedes the frontier sweep and the
   interior reads no ghosts), so sanitized runs stay bit-identical. *)
let sanitize_commit (st : Lower.state) ~owned ~ghosts =
  if Fvm.Field.sanitize_enabled () then begin
    Fvm.Field.record_poison (Fvm.Field.count_poison_cells st.Lower.u owned);
    Fvm.Field.poison_cells st.Lower.u ghosts
  end

let run_cell_parallel ?(overlap = false) (p : Problem.t) ~nranks =
  let mesh = Problem.mesh_exn p in
  let part = Fvm.Partition.rcb_mesh mesh ~nparts:nranks in
  let halo = Fvm.Halo.build mesh part in
  let states = Array.make nranks None in
  let get_state r =
    match states.(r) with
    | Some st -> st
    | None -> raise (Target_error "rank state not ready")
  in
  Prt.Spmd.run ~nranks (fun rank ->
      let owned = Fvm.Partition.cells_of_rank part rank in
      let info =
        { Lower.rank; nranks; owned_cells = Some owned; index_ranges = [] }
      in
      let st = Lower.build ~info p in
      states.(rank) <- Some st;
      (* everyone must be constructed before any exchange *)
      Prt.Spmd.barrier ();
      let b = st.Lower.breakdown in
      let track = Prt.Trace.rank rank in
      if overlap then begin
        (* Overlapped halo exchange: after each commit, ghost values go
           out as nonblocking messages; the next step sweeps interior
           cells (whose stencils read no ghosts) while they are in
           flight, then unpacks and sweeps the frontier.  Ranks drift
           independently — the only synchronization is message matching —
           yet the result is bit-identical to the synchronous path:
           per-DOF updates are order-independent, frontier sweeps see
           exactly the ghost values the blocking path would have, and the
           temperature update reads owned cells only. *)
        let interior, frontier = Fvm.Halo.split_cells halo rank ~owned in
        let pending = ref None in
        for _ = 1 to p.Problem.nsteps do
          Lower.run_pre_step st ~allreduce:Prt.Spmd.allreduce_sum;
          (match !pending with
           | None ->
             (* first step: ghosts still hold initial conditions *)
             Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () ->
                 Lower.sweep st)
           | Some ses ->
             Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () ->
                 Lower.sweep_cells st interior);
             Prt.Breakdown.timed ~track b Prt.Breakdown.Communication
               (fun () -> Fvm.Halo.finish_exchange ses st.Lower.u);
             Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () ->
                 Lower.sweep_cells st frontier));
          Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () ->
              Lower.commit st);
          sanitize_commit st ~owned ~ghosts:halo.Fvm.Halo.ghosts.(rank);
          pending :=
            Some
              (Prt.Breakdown.timed ~track b Prt.Breakdown.Communication
                 (fun () -> Fvm.Halo.start_exchange halo ~rank st.Lower.u));
          Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
              Lower.run_post_step st ~allreduce:Prt.Spmd.allreduce_sum);
          st.Lower.time := !(st.Lower.time) +. !(st.Lower.dt);
          incr st.Lower.step
        done;
        (* drain the last round so no request is left unmatched *)
        match !pending with
        | Some ses ->
          Prt.Breakdown.timed ~track b Prt.Breakdown.Communication (fun () ->
              Fvm.Halo.finish_exchange ses st.Lower.u)
        | None -> ()
      end
      else
        for _ = 1 to p.Problem.nsteps do
          Lower.run_pre_step st ~allreduce:Prt.Spmd.allreduce_sum;
          Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () -> Lower.sweep st);
          Prt.Breakdown.timed ~track b Prt.Breakdown.Intensity (fun () -> Lower.commit st);
          sanitize_commit st ~owned ~ghosts:halo.Fvm.Halo.ghosts.(rank);
          (* halo exchange: receive ghost-cell values of the unknown from
             the owning ranks.  The barrier gives BSP semantics; reading
             the peer's committed buffer stands in for matched send/recv. *)
          Prt.Spmd.barrier ();
          Prt.Breakdown.timed ~track b Prt.Breakdown.Communication (fun () ->
              List.iter
                (fun (e : Fvm.Halo.exchange) ->
                  Fvm.Field.blit_cells
                    ~src:(get_state e.Fvm.Halo.from_rank).Lower.u
                    ~dst:st.Lower.u e.Fvm.Halo.cells)
                (Fvm.Halo.recvs_of halo rank);
              Fvm.Halo.account halo rank ~ncomp:(Fvm.Field.ncomp st.Lower.u));
          Prt.Spmd.barrier ();
          Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
              Lower.run_post_step st ~allreduce:Prt.Spmd.allreduce_sum);
          st.Lower.time := !(st.Lower.time) +. !(st.Lower.dt);
          incr st.Lower.step
        done);
  let states =
    Array.map
      (function Some st -> st | None -> raise (Target_error "rank did not start"))
      states
  in
  let breakdown =
    Prt.Breakdown.sum_distinct
      (Array.to_list (Array.map (fun st -> st.Lower.breakdown) states))
  in
  { states; breakdown }

(* ------------------------------------------------------------------ *)
(* Shared-memory multithreading: domains over cell ranges.              *)
(* ------------------------------------------------------------------ *)

(* Each domain gets its own lowered state (own env and closures) sharing
   the same underlying mesh; fields are shared by pointing every state at
   the base state's field storage.  Writes are disjoint (cell ranges),
   reads of the previous step go through the shared current buffer, so the
   sweep is race-free. *)
let make_workers ?(private_clock = false) (p : Problem.t) ~(base : Lower.state)
    ~ndomains ~index_ranges =
  let mesh = base.Lower.mesh in
  let part = Fvm.Partition.blocks ~nitems:mesh.Fvm.Mesh.ncells ~nparts:ndomains in
  Array.init ndomains (fun rank ->
      let info =
        { Lower.rank; nranks = ndomains;
          owned_cells = Some (Fvm.Partition.cells_of_rank part rank);
          index_ranges }
      in
      Lower.build ~info ~share_with:base ~private_clock p)

(* Per-worker breakdown counters summed into the aggregate, like the SPMD
   executors do (the seed only observed worker sweeps through the base
   timer).  [sum_distinct] keeps the sum correct even when the caller's
   record appears both as the base and as a pool participant. *)
let sum_breakdowns (base : Lower.state) workers =
  Prt.Breakdown.sum_distinct
    (base.Lower.breakdown
     :: Array.to_list
          (Array.map (fun (st : Lower.state) -> st.Lower.breakdown) workers))

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

(* Persistent-pool executor: domains are spawned once per solve and parked
   between regions, not respawned twice per timestep. *)
let run_threaded_classic (p : Problem.t) ~ndomains =
  (* base state: full ownership, runs pre/post-step and initialization *)
  let base = Lower.build p in
  let workers = make_workers p ~base ~ndomains ~index_ranges:[] in
  Prt.Pool.with_pool ~size:ndomains (fun pool ->
      for _ = 1 to p.Problem.nsteps do
        Prt.Trace.span ~cat:"step" Prt.Trace.main "step" (fun () ->
            Lower.run_pre_step base ~allreduce:noop_allreduce;
            pool_step pool workers;
            Prt.Breakdown.timed ~track:Prt.Trace.main base.Lower.breakdown
              Prt.Breakdown.Temperature
              (fun () -> Lower.run_post_step base ~allreduce:noop_allreduce);
            (* time/dt refs are shared between base and workers *)
            base.Lower.time := !(base.Lower.time) +. !(base.Lower.dt);
            incr base.Lower.step)
      done);
  { states = [| base |]; breakdown = sum_breakdowns base workers }

(* ------------------------------------------------------------------ *)
(* Fused threaded schedule (opt_level >= O1): one pool region per PAIR  *)
(* of timesteps with a single internal barrier — the executor mirror of *)
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
   - forward Euler only (the parity trick has no meaning for multi-stage
     schemes or the point-implicit solve's in-place reads);
   - no pre-step callbacks (they expect the base clock between steps);
   - every expression boundary condition of the unknown is closed (no
     entity references): expression BCs compile against the unswapped
     storage at build time, so one referencing a variable would read the
     stale buffer in phase B.  Callback BCs resolve fields through the
     sweeping state and are parity-safe;
   - post-step callbacks, if any, declare their I/O and no field they
     write is read at the neighbouring cell by the surface term (within
     a phase, one worker's post-step writes would race with another's
     neighbour reads), nor is the unknown itself written.  Post-steps
     run per worker restricted to its own cells — the step_ctx st_cells
     contract already relied on by the cell-parallel executor. *)
let fused_schedule_ok ?post_io (p : Problem.t) =
  let module E = Finch_symbolic.Expr in
  match p.Problem.opt_level with
  | Config.O0 -> false
  | Config.O1 | Config.O2 ->
    p.Problem.stepper = Config.Euler_explicit
    && p.Problem.pre_step = []
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
      if p.Problem.post_step = [] then true
      else
        match post_io with
        | None -> false (* opaque callbacks: keep the classic schedule *)
        | Some (io : Dataflow.callback_io) ->
          let neighbour_reads =
            List.filter_map
              (fun (name, _, side) ->
                if side = E.Cell2 then Some name else None)
              (E.refs eq.Transform.rvol @ E.refs eq.Transform.rsurf)
          in
          (not (List.mem eq.Transform.eq_var io.Dataflow.cb_writes))
          && List.for_all
               (fun w -> not (List.mem w neighbour_reads))
               io.Dataflow.cb_writes
    in
    closed_bcs && post_ok

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
          Lower.run_post_step st_b ~allreduce:noop_allreduce);
      st_a.Lower.time := !(st_a.Lower.time) +. !(st_a.Lower.dt);
      incr st_a.Lower.step;
      Prt.Pool.barrier pool;
      Prt.Breakdown.timed ~track b_b Prt.Breakdown.Intensity (fun () ->
          Lower.sweep st_b);
      Prt.Breakdown.timed ~track b_a Prt.Breakdown.Temperature (fun () ->
          Lower.run_post_step st_a ~allreduce:noop_allreduce);
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
          Lower.run_post_step st ~allreduce:noop_allreduce);
      st.Lower.time := !(st.Lower.time) +. !(st.Lower.dt);
      incr st.Lower.step)

let run_threaded_fused (p : Problem.t) ~ndomains =
  let base = Lower.build p in
  (* workers carry private clocks: each advances its own time mid-region
     instead of racing on the base refs *)
  let workers =
    make_workers p ~base ~ndomains ~index_ranges:[] ~private_clock:true
  in
  let parity = Array.map make_parity workers in
  let npairs = p.Problem.nsteps / 2 in
  Prt.Pool.with_pool ~size:ndomains (fun pool ->
      for _ = 1 to npairs do
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
      end);
  let breakdown =
    Prt.Breakdown.sum_distinct
      (base.Lower.breakdown
       :: (Array.to_list (Array.map (fun st -> st.Lower.breakdown) workers)
           @ Array.to_list (Array.map (fun st -> st.Lower.breakdown) parity)))
  in
  { states = [| base |]; breakdown }

let run_threaded ?post_io (p : Problem.t) ~ndomains =
  if ndomains < 1 then raise (Target_error "run_threaded: ndomains < 1");
  if fused_schedule_ok ?post_io p then run_threaded_fused p ~ndomains
  else run_threaded_classic p ~ndomains

(* ------------------------------------------------------------------ *)
(* Hybrid: SPMD band-parallel ranks x pool domains per rank.            *)
(* ------------------------------------------------------------------ *)

(* The paper's MPI+threads mode: each SPMD rank owns a band slice (its own
   full field storage, as in [run_band_parallel]) and executes its sweeps
   on a persistent domain pool over cell ranges.  The pool is shared by
   all ranks — rank programs are cooperative fibers, so their parallel
   regions are serialized on it; worker states per rank carry BOTH the
   rank's band slice and their cell block. *)
let run_hybrid (p : Problem.t) ~index ~nranks ~ndomains =
  if ndomains < 1 then raise (Target_error "run_hybrid: ndomains < 1");
  let idx =
    match Problem.find_index p index with
    | Some i -> i
    | None -> raise (Target_error ("hybrid: unknown index " ^ index))
  in
  let extent = Entity.index_extent idx in
  if nranks > extent then
    raise (Target_error "hybrid: more ranks than index values");
  let states = Array.make nranks None in
  let breakdowns = Array.init nranks (fun _ -> Prt.Breakdown.zero ()) in
  Prt.Pool.with_pool ~size:ndomains (fun pool ->
      Prt.Spmd.run ~nranks (fun rank ->
          let off, len =
            Fvm.Partition.block_range ~nitems:extent ~nparts:nranks rank
          in
          let index_ranges = [ index, (off, len) ] in
          let info =
            { Lower.rank; nranks; owned_cells = None; index_ranges }
          in
          let st = Lower.build ~info p in
          states.(rank) <- Some st;
          let workers = make_workers p ~base:st ~ndomains ~index_ranges in
          let b = st.Lower.breakdown in
          let track = Prt.Trace.rank rank in
          for _ = 1 to p.Problem.nsteps do
            Lower.run_pre_step st ~allreduce:Prt.Spmd.allreduce_sum;
            pool_step pool workers;
            Prt.Breakdown.timed ~track b Prt.Breakdown.Temperature (fun () ->
                Lower.run_post_step st ~allreduce:Prt.Spmd.allreduce_sum);
            st.Lower.time := !(st.Lower.time) +. !(st.Lower.dt);
            incr st.Lower.step
          done;
          breakdowns.(rank) <- sum_breakdowns st workers));
  let states =
    Array.map
      (function Some st -> st | None -> raise (Target_error "rank did not start"))
      states
  in
  let breakdown =
    Array.fold_left Prt.Breakdown.add (Prt.Breakdown.zero ()) breakdowns
  in
  { states; breakdown }
