(* Optimizing middle end: IR-to-IR rewrites between [Lower]/[Ir] and the
   targets.

   The generator's naive output is maximally conservative — one parallel
   region per loop nest, one kernel launch per band slab, one transfer
   node per variable — which is correct everywhere but leaves easy
   performance on the table.  This module hosts the pass pipeline that
   recovers it: loop fusion, dead-assign elimination, transfer
   coalescing, step-pair fusion (the IR image of the fused pool schedule
   in [Target_cpu]) and, for the GPU program, band-kernel batching and
   loop-invariant upload hoisting.  [Config.opt_level] selects the
   pipeline: O0 is identity, O2 runs every pass.

   Safety is not argued pass-by-pass in prose; it is checked in-repo.
   Every pass that changes the tree re-runs the [Finch_analysis]
   Wellformed/Race/Movement passes over its output and diffs the
   findings against the pre-pass report: a pass that introduces ANY new
   finding is rejected — the pre-pass IR is kept, the rejection is
   recorded (and counted on [opt.passes_rejected]) — so an unsafe
   rewrite can never reach an executor.  The executors mirror the same
   decisions ([Target_cpu.fused_schedule_ok], the [opt_level] branches in
   [Ir.build_gpu]/[Target_gpu]), which is what the bit-identity test
   matrix pins down. *)

open Finch
module E = Finch_symbolic.Expr
module A = Finch_analysis

type stats = {
  loops_fused : int;
  steps_fused : int;
  kernels_batched : int;
  assigns_eliminated : int;
  transfers_coalesced : int;
  h2d_hoisted : int;
}

let no_stats =
  {
    loops_fused = 0;
    steps_fused = 0;
    kernels_batched = 0;
    assigns_eliminated = 0;
    transfers_coalesced = 0;
    h2d_hoisted = 0;
  }

type rejection = { rej_pass : string; rej_finding : A.Finding.t }

type result = { ir : Ir.node; stats : stats; rejected : rejection list }

(* Counters mirrored from accepted passes; [opt.loops_fused] counts both
   adjacent cell-loop merges and step-pair fusions (the latter is the
   region-level fusion the pool executor realizes). *)
let m_loops_fused = Prt.Metrics.counter "opt.loops_fused"
let m_steps_fused = Prt.Metrics.counter "opt.steps_fused"
let m_kernels_fused = Prt.Metrics.counter "opt.kernels_fused"
let m_assigns_eliminated = Prt.Metrics.counter "opt.assigns_eliminated"
let m_transfers_coalesced = Prt.Metrics.counter "opt.transfers_coalesced"
let m_h2d_hoisted = Prt.Metrics.counter "opt.h2d_hoisted"
let m_passes_rejected = Prt.Metrics.counter "opt.passes_rejected"

(* ------------------------------------------------------------------ *)
(* Footprint helpers.                                                  *)
(* ------------------------------------------------------------------ *)

(* Fusion only considers loop bodies whose per-iteration footprint is
   fully visible to [Ir.reads]/[Ir.writes]: pure compute nodes.  A body
   holding a swap, callback, communication or transfer node has ordering
   constraints the footprint cannot express, so it never fuses. *)
let rec transparent (n : Ir.node) =
  match n with
  | Ir.Comment _ | Ir.Assign _ | Ir.Flux_update _ -> true
  | Ir.Seq ns | Ir.Loop { body = ns; _ } -> List.for_all transparent ns
  | _ -> false

(* In-place (non-double-buffered) writes of one iteration. *)
let rec inplace_writes (n : Ir.node) =
  match n with
  | Ir.Assign { dest; dest_new = false; _ } -> [ dest ]
  | Ir.Seq ns | Ir.Loop { body = ns; _ } | Ir.Kernel { body = ns; _ } ->
    List.concat_map inplace_writes ns
  | _ -> []

let cell2_of_expr e =
  List.filter_map
    (fun (name, _idx, side) -> if side = E.Cell2 then Some name else None)
    (E.refs e)

(* Neighbour (CELL2) reads of one iteration: the reads that reach other
   iterations' cells under cell parallelism. *)
let rec cell2_reads (n : Ir.node) =
  match n with
  | Ir.Assign { expr; _ } -> cell2_of_expr expr
  | Ir.Flux_update { rvol; rsurf; _ } ->
    cell2_of_expr rvol @ cell2_of_expr rsurf
  | Ir.Seq ns | Ir.Loop { body = ns; _ } | Ir.Kernel { body = ns; _ } ->
    List.concat_map cell2_reads ns
  | _ -> []

let intersects a b = List.exists (fun x -> List.mem x b) a

(* Two adjacent parallel cell loops may fuse iff neither body's in-place
   writes are read across faces by the other: such a pair would turn
   into the classic forgot-double-buffering race (A011) once the bodies
   share an iteration.  Writes staged in the double buffer never
   conflict with reads — readers keep seeing the published copy. *)
let can_fuse_cell_loops a b =
  List.for_all transparent a
  && List.for_all transparent b
  && (not
        (intersects
           (List.concat_map inplace_writes a)
           (List.concat_map cell2_reads b)))
  && not
       (intersects
          (List.concat_map inplace_writes b)
          (List.concat_map cell2_reads a))

(* ------------------------------------------------------------------ *)
(* CPU-side passes.                                                    *)
(* ------------------------------------------------------------------ *)

let fuse_cell_loops tree =
  let count = ref 0 in
  let rec node (n : Ir.node) =
    match n with
    | Ir.Seq ns -> Ir.Seq (fuse ns)
    | Ir.Loop l -> Ir.Loop { l with body = fuse l.body }
    | Ir.Kernel k -> Ir.Kernel { k with body = fuse k.body }
    | n -> n
  and fuse ns =
    let ns = List.map node ns in
    let rec go = function
      | Ir.Loop { range = Ir.Cells; body = a; parallel = true }
        :: Ir.Loop { range = Ir.Cells; body = b; parallel = true }
        :: rest
        when can_fuse_cell_loops a b ->
        incr count;
        (* re-examine the merged loop against the next sibling *)
        go (Ir.Loop { range = Ir.Cells; body = a @ b; parallel = true } :: rest)
      | n :: rest -> n :: go rest
      | [] -> []
    in
    go ns
  in
  let t = node tree in
  (t, !count)

let comments_only body =
  List.for_all (function Ir.Comment _ -> true | _ -> false) body

let eliminate_dead_assigns ~live_out tree =
  let count = ref 0 in
  let all_reads = Ir.reads tree in
  let dead dest =
    (not (List.mem dest live_out)) && not (List.mem dest all_reads)
  in
  let rec node (n : Ir.node) : Ir.node option =
    match n with
    | Ir.Assign { dest; _ } when dead dest ->
      incr count;
      None
    | Ir.Seq ns -> Some (Ir.Seq (List.filter_map node ns))
    | Ir.Loop { range; body; parallel } ->
      let before = !count in
      let body = List.filter_map node body in
      (* a loop that only held dead assigns goes with them — leaving it
         behind would manufacture an empty-body finding (A006) *)
      if !count > before && comments_only body then None
      else Some (Ir.Loop { range; body; parallel })
    | Ir.Kernel k -> Some (Ir.Kernel { k with body = List.filter_map node k.body })
    | n -> Some n
  in
  let t = match node tree with Some t -> t | None -> Ir.Seq [] in
  (t, !count)

let coalesce_transfers tree =
  let count = ref 0 in
  let rec node (n : Ir.node) =
    match n with
    | Ir.Seq ns -> Ir.Seq (merge ns)
    | Ir.Loop l -> Ir.Loop { l with body = merge l.body }
    | Ir.Kernel k -> Ir.Kernel { k with body = merge k.body }
    | n -> n
  and merge ns =
    let ns = List.map node ns in
    let rec go = function
      | Ir.H2d { vars = a; every_step = ea }
        :: Ir.H2d { vars = b; every_step = eb }
        :: rest
        when ea = eb ->
        incr count;
        go (Ir.H2d { vars = List.sort_uniq compare (a @ b); every_step = ea } :: rest)
      | Ir.D2h { vars = a; every_step = ea }
        :: Ir.D2h { vars = b; every_step = eb }
        :: rest
        when ea = eb ->
        incr count;
        go (Ir.D2h { vars = List.sort_uniq compare (a @ b); every_step = ea } :: rest)
      | n :: rest -> n :: go rest
      | [] -> []
    in
    go ns
  in
  let t = node tree in
  (t, !count)

let fuse_steps tree =
  let count = ref 0 in
  let rec node (n : Ir.node) =
    match n with
    | Ir.Seq ns -> Ir.Seq (List.map node ns)
    | Ir.Loop { range = Ir.Steps; body; parallel } ->
      incr count;
      Ir.Loop
        {
          range = Ir.Steps;
          parallel;
          body =
            (Ir.Comment
               "fused step pair (half the trip count): one pool region, \
                phase A on the primary buffer roles"
            :: body)
            @ (Ir.Comment
                 "phase B: buffer roles swapped in place of the commit; \
                  one barrier separates the phases"
              :: body);
        }
    | Ir.Loop l -> Ir.Loop { l with body = List.map node l.body }
    | Ir.Kernel k -> Ir.Kernel { k with body = List.map node k.body }
    | n -> n
  in
  let t = node tree in
  (t, !count)

(* ------------------------------------------------------------------ *)
(* Device-side passes.                                                 *)
(* ------------------------------------------------------------------ *)

let batch_band_kernels tree =
  let count = ref 0 in
  let rec node (n : Ir.node) =
    match n with
    | Ir.Seq ns -> Ir.Seq (List.map node ns)
    | Ir.Loop { range = Ir.Index _ as range; body; parallel = false } -> (
      let body = List.map node body in
      match List.filter (function Ir.Comment _ -> false | _ -> true) body with
      | [ (Ir.Kernel _ as k) ] ->
        (* a sequential per-index launch loop around a single kernel:
           fold the index into the launch grid instead *)
        incr count;
        k
      | _ -> Ir.Loop { range; body; parallel = false })
    | Ir.Loop l -> Ir.Loop { l with body = List.map node l.body }
    | Ir.Kernel k -> Ir.Kernel { k with body = List.map node k.body }
    | n -> n
  in
  let t = node tree in
  (t, !count)

let hoist_invariant_h2d tree =
  let count = ref 0 in
  let rec node (n : Ir.node) =
    match n with
    | Ir.Seq ns -> Ir.Seq (hoist ns)
    | Ir.Loop l -> Ir.Loop { l with body = hoist l.body }
    | Ir.Kernel k -> Ir.Kernel { k with body = hoist k.body }
    | n -> n
  and hoist ns =
    let ns = List.map node ns in
    List.concat_map
      (fun n ->
        match n with
        | Ir.Loop { range = Ir.Steps; body; parallel } ->
          (* a variable re-uploaded every step whose host copy no
             IR-visible node in the loop writes is loop-invariant; note
             callbacks are opaque here, so a hoist that crosses a
             callback write survives only if the verification harness
             (Movement with the data-movement plan) signs off on it *)
          let loop_writes =
            Ir.writes
              (Ir.Seq
                 (List.map
                    (function
                      | Ir.H2d { every_step = true; _ } ->
                        Ir.Comment "(upload under consideration)"
                      | n -> n)
                    body))
          in
          let hoisted = ref [] in
          let body =
            List.filter_map
              (fun n ->
                match n with
                | Ir.H2d { vars; every_step = true } ->
                  let keep, out =
                    List.partition (fun v -> List.mem v loop_writes) vars
                  in
                  hoisted := !hoisted @ out;
                  if keep = [] then None
                  else Some (Ir.H2d { vars = keep; every_step = true })
                | n -> Some n)
              body
          in
          if !hoisted = [] then [ n ]
          else begin
            count := !count + List.length !hoisted;
            [
              Ir.Comment "hoisted loop-invariant uploads";
              Ir.H2d
                { vars = List.sort_uniq compare !hoisted; every_step = false };
              Ir.Loop { range = Ir.Steps; body; parallel };
            ]
          end
        | n -> [ n ])
      ns
  in
  let t = node tree in
  (t, !count)

(* ------------------------------------------------------------------ *)
(* Verified pipeline.                                                  *)
(* ------------------------------------------------------------------ *)

let optimize ?plan ?comm ?(live_out = []) ?(fuse_step_pairs = false) ~level
    (ctx : A.Ctx.t) tree =
  let check t = A.Driver.check_ir ?plan ?comm ctx t in
  let baseline = ref (check tree) in
  let ir = ref tree in
  let stats = ref no_stats in
  let rejected = ref [] in
  (* Run one pass and keep its output only if the analyses stay clean:
     any finding absent from the pre-pass report rejects the rewrite.
     The accepted report becomes the next pass's baseline, so pre-existing
     findings (a deliberately unclean input program) never mask a
     regression introduced later in the pipeline. *)
  let apply name pass record =
    let t, n = pass !ir in
    if n > 0 then begin
      let after = check t in
      let fresh =
        List.filter
          (fun f -> not (List.mem f (!baseline).A.Driver.findings))
          after.A.Driver.findings
      in
      match fresh with
      | [] ->
        ir := t;
        baseline := after;
        record n
      | f :: _ ->
        Prt.Metrics.incr m_passes_rejected;
        rejected := { rej_pass = name; rej_finding = f } :: !rejected
    end
  in
  if level = Config.O2 then begin
    apply "fuse_cell_loops" fuse_cell_loops (fun n ->
        Prt.Metrics.add m_loops_fused n;
        stats := { !stats with loops_fused = (!stats).loops_fused + n });
    apply "eliminate_dead_assigns" (eliminate_dead_assigns ~live_out) (fun n ->
        Prt.Metrics.add m_assigns_eliminated n;
        stats := { !stats with assigns_eliminated = n });
    apply "coalesce_transfers" coalesce_transfers (fun n ->
        Prt.Metrics.add m_transfers_coalesced n;
        stats := { !stats with transfers_coalesced = n });
    apply "batch_band_kernels" batch_band_kernels (fun n ->
        Prt.Metrics.add m_kernels_fused n;
        stats := { !stats with kernels_batched = n });
    apply "hoist_invariant_h2d" hoist_invariant_h2d (fun n ->
        Prt.Metrics.add m_h2d_hoisted n;
        stats := { !stats with h2d_hoisted = n });
    if fuse_step_pairs then
      apply "fuse_steps" fuse_steps (fun n ->
          Prt.Metrics.add m_loops_fused n;
          Prt.Metrics.add m_steps_fused n;
          stats :=
            {
              !stats with
              steps_fused = n;
              loops_fused = (!stats).loops_fused + n;
            })
  end;
  { ir = !ir; stats = !stats; rejected = List.rev !rejected }

let optimize_problem (p : Problem.t) =
  let ctx = A.Ctx.of_problem p in
  let level = p.Problem.opt_level in
  let live_out =
    List.map (fun (v : Entity.variable) -> v.Entity.vname) p.Problem.variables
  in
  (* re-verification covers the communication schedule too: a pass that
     drops, reorders or retargets an exchange/push trips A025-A032 and
     is rejected like any other regression *)
  let comm =
    Option.map (fun pl -> A.Comm.Elaborate pl) (A.Comm.plan_of_problem p)
  in
  match p.Problem.target with
  | Config.Cpu _ ->
    let fuse_step_pairs = Target_cpu.fused_schedule_ok p in
    optimize ?comm ~live_out ~fuse_step_pairs ~level ctx (Ir.build_cpu p)
  | Config.Gpu _ ->
    let plan = Dataflow.plan_for_problem p in
    (* start from the naive (unbatched, per-band) device program so the
       pipeline, not the builder, earns the batched shape *)
    let saved = p.Problem.opt_level in
    Problem.set_opt_level p Config.O0;
    let tree =
      Fun.protect
        ~finally:(fun () -> Problem.set_opt_level p saved)
        (fun () -> Ir.build_gpu p ~transfers:(Dataflow.ir_transfers plan))
    in
    optimize ~plan ?comm ~live_out ~level ctx tree
  | Config.Auto -> invalid_arg "Opt: unresolved auto target"
