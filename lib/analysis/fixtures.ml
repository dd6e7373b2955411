(* Seeded-defect fixtures: minimal IR programs each planted with exactly
   one defect class, plus the code the analyzer must report for it.
   They back the analyzer's own regression tests and [bte_lint
   --selftest] — if a pass regresses, the fixture that covers its code
   fails with a readable diff of expected vs found codes.

   Each fixture is engineered to be clean apart from its seeded defect,
   so tests can assert the EXACT multiset of reported codes. *)

open Finch
module E = Finch_symbolic.Expr

type fixture = {
  fname : string;
  descr : string;
  fctx : Ctx.t;
  fplan : Dataflow.plan option;
  fcomm : Comm.input option;
  ir : Ir.node;
  expect : Finding.code list;
}

let ph = Ir.meta ~phase:Ir.Ph_intensity ()
let ph_b = Ir.meta ~phase:Ir.Ph_boundary ()
let ph_t = Ir.meta ~phase:Ir.Ph_temperature ()
let ph_c = Ir.meta ~phase:Ir.Ph_communication ()

(* u: per-cell unknown with an initial; s: global scalar; k: coefficient *)
let ctx ?(partitioned = false) ?(cb_reads = []) ?(cb_writes = []) () =
  Ctx.make ~variables:[ "u"; "s" ] ~coefficients:[ "k" ]
    ~cell_vars:[ "u" ] ~defined:[ "u"; "s"; "k" ] ~partitioned ~cb_reads
    ~cb_writes ()

let k = E.ref_ "k" []
let u_nbr = E.ref_ ~side:E.Cell2 "u" []

let assign ?(dest = "u") ?(dest_new = false) ?(reduce = `Set) ?(note = ph)
    expr =
  Ir.Assign { dest; dest_new; expr; reduce; note }

let flux =
  Ir.Flux_update { var = "u"; rvol = k; rsurf = E.mul [ k; u_nbr ]; note = ph }

let cells ?(parallel = false) body = Ir.Loop { range = Ir.Cells; body; parallel }
let faces ?(parallel = false) body =
  Ir.Loop { range = Ir.Faces_of_cell; body; parallel }

let kernel body = Ir.Kernel { kname = "fixture_kernel"; body; note = ph }
let steps body = Ir.Loop { range = Ir.Steps; body; parallel = false }

(* ------------------------------------------------------------------ *)
(* Synthetic communication plans and schedules for the Comm fixtures.  *)
(* ------------------------------------------------------------------ *)

let xch from_rank to_rank cells = { Fvm.Halo.from_rank; to_rank; cells }

(* two ranks: 0 owes 1 the frontier cells {2,3}, 1 owes 0 {4,5} *)
let plan2 =
  Comm.Ranks
    (Fvm.Halo.of_exchanges ~nranks:2
       [ xch 0 1 [| 2; 3 |]; xch 1 0 [| 4; 5 |] ])

let entry src dst tag cells =
  { Comm.e_src = src; e_dst = dst; e_tag = tag; e_cells = cells }

(* the two messages of plan2's (clean) exchange round *)
let e01 = entry 0 1 0 [| 2; 3 |]
let e10 = entry 1 0 0 [| 4; 5 |]

let round ?(recv_first = []) ~sends ~recvs () =
  { Comm.rd_var = "u"; rd_sends = sends; rd_recvs = recvs;
    rd_recv_before_send = recv_first }

let seeded ?(plan = plan2) ?(rounds = []) ?(pushes = []) () =
  Comm.Seeded (plan, { Comm.sc_rounds = rounds; sc_pushes = pushes })

let push var src dst cells =
  { Comm.pu_var = var; pu_src = src; pu_dst = dst; pu_cells = cells }

let fx fname descr ?plan ?comm ?(ctx = ctx ()) ir expect =
  { fname; descr; fctx = ctx; fplan = plan; fcomm = comm; ir = Ir.Seq ir;
    expect }

let all =
  [
    fx "undefined-read"
      "an assignment reads a variable that has no initial and no writer"
      [ cells [ assign (E.ref_ "ghost" []) ] ]
      [ Finding.Undefined_read ];
    fx "unmatched-swap"
      "a buffer swap with no staged double-buffer write before it"
      [ Ir.Swap_buffers "u" ]
      [ Finding.Unmatched_swap ];
    fx "missing-swap"
      "a double-buffer write that is never published"
      [ cells [ assign ~dest_new:true k ] ]
      [ Finding.Missing_swap ];
    fx "boundary-in-kernel"
      "a CPU boundary callback placed inside a device kernel body"
      [ Ir.H2d { vars = [ "u" ]; every_step = false };
        kernel [ Ir.Boundary_cpu { var = "u"; note = ph_b } ] ]
      [ Finding.Host_node_in_kernel ];
    fx "missing-phase"
      "a computational node without phase metadata (warning)"
      [ cells [ assign ~note:(Ir.meta ()) k ] ]
      [ Finding.Missing_phase ];
    fx "empty-loop"
      "a loop whose body holds only comments (warning)"
      [ cells [ Ir.Comment "nothing to do" ] ]
      [ Finding.Empty_body ];
    fx "scalar-write-race"
      "every iteration of a parallel cell loop stores to the same scalar"
      [ cells ~parallel:true [ assign ~dest:"s" k ] ]
      [ Finding.Parallel_write_write ];
    fx "neighbour-write-race"
      "a parallel face loop writes both cells adjacent to each face"
      [ faces ~parallel:true [ assign ~dest_new:true k ];
        Ir.Swap_buffers "u" ]
      [ Finding.Parallel_write_write ];
    fx "inplace-neighbour-read"
      "an in-place update whose stencil reads the neighbour cell (CELL2)"
      [ cells ~parallel:true [ assign (E.add [ k; u_nbr ]) ] ]
      [ Finding.Parallel_read_write ];
    fx "unguarded-reduction"
      "a parallel accumulation into a scalar with no reduction guard"
      [ cells ~parallel:true [ assign ~dest:"s" ~reduce:`Add k ] ]
      [ Finding.Unguarded_reduction ];
    fx "scatter-add"
      "a parallel face loop scatter-adds into cell storage without atomics"
      [ faces ~parallel:true [ assign ~dest_new:true ~reduce:`Add k ];
        Ir.Swap_buffers "u" ]
      [ Finding.Unguarded_reduction ];
    fx "uncovered-device-read"
      "the kernel reads the unknown but no upload ever moves it over"
      [ kernel [ flux ];
        Ir.Stream_sync;
        Ir.D2h { vars = [ "u" ]; every_step = false };
        Ir.Swap_buffers "u" ]
      [ Finding.Uncovered_device_read ];
    fx "missing-halo"
      "a partitioned run whose steps body never exchanges ghost values"
      ~ctx:(ctx ~partitioned:true ())
      [ Ir.Loop
          { range = Ir.Steps;
            body =
              [ cells ~parallel:true [ flux ];
                Ir.Boundary_cpu { var = "u"; note = ph_b };
                Ir.Swap_buffers "u" ];
            parallel = false } ]
      [ Finding.Stale_ghost_read ];
    fx "missing-download"
      "the host callback consumes device results that were never fetched"
      ~ctx:(ctx ~cb_reads:[ "u" ] ())
      [ Ir.H2d { vars = [ "u" ]; every_step = false };
        kernel [ flux ];
        Ir.Stream_sync;
        Ir.Swap_buffers "u";
        Ir.Callback { note = ph_t } ]
      [ Finding.Stale_host_read ];
    fx "plan-mismatch"
      "the data-movement plan schedules an upload the IR never performs"
      ~plan:
        { Dataflow.placement = [];
          transfers =
            [ { Dataflow.tr_var = "u"; tr_h2d_every_step = true;
                tr_d2h_every_step = false; tr_h2d_once = false } ];
          bytes_per_step = 0;
          bytes_once = 0 }
      [ Ir.Comment "a program with no transfer nodes at all" ]
      [ Finding.Plan_mismatch ];
    fx "unsynced-download"
      "the result download is issued while the kernel is still in flight"
      [ Ir.H2d { vars = [ "u" ]; every_step = false };
        kernel [ flux ];
        Ir.D2h { vars = [ "u" ]; every_step = false };
        Ir.Swap_buffers "u" ]
      [ Finding.Unsynced_download ];
    fx "d2d-before-upload"
      "the peer ghost push runs before any upload makes the variable \
       device-resident"
      [ Ir.D2d { vars = [ "u" ]; note = ph_c };
        Ir.H2d { vars = [ "u" ]; every_step = false };
        kernel [ flux ];
        Ir.Stream_sync;
        Ir.D2h { vars = [ "u" ]; every_step = false };
        Ir.Swap_buffers "u" ]
      [ Finding.Uncovered_device_read ];
    fx "missing-ghost-push"
      "a multi-device steps body re-uploads the unknown but never pushes \
       tile-frontier ghosts between devices"
      ~ctx:(ctx ~partitioned:true ())
      [ Ir.H2d { vars = [ "u" ]; every_step = false };
        Ir.Loop
          { range = Ir.Steps;
            body =
              [ kernel [ flux ];
                Ir.Boundary_cpu { var = "u"; note = ph_b };
                Ir.Stream_sync;
                Ir.D2h { vars = [ "u" ]; every_step = true };
                Ir.Swap_buffers "u";
                Ir.H2d { vars = [ "u" ]; every_step = true } ];
            parallel = false } ]
      [ Finding.Stale_ghost_read ];
    fx "ghost-push-after-publish"
      "the clean multi-device shape: per-step upload then peer ghost push \
       after the publish (no findings expected)"
      ~ctx:(ctx ~partitioned:true ())
      [ Ir.H2d { vars = [ "u" ]; every_step = false };
        Ir.Loop
          { range = Ir.Steps;
            body =
              [ kernel [ flux ];
                Ir.Boundary_cpu { var = "u"; note = ph_b };
                Ir.Stream_sync;
                Ir.D2h { vars = [ "u" ]; every_step = true };
                Ir.Swap_buffers "u";
                Ir.H2d { vars = [ "u" ]; every_step = true };
                Ir.D2d { vars = [ "u" ]; note = ph_c } ];
            parallel = false } ]
      [];
    fx "comm-clean"
      "the clean partitioned exchange shape: halo exchange after the \
       publish, full channel coverage (no findings expected)"
      ~ctx:(ctx ~partitioned:true ())
      ~comm:(Comm.Elaborate plan2)
      [ steps
          [ cells ~parallel:true [ flux ];
            Ir.Boundary_cpu { var = "u"; note = ph_b };
            Ir.Swap_buffers "u";
            Ir.Halo_exchange { vars = [ "u" ]; note = ph_c } ] ]
      [];
    fx "comm-dropped-send"
      "a dropped exchange half: rank 1 posts its receive but rank 0 \
       never sends"
      ~comm:(seeded ~rounds:[ round ~sends:[ e10 ] ~recvs:[ e01; e10 ] () ] ())
      [ cells [ flux ]; Ir.Swap_buffers "u" ]
      [ Finding.Comm_unmatched_recv ];
    fx "comm-dropped-recv"
      "a dropped exchange half: rank 0 sends but rank 1 posts no receive"
      ~comm:(seeded ~rounds:[ round ~sends:[ e01; e10 ] ~recvs:[ e10 ] () ] ())
      [ cells [ flux ]; Ir.Swap_buffers "u" ]
      [ Finding.Comm_unmatched_send ];
    fx "comm-swapped-tag"
      "one side of a channel posts tag 1 while the other expects tag 0: \
       both halves go unmatched"
      ~comm:
        (seeded
           ~rounds:
             [ round
                 ~sends:[ entry 0 1 1 [| 2; 3 |]; e10 ]
                 ~recvs:[ e01; e10 ] () ]
           ())
      [ cells [ flux ]; Ir.Swap_buffers "u" ]
      [ Finding.Comm_unmatched_send; Finding.Comm_unmatched_recv ];
    fx "comm-deadlock"
      "a cyclic ordering: both ranks wait on their receives before \
       posting any send"
      ~comm:
        (seeded
           ~rounds:
             [ round ~recv_first:[ 0; 1 ] ~sends:[ e01; e10 ]
                 ~recvs:[ e01; e10 ] () ]
           ())
      [ cells [ flux ]; Ir.Swap_buffers "u" ]
      [ Finding.Comm_deadlock ];
    fx "comm-tag-collision"
      "two messages with different payloads in flight on one (src, dst, \
       tag) channel: FIFO matching is order-dependent"
      ~comm:
        (seeded
           ~rounds:
             [ round
                 ~sends:
                   [ entry 0 1 0 [| 2 |]; entry 0 1 0 [| 2; 3 |]; e10 ]
                 ~recvs:
                   [ entry 0 1 0 [| 2 |]; entry 0 1 0 [| 2; 3 |]; e10 ]
                 () ]
           ())
      [ cells [ flux ]; Ir.Swap_buffers "u" ]
      [ Finding.Comm_tag_collision ];
    fx "comm-size-mismatch"
      "the sender ships more cells than the receiver's buffer expects"
      ~comm:
        (seeded
           ~plan:
             (Comm.Ranks
                (Fvm.Halo.of_exchanges ~nranks:2
                   [ xch 0 1 [| 2 |]; xch 1 0 [| 4 |] ]))
           ~rounds:
             [ round
                 ~sends:[ entry 0 1 0 [| 2; 3 |]; entry 1 0 0 [| 4 |] ]
                 ~recvs:[ entry 0 1 0 [| 2 |]; entry 1 0 0 [| 4 |] ]
                 () ]
           ())
      [ cells [ flux ]; Ir.Swap_buffers "u" ]
      [ Finding.Comm_size_mismatch ];
    fx "comm-undersized-halo"
      "an exchange round that moves only part of the plan's ghost set: \
       cell 3 of rank 1's halo stays stale"
      ~comm:
        (seeded
           ~rounds:
             [ round
                 ~sends:[ entry 0 1 0 [| 2 |]; e10 ]
                 ~recvs:[ entry 0 1 0 [| 2 |]; e10 ]
                 () ]
           ())
      [ cells [ flux ]; Ir.Swap_buffers "u" ]
      [ Finding.Comm_halo_incomplete ];
    fx "comm-redundant-exchange"
      "the exchange also ships a variable nothing reads across faces: \
       its ghost write is dead (warning)"
      ~ctx:(ctx ~partitioned:true ())
      ~comm:(Comm.Elaborate plan2)
      [ steps
          [ cells ~parallel:true [ flux ];
            Ir.Boundary_cpu { var = "u"; note = ph_b };
            Ir.Swap_buffers "u";
            Ir.Halo_exchange { vars = [ "u"; "s" ]; note = ph_c } ] ]
      [ Finding.Comm_redundant_exchange ];
    fx "comm-unreachable-peer"
      "a d2d push to a tile the decomposition gives no ghost edge to"
      ~comm:
        (seeded
           ~plan:
             (Comm.Grid
                { ndevices = 3;
                  tile_halo =
                    Fvm.Halo.of_exchanges ~nranks:3
                      [ xch 0 1 [| 2; 3 |]; xch 1 0 [| 4; 5 |] ] })
           ~pushes:
             [ push "u" 0 1 [| 2; 3 |]; push "u" 1 0 [| 4; 5 |];
               push "u" 0 2 [||] ]
           ())
      [ cells [ flux ]; Ir.Swap_buffers "u" ]
      [ Finding.Comm_unreachable_peer ];
  ]

(* Run the analyzer over one fixture; returns (expected, found) code
   multisets, both sorted, for the caller to compare. *)
let check f =
  let report = Driver.check_ir ?plan:f.fplan ?comm:f.fcomm f.fctx f.ir in
  let found = List.map (fun fd -> fd.Finding.code) report.Driver.findings in
  (List.sort compare f.expect, List.sort compare found)
