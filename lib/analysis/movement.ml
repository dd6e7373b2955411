(* Data-movement pass (codes A020-A024).

   Abstract interpretation of the transfer schedule over the IR in
   execution order, tracking three facts per variable:

   - [device_valid]: the device copy is current, so a kernel may read it.
     Uploads establish it; publishing a host-side composition (swap after
     the combine, or a callback write) invalidates it, forcing the
     per-step re-upload the data-movement plan prescribes.
   - [staged_device]: a kernel wrote the variable's double buffer on the
     device and no download has fetched it yet.  If the swap publishes
     while it is still set, the host's current copy is missing the device
     results ([host_stale]), and any later host read is an error (A022).
   - [kernel_async]: a kernel launch with no stream sync yet — a download
     issued now races it (A024).

   Bodies of [Steps] loops are walked twice: the first pass is the first
   iteration (whose reads the one-time uploads must cover), the second
   pass exercises the cyclic schedule (end-of-body uploads covering the
   next iteration's reads).  Duplicate findings are collapsed.

   On mesh-partitioned runs the pass additionally requires a halo
   exchange for every variable read across faces (CELL2): the exchange
   must appear in the steps body AFTER the variable's swap, so each
   iteration's neighbour reads see the values the owner published at the
   end of the previous iteration (first-iteration reads see initial
   conditions and need no exchange).  A021 otherwise.

   When a [Dataflow.plan] is supplied, the IR's transfer nodes are
   cross-checked against it (A023): every planned upload/download must
   appear with the right cadence, and every per-step IR transfer must be
   justified by the plan. *)

open Finch
module SS = Set.Make (String)

type state = {
  ctx : Ctx.t;
  mutable device_valid : SS.t;
  mutable staged_device : SS.t;
  mutable host_stale : SS.t;
  mutable kernel_async : bool;
  mutable findings : Finding.t list;
}

let emit st ?var ~where code detail =
  st.findings <- Finding.make ?var ~where code detail :: st.findings

let loop_name = function
  | Ir.Cells -> "cells"
  | Ir.Faces_of_cell -> "faces"
  | Ir.Index s -> "index " ^ s
  | Ir.Steps -> "steps"

let at path s = String.concat "/" (List.rev (s :: path))

let check_host_reads st path what names =
  List.iter
    (fun v ->
      if SS.mem v st.host_stale then
        emit st ~var:v ~where:(at path what) Finding.Stale_host_read
          (Printf.sprintf
             "%s reads %s on the host, but its newest value sits on the \
              device with no download since the kernel produced it" what v))
    names

(* kernel-body reads that must be device-resident (coefficients are
   compiled into the kernel as constant memory and need no transfer) *)
let kernel_reads ctx body =
  List.filter
    (fun v -> not (Ctx.is_coefficient ctx v))
    (Ir.reads (Ir.Seq body))

let rec walk st path (n : Ir.node) =
  match n with
  | Ir.Comment _ -> ()
  | Ir.Seq ns -> List.iter (walk st path) ns
  | Ir.Loop { range = Ir.Steps; body; _ } ->
    (* twice: first iteration, then the cyclic steady state *)
    List.iter (walk st ("steps" :: path)) body;
    List.iter (walk st ("steps" :: path)) body
  | Ir.Loop { range; body; _ } ->
    List.iter (walk st (loop_name range :: path)) body
  | Ir.Kernel { kname; body; _ } ->
    List.iter
      (fun v ->
        if not (SS.mem v st.device_valid) then
          emit st ~var:v ~where:(at path ("kernel " ^ kname))
            Finding.Uncovered_device_read
            (Printf.sprintf
               "kernel %s reads %s but no upload makes it device-resident \
                at launch" kname v))
      (kernel_reads st.ctx body);
    st.staged_device <- SS.union st.staged_device (SS.of_list (Ir.writes n));
    st.kernel_async <- true
  | Ir.Stream_sync -> st.kernel_async <- false
  | Ir.H2d { vars; _ } ->
    st.device_valid <- SS.union st.device_valid (SS.of_list vars)
  | Ir.D2h { vars; _ } ->
    if st.kernel_async then
      emit st ~where:(at path "d2h") Finding.Unsynced_download
        (Printf.sprintf
           "download of %s races the asynchronous kernel: no stream sync \
            since the launch" (String.concat ", " vars));
    st.staged_device <- SS.diff st.staged_device (SS.of_list vars)
  | Ir.Swap_buffers v ->
    if SS.mem v st.staged_device then begin
      st.host_stale <- SS.add v st.host_stale;
      st.staged_device <- SS.remove v st.staged_device
    end;
    (* the published value is composed on the host (combine/boundary), so
       the device copy needs a re-upload before the next kernel read *)
    st.device_valid <- SS.remove v st.device_valid
  | Ir.Boundary_cpu { var; _ } ->
    check_host_reads st path ("boundary_cpu " ^ var) [ var ]
  | Ir.Callback _ ->
    check_host_reads st path "callback post" st.ctx.Ctx.cb_reads;
    st.host_stale <- SS.diff st.host_stale (SS.of_list st.ctx.Ctx.cb_writes);
    st.device_valid <- SS.diff st.device_valid (SS.of_list st.ctx.Ctx.cb_writes)
  | Ir.Assign { dest; expr; _ } ->
    check_host_reads st path ("assign " ^ dest)
      (Finch_symbolic.Expr.ref_names expr)
  | Ir.Flux_update { var; rvol; rsurf; _ } ->
    check_host_reads st path ("flux_update " ^ var)
      ((var :: Finch_symbolic.Expr.ref_names rvol)
       @ Finch_symbolic.Expr.ref_names rsurf)
  | Ir.D2d { vars; _ } ->
    (* the peer ghost push reads the owners' device copies: each listed
       variable must be device-resident (freshly uploaded) when it runs,
       or the neighbours receive stale ghosts *)
    List.iter
      (fun v ->
        if not (SS.mem v st.device_valid) then
          emit st ~var:v ~where:(at path "d2d") Finding.Uncovered_device_read
            (Printf.sprintf
               "peer ghost push of %s runs before any upload makes it \
                device-resident: neighbours would receive stale values" v))
      vars
  | Ir.Halo_exchange _ | Ir.Allreduce _ | Ir.Advance_time -> ()

(* ------------------------------------------------------------------ *)
(* Halo coverage on partitioned runs (A021).                           *)
(* ------------------------------------------------------------------ *)

(* Flatten a body to (position, node) leaves so "the exchange follows the
   swap" is a comparison of positions in execution order. *)
let flatten body =
  let pos = ref 0 in
  let out = ref [] in
  let rec go n =
    match n with
    | Ir.Seq ns | Ir.Loop { body = ns; _ } | Ir.Kernel { body = ns; _ } ->
      incr pos;
      List.iter go ns
    | leaf ->
      out := (!pos, leaf) :: !out;
      incr pos
  in
  List.iter go body;
  List.rev !out

let neighbour_read_vars body =
  let of_expr e =
    List.filter_map
      (fun (name, _idx, side) ->
        if side = Finch_symbolic.Expr.Cell2 then Some name else None)
      (Finch_symbolic.Expr.refs e)
  in
  Ir.fold
    (fun acc n ->
      match n with
      | Ir.Assign { expr; _ } -> of_expr expr @ acc
      | Ir.Flux_update { rvol; rsurf; _ } -> of_expr rvol @ of_expr rsurf @ acc
      | _ -> acc)
    [] (Ir.Seq body)
  |> List.sort_uniq compare

let check_halo st path body =
  let leaves = flatten body in
  let swap_pos v =
    List.find_map
      (fun (i, n) -> if n = Ir.Swap_buffers v then Some i else None)
      leaves
  in
  let halo_pos v =
    (* either communication shape refreshes ghosts: the SPMD halo
       exchange, or the multi-device peer copy *)
    List.find_map
      (fun (i, n) ->
        match n with
        | Ir.Halo_exchange { vars; _ } when List.mem v vars -> Some i
        | Ir.D2d { vars; _ } when List.mem v vars -> Some i
        | _ -> None)
      leaves
  in
  List.iter
    (fun v ->
      (* only variables this program also updates need fresh ghosts *)
      if List.mem v (Ir.writes (Ir.Seq body)) then
        match halo_pos v, swap_pos v with
        | None, _ ->
          emit st ~var:v ~where:(at path "steps") Finding.Stale_ghost_read
            (Printf.sprintf
               "%s is read across partition faces (CELL2) but the steps \
                body has no halo exchange for it: ghosts keep initial \
                values forever" v)
        | Some h, Some s when h < s ->
          emit st ~var:v ~where:(at path "steps") Finding.Stale_ghost_read
            (Printf.sprintf
               "the halo exchange of %s runs before its swap, shipping \
                the previous step's values; move it after the publish" v)
        | Some _, _ -> ())
    (neighbour_read_vars body)

let rec scan_halo st path (n : Ir.node) =
  match n with
  | Ir.Seq ns -> List.iter (scan_halo st path) ns
  | Ir.Loop { range = Ir.Steps; body; _ } -> check_halo st path body
  | Ir.Loop { range; body; _ } ->
    List.iter (scan_halo st (loop_name range :: path)) body
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Plan cross-check (A023).                                            *)
(* ------------------------------------------------------------------ *)

let check_plan st (plan : Dataflow.plan) tree =
  let h2ds =
    Ir.fold
      (fun acc n ->
        match n with
        | Ir.H2d { vars; every_step } ->
          List.map (fun v -> v, every_step) vars @ acc
        | _ -> acc)
      [] tree
  in
  let d2hs =
    Ir.fold
      (fun acc n ->
        match n with
        | Ir.D2h { vars; every_step } ->
          List.map (fun v -> v, every_step) vars @ acc
        | _ -> acc)
      [] tree
  in
  (* every planned upload appears with the right cadence *)
  List.iter
    (fun (v, every_step) ->
      let covered =
        if every_step then List.mem (v, true) h2ds
        else List.mem_assoc v h2ds
      in
      if not covered then
        emit st ~var:v ~where:"plan" Finding.Plan_mismatch
          (Printf.sprintf
             "the data-movement plan uploads %s %s but the IR has no such \
              h2d node" v
             (if every_step then "every step" else "once")))
    (Dataflow.ir_transfers plan);
  List.iter
    (fun (tr : Dataflow.transfer) ->
      if
        tr.Dataflow.tr_d2h_every_step
        && not (List.mem (tr.Dataflow.tr_var, true) d2hs)
      then
        emit st ~var:tr.Dataflow.tr_var ~where:"plan" Finding.Plan_mismatch
          (Printf.sprintf
             "the data-movement plan downloads %s every step but the IR \
              has no such d2h node" tr.Dataflow.tr_var))
    plan.Dataflow.transfers;
  (* every per-step IR transfer is justified by the plan *)
  let planned = Dataflow.ir_transfers plan in
  List.iter
    (fun (v, every_step) ->
      if every_step && not (List.mem (v, true) planned) then
        emit st ~var:v ~where:"plan" Finding.Plan_mismatch
          (Printf.sprintf
             "the IR uploads %s every step but the data-movement plan \
              does not ask for it" v))
    h2ds;
  List.iter
    (fun (v, every_step) ->
      let justified =
        List.exists
          (fun (tr : Dataflow.transfer) ->
            tr.Dataflow.tr_var = v && tr.Dataflow.tr_d2h_every_step)
          plan.Dataflow.transfers
      in
      if every_step && not justified then
        emit st ~var:v ~where:"plan" Finding.Plan_mismatch
          (Printf.sprintf
             "the IR downloads %s every step but the data-movement plan \
              does not ask for it" v))
    d2hs

let run ?plan (ctx : Ctx.t) (tree : Ir.node) =
  let st =
    { ctx;
      device_valid = SS.empty;
      staged_device = SS.empty;
      host_stale = SS.empty;
      kernel_async = false;
      findings = [] }
  in
  walk st [] tree;
  if ctx.Ctx.partitioned then scan_halo st [] tree;
  (match plan with Some p -> check_plan st p tree | None -> ());
  (* the double walk of steps bodies repeats identical findings *)
  List.sort_uniq compare (List.rev st.findings)
