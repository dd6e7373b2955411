(* Well-formedness pass (codes A001-A006).

   A single forward walk of the IR in execution order, tracking which
   names have a value ([defined], seeded from the context's initial
   conditions and coefficients) and which double-buffer writes are
   staged awaiting their [Swap_buffers] ([staged]).  Loop bodies are
   walked once: a first-iteration read must already be covered, so
   cyclic definitions (a variable defined later in a steps body) do not
   excuse it — that is exactly the initial-condition requirement.

   Host-only nodes (boundary callbacks, user callbacks, communication,
   transfers, swaps, stream sync, time advance) may not appear inside a
   [Kernel] body: the kernel is one device thread per degree of freedom
   and has none of that machinery. *)

open Finch
module SS = Set.Make (String)

type state = {
  ctx : Ctx.t;
  mutable defined : SS.t;
  mutable staged : SS.t;
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

let check_phase st path (note : Ir.meta) what =
  if note.Ir.m_phase = None then
    emit st ~where:(at path what) Finding.Missing_phase
      (what ^ " carries no phase annotation for the profiler breakdown")

let check_reads st path what names =
  List.iter
    (fun v ->
      if not (SS.mem v st.defined) then
        emit st ~var:v ~where:(at path what) Finding.Undefined_read
          (Printf.sprintf
             "%s reads %s, which has no initial condition and no prior write"
             what v))
    names

(* a body consisting only of comments computes nothing *)
let body_is_empty body =
  List.for_all (function Ir.Comment _ -> true | _ -> false) body

let host_only st path what =
  emit st ~where:(at path what) Finding.Host_node_in_kernel
    (what ^ " cannot execute inside a device kernel body")

let rec walk st ~in_kernel path (n : Ir.node) =
  match n with
  | Ir.Comment _ -> ()
  | Ir.Seq ns -> List.iter (walk st ~in_kernel path) ns
  | Ir.Loop { range; body; _ } ->
    let name = loop_name range in
    if body_is_empty body then
      emit st ~where:(at path ("loop " ^ name)) Finding.Empty_body
        ("loop over " ^ name ^ " has an empty body");
    List.iter (walk st ~in_kernel (name :: path)) body
  | Ir.Kernel { kname; body; note } ->
    if in_kernel then host_only st path ("nested kernel " ^ kname)
    else begin
      check_phase st path note ("kernel " ^ kname);
      if body_is_empty body then
        emit st ~where:(at path kname) Finding.Empty_body
          ("kernel " ^ kname ^ " has an empty body");
      List.iter (walk st ~in_kernel:true (kname :: path)) body
    end
  | Ir.Assign { dest; dest_new; expr; reduce; note } ->
    check_phase st path note ("assign " ^ dest);
    let reads = Finch_symbolic.Expr.ref_names expr in
    let reads = if reduce = `Add then dest :: reads else reads in
    check_reads st path ("assign " ^ dest) reads;
    if dest_new then st.staged <- SS.add dest st.staged
    else st.defined <- SS.add dest st.defined
  | Ir.Flux_update { var; rvol; rsurf; note } ->
    check_phase st path note ("flux_update " ^ var);
    check_reads st path ("flux_update " ^ var)
      ((var :: Finch_symbolic.Expr.ref_names rvol)
       @ Finch_symbolic.Expr.ref_names rsurf);
    st.staged <- SS.add var st.staged
  | Ir.Boundary_cpu { var; note } ->
    if in_kernel then host_only st path ("boundary_cpu " ^ var)
    else begin
      check_phase st path note ("boundary_cpu " ^ var);
      check_reads st path ("boundary_cpu " ^ var) [ var ];
      st.staged <- SS.add var st.staged
    end
  | Ir.Callback { note } ->
    let what = "callback post" in
    if in_kernel then host_only st path what
    else begin
      check_phase st path note what;
      check_reads st path what st.ctx.Ctx.cb_reads;
      st.defined <- SS.union st.defined (SS.of_list st.ctx.Ctx.cb_writes)
    end
  | Ir.Swap_buffers v ->
    if in_kernel then host_only st path ("swap " ^ v)
    else if SS.mem v st.staged then begin
      st.staged <- SS.remove v st.staged;
      st.defined <- SS.add v st.defined
    end
    else
      emit st ~var:v ~where:(at path ("swap " ^ v)) Finding.Unmatched_swap
        (Printf.sprintf
           "swap of %s publishes nothing: no staged double-buffer write \
            precedes it" v)
  | Ir.Halo_exchange { vars; note; _ } ->
    if in_kernel then host_only st path "halo_exchange"
    else begin
      check_phase st path note "halo_exchange";
      check_reads st path "halo_exchange" vars
    end
  | Ir.Allreduce { vars; note; _ } ->
    if in_kernel then host_only st path "allreduce"
    else begin
      check_phase st path note "allreduce";
      check_reads st path "allreduce" vars
    end
  | Ir.H2d { vars; _ } ->
    if in_kernel then host_only st path "h2d"
    else check_reads st path "h2d" vars
  | Ir.D2h { vars; _ } ->
    if in_kernel then host_only st path "d2h"
    else check_reads st path "d2h" vars
  | Ir.D2d { vars; note; _ } ->
    (* issued by the host driver like every transfer *)
    if in_kernel then host_only st path "d2d"
    else begin
      check_phase st path note "d2d";
      check_reads st path "d2d" vars
    end
  | Ir.Stream_sync -> if in_kernel then host_only st path "stream_sync"
  | Ir.Advance_time -> if in_kernel then host_only st path "advance_time"

let run (ctx : Ctx.t) (tree : Ir.node) =
  let st =
    { ctx;
      defined = SS.of_list ctx.Ctx.defined;
      staged = SS.empty;
      findings = [] }
  in
  walk st ~in_kernel:false [] tree;
  SS.iter
    (fun v ->
      emit st ~var:v ~where:"end" Finding.Missing_swap
        (Printf.sprintf
           "double-buffer write of %s is never published by a swap" v))
    st.staged;
  List.rev st.findings
