(* Intermediate representation: a computational graph describing the
   generated program at an abstract level, with metadata and comment nodes
   ("unlike other such graphs, this IR also includes metadata about the
   parts of the computation and comment nodes to facilitate generation of
   easily readable code").

   The IR stays target-independent: loops are symbolic (over cells, faces
   of a cell, or a named index), and device placement/communication nodes
   express the hybrid structure without committing to CUDA specifics.
   [Emit_source] renders it as readable Julia-like or CUDA-like code;
   [Dataflow] analyses it; the executors mirror its structure. *)

open Finch_symbolic

type phase = Ph_intensity | Ph_temperature | Ph_communication | Ph_boundary

type meta = {
  m_comment : string option;
  m_phase : phase option;
  m_flops : float; (* per innermost iteration, 0 when not annotated *)
}

let meta ?comment ?phase ?(flops = 0.) () =
  { m_comment = comment; m_phase = phase; m_flops = flops }

type loop_range =
  | Cells
  | Faces_of_cell
  | Index of string  (* a declared index, e.g. directions or bands *)
  | Steps            (* the time loop *)

type node =
  | Comment of string
  | Seq of node list
  | Loop of { range : loop_range; body : node list; parallel : bool }
  | Assign of {
      dest : string;            (* variable name *)
      dest_new : bool;          (* write the double buffer *)
      expr : Expr.t;            (* scalar expression per iteration *)
      reduce : [ `Set | `Add ];
      note : meta;
    }
  | Flux_update of {
      var : string;             (* conservation-form fused update *)
      rvol : Expr.t;
      rsurf : Expr.t;
      note : meta;
    }
  | Boundary_cpu of { var : string; note : meta }
  | Callback of { note : meta }  (* the post-step user code *)
  | Swap_buffers of string
  | Halo_exchange of { vars : string list; note : meta }
  | Allreduce of { what : string; vars : string list; note : meta }
  | Kernel of { kname : string; body : node list; note : meta }
  | H2d of { vars : string list; every_step : bool }
  | D2h of { vars : string list; every_step : bool }
  | D2d of { vars : string list; note : meta }
    (* multi-device ghost push: owner devices peer-copy the listed
       variables' tile-frontier cells into their neighbours' ghost
       regions (NVLink within a node, host-staged across) *)
  | Stream_sync
  | Advance_time

(* Fold over all nodes (pre-order). *)
let rec fold f acc n =
  let acc = f acc n in
  match n with
  | Seq ns | Loop { body = ns; _ } | Kernel { body = ns; _ } ->
    List.fold_left (fold f) acc ns
  | Comment _ | Assign _ | Flux_update _ | Boundary_cpu _ | Callback _
  | Swap_buffers _ | Halo_exchange _ | Allreduce _ | H2d _ | D2h _ | D2d _
  | Stream_sync | Advance_time -> acc

(* Variables read / written by a node tree, for the dataflow and static
   analyses.  Every constructor that touches named storage contributes:
   communication and transfer nodes both read their source copy and write
   their destination copy of each listed variable (the name spaces are
   collapsed — host/device/ghost copies share the variable's name), and
   [Swap_buffers v] consumes v's double buffer to publish v.  Callback
   nodes are opaque: their reads/writes are declared by the problem (see
   [Problem.post_io]). *)
let writes tree =
  fold
    (fun acc n ->
      match n with
      | Assign { dest; _ } | Flux_update { var = dest; _ }
      | Boundary_cpu { var = dest; _ } | Swap_buffers dest -> dest :: acc
      | Halo_exchange { vars; _ }   (* ghost regions overwritten *)
      | Allreduce { vars; _ }       (* reduced in place on every rank *)
      | H2d { vars; _ }             (* device copies refreshed *)
      | D2h { vars; _ }             (* host copies refreshed *)
      | D2d { vars; _ }             (* peer ghost regions overwritten *)
        -> vars @ acc
      | Comment _ | Seq _ | Loop _ | Kernel _ | Callback _ | Stream_sync
      | Advance_time -> acc)
    [] tree
  |> List.sort_uniq compare

let reads tree =
  fold
    (fun acc n ->
      match n with
      | Assign { expr; _ } -> Expr.ref_names expr @ acc
      | Flux_update { rvol; rsurf; var; _ } ->
        (var :: Expr.ref_names rvol) @ Expr.ref_names rsurf @ acc
      | Boundary_cpu { var; _ }   (* boundary closures read the field *)
      | Swap_buffers var          (* consumes the staged double buffer *)
        -> var :: acc
      | Halo_exchange { vars; _ } (* owned frontier values are packed *)
      | Allreduce { vars; _ }     (* local contributions enter the sum *)
      | H2d { vars; _ }           (* host copies are the transfer source *)
      | D2h { vars; _ }           (* device copies are the transfer source *)
      | D2d { vars; _ }           (* owners' frontier values are packed *)
        -> vars @ acc
      | Comment _ | Seq _ | Loop _ | Kernel _ | Callback _ | Stream_sync
      | Advance_time -> acc)
    [] tree
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Building the IR for a configured problem.                           *)
(* ------------------------------------------------------------------ *)

(* The per-DOF loop nest in the configured assembly order.  [loop_order]
   entries are index names plus the pseudo-entry "elements"/"cells";
   default order is cells outermost then declared indices ("the default
   choice of an outermost cell loop"). *)
let dof_loops (p : Problem.t) inner =
  let order =
    match p.Problem.loop_order with
    | Some o -> o
    | None ->
      "elements"
      :: List.map (fun i -> i.Entity.iname) p.Problem.indices
  in
  List.fold_right
    (fun name body ->
      let range =
        if name = "elements" || name = "cells" then Cells else Index name
      in
      [ Loop { range; body; parallel = range = Cells } ])
    order inner

let step_body (p : Problem.t) (eq : Transform.equation) =
  let cost =
    (Eval.cost eq.Transform.rvol).Eval.flops
    +. (4. *. (Eval.cost eq.Transform.rsurf).Eval.flops)
  in
  let update =
    Flux_update
      {
        var = eq.Transform.eq_var;
        rvol = eq.Transform.rvol;
        rsurf = eq.Transform.rsurf;
        note =
          meta ~comment:"conservation-form update: u += dt*(source - flux)"
            ~phase:Ph_intensity ~flops:cost ();
      }
  in
  dof_loops p [ update ]

(* CPU program: sequential or rank-local body of an SPMD program. *)
let build_cpu (p : Problem.t) =
  let eq = Problem.the_equation p in
  let strategy =
    match p.Problem.target with
    | Config.Cpu s -> s
    | Config.Gpu _ -> Config.Serial
    | Config.Auto -> invalid_arg "Ir.build_cpu: unresolved auto target"
  in
  let comm =
    match strategy with
    | Config.Serial -> []
    | Config.Threaded _ ->
      (* shared memory: the pool barrier replaces explicit communication *)
      []
    | Config.Cell_parallel _ ->
      [ Halo_exchange
          {
            vars = [ eq.Transform.eq_var ];
            note = meta ~comment:"neighbour values along partition interfaces"
                     ~phase:Ph_communication ();
          } ]
    | Config.Band_parallel _ | Config.Hybrid _ ->
      [ Allreduce
          {
            what = "cell energy (band reduction for the temperature update)";
            vars = [ eq.Transform.eq_var ];
            note = meta ~phase:Ph_communication ();
          } ]
  in
  let body =
    [ Comment "interior + boundary update of the unknown" ]
    @ step_body p eq
    @ [ Boundary_cpu
          { var = eq.Transform.eq_var;
            note = meta ~comment:"user-supplied boundary callbacks" ~phase:Ph_boundary () };
        Swap_buffers eq.Transform.eq_var ]
    @ comm
    @ (if p.Problem.post_step <> [] then
         [ Callback { note = meta ~comment:"post-step user code (temperature update)" ~phase:Ph_temperature () } ]
       else [])
    @ [ Advance_time ]
  in
  Seq [ Loop { range = Steps; body; parallel = false } ]

(* Hybrid CPU/GPU program (paper Fig. 6): interior kernel on the device,
   boundary callback on the host overlapping it, combine, post-step on the
   host, re-upload mutable inputs. *)
let build_gpu (p : Problem.t) ~(transfers : (string * bool) list) =
  let eq = Problem.the_equation p in
  let every_step = List.filter_map (fun (v, e) -> if e then Some v else None) transfers in
  let once = List.filter_map (fun (v, e) -> if not e then Some v else None) transfers in
  let kernel_body =
    [ Comment "one thread per degree of freedom; flattened loops";
      Flux_update
        {
          var = eq.Transform.eq_var;
          rvol = eq.Transform.rvol;
          rsurf = eq.Transform.rsurf;
          note =
            meta ~comment:"interior conservation-form update" ~phase:Ph_intensity
              ~flops:
                ((Eval.cost eq.Transform.rvol).Eval.flops
                 +. (4. *. (Eval.cost eq.Transform.rsurf).Eval.flops))
              ();
        } ]
  in
  (* The unbatched (O0) shape launches one kernel per value of every
     index beyond the first: a cells×dirs slab per band instead of one
     batched cells×dirs×bands launch.  O2 (and problems with at most
     one declared index, where the two shapes coincide) keep the single
     batched kernel; Opt.batch_band_kernels rewrites the O0 shape into
     the batched one and Target_gpu mirrors the same split. *)
  let uvar_indices =
    match Problem.find_variable p eq.Transform.eq_var with
    | Some v -> v.Entity.vindices
    | None -> []
  in
  let interior =
    let kernel =
      Kernel
        { kname = eq.Transform.eq_var ^ "_interior_kernel";
          body = kernel_body;
          note = meta ~comment:"launched asynchronously" ~phase:Ph_intensity () }
    in
    match p.Problem.opt_level, uvar_indices with
    | Config.O0, _ :: (_ :: _ as outer) ->
      List.fold_right
        (fun (i : Entity.index) body ->
          [ Loop { range = Index i.Entity.iname; body; parallel = false } ])
        outer [ kernel ]
      |> List.hd
    | _ -> kernel
  in
  (* multi-device targets push tile-frontier ghosts device-to-device
     after the owners' fresh per-step upload *)
  let ghost_push =
    match p.Problem.target with
    | Config.Gpu { devices; _ } when devices > 1 ->
      [ D2d
          { vars = [ eq.Transform.eq_var ];
            note =
              meta
                ~comment:
                  "peer-copy tile-frontier ghosts between devices (NVLink)"
                ~phase:Ph_communication () } ]
    | _ -> []
  in
  let body =
    [ interior;
      Boundary_cpu
        { var = eq.Transform.eq_var;
          note = meta ~comment:"computed on the CPU while the kernel runs" ~phase:Ph_boundary () };
      Stream_sync;
      D2h { vars = [ eq.Transform.eq_var ]; every_step = true };
      Comment "combine interior and boundary contributions";
      Swap_buffers eq.Transform.eq_var;
      Callback { note = meta ~comment:"post-step user code on the host" ~phase:Ph_temperature () };
      H2d { vars = every_step; every_step = true } ]
    @ ghost_push
    @ [ Advance_time ]
  in
  Seq
    [ Comment "one-time uploads (initial values of every device input)";
      (* the executor mirrors every device input once before the loop, so
         the initial upload covers the every-step variables too — their
         first kernel read happens before the first per-step H2d *)
      H2d { vars = once @ every_step; every_step = false };
      Loop { range = Steps; body; parallel = false } ]
