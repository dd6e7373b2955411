(* Data-movement analysis and CPU/GPU task placement.

   "The DSL automatically partitions tasks between the CPU and GPU by
   minimizing the data movement."  The program is viewed as a small set of
   per-step tasks; user-callback tasks are pinned to the CPU, everything
   else may run on either side.  For each candidate placement we compute
   the bytes that must cross PCIe per time step, and keep the minimum.

   The same analysis derives the per-variable transfer schedule: values
   produced on one side and consumed on the other move every step; values
   only read by the device and never rewritten by the host move once. *)

type side = Cpu_side | Gpu_side

type task = {
  t_name : string;
  t_reads : string list;   (* variable/coefficient names *)
  t_writes : string list;
  t_pinned : side option;  (* user callbacks are pinned to the CPU *)
  t_flops : float;         (* per-step work estimate for the cost model *)
}

type var_info = {
  v_name : string;
  v_bytes : int; (* full-field size *)
}

type placement = (string * side) list

type transfer = {
  tr_var : string;
  tr_h2d_every_step : bool;
  tr_d2h_every_step : bool;
  tr_h2d_once : bool;
}

type plan = {
  placement : placement;
  transfers : transfer list;
  bytes_per_step : int;
  bytes_once : int;
}

let side_of placement t =
  match t.t_pinned with
  | Some s -> s
  | None -> List.assoc t.t_name placement

(* Transfer schedule for a fixed placement. *)
let schedule ~tasks ~vars placement =
  let on_gpu t = side_of placement t = Gpu_side in
  let transfers =
    List.map
      (fun v ->
        let read_by_gpu =
          List.exists (fun t -> on_gpu t && List.mem v.v_name t.t_reads) tasks
        and written_by_gpu =
          List.exists (fun t -> on_gpu t && List.mem v.v_name t.t_writes) tasks
        and read_by_cpu =
          List.exists (fun t -> (not (on_gpu t)) && List.mem v.v_name t.t_reads) tasks
        and written_by_cpu =
          List.exists (fun t -> (not (on_gpu t)) && List.mem v.v_name t.t_writes) tasks
        in
        {
          tr_var = v.v_name;
          (* produced on the host, consumed on the device: upload each step *)
          tr_h2d_every_step = read_by_gpu && written_by_cpu;
          (* produced on the device, consumed on the host: download each step *)
          tr_d2h_every_step = written_by_gpu && read_by_cpu;
          (* static device input: upload once *)
          tr_h2d_once = read_by_gpu && not written_by_cpu;
        })
      vars
  in
  let bytes_per_step =
    List.fold_left
      (fun acc tr ->
        let v = List.find (fun v -> v.v_name = tr.tr_var) vars in
        acc
        + (if tr.tr_h2d_every_step then v.v_bytes else 0)
        + if tr.tr_d2h_every_step then v.v_bytes else 0)
      0 transfers
  in
  let bytes_once =
    List.fold_left
      (fun acc tr ->
        let v = List.find (fun v -> v.v_name = tr.tr_var) vars in
        acc + if tr.tr_h2d_once then v.v_bytes else 0)
      0 transfers
  in
  { placement; transfers; bytes_per_step; bytes_once }

(* Cost model for placement choice: per-step wall time is estimated as
   CPU compute + GPU compute + PCIe traffic (serialized; overlap only
   improves on this, so the ranking is conservative).  Movement alone is
   not a sufficient objective — it would pin everything to the host. *)
type rates = {
  cpu_flops : float;  (* effective host rate, FLOP/s *)
  gpu_flops : float;  (* effective device rate, FLOP/s *)
  pcie : float;       (* bytes/s *)
}

let default_rates =
  { cpu_flops = 5e9; gpu_flops = 5e11; pcie = 16e9 }

let plan_cost ~tasks rates plan =
  let compute =
    List.fold_left
      (fun acc t ->
        let r =
          match side_of plan.placement t with
          | Cpu_side -> rates.cpu_flops
          | Gpu_side -> rates.gpu_flops
        in
        acc +. (t.t_flops /. r))
      0. tasks
  in
  compute +. (float_of_int plan.bytes_per_step /. rates.pcie)

(* Enumerate placements of the unpinned tasks (2^k, k small) and keep the
   one minimizing estimated per-step time (compute + data movement),
   breaking ties toward less traffic and then toward more GPU tasks. *)
let optimize ~tasks ~vars =
  let free = List.filter (fun t -> t.t_pinned = None) tasks in
  let rec placements = function
    | [] -> [ [] ]
    | t :: rest ->
      let tails = placements rest in
      List.concat_map
        (fun tail -> [ (t.t_name, Cpu_side) :: tail; (t.t_name, Gpu_side) :: tail ])
        tails
  in
  let candidates = placements free in
  let plans = List.map (schedule ~tasks ~vars) candidates in
  let gpu_count plan =
    List.length (List.filter (fun (_, s) -> s = Gpu_side) plan.placement)
  in
  match
    List.sort
      (fun a b ->
        let c =
          compare (plan_cost ~tasks default_rates a)
            (plan_cost ~tasks default_rates b)
        in
        if c <> 0 then c
        else
          let c = compare a.bytes_per_step b.bytes_per_step in
          if c <> 0 then c else compare (gpu_count b) (gpu_count a))
      plans
  with
  | best :: _ -> best
  | [] -> invalid_arg "Dataflow.optimize: no tasks"

(* ------------------------------------------------------------------ *)
(* Problem-specific task extraction.                                   *)
(* ------------------------------------------------------------------ *)

(* Reads/writes of user callbacks cannot be inferred from symbolic input;
   the post-step task carries the problem's contract ([Problem.post_io]). *)
let tasks_of_problem (p : Problem.t) =
  let eq = Problem.the_equation p in
  let u = eq.Transform.eq_var in
  let eq_reads =
    Finch_symbolic.Expr.ref_names eq.Transform.rvol
    @ Finch_symbolic.Expr.ref_names eq.Transform.rsurf
    @ [ u ]
    |> List.sort_uniq compare
  in
  let mesh = Problem.mesh_exn p in
  let ndofs =
    let uv =
      match Problem.find_variable p u with Some v -> v | None -> assert false
    in
    mesh.Fvm.Mesh.ncells * Entity.var_ncomp uv
  in
  let flops_per_dof =
    (Eval.cost eq.Transform.rvol).Eval.flops
    +. (4. *. (Eval.cost eq.Transform.rsurf).Eval.flops)
  in
  let interior =
    { t_name = "interior_update"; t_reads = eq_reads; t_writes = [ u ];
      t_pinned = None; t_flops = flops_per_dof *. float_of_int ndofs }
  in
  let nbfaces = Array.length mesh.Fvm.Mesh.boundary_faces in
  let ncomp = ndofs / mesh.Fvm.Mesh.ncells in
  let boundary =
    {
      t_name = "boundary_update";
      t_reads = eq_reads;
      t_writes = [ u ];
      t_pinned = Some Cpu_side; (* user callbacks stay on the CPU *)
      t_flops = flops_per_dof *. float_of_int (nbfaces * ncomp);
    }
  in
  let post =
    if p.Problem.post_step = [] then []
    else
      let io = Problem.post_io p in
      [ { t_name = "post_step";
          t_reads = io.Problem.cb_reads;
          t_writes = io.Problem.cb_writes;
          t_pinned = Some Cpu_side;
          t_flops = 40. *. float_of_int ndofs } ]
  in
  [ interior; boundary ] @ post

let vars_of_problem (p : Problem.t) =
  let m = Problem.mesh_exn p in
  let ncells = m.Fvm.Mesh.ncells in
  List.map
    (fun v ->
      { v_name = v.Entity.vname; v_bytes = 8 * ncells * Entity.var_ncomp v })
    p.Problem.variables
  @ List.filter_map
      (fun (c : Entity.coefficient) ->
        match c.Entity.cvalue with
        | Entity.Arr a ->
          Some { v_name = c.Entity.cname; v_bytes = 8 * Array.length a }
        | Entity.Const _ -> Some { v_name = c.Entity.cname; v_bytes = 8 }
        | Entity.Space_fn _ ->
          (* evaluated host-side and materialized per cell if the device
             needs it *)
          Some { v_name = c.Entity.cname; v_bytes = 8 * ncells })
      p.Problem.coefficients

let plan_for_problem (p : Problem.t) =
  optimize ~tasks:(tasks_of_problem p) ~vars:(vars_of_problem p)

(* The (variable, uploaded-every-step) pairs [Ir.build_gpu] consumes: one
   entry per device input the plan uploads, once or per step. *)
let ir_transfers plan =
  List.filter_map
    (fun tr ->
      if tr.tr_h2d_every_step then Some (tr.tr_var, true)
      else if tr.tr_h2d_once then Some (tr.tr_var, false)
      else None)
    plan.transfers
