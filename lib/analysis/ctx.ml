(* Analysis context: what the passes need to know about the program's
   entities beyond the IR tree itself — which names are variables vs
   coefficients, which variables live per cell, what has an initial
   value, whether the run is mesh-partitioned, and what the opaque
   user callbacks declare as their reads/writes. *)

type t = {
  variables : string list;
  coefficients : string list;
  cell_vars : string list;
  defined : string list;
  partitioned : bool;
  cb_reads : string list;
  cb_writes : string list;
}

let make ?(variables = []) ?(coefficients = []) ?(cell_vars = [])
    ?(defined = []) ?(partitioned = false) ?(cb_reads = []) ?(cb_writes = [])
    () =
  { variables; coefficients; cell_vars; defined; partitioned; cb_reads;
    cb_writes }

let of_problem (p : Finch.Problem.t) =
  let variables =
    List.map (fun v -> v.Finch.Entity.vname) p.Finch.Problem.variables
  in
  let coefficients =
    List.map (fun c -> c.Finch.Entity.cname) p.Finch.Problem.coefficients
  in
  let cell_vars =
    List.filter_map
      (fun v ->
        if v.Finch.Entity.location = Finch.Entity.Cell then
          Some v.Finch.Entity.vname
        else None)
      p.Finch.Problem.variables
  in
  let defined =
    coefficients
    @ List.filter
        (fun v -> List.mem_assoc v p.Finch.Problem.initials)
        variables
  in
  let partitioned =
    (* mesh-partitioned: cell-parallel CPU ranks, or a multi-device GPU
       grid whose devices tile the cell axis *)
    match p.Finch.Problem.target with
    | Finch.Config.Cpu (Finch.Config.Cell_parallel _) -> true
    | Finch.Config.Gpu { devices; _ } -> devices > 1
    | _ -> false
  in
  let io = Finch.Problem.post_io p in
  { variables; coefficients; cell_vars; defined; partitioned;
    cb_reads = io.Finch.Problem.cb_reads;
    cb_writes = io.Finch.Problem.cb_writes }

let is_cell_var t v = List.mem v t.cell_vars
let is_coefficient t v = List.mem v t.coefficients
