(* How a target's ranks share a problem (paper Section III-C/D).

   The parallel strategies differ only in this decision: band ranks take
   a contiguous block of the last declared index, cell ranks an RCB tile
   of the mesh plus the halo plan between tiles, GPU ranks a band block
   each plus one device tiling of the mesh, and serial and threaded runs
   are one rank owning everything.  Executors are per-rank bodies that
   [run] calls once per rank; the static Comm pass reads the same
   layout, so the schedule it verifies is the one that executes. *)

type t = {
  infos : Lower.rankinfo array;
  halo : Fvm.Halo.t option;
  tiling : Fvm.Decomp2d.t option;
}

let noop_allreduce (_ : float array) = ()

(* the paper's band index is declared after the direction index *)
let band_index (p : Problem.t) =
  match List.rev p.Problem.indices with i :: _ -> Some i | [] -> None

let check (p : Problem.t) =
  let spec = Config.target_name p.Problem.target in
  let ( let* ) = Result.bind in
  let positive n =
    if n >= 1 then Ok ()
    else Error (Printf.sprintf "%s needs a positive count, not %d" spec n)
  in
  let cells n =
    let* () = positive n in
    match p.Problem.mesh with
    | Some m when n > m.Fvm.Mesh.ncells ->
      Error
        (Printf.sprintf "%s needs %d cells, the mesh has %d" spec n
           m.Fvm.Mesh.ncells)
    | _ -> Ok ()
  in
  let bands n =
    let* () = positive n in
    match band_index p with
    | None -> Error (spec ^ " needs an index to split, the problem has none")
    | Some i when n > Entity.index_extent i ->
      Error
        (Printf.sprintf "%s needs %d values of index %s, which has %d" spec n
           i.Entity.iname (Entity.index_extent i))
    | Some _ -> Ok ()
  in
  match p.Problem.target with
  | Config.Cpu Config.Serial -> Ok ()
  | Config.Cpu (Config.Band_parallel n) -> bands n
  | Config.Cpu (Config.Cell_parallel n | Config.Threaded n) -> cells n
  | Config.Cpu (Config.Hybrid (r, d)) ->
    let* () = bands r in
    cells d
  | Config.Gpu { devices; ranks; _ } ->
    let* () = if ranks > 1 then bands ranks else positive ranks in
    cells devices
  | Config.Auto -> Error "backend auto must be resolved by the tuner first"

let of_problem (p : Problem.t) =
  (match check p with
   | Ok () -> ()
   | Error m -> raise (Problem.Problem_error m));
  let whole = [| Lower.serial_rankinfo |] in
  let band_blocks nranks =
    (* [check] has found the index *)
    let i = Option.get (band_index p) in
    let nitems = Entity.index_extent i in
    Array.init nranks (fun rank ->
        { Lower.rank; nranks; owned_cells = None;
          index_ranges =
            [ i.Entity.iname, Fvm.Partition.block_range ~nitems ~nparts:nranks rank ] })
  in
  let layout infos = { infos; halo = None; tiling = None } in
  match p.Problem.target with
  (* [check] has rejected Auto *)
  | Config.Cpu (Config.Serial | Config.Threaded _) | Config.Auto -> layout whole
  | Config.Cpu (Config.Band_parallel n | Config.Hybrid (n, _)) ->
    layout (band_blocks n)
  | Config.Cpu (Config.Cell_parallel nranks) ->
    let mesh = Problem.mesh_exn p in
    let part = Fvm.Partition.rcb_mesh mesh ~nparts:nranks in
    { infos =
        Array.init nranks (fun rank ->
            { Lower.rank; nranks;
              owned_cells = Some (Fvm.Partition.cells_of_rank part rank);
              index_ranges = [] });
      halo = Some (Fvm.Halo.build mesh part);
      tiling = None }
  | Config.Gpu { devices; ranks; _ } ->
    { (layout (if ranks > 1 then band_blocks ranks else whole)) with
      tiling =
        Some (Fvm.Decomp2d.build (Problem.mesh_exn p) ~ndevices:devices ~nranks:ranks) }

let track (info : Lower.rankinfo) =
  if info.Lower.nranks > 1 then Prt.Trace.rank info.Lower.rank else Prt.Trace.main

let run t body =
  match t.infos with
  | [| info |] -> [| body info ~allreduce:noop_allreduce |]
  | infos ->
    let results = Array.make (Array.length infos) None in
    Prt.Spmd.run ~nranks:(Array.length infos) (fun rank ->
        results.(rank) <- Some (body infos.(rank) ~allreduce:Prt.Spmd.allreduce_sum));
    (* Spmd.run returns only once every rank has finished *)
    Array.map Option.get results
