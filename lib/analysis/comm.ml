(* Communication-schedule pass (codes A025-A032).

   The other passes see one rank's program in isolation; this one checks
   the communication *between* ranks and devices.  From a lowered
   program plus its halo plan it elaborates the full rank x device
   message schedule — every rank's send/recv sequence per exchange
   round, every device's D2d ghost push — and verifies it statically:

   - matching and ordering, by running [Prt.Commsched]'s deterministic
     matching simulation over each round (A025 unmatched send, A026
     unmatched recv, A027 waits-for deadlock cycle, A028 ambiguous FIFO
     match on a busy channel, A029 payload-length disagreement);
   - halo completeness (A030): for every variable read across partition
     faces (CELL2), each rank's ghost-cell set — the union of the
     frontier cells its neighbours owe it — must be covered by the cells
     its receives and incoming pushes deliver;
   - redundancy (A031, warning): an exchanged or pushed variable nothing
     reads across faces is a dead ghost write;
   - peer reachability (A032): a D2d push must follow a ghost edge of
     the decomposition — its destination must be in the source tile's
     reachable peer set and inside the device grid.

   Schedules normally come from [elaborate], which instantiates the
   plan's channels at every [Halo_exchange] / [D2d] node; the [Seeded]
   input lets tests (fixtures.ml) hand-build defective schedules —
   dropped entries, swapped tags, inverted post orders — that no
   well-formed elaboration would produce. *)

open Finch

type plan =
  | Ranks of Fvm.Halo.t
  | Grid of { ndevices : int; tile_halo : Fvm.Halo.t }

type entry = { e_src : int; e_dst : int; e_tag : int; e_cells : int array }

type round = {
  rd_var : string;
  rd_sends : entry list;
  rd_recvs : entry list;
  rd_recv_before_send : int list;
}

type push = {
  pu_var : string;
  pu_src : int;
  pu_dst : int;
  pu_cells : int array;
}

type schedule = { sc_rounds : round list; sc_pushes : push list }

type input = Elaborate of plan | Seeded of plan * schedule

let plan_halo = function Ranks h -> h | Grid { tile_halo; _ } -> tile_halo

let plan_nparts = function
  | Ranks h -> h.Fvm.Halo.nranks
  | Grid { ndevices; _ } -> ndevices

(* ------------------------------------------------------------------ *)
(* Plan derivation and schedule elaboration.                           *)
(* ------------------------------------------------------------------ *)

(* Read from the layout the executors run: the cell ranks' halo plan,
   or the device tiling when it has more than one tile. *)
let plan_of_problem (p : Problem.t) =
  let layout () = Finch.Ranks.of_problem p in
  match p.Problem.target with
  | Config.Cpu (Config.Cell_parallel _) ->
    Option.map (fun halo -> Ranks halo) (layout ()).Finch.Ranks.halo
  | Config.Gpu { devices; _ } when devices > 1 ->
    Option.map
      (fun (d : Fvm.Decomp2d.t) ->
        Grid { ndevices = d.ndevices; tile_halo = d.halo })
      (layout ()).Finch.Ranks.tiling
  | _ -> None

let elaborate plan tree =
  let entries =
    List.map
      (fun (e : Fvm.Halo.exchange) ->
        { e_src = e.Fvm.Halo.from_rank;
          e_dst = e.Fvm.Halo.to_rank;
          e_tag = 0;
          e_cells = e.Fvm.Halo.cells })
      (plan_halo plan).Fvm.Halo.exchanges
  in
  let rounds = ref [] and pushes = ref [] in
  Ir.fold
    (fun () n ->
      match n with
      | Ir.Halo_exchange { vars; _ } ->
        List.iter
          (fun v ->
            rounds :=
              { rd_var = v; rd_sends = entries; rd_recvs = entries;
                rd_recv_before_send = [] }
              :: !rounds)
          vars
      | Ir.D2d { vars; _ } ->
        List.iter
          (fun v ->
            List.iter
              (fun e ->
                pushes :=
                  { pu_var = v; pu_src = e.e_src; pu_dst = e.e_dst;
                    pu_cells = e.e_cells }
                  :: !pushes)
              entries)
          vars
      | _ -> ())
    () tree;
  { sc_rounds = List.rev !rounds; sc_pushes = List.rev !pushes }

(* ------------------------------------------------------------------ *)
(* Matching simulation (A025-A029).                                    *)
(* ------------------------------------------------------------------ *)

(* One exchange round as a [Prt.Commsched] program: each rank posts its
   sends, then its receives, then waits — the runtime's
   [Halo.start_exchange] order.  Ranks listed in [rd_recv_before_send]
   instead wait on their receives before posting any send, the blocking
   shape whose cycles the simulation must catch. *)
let round_schedule nparts (rd : round) : Prt.Commsched.schedule =
  Array.init nparts (fun r ->
      let send_ops =
        List.filter_map
          (fun e ->
            if e.e_src <> r then None
            else
              Some
                (Prt.Commsched.Send
                   { peer = e.e_dst; tag = e.e_tag;
                     len = Array.length e.e_cells; label = rd.rd_var }))
          rd.rd_sends
      and recv_ops =
        List.filter_map
          (fun e ->
            if e.e_dst <> r then None
            else
              Some
                (Prt.Commsched.Recv
                   { peer = e.e_src; tag = e.e_tag;
                     len = Array.length e.e_cells; label = rd.rd_var }))
          rd.rd_recvs
      in
      if List.mem r rd.rd_recv_before_send then
        recv_ops @ (Prt.Commsched.Wait_all :: send_ops)
      else send_ops @ recv_ops @ [ Prt.Commsched.Wait_all ])

let finding_of_problem rd_var pr =
  let detail = Prt.Commsched.problem_to_string pr in
  let mk ?(var = rd_var) code =
    Finding.make ~var ~where:"comm/halo_exchange" code detail
  in
  match pr with
  | Prt.Commsched.Unmatched_send { label; _ } ->
    mk ~var:label Finding.Comm_unmatched_send
  | Prt.Commsched.Unmatched_recv { label; _ } ->
    mk ~var:label Finding.Comm_unmatched_recv
  | Prt.Commsched.Deadlock _ -> mk Finding.Comm_deadlock
  | Prt.Commsched.Tag_collision { label; _ } ->
    mk ~var:label Finding.Comm_tag_collision
  | Prt.Commsched.Size_mismatch { label; _ } ->
    mk ~var:label Finding.Comm_size_mismatch

let check_rounds nparts rounds =
  List.concat_map
    (fun rd ->
      List.map (finding_of_problem rd.rd_var)
        (Prt.Commsched.simulate (round_schedule nparts rd)))
    rounds

(* ------------------------------------------------------------------ *)
(* Halo completeness (A030).                                           *)
(* ------------------------------------------------------------------ *)

(* Variables read across partition faces (CELL2 side) anywhere in the
   tree: exactly the variables whose ghost cells must be fresh. *)
let neighbour_read_vars tree =
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
      | Ir.Flux_update { rvol; rsurf; _ } ->
        of_expr rvol @ of_expr rsurf @ acc
      | _ -> acc)
    [] tree
  |> List.sort_uniq compare

(* For each CELL2-read variable the schedule exchanges, every rank's
   ghost set (the union of the frontier cells its neighbours owe it,
   per [Halo.frontier_cells] symmetry) must be covered by the messages
   targeting it — either half of a round counts, so a dropped or
   mismatched half stays an A025/A026 matching finding rather than
   doubling as incompleteness; A030 is reserved for ghost cells no
   message even names.  Variables with no round at all are Movement's
   A021, not ours. *)
let check_coverage plan sched cell2 =
  let halo = plan_halo plan and nparts = plan_nparts plan in
  let exchanged =
    List.map (fun rd -> rd.rd_var) sched.sc_rounds
    @ List.map (fun p -> p.pu_var) sched.sc_pushes
    |> List.sort_uniq compare
    |> List.filter (fun v -> List.mem v cell2)
  in
  List.concat_map
    (fun v ->
      List.filter_map
        (fun r ->
          let ghosts = Fvm.Halo.ghost_cells halo r in
          if Array.length ghosts = 0 then None
          else begin
            let covered = Hashtbl.create 64 in
            let mark cells = Array.iter (fun c -> Hashtbl.replace covered c ()) cells in
            List.iter
              (fun rd ->
                if rd.rd_var = v then
                  List.iter
                    (fun e -> if e.e_dst = r then mark e.e_cells)
                    (rd.rd_sends @ rd.rd_recvs))
              sched.sc_rounds;
            List.iter
              (fun p -> if p.pu_var = v && p.pu_dst = r then mark p.pu_cells)
              sched.sc_pushes;
            let missing =
              Array.to_list ghosts
              |> List.filter (fun c -> not (Hashtbl.mem covered c))
            in
            match missing with
            | [] -> None
            | c :: _ ->
              Some
                (Finding.make ~var:v ~where:"comm/coverage"
                   Finding.Comm_halo_incomplete
                   (Printf.sprintf
                      "the exchange rounds for %s leave %d of rank %d's %d \
                       ghost cells stale (e.g. cell %d): sweeps read values \
                       no message delivers" v (List.length missing) r
                      (Array.length ghosts) c))
          end)
        (List.init nparts Fun.id))
    exchanged

(* ------------------------------------------------------------------ *)
(* Redundant exchange (A031) and peer reachability (A032).             *)
(* ------------------------------------------------------------------ *)

(* An exchanged/pushed variable nothing reads across faces: the ghost
   regions are written and never consumed.  Harmless but pure waste
   (per-step payload), so warning-grade. *)
let check_redundant cell2 tree =
  Ir.fold
    (fun acc n ->
      let dead what vars =
        List.filter_map
          (fun v ->
            if List.mem v cell2 then None
            else
              Some
                (Finding.make ~var:v ~where:("comm/" ^ what)
                   Finding.Comm_redundant_exchange
                   (Printf.sprintf
                      "%s ships ghost values of %s but nothing reads %s \
                       across faces (CELL2): the ghost write is dead and \
                       the payload pure overhead" what v v)))
          vars
      in
      match n with
      | Ir.Halo_exchange { vars; _ } -> acc @ dead "halo_exchange" vars
      | Ir.D2d { vars; _ } -> acc @ dead "d2d" vars
      | _ -> acc)
    [] tree

(* Every push must follow a ghost edge of the decomposition: its
   destination inside the grid and in the source tile's reachable peer
   set ([Decomp2d.neighbour_tiles], i.e. the halo's send destinations). *)
let check_pushes plan sched =
  let halo = plan_halo plan and nparts = plan_nparts plan in
  List.filter_map
    (fun p ->
      if p.pu_src < 0 || p.pu_src >= nparts || p.pu_dst < 0
         || p.pu_dst >= nparts
      then
        Some
          (Finding.make ~var:p.pu_var ~where:"comm/d2d"
             Finding.Comm_unreachable_peer
             (Printf.sprintf
                "push of %s names device %d -> %d outside the %d-device \
                 grid" p.pu_var p.pu_src p.pu_dst nparts))
      else if not (List.mem p.pu_dst (Fvm.Halo.neighbour_ranks halo p.pu_src))
      then
        Some
          (Finding.make ~var:p.pu_var ~where:"comm/d2d"
             Finding.Comm_unreachable_peer
             (Printf.sprintf
                "push of %s from tile %d to tile %d (%s path) follows no \
                 ghost edge of the decomposition: tile %d owes %d no \
                 frontier cells" p.pu_var p.pu_src p.pu_dst
                (Gpu_sim.Topology.path_name
                   (Gpu_sim.Topology.path ~src:p.pu_src ~dst:p.pu_dst))
                p.pu_src p.pu_dst))
      else None)
    sched.sc_pushes

(* ------------------------------------------------------------------ *)
(* Entry point.                                                        *)
(* ------------------------------------------------------------------ *)

let run ?comm (_ctx : Ctx.t) (tree : Ir.node) =
  let cell2 = neighbour_read_vars tree in
  match comm with
  | None -> []
  | Some input ->
    let plan, sched =
      match input with
      | Elaborate plan -> plan, elaborate plan tree
      | Seeded (plan, sched) -> plan, sched
    in
    check_rounds (plan_nparts plan) sched.sc_rounds
    @ check_coverage plan sched cell2
    @ check_redundant cell2 tree
    @ check_pushes plan sched
