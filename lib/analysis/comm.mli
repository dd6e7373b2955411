(** Communication-schedule pass (codes A025–A032).

    Statically elaborates the full rank×device message schedule of a
    lowered program from its halo plan — one exchange round per
    [Halo_exchange] node and variable, one ghost push per [D2d] edge —
    and verifies it before anything executes: matching and deadlock via
    {!Prt.Commsched}'s deterministic simulation (A025–A029), halo
    completeness against the plan's ghost sets (A030), dead ghost
    writes (A031, warning) and D2d peer reachability (A032).  The
    {!Seeded} input lets tests hand-build defective schedules no
    well-formed elaboration would produce. *)

type plan =
  | Ranks of Fvm.Halo.t
      (** SPMD mesh partitioning: the cell-parallel CPU target's halo
          plan, one rank per partition piece *)
  | Grid of { ndevices : int; tile_halo : Fvm.Halo.t }
      (** multi-device GPU target: [ndevices] tiles over the cell axis
          exchanging ghosts device-to-device along [tile_halo] *)
(** What the program communicates over. *)

type entry = {
  e_src : int;  (** sending rank / tile *)
  e_dst : int;  (** receiving rank / tile *)
  e_tag : int;  (** message tag of the channel *)
  e_cells : int array;  (** cells the message carries *)
}
(** One directed message of an exchange round. *)

type round = {
  rd_var : string;  (** the exchanged variable *)
  rd_sends : entry list;  (** messages posted by their [e_src] ranks *)
  rd_recvs : entry list;  (** receives posted by their [e_dst] ranks *)
  rd_recv_before_send : int list;
      (** ranks that wait on their receives before posting any send —
          the blocking shape whose cycles deadlock (normal ranks post
          sends, then receives, then wait, like the runtime) *)
}
(** One halo-exchange round. *)

type push = {
  pu_var : string;  (** the pushed variable *)
  pu_src : int;  (** owning device tile *)
  pu_dst : int;  (** receiving device tile *)
  pu_cells : int array;  (** frontier cells pushed *)
}
(** One direct device-to-device ghost copy. *)

type schedule = { sc_rounds : round list; sc_pushes : push list }
(** The complete elaborated message schedule of a program. *)

type input =
  | Elaborate of plan
      (** derive the schedule from the tree's exchange/push nodes and
          the plan's channels (the normal path) *)
  | Seeded of plan * schedule
      (** check a hand-built schedule against the plan (fixtures) *)
(** How the pass obtains the schedule to verify. *)

val plan_of_problem : Finch.Problem.t -> plan option
(** The communication plan the executors will use for this problem, read
    from its {!Finch.Ranks} layout: {!Ranks} over the cell ranks' halo
    plan, {!Grid} over the GPU ranks' device tiling when it has more than
    one tile, [None] for targets that exchange no ghosts (serial,
    threads, bands, hybrid, single-device GPU).  Raises
    [Finch.Problem.Problem_error] when the target's counts do not fit
    the problem ({!Finch.Ranks.check}). *)

val elaborate : plan -> Finch.Ir.node -> schedule
(** Instantiate the schedule the tree implies: every [Halo_exchange]
    node contributes one round per listed variable over the plan's
    channels (tag 0, runtime posting order), every [D2d] node one push
    per variable and ghost edge. *)

val run : ?comm:input -> Ctx.t -> Finch.Ir.node -> Finding.t list
(** Verify the schedule; without [comm] the pass is inert (the other
    passes' single-rank view applies).  Findings in check order:
    matching simulation per round, then coverage, redundancy and push
    reachability. *)
