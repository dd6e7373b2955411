(** Top-level driver — the paper's [solve(I)]: dispatch a configured
    problem to its code-generation target and package the results. *)

type outcome = {
  u : Fvm.Field.t;                      (** gathered unknown after the run *)
  fields : (string * Fvm.Field.t) list;
    (** every variable after the run, gathered from the ranks' owned
        cells and component slices on partitioned targets *)
  breakdown : Prt.Breakdown.t;
  gpu : Target_gpu.result option;       (** present for GPU runs *)
  states : Lower.state array;
}

val default_band_index : Problem.t -> string
(** The index split by band-parallel runs when none is given: the last
    declared index. *)

val solve :
  ?band_index:string -> ?post_io:Dataflow.callback_io -> Problem.t -> outcome

val field : outcome -> string -> Fvm.Field.t
