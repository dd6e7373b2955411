(** SPMD kernel execution on the simulated device.

    A kernel body receives one block's range of global thread indices and
    runs real code against device buffers, the block's threads in
    lockstep (a warp's SIMT execution); launches mirror CUDA's flat 1-D
    grid with the excess threads of the last block guarded out. Execution
    is sequential over blocks (deterministic, bit-reproducible); timing
    comes from the roofline model via the per-thread cost annotation. *)

type cost = {
  flops_per_thread : float;  (** modelled FLOPs each thread performs *)
  dram_bytes_per_thread : float;  (** modelled DRAM traffic per thread *)
}
(** Per-thread cost annotation feeding the roofline model. *)

type t = {
  name : string;  (** kernel name, used in profiles and trace spans *)
  cost : cost;  (** roofline cost annotation *)
  body : int -> int -> unit;
      (** the kernel body, applied to each block's first global tid and
          its number of live threads (fewer than the block size only in
          the grid's last block) *)
}
(** A compiled kernel: real OCaml body plus modelled cost. *)

val make : name:string -> cost:cost -> (int -> int -> unit) -> t
(** [make ~name ~cost body] packages a kernel. *)

val launch : Memory.device -> t -> nthreads:int -> ?block:int -> unit -> float
(** Execute over [nthreads] logical threads (blocks of [block], default
    256), one body call per block; returns the modelled kernel duration
    and updates the device's counters plus the [gpu.kernel_launches] /
    [gpu.kernel_ns] metrics.  The modelled cost depends on [nthreads]
    alone, not on how the body runs a block. *)
