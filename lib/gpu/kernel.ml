(* SPMD kernel execution on the simulated device.

   A kernel body receives one block's range of global thread indices and
   runs real OCaml code against device buffers, the block's threads in
   lockstep as a GPU runs a warp.  Launch semantics mirror CUDA's flat 1-D
   grid: one thread per degree of freedom, the grid rounded up to whole
   blocks, the excess threads of the last block guarded out (the range
   handed to the body stops at the grid's logical size, as the generated
   guard [if (tid >= n) return;] would).

   The cost annotation gives modelled per-thread FLOPs and DRAM bytes; the
   launch advances the device timeline by the roofline time. *)

type cost = {
  flops_per_thread : float;
  dram_bytes_per_thread : float;
}

type t = {
  name : string;
  cost : cost;
  body : int -> int -> unit; (* a block's first global tid, its live threads *)
}

let make ~name ~cost body = { name; cost; body }

(* Launch accounting also feeds the process-wide metrics registry (the
   per-device counters remain the profiler's source of truth). *)
let m_launches = Prt.Metrics.counter "gpu.kernel_launches"
let m_kernel_ns = Prt.Metrics.counter "gpu.kernel_ns"

(* Launch [k] over [nthreads] logical threads with blocks of [block] threads.
   Returns the modelled kernel duration.  Execution itself is sequential
   over blocks — simulating the SPMD model, not racing it — which keeps
   results deterministic and bit-reproducible. *)
let launch dev k ~nthreads ?(block = 256) () =
  if nthreads < 1 then invalid_arg "Kernel.launch: empty grid";
  if block < 1 then invalid_arg "Kernel.launch: empty block";
  let nblocks = (nthreads + block - 1) / block in
  for b = 0 to nblocks - 1 do
    let first = b * block in
    (* guard: threads past the logical range do not run *)
    k.body first (min block (nthreads - first))
  done;
  let flops = k.cost.flops_per_thread *. float_of_int nthreads in
  let dram = k.cost.dram_bytes_per_thread *. float_of_int nthreads in
  let t =
    Spec.kernel_time dev.Memory.spec ~threads:nthreads ~flops ~dram_bytes:dram
  in
  dev.Memory.kernel_time <- dev.Memory.kernel_time +. t;
  dev.Memory.kernel_launches <- dev.Memory.kernel_launches + 1;
  dev.Memory.flops <- dev.Memory.flops +. flops;
  dev.Memory.dram_bytes <- dev.Memory.dram_bytes +. dram;
  Prt.Metrics.incr m_launches;
  Prt.Metrics.add m_kernel_ns (int_of_float (t *. 1e9));
  t
