(* GPU simulator tests: device specs, roofline model, memory transfers,
   kernel execution semantics, streams and the profiler. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk_host n v =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill a v;
  a

let test_specs () =
  let a = Gpu_sim.Spec.a6000 and b = Gpu_sim.Spec.a100 in
  check_bool "A100 more DP flops" true
    (b.Gpu_sim.Spec.fp64_peak_flops > a.Gpu_sim.Spec.fp64_peak_flops);
  check_bool "A100 more bandwidth" true
    (b.Gpu_sim.Spec.mem_bandwidth > a.Gpu_sim.Spec.mem_bandwidth);
  Alcotest.(check string) "by_name" "A6000" (Gpu_sim.Spec.by_name "a6000").Gpu_sim.Spec.name;
  match Gpu_sim.Spec.by_name "H100" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown device should raise"

let test_transfer_time () =
  let s = Gpu_sim.Spec.a6000 in
  Tutil.check_close "zero bytes free" 0. (Gpu_sim.Spec.transfer_time s ~bytes:0);
  let t1 = Gpu_sim.Spec.transfer_time s ~bytes:(16 * 1024 * 1024) in
  let t2 = Gpu_sim.Spec.transfer_time s ~bytes:(32 * 1024 * 1024) in
  check_bool "monotone in bytes" true (t2 > t1);
  check_bool "latency floor" true
    (Gpu_sim.Spec.transfer_time s ~bytes:8 >= s.Gpu_sim.Spec.pcie_latency)

let test_kernel_time_roofline () =
  let s = Gpu_sim.Spec.a6000 in
  let full = s.Gpu_sim.Spec.sm_count * s.Gpu_sim.Spec.max_threads_per_sm in
  (* compute bound: high arithmetic intensity *)
  let t_c = Gpu_sim.Spec.kernel_time s ~threads:full ~flops:1e9 ~dram_bytes:1e3 in
  Tutil.check_close ~eps:1e-6
    "compute bound time"
    (s.Gpu_sim.Spec.kernel_launch_overhead
     +. (1e9 /. (s.Gpu_sim.Spec.fp64_peak_flops *. s.Gpu_sim.Spec.fp64_issue_efficiency)))
    t_c;
  (* memory bound: low intensity *)
  let t_m = Gpu_sim.Spec.kernel_time s ~threads:full ~flops:1e3 ~dram_bytes:1e9 in
  Tutil.check_close ~eps:1e-6 "memory bound time"
    (s.Gpu_sim.Spec.kernel_launch_overhead
     +. (1e9 /. (s.Gpu_sim.Spec.mem_bandwidth *. s.Gpu_sim.Spec.mem_efficiency)))
    t_m;
  (* small grids run slower than saturated ones *)
  let t_small = Gpu_sim.Spec.kernel_time s ~threads:256 ~flops:1e9 ~dram_bytes:1e3 in
  check_bool "occupancy penalty" true (t_small > t_c)

let test_memory_transfers_copy () =
  let dev = Gpu_sim.Memory.create_device Gpu_sim.Spec.a6000 in
  let buf = Gpu_sim.Memory.alloc dev ~label:"x" ~size:100 in
  let host = mk_host 100 3.5 in
  let _ = Gpu_sim.Memory.h2d dev buf host in
  Tutil.check_close "device holds data" 3.5
    (Bigarray.Array1.get buf.Gpu_sim.Memory.device_data 42);
  (* mutate device, read back *)
  Bigarray.Array1.set buf.Gpu_sim.Memory.device_data 42 9.;
  let back = mk_host 100 0. in
  let _ = Gpu_sim.Memory.d2h dev buf back in
  Tutil.check_close "host readback" 9. (Bigarray.Array1.get back 42);
  check_int "h2d bytes" 800 dev.Gpu_sim.Memory.bytes_h2d;
  check_int "d2h bytes" 800 dev.Gpu_sim.Memory.bytes_d2h;
  check_int "buffer h2d count" 1 buf.Gpu_sim.Memory.h2d_count

let test_memory_divergence_is_real () =
  (* host and device memories are genuinely distinct: forgetting a transfer
     leaves the device stale *)
  let dev = Gpu_sim.Memory.create_device Gpu_sim.Spec.a6000 in
  let buf = Gpu_sim.Memory.alloc dev ~label:"x" ~size:4 in
  let host = mk_host 4 1. in
  let _ = Gpu_sim.Memory.h2d dev buf host in
  Bigarray.Array1.set host 0 99.;
  Tutil.check_close "device unaffected by host write" 1.
    (Bigarray.Array1.get buf.Gpu_sim.Memory.device_data 0)

let test_transfer_size_mismatch () =
  let dev = Gpu_sim.Memory.create_device Gpu_sim.Spec.a6000 in
  let buf = Gpu_sim.Memory.alloc dev ~label:"x" ~size:4 in
  match Gpu_sim.Memory.h2d dev buf (mk_host 5 0.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "size mismatch should raise"

let test_kernel_executes_and_guards () =
  let dev = Gpu_sim.Memory.create_device Gpu_sim.Spec.a6000 in
  let buf = Gpu_sim.Memory.alloc dev ~label:"x" ~size:1000 in
  let blocks = ref [] in
  let k =
    Gpu_sim.Kernel.make ~name:"fill"
      ~cost:{ Gpu_sim.Kernel.flops_per_thread = 1.; dram_bytes_per_thread = 8. }
      (fun first n ->
        blocks := (first, n) :: !blocks;
        for tid = first to first + n - 1 do
          Bigarray.Array1.set buf.Gpu_sim.Memory.device_data tid (float_of_int tid)
        done)
  in
  (* 1000 threads in 256-blocks: 4 blocks, the guard keeps 1000 *)
  let t = Gpu_sim.Kernel.launch dev k ~nthreads:1000 ~block:256 () in
  Alcotest.(check (list (pair int int))) "one body call per block, last one guarded"
    [ 0, 256; 256, 256; 512, 256; 768, 232 ] (List.rev !blocks);
  check_bool "positive time" true (t > 0.);
  Tutil.check_close "last element" 999.
    (Bigarray.Array1.get buf.Gpu_sim.Memory.device_data 999);
  check_int "one launch" 1 dev.Gpu_sim.Memory.kernel_launches;
  Tutil.check_close "flops accounted" 1000. dev.Gpu_sim.Memory.flops

let test_stream_overlap () =
  let dev = Gpu_sim.Memory.create_device Gpu_sim.Spec.a6000 in
  let clock = Gpu_sim.Stream.create_clock () in
  let st = Gpu_sim.Stream.create dev in
  let buf = Gpu_sim.Memory.alloc dev ~label:"x" ~size:2_000_000 in
  let k =
    Gpu_sim.Kernel.make ~name:"busy"
      ~cost:{ Gpu_sim.Kernel.flops_per_thread = 1e4; dram_bytes_per_thread = 8. }
      (fun _ _ -> ())
  in
  Gpu_sim.Stream.kernel st clock k ~nthreads:(Bigarray.Array1.dim buf.Gpu_sim.Memory.device_data) ();
  check_bool "stream pending after async launch" true (Gpu_sim.Stream.pending st clock);
  (* overlapped CPU work advances the host clock *)
  Gpu_sim.Stream.host_work clock ~dur:1e-4 (fun () -> ());
  Gpu_sim.Stream.synchronize st clock;
  check_bool "not pending after sync" false (Gpu_sim.Stream.pending st clock);
  (* total elapsed is max(CPU, GPU path), not the sum *)
  let kernel_only = dev.Gpu_sim.Memory.kernel_time in
  check_bool "overlap" true
    (clock.Gpu_sim.Stream.now < kernel_only +. 1e-4 +. 1e-5
     || clock.Gpu_sim.Stream.now >= Float.max kernel_only 1e-4)

let test_stream_join () =
  (* join couples the stream timelines without blocking the host *)
  let dev = Gpu_sim.Memory.create_device Gpu_sim.Spec.a6000 in
  let clock = Gpu_sim.Stream.create_clock () in
  let compute = Gpu_sim.Stream.create dev in
  let copy = Gpu_sim.Stream.create dev in
  let buf = Gpu_sim.Memory.alloc dev ~label:"x" ~size:4_000_000 in
  let host = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 4_000_000 in
  Bigarray.Array1.fill host 1.;
  Gpu_sim.Stream.h2d copy clock buf host;
  let before = clock.Gpu_sim.Stream.now in
  Gpu_sim.Stream.join compute copy;
  check_bool "join does not advance host clock" true
    (clock.Gpu_sim.Stream.now = before);
  check_bool "compute inherits copy tail" true
    (compute.Gpu_sim.Stream.tail >= copy.Gpu_sim.Stream.tail);
  let k =
    Gpu_sim.Kernel.make ~name:"after_copy"
      ~cost:{ Gpu_sim.Kernel.flops_per_thread = 10.; dram_bytes_per_thread = 8. }
      (fun _ _ -> ())
  in
  Gpu_sim.Stream.kernel compute clock k ~nthreads:1000 ();
  (* the kernel's slot starts no earlier than the upload's completion *)
  check_bool "kernel ordered after upload" true
    (compute.Gpu_sim.Stream.tail > copy.Gpu_sim.Stream.tail)

let test_perf_report () =
  let dev = Gpu_sim.Memory.create_device Gpu_sim.Spec.a6000 in
  let k =
    Gpu_sim.Kernel.make ~name:"k"
      ~cost:{ Gpu_sim.Kernel.flops_per_thread = 124.; dram_bytes_per_thread = 18. }
      (fun _ _ -> ())
  in
  let n = 16_000_000 in
  let _ = Gpu_sim.Kernel.launch dev k ~nthreads:n () in
  let r = Gpu_sim.Perf.report dev ~avg_threads:n in
  (* the paper's profiling table: SM 86%, memory 11%, FLOP 49% of peak *)
  check_bool "SM util ~0.86" true (Float.abs (r.Gpu_sim.Perf.sm_utilization -. 0.86) < 0.02);
  check_bool "flop frac ~0.49" true
    (Float.abs (r.Gpu_sim.Perf.flop_frac_of_peak -. 0.49) < 0.03);
  check_bool "mem frac ~0.11" true
    (Float.abs (r.Gpu_sim.Perf.mem_throughput_frac -. 0.11) < 0.03);
  check_bool "report prints" true
    (String.length (Gpu_sim.Perf.to_string r) > 40)

let test_topology_paths () =
  let dpn = Gpu_sim.Topology.devices_per_node in
  check_int "8 devices per node" 8 dpn;
  check_int "node of 0" 0 (Gpu_sim.Topology.node_of 0);
  check_int "node of dpn" 1 (Gpu_sim.Topology.node_of dpn);
  let name s d =
    Gpu_sim.Topology.path_name (Gpu_sim.Topology.path ~src:s ~dst:d)
  in
  Alcotest.(check string) "same node" "nvlink" (name 0 (dpn - 1));
  Alcotest.(check string) "crossing the node boundary" "host" (name (dpn - 1) dpn);
  Alcotest.(check string) "next node internal" "nvlink" (name dpn (2 * dpn - 1));
  Alcotest.(check string) "self" "nvlink" (name 3 3)

let test_topology_d2d_time () =
  let s = Gpu_sim.Spec.a6000 in
  Tutil.check_close "zero bytes free (nvlink)" 0.
    (Gpu_sim.Topology.d2d_time s Gpu_sim.Topology.Nvlink ~bytes:0);
  Tutil.check_close "zero bytes free (staged)" 0.
    (Gpu_sim.Topology.d2d_time s Gpu_sim.Topology.Host_staged ~bytes:0);
  let b = 16 * 1024 * 1024 in
  let nv = Gpu_sim.Topology.d2d_time s Gpu_sim.Topology.Nvlink ~bytes:b in
  Tutil.check_close ~eps:1e-12 "nvlink = latency + bytes/bw"
    (s.Gpu_sim.Spec.nvlink_latency
     +. (float_of_int b /. s.Gpu_sim.Spec.nvlink_bandwidth))
    nv;
  let staged = Gpu_sim.Topology.d2d_time s Gpu_sim.Topology.Host_staged ~bytes:b in
  Tutil.check_close ~eps:1e-12 "staged = 2x pcie"
    (2. *. Gpu_sim.Spec.transfer_time s ~bytes:b)
    staged;
  check_bool "staging through the host costs more" true (staged > nv)

let test_memory_d2d_copies_runs () =
  (* the ghost push of the multi-device grid: element runs move between
     peer buffers, everything outside the runs stays put *)
  let src = Gpu_sim.Memory.create_device ~id:0 Gpu_sim.Spec.a6000 in
  let dst = Gpu_sim.Memory.create_device ~id:1 Gpu_sim.Spec.a6000 in
  let sb = Gpu_sim.Memory.alloc src ~label:"u" ~size:100 in
  let db = Gpu_sim.Memory.alloc dst ~label:"u" ~size:100 in
  let _ = Gpu_sim.Memory.h2d src sb (mk_host 100 7.) in
  let _ = Gpu_sim.Memory.h2d dst db (mk_host 100 0.) in
  let t =
    Gpu_sim.Memory.d2d ~src ~src_buf:sb ~dst ~dst_buf:db
      ~runs:[ (10, 5); (50, 2) ]
  in
  check_bool "positive modelled time" true (t > 0.);
  Tutil.check_close "first run copied" 7.
    (Bigarray.Array1.get db.Gpu_sim.Memory.device_data 14);
  Tutil.check_close "second run copied" 7.
    (Bigarray.Array1.get db.Gpu_sim.Memory.device_data 51);
  Tutil.check_close "outside runs untouched" 0.
    (Bigarray.Array1.get db.Gpu_sim.Memory.device_data 15);
  (* a peer copy occupies both ends *)
  check_int "src d2d bytes" 56 src.Gpu_sim.Memory.bytes_d2d;
  check_int "dst d2d bytes" 56 dst.Gpu_sim.Memory.bytes_d2d

let prop_kernel_time_monotone =
  QCheck.Test.make ~name:"kernel time monotone in flops and bytes" ~count:100
    QCheck.(pair (float_range 1e3 1e12) (float_range 1e3 1e12))
    (fun (flops, bytes) ->
      let s = Gpu_sim.Spec.a6000 in
      let t = Gpu_sim.Spec.kernel_time s ~threads:100000 ~flops ~dram_bytes:bytes in
      let t2 =
        Gpu_sim.Spec.kernel_time s ~threads:100000 ~flops:(2. *. flops)
          ~dram_bytes:(2. *. bytes)
      in
      t2 >= t && t > 0.)


(* ---------- lockstep blocks on the BTE ---------- *)

(* 35 cells x 20 components (4 directions x 5 bands): 700 threads, so
   every 256-thread block but the first starts or ends mid-cell (also
   the shape of test_codegen's lanes-against-native test) *)
let split_sc =
  { Bte.Setup.small_hotspot with
    Bte.Setup.nx = 7; ny = 5; lx = 2e-6; ly = 1.4e-6; ndirs = 4;
    n_la_bands = 4; nsteps = 3 }

let solve_bte ?(opt = Finch.Config.O2) ?(overlap = false) eval target =
  let built = Bte.Setup.build split_sc in
  let p = built.Bte.Setup.problem in
  Finch.Problem.set_target p target;
  Finch.Problem.set_eval_mode p eval;
  Finch.Problem.set_opt_level p opt;
  Finch.Problem.set_overlap p overlap;
  Finch.Solve.solve p

let check_exact label o1 o2 =
  List.iter
    (fun name ->
      let d =
        Fvm.Field.max_abs_diff (Finch.Solve.field o1 name) (Finch.Solve.field o2 name)
      in
      if d > 0. then Alcotest.failf "%s: %s differs by %g" label name d)
    [ "I"; "T"; "Io"; "beta" ]

let gpu ?(devices = 1) ranks =
  Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices; ranks }

(* The host seconds spent running thread bodies get their own counter
   and a wall span on the rank's track, recorded only while metrics or
   tracing are on; modelled kernel time and the fields do not move. *)
let test_host_exec_time () =
  let was_metrics = Prt.Metrics.enabled () in
  let untraced = solve_bte Finch.Config.Closure (gpu 1) in
  let host_ns = Prt.Metrics.counter "gpu.host_exec_ns" in
  let kernel_ns = Prt.Metrics.counter "gpu.kernel_ns" in
  Prt.Metrics.enable ();
  Prt.Trace.clear ();
  Prt.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Prt.Trace.disable ();
      Prt.Trace.clear ();
      if not was_metrics then Prt.Metrics.disable ())
    (fun () ->
      let h0 = Prt.Metrics.value host_ns and k0 = Prt.Metrics.value kernel_ns in
      let traced = solve_bte Finch.Config.Closure (gpu 1) in
      let h = Prt.Metrics.value host_ns - h0 and k = Prt.Metrics.value kernel_ns - k0 in
      check_bool "gpu.host_exec_ns above zero" true (h > 0);
      check_bool "modelled kernel time recorded apart" true (k > 0);
      let spans =
        List.filter
          (fun ev -> ev.Prt.Trace.ev_cat = "gpu-host")
          (Prt.Trace.events ())
      in
      check_int "one wall span per launch" 3 (List.length spans);
      check_bool "no phase row carries it" true
        (List.for_all (fun ev -> ev.Prt.Trace.ev_cat <> "phase") spans);
      check_exact "traced vs untraced" untraced traced)

let suite =
  ( "gpu-sim",
    [
      Alcotest.test_case "device specs" `Quick test_specs;
      Alcotest.test_case "transfer time" `Quick test_transfer_time;
      Alcotest.test_case "roofline kernel time" `Quick test_kernel_time_roofline;
      Alcotest.test_case "transfers copy data" `Quick test_memory_transfers_copy;
      Alcotest.test_case "memories are distinct" `Quick test_memory_divergence_is_real;
      Alcotest.test_case "size mismatch" `Quick test_transfer_size_mismatch;
      Alcotest.test_case "kernel executes with guard" `Quick test_kernel_executes_and_guards;
      Alcotest.test_case "stream overlap" `Quick test_stream_overlap;
      Alcotest.test_case "stream join ordering" `Quick test_stream_join;
      Alcotest.test_case "profiler matches paper table" `Quick test_perf_report;
      Alcotest.test_case "interconnect topology" `Quick test_topology_paths;
      Alcotest.test_case "d2d path costs" `Quick test_topology_d2d_time;
      Alcotest.test_case "d2d copies element runs" `Quick test_memory_d2d_copies_runs;
      Alcotest.test_case "host execution time counted apart" `Quick test_host_exec_time;
      QCheck_alcotest.to_alcotest prop_kernel_time_monotone;
    ] )
