(* IR construction and source-emission tests beyond the pipeline suite:
   structural properties of the generated program graphs for each target
   and strategy. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let problem ~strategy =
  let p = Finch.Problem.init "ir" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p (Fvm.Mesh_gen.rectangle ~nx:4 ~ny:4 ~lx:1. ~ly:1. ());
  Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:3;
  Finch.Problem.set_target p (Finch.Config.Cpu strategy);
  let d = Finch.Problem.index p ~name:"d" ~range:(1, 4) in
  let u = Finch.Problem.variable p ~name:"u" ~indices:[ d ] () in
  let _ = Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 1.) in
  let _ =
    Finch.Problem.coefficient p ~name:"cx" ~index:d
      (Finch.Entity.Arr [| 1.; -1.; 0.; 0. |])
  in
  let _ =
    Finch.Problem.coefficient p ~name:"cy" ~index:d
      (Finch.Entity.Arr [| 0.; 0.; 1.; -1. |])
  in
  Finch.Problem.initial p u (Finch.Problem.Init_const 1.);
  Finch.Problem.post_step_function p (fun _ -> ());
  let _ =
    Finch.Problem.conservation_form p u
      "-k*u[d] - surface(upwind([cx[d];cy[d]], u[d]))"
  in
  p

let count pred tree =
  Finch.Ir.fold (fun acc n -> if pred n then acc + 1 else acc) 0 tree

let test_band_strategy_nodes () =
  let ir = Finch.Ir.build_cpu (problem ~strategy:(Finch.Config.Band_parallel 2)) in
  check_int "one allreduce" 1
    (count (function Finch.Ir.Allreduce _ -> true | _ -> false) ir);
  check_int "no halo exchange" 0
    (count (function Finch.Ir.Halo_exchange _ -> true | _ -> false) ir)

let test_cell_strategy_nodes () =
  let ir = Finch.Ir.build_cpu (problem ~strategy:(Finch.Config.Cell_parallel 4)) in
  check_int "one halo exchange" 1
    (count (function Finch.Ir.Halo_exchange _ -> true | _ -> false) ir);
  check_int "no allreduce" 0
    (count (function Finch.Ir.Allreduce _ -> true | _ -> false) ir)

let test_serial_strategy_nodes () =
  let ir = Finch.Ir.build_cpu (problem ~strategy:Finch.Config.Serial) in
  check_int "no communication nodes" 0
    (count
       (function
         | Finch.Ir.Allreduce _ | Finch.Ir.Halo_exchange _ -> true | _ -> false)
       ir);
  (* a post-step callback node is present since one is registered *)
  check_int "post-step callback" 1
    (count (function Finch.Ir.Callback _ -> true | _ -> false) ir)

let test_gpu_program_order () =
  let p = problem ~strategy:Finch.Config.Serial in
  Finch.Problem.use_cuda p;
  let transfers = [ "u", true; "k", false ] in
  let ir = Finch.Ir.build_gpu p ~transfers in
  check_int "one kernel" 1
    (count (function Finch.Ir.Kernel _ -> true | _ -> false) ir);
  check_int "one sync" 1
    (count (function Finch.Ir.Stream_sync -> true | _ -> false) ir);
  (* the CUDA emission orders operations per Fig. 6: launch, boundary,
     sync, download, combine, post-step, upload *)
  let src = Finch.Emit_source.to_cuda ir in
  let pos marker =
    match String.index_opt src marker.[0] with
    | _ ->
      let rec find i =
        if i + String.length marker > String.length src then -1
        else if String.sub src i (String.length marker) = marker then i
        else find (i + 1)
      in
      find 0
  in
  let launch = pos "<<<" in
  let boundary = pos "compute_boundary_contribution" in
  let sync = pos "cudaStreamSynchronize" in
  let post = pos "post_step_function" in
  check_bool "launch before boundary" true (launch >= 0 && launch < boundary);
  check_bool "boundary before sync" true (boundary < sync);
  check_bool "sync before post-step" true (sync < post)

let test_loop_order_in_ir () =
  let p = problem ~strategy:Finch.Config.Serial in
  Finch.Problem.assembly_loops p [ "d"; "elements" ];
  let ir = Finch.Ir.build_cpu p in
  (* the outermost dof loop is over the index d *)
  let found = ref false in
  ignore
    (Finch.Ir.fold
       (fun seen n ->
         (match n with
          | Finch.Ir.Loop { range = Finch.Ir.Index "d"; body; _ } when not seen ->
            (* it must contain the cell loop *)
            List.iter
              (fun child ->
                match child with
                | Finch.Ir.Loop { range = Finch.Ir.Cells; _ } -> found := true
                | _ -> ())
              body
          | _ -> ());
         seen)
       false ir);
  check_bool "index loop wraps cell loop" true !found

let test_flops_annotation () =
  let p = problem ~strategy:Finch.Config.Serial in
  let ir = Finch.Ir.build_cpu p in
  let flops =
    Finch.Ir.fold
      (fun acc n ->
        match n with
        | Finch.Ir.Flux_update { note; _ } -> acc +. note.Finch.Ir.m_flops
        | _ -> acc)
      0. ir
  in
  check_bool "cost annotation present" true (flops > 5.)

(* Exhaustive access-footprint audit: one assertion per IR constructor,
   checking Ir.reads/Ir.writes against the documented conventions
   (communication and copy nodes touch their whole var list; callbacks
   are opaque; structural nodes are transparent). *)
let test_reads_writes_per_constructor () =
  let open Finch.Ir in
  let module E = Finch_symbolic.Expr in
  let check_sl = Alcotest.(check (list string)) in
  let rw what n er ew =
    check_sl (what ^ " reads") er (reads n);
    check_sl (what ^ " writes") ew (writes n)
  in
  let m = meta () in
  rw "comment" (Comment "c") [] [];
  rw "assign"
    (Assign
       { dest = "a"; dest_new = false;
         expr = E.add [ E.ref_ "b" []; E.ref_ "c" [] ];
         reduce = `Set; note = m })
    [ "b"; "c" ] [ "a" ];
  rw "flux_update"
    (Flux_update
       { var = "u"; rvol = E.ref_ "k" [];
         rsurf = E.ref_ ~side:E.Cell2 "u" []; note = m })
    [ "k"; "u" ] [ "u" ];
  rw "boundary_cpu" (Boundary_cpu { var = "u"; note = m }) [ "u" ] [ "u" ];
  rw "callback (opaque)" (Callback { note = m }) [] [];
  rw "swap_buffers" (Swap_buffers "u") [ "u" ] [ "u" ];
  rw "halo_exchange"
    (Halo_exchange { vars = [ "u"; "v" ]; note = m })
    [ "u"; "v" ] [ "u"; "v" ];
  rw "allreduce"
    (Allreduce { what = "sum"; vars = [ "t" ]; note = m })
    [ "t" ] [ "t" ];
  rw "allreduce (multi-var)"
    (Allreduce { what = "sum"; vars = [ "t"; "q" ]; note = m })
    [ "q"; "t" ] [ "q"; "t" ];
  rw "d2d" (D2d { vars = [ "u"; "v" ]; note = m }) [ "u"; "v" ] [ "u"; "v" ];
  rw "h2d" (H2d { vars = [ "u"; "k" ]; every_step = false })
    [ "k"; "u" ] [ "k"; "u" ];
  rw "d2h" (D2h { vars = [ "u" ]; every_step = true }) [ "u" ] [ "u" ];
  rw "stream_sync" Stream_sync [] [];
  rw "advance_time" Advance_time [] [];
  let inner =
    Assign
      { dest = "a"; dest_new = false; expr = E.ref_ "b" []; reduce = `Set;
        note = m }
  in
  rw "seq (union)" (Seq [ inner; Swap_buffers "u" ]) [ "b"; "u" ] [ "a"; "u" ];
  rw "loop (transparent)"
    (Loop { range = Cells; body = [ inner ]; parallel = true })
    [ "b" ] [ "a" ];
  rw "kernel (transparent)"
    (Kernel { kname = "k0"; body = [ inner ]; note = m })
    [ "b" ] [ "a" ]

let suite =
  ( "ir",
    [
      Alcotest.test_case "band strategy nodes" `Quick test_band_strategy_nodes;
      Alcotest.test_case "cell strategy nodes" `Quick test_cell_strategy_nodes;
      Alcotest.test_case "serial strategy nodes" `Quick test_serial_strategy_nodes;
      Alcotest.test_case "gpu program order (Fig. 6)" `Quick test_gpu_program_order;
      Alcotest.test_case "assembly loop order in IR" `Quick test_loop_order_in_ir;
      Alcotest.test_case "flop annotations" `Quick test_flops_annotation;
      Alcotest.test_case "reads/writes per constructor" `Quick
        test_reads_writes_per_constructor;
    ] )
