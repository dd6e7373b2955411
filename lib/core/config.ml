(* Solver configuration enumerations, mirroring the DSL's script options. *)

type solver_type =
  | FV (* finite volume — the method used throughout the paper *)
  | FE (* finite element — accepted, but code generation targets FV *)

type time_stepper =
  | Euler_explicit
  | RK2 (* explicit midpoint; an "extension" stepper beyond the paper *)
  | RK4
  | Euler_point_implicit
    (* source term linearized (via symbolic differentiation) and treated
       implicitly, advection explicit: removes the stiff relaxation-rate
       bound on dt (extension) *)

let stepper_stages = function
  | Euler_explicit | Euler_point_implicit -> 1
  | RK2 -> 2
  | RK4 -> 4

let stepper_name = function
  | Euler_explicit -> "EULER_EXPLICIT"
  | RK2 -> "RK2"
  | RK4 -> "RK4"
  | Euler_point_implicit -> "EULER_POINT_IMPLICIT"

type bc_kind =
  | Flux      (* prescribes the boundary flux (possibly via callback) *)
  | Dirichlet (* prescribes the ghost/boundary value *)

let bc_kind_name = function Flux -> "FLUX" | Dirichlet -> "DIRICHLET"

(* Parallel execution strategies explored in the paper (Section III-C/D),
   plus the shared-memory pool and MPI+threads hybrid extensions. *)
type strategy =
  | Serial
  | Cell_parallel of int  (* mesh partitioned into n pieces *)
  | Band_parallel of int  (* equation index space partitioned into n pieces *)
  | Threaded of int       (* shared-memory domain pool over cell ranges *)
  | Hybrid of int * int
    (* band-parallel ranks x pool domains per rank: each SPMD rank owns a
       band slice and sweeps its cells on a shared persistent domain pool
       (the paper's MPI+threads hybrid) *)

type target =
  | Cpu of strategy
  | Gpu of { spec : Gpu_sim.Spec.t; devices : int; ranks : int }
    (* [ranks] SPMD processes, each driving [devices] simulated devices:
       ranks partition the band axis (one CPU process per node as in the
       paper's multi-GPU experiments), devices partition the cell axis
       within a rank and exchange ghosts device-to-device over the
       simulated NVLink/host-staging path.  devices = ranks = 1 is the
       classic single-device target. *)
  | Auto
    (* placeholder resolved by the autotuner (lib/tune) before any
       problem is prepared: entry points replace it with the concrete
       plan's target.  Executors and lowering never see Auto. *)

(* Canonical backend spec strings.  [target_name] and [target_of_string]
   round-trip: parsing a printed name yields the same target, so the one
   spec grammar serves CLI flags, reports and benchmark labels alike. *)
let target_name = function
  | Auto -> "auto"
  | Cpu Serial -> "serial"
  | Cpu (Cell_parallel n) -> Printf.sprintf "cells:%d" n
  | Cpu (Band_parallel n) -> Printf.sprintf "bands:%d" n
  | Cpu (Threaded n) -> Printf.sprintf "threads:%d" n
  | Cpu (Hybrid (r, d)) -> Printf.sprintf "hybrid:%dx%d" r d
  | Gpu { spec; devices; ranks } ->
    let name = String.lowercase_ascii spec.Gpu_sim.Spec.name in
    if devices = 1 && ranks = 1 then Printf.sprintf "gpu:%s" name
    else if devices = 1 then Printf.sprintf "gpu:%s:%d" name ranks
    else Printf.sprintf "gpu:%s:%dx%d" name devices ranks

let target_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "bad backend spec %S (expected \
          auto|serial|threads:N|bands:N|cells:N|hybrid:RxD|gpu[:NAME[:RANKS|:GxR]])"
         s)
  in
  let pos_int x =
    match int_of_string_opt x with Some n when n >= 1 -> Some n | _ -> None
  in
  let spec_of name =
    try Some (Gpu_sim.Spec.by_name name) with Invalid_argument _ -> None
  in
  match String.split_on_char ':' (String.lowercase_ascii (String.trim s)) with
  | [ "auto" ] -> Ok Auto
  | [ "serial" ] -> Ok (Cpu Serial)
  | [ "threads"; n ] -> (
    match pos_int n with Some n -> Ok (Cpu (Threaded n)) | None -> fail ())
  | [ "bands"; n ] -> (
    match pos_int n with Some n -> Ok (Cpu (Band_parallel n)) | None -> fail ())
  | [ "cells"; n ] -> (
    match pos_int n with Some n -> Ok (Cpu (Cell_parallel n)) | None -> fail ())
  | [ "hybrid"; rd ] -> (
    match String.split_on_char 'x' rd with
    | [ r; d ] -> (
      match pos_int r, pos_int d with
      | Some r, Some d -> Ok (Cpu (Hybrid (r, d)))
      | _ -> fail ())
    | _ -> fail ())
  | [ "gpu" ] -> Ok (Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 1 })
  | [ "gpu"; name ] -> (
    match spec_of name with
    | Some spec -> Ok (Gpu { spec; devices = 1; ranks = 1 })
    | None -> fail ())
  | [ "gpu"; name; r ] -> (
    (* gpu:NAME:R — R band-parallel ranks, one device each;
       gpu:NAME:GxR — G devices per rank (cell axis) x R ranks (bands) *)
    match spec_of name with
    | None -> fail ()
    | Some spec -> (
      match String.split_on_char 'x' r with
      | [ r ] -> (
        match pos_int r with
        | Some ranks -> Ok (Gpu { spec; devices = 1; ranks })
        | None -> fail ())
      | [ g; r ] -> (
        match pos_int g, pos_int r with
        | Some devices, Some ranks -> Ok (Gpu { spec; devices; ranks })
        | _ -> fail ())
      | _ -> fail ()))
  | _ -> fail ()

(* How the equation's right-hand sides are executed: by the lane
   interpreter (see Eval), or as generated OCaml compiled to a shared
   object and dynlinked (see lib/codegen; falls back to the interpreter
   with a warning when emission or the toolchain is unavailable).  [Tape]
   names the removed register-tape evaluator: no parser produces it and
   every entry point rejects it. *)
type eval_mode = Closure | Tape | Native

let eval_mode_name = function
  | Closure -> "closure"
  | Tape -> "tape"
  | Native -> "native"

let tape_removed = "the tape evaluator was removed (closure|native)"

let eval_mode_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "closure" -> Ok Closure
  | "native" -> Ok Native
  | "tape" -> Error (Printf.sprintf "eval mode %S: %s" s tape_removed)
  | _ -> Error (Printf.sprintf "bad eval mode %S (closure|native)" s)

(* Optimization level of the IR middle end (see Opt in lib/opt) and of
   the matching executor schedules:
   O0 — naive lowering: one pool region / kernel launch per IR loop (one
        launch per band on the device);
   O2 — CPU loop and step-pair fusion, dead-assign elimination, transfer
        coalescing, band-batched kernel launches and loop-invariant H2d
        hoisting on the device path. *)
type opt_level = O0 | O2

let opt_level_name = function O0 -> "0" | O2 -> "2"

let opt_level_of_string s =
  match String.trim s with
  | "0" | "O0" | "o0" -> Ok O0
  | "2" | "O2" | "o2" -> Ok O2
  | s -> Error (Printf.sprintf "bad optimization level %S (expected 0|2)" s)
