(* Script-level problem description: the OCaml counterpart of the paper's
   Julia input script (initFinch, domain, solverType, timeStepper, mesh,
   index/variable/coefficient, boundary, postStepFunction,
   conservationForm, assemblyLoops, useCUDA, solve).

   A [Problem.t] is a mutable builder; code generation happens in
   [Solve.solve] once everything is declared. *)

open Finch_symbolic

exception Problem_error of string

(* What a boundary-condition callback is staged with (the paper's
   user-supplied functions that run on the CPU): one boundary face, seen
   from the state that evaluates it.  The callback runs once per face and
   returns the per-component function the sweeps then call. *)
type bc_ctx = {
  bc_mesh : Fvm.Mesh.t;
  bc_field : string -> Fvm.Field.t; (* storage of the staging state *)
  bc_coef : string -> Entity.coefficient;
  bc_face : int;
  bc_cell : int;               (* interior cell adjacent to the face *)
  bc_normal : float array;     (* outward unit normal *)
  bc_args : float array;       (* numeric literals from the bc string *)
}

(* the staged contract: a face's context in, its flux (or Dirichlet
   ghost value) per flat component of the variable out *)
type bc_callback = bc_ctx -> int -> float

(* Context handed to post-step callbacks (e.g. the BTE temperature
   update).  [comp_range] exposes the index subrange owned by this rank in
   equation-partitioned (band-parallel) runs; [allreduce] sums an array
   elementwise across ranks (identity for serial runs). *)
type step_ctx = {
  st_mesh : Fvm.Mesh.t;
  st_field : string -> Fvm.Field.t;
  st_coef : string -> Entity.coefficient;
  st_time : float;
  st_dt : float;
  st_step : int;
  st_rank : int;
  st_nranks : int;
  st_index_range : string -> int * int; (* owned (offset, length), 0-based *)
  st_allreduce : float array -> unit;
  st_cells : int array option; (* owned cells in mesh-partitioned runs *)
}

type step_callback = step_ctx -> unit

(* What a post-step callback reads and writes.  The callback is opaque
   code, so the declaration is the only thing the data-movement planner,
   the analysis and the fused CPU schedule can see of it. *)
type callback_io = { cb_reads : string list; cb_writes : string list }

(* A registered post-step callback with its declaration, if it has one. *)
type post_callback = { pc_fn : step_callback; pc_io : callback_io option }

type bc_spec =
  | Bc_expr of Expr.t
  | Bc_callback of { name : string; args : float array }

type bc = {
  bc_var : string;
  bc_region : int;
  bc_kind : Config.bc_kind;
  bc_spec : bc_spec;
}

type initial_spec =
  | Init_const of float
  | Init_fn of (float array -> int -> float) (* position, component *)

type t = {
  name : string;
  mutable dim : int;
  mutable solver : Config.solver_type;
  mutable stepper : Config.time_stepper;
  mutable dt : float;
  mutable nsteps : int;
  mutable mesh : Fvm.Mesh.t option;
  mutable target : Config.target;
  mutable indices : Entity.index list;
  mutable variables : Entity.variable list;
  mutable coefficients : Entity.coefficient list;
  mutable callbacks : (string * bc_callback) list;
  mutable bcs : bc list;
  mutable initials : (string * initial_spec) list;
  mutable post_step : post_callback list;
  mutable equations : Transform.equation list;
  mutable loop_order : string list option; (* e.g. ["b"; "elements"; "d"] *)
  mutable eval_mode : Config.eval_mode;
    (* how lowered right-hand sides execute; the lane interpreter
       (Closure) unless overridden *)
  mutable overlap : bool;
    (* overlap communication with computation where the target has
       point-to-point messages or transfers (cell-parallel halo
       exchange, GPU H2D/D2H); bit-identical to the synchronous path *)
  mutable opt_level : Config.opt_level;
    (* middle-end optimization level; executors mirror the IR rewrites
       (fused pool regions, batched kernel launches) when legal, and
       every level is bit-identical to O0 *)
}

let init name =
  {
    name;
    dim = 2;
    solver = Config.FV;
    stepper = Config.Euler_explicit;
    dt = 1e-3;
    nsteps = 1;
    mesh = None;
    target = Config.Cpu Config.Serial;
    indices = [];
    variables = [];
    coefficients = [];
    callbacks = [];
    bcs = [];
    initials = [];
    post_step = [];
    equations = [];
    loop_order = None;
    eval_mode = Config.Closure;
    overlap = false;
    opt_level = Config.O2;
  }

(* --- configuration commands, mirroring the paper's script API ---------- *)

let domain p d =
  if d < 1 || d > 3 then raise (Problem_error "domain must be 1, 2 or 3");
  p.dim <- d

let solver_type p s = p.solver <- s
let time_stepper p s = p.stepper <- s

let set_steps p ~dt ~nsteps =
  if dt <= 0. || nsteps < 1 then raise (Problem_error "set_steps: bad arguments");
  p.dt <- dt;
  p.nsteps <- nsteps

let use_cuda ?(spec = Gpu_sim.Spec.a6000) ?(devices = 1) ?(ranks = 1) p =
  p.target <- Config.Gpu { spec; devices; ranks }

let set_target p t = p.target <- t
let set_eval_mode p = function
  | Config.Tape -> raise (Problem_error Config.tape_removed)
  | m -> p.eval_mode <- m
let set_overlap p v = p.overlap <- v
let set_opt_level p l = p.opt_level <- l

let set_mesh p m =
  if m.Fvm.Mesh.dim <> p.dim then
    raise (Problem_error "mesh dimension does not match domain");
  p.mesh <- Some m

let mesh_file p path = set_mesh p (Fvm.Gmsh.read_file path)

(* --- entities ---------------------------------------------------------- *)

let find_index p name = List.find_opt (fun i -> i.Entity.iname = name) p.indices

let index p ~name ~range =
  if find_index p name <> None then
    raise (Problem_error ("duplicate index " ^ name));
  let i = Entity.index ~name ~range in
  p.indices <- p.indices @ [ i ];
  i

let find_variable p name =
  List.find_opt (fun v -> v.Entity.vname = name) p.variables

let variable p ~name ?(location = Entity.Cell) ?(indices = []) () =
  if find_variable p name <> None then
    raise (Problem_error ("duplicate variable " ^ name));
  let v = Entity.variable ~name ~location ~indices () in
  p.variables <- p.variables @ [ v ];
  v

let find_coefficient p name =
  List.find_opt (fun c -> c.Entity.cname = name) p.coefficients

let coefficient p ~name ?index value =
  if find_coefficient p name <> None then
    raise (Problem_error ("duplicate coefficient " ^ name));
  let c = Entity.coefficient ~name ?index value in
  p.coefficients <- p.coefficients @ [ c ];
  c

(* --- callbacks and conditions ------------------------------------------ *)

let callback_function p name f = p.callbacks <- (name, f) :: p.callbacks

let find_callback p name = List.assoc_opt name p.callbacks

(* Parse a boundary spec string.  A call form [name(arg, ...)] whose name
   is a registered callback becomes [Bc_callback] with the numeric literal
   arguments collected (entity arguments are available to the callback via
   its context, as in the paper where "the relevant values for parameters
   ... will be interpreted automatically by Finch").  Anything else is a
   symbolic expression evaluated per boundary face. *)
let boundary p var region kind spec_text =
  (match find_variable p var.Entity.vname with
   | Some _ -> ()
   | None -> raise (Problem_error ("boundary: unknown variable " ^ var.Entity.vname)));
  let parsed =
    try Parser.parse spec_text
    with Parser.Parse_error m ->
      raise (Problem_error ("boundary: parse error: " ^ m))
  in
  let var_names = List.map (fun v -> v.Entity.vname) p.variables in
  let spec =
    match parsed with
    | Expr.Call (name, args) when find_callback p name <> None ->
      let nums =
        List.filter_map (function Expr.Num x -> Some x | _ -> None) args
      in
      Bc_callback { name; args = Array.of_list nums }
    | e ->
      Bc_expr
        (Simplify.simplify (Operators.expand (Transform.resolve_vars var_names e)))
  in
  p.bcs <-
    p.bcs @ [ { bc_var = var.Entity.vname; bc_region = region; bc_kind = kind; bc_spec = spec } ]

let initial p var spec = p.initials <- (var.Entity.vname, spec) :: p.initials

let post_step_function ?io p f =
  p.post_step <- p.post_step @ [ { pc_fn = f; pc_io = io } ]

(* The callbacks' contract: the union of their declarations in
   registration order, or every variable as soon as one callback declares
   nothing.  No callbacks, no effects. *)
let post_io p =
  match List.map (fun c -> c.pc_io) p.post_step with
  | declared when List.mem None declared ->
    let all = List.map (fun v -> v.Entity.vname) p.variables in
    { cb_reads = all; cb_writes = all }
  | declared ->
    let union names =
      List.fold_left
        (fun acc n -> if List.mem n acc then acc else acc @ [ n ])
        [] (List.concat_map (fun io -> names (Option.get io)) declared)
    in
    { cb_reads = union (fun io -> io.cb_reads);
      cb_writes = union (fun io -> io.cb_writes) }

(* --- equations ---------------------------------------------------------- *)

let equation : Transform.equation Stage_cache.kind = Stage_cache.kind ()

(* what [Transform.conservation_form] reads: the text, the variable
   names, the unknown and its indices, and the operators it expands *)
let equation_key ~var_names (var : Entity.variable) text =
  String.concat "|"
    (text :: string_of_int (Operators.generation ()) :: var.Entity.vname
     :: List.map
          (fun (i : Entity.index) -> Printf.sprintf "%s:%d:%d" i.Entity.iname i.lo i.hi)
          var.Entity.vindices
     @ ("vars" :: var_names))

let conservation_form ?cache p var text =
  (match p.solver with
   | Config.FV -> ()
   | Config.FE ->
     raise (Problem_error "conservationForm requires the FV solver type"));
  let var_names = List.map (fun v -> v.Entity.vname) p.variables in
  let eq =
    Stage_cache.find cache equation
      (fun _ -> Some (equation_key ~var_names var text))
      (fun () -> Transform.conservation_form ~var_names var text)
  in
  (* validate that every referenced entity is declared *)
  List.iter
    (fun name ->
      let known =
        find_variable p name <> None
        || find_coefficient p name <> None
      in
      if not known then
        raise (Problem_error ("equation references unknown entity " ^ name)))
    (Expr.ref_names eq.Transform.parsed);
  (* and that every bare symbol is a coefficient or a recognized special *)
  let special s =
    List.mem s [ "dt"; "t"; "time"; "pi"; "x"; "y"; "z"; "VOLUME"; "FACEAREA";
                 "SURFACE"; "TIMEDERIVATIVE" ]
    || (String.length s > 7 && String.sub s 0 7 = "NORMAL_")
  in
  List.iter
    (fun s ->
      if (not (special s)) && find_coefficient p s = None then
        raise (Problem_error ("equation references unknown symbol " ^ s)))
    (Expr.sym_names eq.Transform.expanded);
  p.equations <- p.equations @ [ eq ];
  eq

let assembly_loops p order = p.loop_order <- Some order

(* --- misc accessors ----------------------------------------------------- *)

let mesh_exn p =
  match p.mesh with
  | Some m -> m
  | None -> raise (Problem_error "no mesh configured")

let the_equation p =
  match p.equations with
  | [ eq ] -> eq
  | [] -> raise (Problem_error "no equation declared")
  | _ -> raise (Problem_error "multiple equations not yet supported by targets")

let bcs_for p var = List.filter (fun b -> b.bc_var = var) p.bcs
