(* Lowering: from a declared problem to executable state.

   Creates field storage for every variable, compiles the equation's volume
   and flux expressions to closures, resolves boundary conditions to a
   per-face table, and packages the loop/rank configuration the executors
   need.  One [state] is built per rank; serial runs have a single rank
   owning everything. *)

module Expr = Finch_symbolic.Expr

exception Lower_error of string

(* A boundary face's condition.  Expressions compile once per region;
   a callback is staged once per face and state, into the state's
   [staged] table (see [stage_faces]). *)
type bc_resolved =
  | RFlux_expr of Eval.compiled
  | RFlux_callback of bc_call
  | RDirichlet_expr of Eval.compiled
  | RDirichlet_callback of bc_call

and bc_call = {
  call_name : string;              (* the callback's registered name *)
  call_fn : Problem.bc_callback;
  call_args : float array;         (* numeric literals from the bc string *)
}

type rankinfo = {
  rank : int;
  nranks : int;
  owned_cells : int array option; (* None = every cell (serial / band runs) *)
  index_ranges : (string * (int * int)) list;
    (* per index name: owned (offset, length), 0-based; full range if absent *)
}

let serial_rankinfo = { rank = 0; nranks = 1; owned_cells = None; index_ranges = [] }

(* Generated-code entry points for one state (lib/codegen).  When
   present, [sweep]/[sweep_cells]/[commit]/[dof_rhs_interior] dispatch to
   them instead of the closure interpreter; the generated bodies are
   bit-identical by construction, so every executor schedule composes
   unchanged. *)
type native_entry = {
  n_sweep : int array option -> unit;
  n_commit : int array option -> unit;
  n_dof_interior : int -> int -> float;
}

type state = {
  p : Problem.t;
  mesh : Fvm.Mesh.t;
  eq : Transform.equation;
  uvar : Entity.variable;
  u : Fvm.Field.t;
  u_new : Fvm.Field.t;
  fields : (string * Fvm.Field.t) list; (* all variables incl. the unknown *)
  env : Eval.env;
  bindings : Eval.bindings;
  faces : Eval.faces;        (* the solve's face tables, shared read-only *)
  rvol_f : Eval.compiled;
  rsurf_f : Eval.compiled;
  comp_index : (int ref * int) array;
    (* per index of the unknown, first fastest: its env cell and extent *)
  ucomp : unit -> int;       (* component of the unknown at current ivals *)
  face_bc : bc_resolved option array; (* indexed by face id; None on interior *)
  staged : (int -> float) array Lazy.t;
    (* indexed by face id: a callback face's staged per-component function *)
  time : float ref;
  dt : float ref;
  step : int ref;
  info : rankinfo;
  breakdown : Prt.Breakdown.t;
  (* loop plan: outer-to-inner entries *)
  loops : loop_entry list;
  (* -d(rvol)/du, compiled lazily (used by the point-implicit stepper) *)
  rvol_du_f : Eval.compiled Lazy.t;
  (* tape handles behind rvol_f/rsurf_f when eval_mode = Tape, for op
     statistics; empty in closure mode *)
  tapes : (string * Eval.tape) list;
  (* generated entry points, installed by the native-codegen hook when
     eval_mode = Native and emission/compilation succeeded *)
  mutable native : native_entry option;
}

and loop_entry =
  | Over_cells
  | Over_index of string * int (* extent (full); rank restriction applied at run time *)

(* Core cannot depend on lib/codegen (which depends on core), so native
   code generation reaches states through this hook: Finch_codegen
   installs a function that emits, compiles/loads and binds a state,
   returning its entry points (or None to fall back to the closures).
   Only consulted when the problem's eval_mode is Native. *)
let native_hook : (state -> native_entry option) ref = ref (fun _ -> None)
let native_hook_installed = ref false

let warned_no_hook = ref false

let attach_native st =
  match st.p.Problem.eval_mode with
  | Config.Native ->
    if !native_hook_installed then st.native <- !native_hook st
    else if not !warned_no_hook then begin
      warned_no_hook := true;
      prerr_endline
        "finch: warning: eval mode is native but no codegen backend is \
         installed; falling back to the closure interpreter"
    end
  | Config.Closure | Config.Tape -> ()

let field st name =
  match List.assoc_opt name st.fields with
  | Some f -> f
  | None -> raise (Lower_error ("no field for variable " ^ name))

let coef_exn (p : Problem.t) name =
  match Problem.find_coefficient p name with
  | Some c -> c
  | None -> raise (Lower_error ("unknown coefficient " ^ name))

(* Every callback face of [face_bc] staged against [fields] (the storage
   of the state that will evaluate it): the callback applied to the
   face's context, which yields the face's per-component function.
   Faces without a callback hold [not_staged].  [build] stages before the
   first step, [rebind] on the state's first boundary evaluation.  Only
   the domain sweeping a state may force its table: OCaml 5 raises on a
   concurrent [Lazy.force]. *)
let not_staged _ = invalid_arg "Lower: face has no boundary callback"

let stage_faces (p : Problem.t) mesh fields face_bc =
  let stage call f =
    let fail what =
      raise
        (Lower_error
           (Printf.sprintf "boundary callback %s: %s" call.call_name what))
    in
    call.call_fn
      { Problem.bc_mesh = mesh;
        bc_field =
          (fun n ->
            match List.assoc_opt n fields with
            | Some fl -> fl
            | None -> fail ("no field for variable " ^ n));
        bc_coef =
          (fun n ->
            match Problem.find_coefficient p n with
            | Some c -> c
            | None -> fail ("unknown coefficient " ^ n));
        bc_face = f;
        bc_cell = mesh.Fvm.Mesh.face_cell1.(f);
        bc_normal = Fvm.Mesh.face_normal mesh f;
        bc_args = call.call_args }
  in
  Array.mapi
    (fun f -> function
      | Some (RFlux_callback call | RDirichlet_callback call) -> stage call f
      | Some (RFlux_expr _ | RDirichlet_expr _) | None -> not_staged)
    face_bc

(* The per-face boundary table of the unknown [uvar]: expression
   conditions compiled once per region by [compile], callback conditions
   resolved once per region and staged by [stage_faces]. *)
let resolve_bcs (p : Problem.t) mesh ~compile (uvar : Entity.variable) =
  let face_bc = Array.make mesh.Fvm.Mesh.nfaces None in
  List.iter
    (fun (bc : Problem.bc) ->
      let on_region resolved =
        let resolved = Some resolved in
        Array.iter
          (fun f ->
            if mesh.Fvm.Mesh.face_bid.(f) = bc.Problem.bc_region then
              face_bc.(f) <- resolved)
          mesh.Fvm.Mesh.boundary_faces
      in
      match bc.Problem.bc_kind, bc.Problem.bc_spec with
      | Config.Flux, Problem.Bc_expr e -> on_region (RFlux_expr (compile e))
      | Config.Dirichlet, Problem.Bc_expr e ->
        on_region (RDirichlet_expr (compile e))
      | kind, Problem.Bc_callback { name; args } -> (
        match Problem.find_callback p name with
        | None -> raise (Lower_error ("unknown callback " ^ name))
        | Some callback ->
          let c = { call_name = name; call_fn = callback; call_args = args } in
          on_region
            (match kind with
             | Config.Flux -> RFlux_callback c
             | Config.Dirichlet -> RDirichlet_callback c)))
    (Problem.bcs_for p uvar.Entity.vname);
  face_bc

(* Layout metadata for Eval: per-index (name, 1-based lo, stride), first
   declared index fastest. *)
let layout_of_var (v : Entity.variable) =
  let rec go stride = function
    | [] -> []
    | (i : Entity.index) :: rest ->
      (i.Entity.iname, i.Entity.lo, stride)
      :: go (stride * Entity.index_extent i) rest
  in
  go 1 v.Entity.vindices

(* What expressions may reference of the problem's coefficients. *)
let coef_bindings (p : Problem.t) : Eval.bindings =
  List.map
    (fun (c : Entity.coefficient) ->
      let b =
        match c.Entity.cvalue with
        | Entity.Const x -> Eval.Bcoef_const x
        | Entity.Arr a ->
          let iname, lo =
            match c.Entity.cindex with
            | Some i -> i.Entity.iname, i.Entity.lo
            | None -> "", 1
          in
          Eval.Bcoef_arr (a, iname, lo)
        | Entity.Space_fn f -> Eval.Bcoef_fn f
      in
      c.Entity.cname, b)
    p.Problem.coefficients

(* ------------------------------------------------------------------ *)
(* Interior staging: the face tables, once per solve.                  *)
(* ------------------------------------------------------------------ *)

let m_stagings = Prt.Metrics.counter "lower.face_stagings"

(* The coefficients a post-step callback may write: the declared writes,
   or every coefficient once one callback declares nothing. *)
let written_coefficients (p : Problem.t) =
  if List.exists (fun c -> c.Problem.pc_io = None) p.Problem.post_step then
    List.map (fun (c : Entity.coefficient) -> c.Entity.cname) p.Problem.coefficients
  else (Problem.post_io p).Problem.cb_writes

(* Whether [e] reads only face geometry, numbers and coefficients that
   no callback writes: its value then depends only on the slot and the
   indices it names, for the whole solve. *)
let rec face_invariant ~dim ~bindings ~written ~indices (e : Expr.t) =
  let ok = face_invariant ~dim ~bindings ~written ~indices in
  let unwritten name = not (List.mem name written) in
  match e with
  | Expr.Num _ | Expr.Sym ("pi" | "FACEAREA") -> true
  | Expr.Sym s when String.length s > 7 && String.sub s 0 7 = "NORMAL_" -> (
    match int_of_string_opt (String.sub s 7 (String.length s - 7)) with
    | Some k -> k >= 1 && k <= dim
    | None -> false)
  | Expr.Sym s -> (
    match List.assoc_opt s bindings with
    | Some (Eval.Bcoef_const _) -> unwritten s
    | _ -> false)
  | Expr.Ref (name, idx, _) -> (
    match List.assoc_opt name bindings, idx with
    | Some (Eval.Bcoef_const _), _ -> unwritten name
    | Some (Eval.Bcoef_arr _), [ Expr.Ivar n ] ->
      unwritten name && List.mem_assoc n indices
    | Some (Eval.Bcoef_arr (a, _, lo)), [ Expr.Iconst k ] ->
      unwritten name && k - lo >= 0 && k - lo < Array.length a
    | _ -> false)
  | Expr.Add es | Expr.Mul es | Expr.Call (_, es) -> List.for_all ok es
  | Expr.Pow (a, b) | Expr.Cmp (_, a, b) -> ok a && ok b
  | Expr.Cond (c, t, el) -> ok c && ok t && ok el

(* The distinct [Cond] tests of [e] that [stageable] accepts, outermost
   first; a staged test's own sub-conditions go with it. *)
let rec stageable_tests stageable acc (e : Expr.t) =
  let go = stageable_tests stageable in
  match e with
  | Expr.Cond (c, t, el) ->
    let acc =
      if not (stageable c) then go acc c
      else if List.mem c acc then acc
      else acc @ [ c ]
    in
    go (go acc t) el
  | Expr.Add es | Expr.Mul es | Expr.Call (_, es) -> List.fold_left go acc es
  | Expr.Pow (a, b) | Expr.Cmp (_, a, b) -> go (go acc a) b
  | Expr.Num _ | Expr.Sym _ | Expr.Ref _ -> acc

let stage_interior (p : Problem.t) : Eval.faces =
  Prt.Metrics.incr m_stagings;
  let mesh = Problem.mesh_exn p in
  let dim = mesh.Fvm.Mesh.dim and ncells = mesh.Fvm.Mesh.ncells in
  let cell_faces = mesh.Fvm.Mesh.cell_faces in
  let slot_start = Array.make (ncells + 1) 0 in
  for c = 0 to ncells - 1 do
    slot_start.(c + 1) <- slot_start.(c) + Array.length cell_faces.(c)
  done;
  let nslots = slot_start.(ncells) in
  let slot_nbr = Array.make nslots (-1) in
  let slot_normal = Array.make (nslots * dim) 0. in
  for c = 0 to ncells - 1 do
    Array.iteri
      (fun i f ->
        let s = slot_start.(c) + i in
        slot_nbr.(s) <- Fvm.Mesh.neighbour mesh f c;
        let nsign = Fvm.Mesh.normal_sign mesh f c in
        for k = 0 to dim - 1 do
          slot_normal.((s * dim) + k) <-
            nsign *. mesh.Fvm.Mesh.face_normal.((f * dim) + k)
        done)
      cell_faces.(c)
  done;
  let geometry = { Eval.dim; slot_start; slot_nbr; slot_normal; tests = [] } in
  let bindings = coef_bindings p in
  let indices =
    List.map (fun (i : Entity.index) -> i.Entity.iname, Entity.index_extent i)
      p.Problem.indices
  in
  let written = written_coefficients p in
  (* a test the closure compiler rejects stays in the integrand, whose
     compilation reports the error *)
  let tests =
    List.filter_map
      (fun test ->
        match Eval.compile ~faces:geometry bindings test with
        | f -> Some (test, f)
        | exception Eval.Compile_error _ -> None)
      (stageable_tests
         (face_invariant ~dim ~bindings ~written ~indices)
         [] (Problem.the_equation p).Transform.rsurf)
  in
  let env =
    Eval.make_env ~mesh ~dt:(ref p.Problem.dt) ~time:(ref 0.)
      ~index_names:(List.map fst indices)
  in
  (* evaluate each test once per slot and value of the indices it names *)
  let stage (test, f) =
    let named =
      List.concat_map
        (fun (_, idx, _) ->
          List.filter_map (function Expr.Ivar n -> Some n | _ -> None) idx)
        (Expr.refs test)
    in
    let names = List.filter (fun (n, _) -> List.mem n named) indices in
    let width = List.fold_left (fun acc (_, ext) -> acc * ext) 1 names in
    let refs = Array.of_list (List.map (fun (n, _) -> Eval.ival env n) names) in
    let exts = Array.of_list (List.map snd names) in
    let holds = Bytes.make (nslots * width) '\000' in
    for c = 0 to ncells - 1 do
      env.Eval.cell <- c;
      for s = slot_start.(c) to slot_start.(c + 1) - 1 do
        env.Eval.slot <- s;
        env.Eval.face <- cell_faces.(c).(s - slot_start.(c));
        env.Eval.cell2 <- slot_nbr.(s);
        for v = 0 to width - 1 do
          let rest = ref v in
          for k = 0 to Array.length refs - 1 do
            refs.(k) := !rest mod exts.(k);
            rest := !rest / exts.(k)
          done;
          if f env <> 0. then Bytes.set holds ((s * width) + v) '\001'
        done
      done
    done;
    { Eval.test; names; width; holds }
  in
  { geometry with tests = List.map stage tests }

(* Per index of [v], first fastest: the env cell holding its value and
   its extent. *)
let comp_index env (v : Entity.variable) =
  Array.of_list
    (List.map
       (fun (i : Entity.index) -> Eval.ival env i.Entity.iname, Entity.index_extent i)
       v.Entity.vindices)

(* The flat component of the unknown at the env's current index values. *)
let ucomp_of comp_index =
  let strides =
    let n = Array.length comp_index in
    let a = Array.make n 1 in
    for k = 1 to n - 1 do
      a.(k) <- a.(k - 1) * snd comp_index.(k - 1)
    done;
    a
  in
  fun () ->
    let c = ref 0 in
    for k = 0 to Array.length comp_index - 1 do
      c := !c + (!(fst comp_index.(k)) * strides.(k))
    done;
    !c

let rec build ?(info = serial_rankinfo) ?share_with ?(private_clock = false)
    ?faces (p : Problem.t) : state =
  let mesh = Problem.mesh_exn p in
  let eq = Problem.the_equation p in
  let uvar =
    match Problem.find_variable p eq.Transform.eq_var with
    | Some v -> v
    | None -> raise (Lower_error "equation variable not declared")
  in
  let faces =
    match share_with, faces with
    | Some (base : state), _ -> base.faces
    | None, Some fs -> fs
    | None, None -> stage_interior p
  in
  (* fields for every variable; shared-memory workers reuse the base
     state's storage and differ only in env/closures/ownership *)
  let fields =
    match share_with with
    | Some (base : state) -> base.fields
    | None ->
      List.map
        (fun (v : Entity.variable) ->
          ( v.Entity.vname,
            Fvm.Field.create ~name:v.Entity.vname ~ncells:mesh.Fvm.Mesh.ncells
              ~ncomp:(Entity.var_ncomp v) () ))
        p.Problem.variables
  in
  let u = List.assoc uvar.Entity.vname fields in
  let u_new =
    match share_with with
    | Some base -> base.u_new
    | None ->
      Fvm.Field.create ~name:(uvar.Entity.vname ^ "_new")
        ~ncells:mesh.Fvm.Mesh.ncells ~ncomp:(Entity.var_ncomp uvar) ()
  in
  (* bindings for the expression compiler *)
  let bindings : Eval.bindings =
    List.map
      (fun (v : Entity.variable) ->
        v.Entity.vname,
        Eval.Bfield (List.assoc v.Entity.vname fields, layout_of_var v))
      p.Problem.variables
    @ coef_bindings p
  in
  let dt, time =
    match share_with with
    (* [private_clock] gives a shared-storage worker its own dt/time refs
       (seeded from the base) so a fused schedule can advance workers
       independently between barriers without racing on the base clock *)
    | Some base when private_clock -> ref !(base.dt), ref !(base.time)
    | Some base -> base.dt, base.time
    | None -> ref p.Problem.dt, ref 0.
  in
  let index_names = List.map (fun i -> i.Entity.iname) p.Problem.indices in
  let env = Eval.make_env ~mesh ~dt ~time ~index_names in
  let compile_rhs name e =
    match p.Problem.eval_mode with
    (* Native compiles the closures too: they are the fallback and serve
       the expression boundary terms the generated code calls back into *)
    | Config.Closure | Config.Native -> Eval.compile ~faces bindings e, None
    | Config.Tape ->
      let t = Eval.compile_tape ~faces bindings e in
      Eval.tape_compiled t, Some (name, t)
  in
  let rvol_f, rvol_t = compile_rhs "rvol" eq.Transform.rvol in
  let rsurf_f, rsurf_t = compile_rhs "rsurf" eq.Transform.rsurf in
  let tapes = List.filter_map Fun.id [ rvol_t; rsurf_t ] in
  let rvol_du_f =
    lazy (fst (compile_rhs "rvol_du" (Transform.rvol_linearization eq)))
  in
  let comp_index = comp_index env uvar in
  (* resolve boundary conditions into a per-face table, every callback
     face staged now, so a failing stage stops the build *)
  let face_bc = resolve_bcs p mesh ~compile:(Eval.compile ~faces bindings) uvar in
  let staged = Lazy.from_val (stage_faces p mesh fields face_bc) in
  (* loop plan *)
  let loops =
    let order =
      match p.Problem.loop_order with
      | Some o -> o
      | None -> "elements" :: index_names
    in
    let seen_cells = List.exists (fun s -> s = "elements" || s = "cells") order in
    if not seen_cells then raise (Lower_error "assemblyLoops must include \"elements\"");
    List.iter
      (fun s ->
        if s <> "elements" && s <> "cells" && Problem.find_index p s = None then
          raise (Lower_error ("assemblyLoops: unknown index " ^ s)))
      order;
    List.map
      (fun s ->
        if s = "elements" || s = "cells" then Over_cells
        else
          let i =
            match Problem.find_index p s with Some i -> i | None -> assert false
          in
          Over_index (s, Entity.index_extent i))
      order
  in
  let st =
    {
      p;
      mesh;
      eq;
      uvar;
      u;
      u_new;
      fields;
      env;
      bindings;
      faces;
      rvol_f;
      rsurf_f;
      comp_index;
      ucomp = ucomp_of comp_index;
      face_bc;
      staged;
      time;
      dt;
      step = ref 0;
      info;
      breakdown = Prt.Breakdown.zero ();
      loops;
      rvol_du_f;
      tapes;
      native = None;
    }
  in
  (match share_with with
   | Some _ -> ()
   | None -> apply_initial_conditions st);
  attach_native st;
  st

and apply_initial_conditions st =
  let mesh = st.mesh in
  List.iter
    (fun (name, spec) ->
      match List.assoc_opt name st.fields with
      | None -> raise (Lower_error ("initial condition for unknown variable " ^ name))
      | Some f -> (
        match spec with
        | Problem.Init_const v -> Fvm.Field.fill f v
        | Problem.Init_fn g ->
          Fvm.Field.init f (fun cell comp ->
              g (Fvm.Mesh.cell_centroid mesh cell) comp)))
    st.p.Problem.initials;
  (* the double buffer starts as a copy so untouched comps stay coherent *)
  Fvm.Field.blit ~src:st.u ~dst:st.u_new

(* owned range of an index for this rank (0-based offset, length) *)
let index_range st name extent =
  match List.assoc_opt name st.info.index_ranges with
  | Some r -> r
  | None -> 0, extent

(* Run [f] for every (cell x index) combination in the configured loop
   order, with the cell loop drawn from [cells] ([None] = every mesh
   cell).  [f] is called with loop state already set in [st.env]. *)
let iterate_dofs_cells st ~cells (f : unit -> unit) =
  let env = st.env in
  (* mutable inputs (fields, dt, time) may have changed since the last
     traversal: invalidate tape caches *)
  Eval.bump_epoch env;
  let rec go = function
    | [] -> f ()
    | Over_cells :: rest ->
      (match cells with
       | None ->
         for c = 0 to st.mesh.Fvm.Mesh.ncells - 1 do
           env.Eval.cell <- c;
           go rest
         done
       | Some cs ->
         for i = 0 to Array.length cs - 1 do
           env.Eval.cell <- cs.(i);
           go rest
         done)
    | Over_index (name, extent) :: rest ->
      let off, len = index_range st name extent in
      let r = Eval.ival env name in
      for v = off to off + len - 1 do
        r := v;
        go rest
      done
  in
  go st.loops

(* Run [f] for every owned (cell x index) combination. *)
let iterate_dofs st f = iterate_dofs_cells st ~cells:st.info.owned_cells f

(* The surface sum of the DOF set in [st.env]: Σ area·rsurf over the
   cell's slots, in face order, reading neighbour, signed normal and
   staged tests from the face tables.  Boundary slots add their
   condition when [with_bc] (unconstrained ones add nothing, not even
   0.) and are skipped otherwise. *)
let rec surface st ~with_bc =
  let env = st.env in
  let nbr = st.faces.Eval.slot_nbr in
  let area = st.mesh.Fvm.Mesh.face_area in
  let cell = env.Eval.cell in
  let fcs = st.mesh.Fvm.Mesh.cell_faces.(cell) in
  let s0 = st.faces.Eval.slot_start.(cell) in
  let flux = ref 0. in
  for i = 0 to Array.length fcs - 1 do
    let s = s0 + i in
    let c2 = nbr.(s) in
    if c2 >= 0 then begin
      let f = fcs.(i) in
      env.Eval.slot <- s;
      env.Eval.face <- f;
      env.Eval.cell2 <- c2;
      flux := !flux +. (area.(f) *. st.rsurf_f env)
    end
    else if with_bc then begin
      let f = fcs.(i) in
      env.Eval.slot <- s;
      env.Eval.face <- f;
      env.Eval.cell2 <- -1;
      match st.face_bc.(f) with
      | None -> ()
      | Some bc -> flux := !flux +. (area.(f) *. boundary_term st f bc)
    end
  done;
  !flux

(* Face [f]'s condition at the current env state: a callback face calls
   its staged function on the current component *)
and boundary_term st f bc =
  let env = st.env in
  match bc with
  | RFlux_expr g -> g env
  | RFlux_callback _ -> (Lazy.force st.staged).(f) (st.ucomp ())
  | RDirichlet_expr g ->
    let ghost_val = g env in
    with_ghost st ghost_val (fun () -> st.rsurf_f env)
  | RDirichlet_callback _ ->
    let ghost_val = (Lazy.force st.staged).(f) (st.ucomp ()) in
    with_ghost st ghost_val (fun () -> st.rsurf_f env)

and with_ghost st ghost_val k =
  let env = st.env in
  let uname = st.uvar.Entity.vname in
  let saved = env.Eval.ghost in
  env.Eval.ghost <-
    Some
      (fun name comp ->
        if String.equal name uname then ghost_val
        else Fvm.Field.get (field st name) env.Eval.cell comp);
  let r = k () in
  env.Eval.ghost <- saved;
  r

(* The per-DOF conservation-form update (forward Euler form); assumes
   [st.env] has cell and index values set.  Returns the updated value but
   does not store it. *)
let dof_rhs st =
  let cell = st.env.Eval.cell in
  let rv = st.rvol_f st.env in
  rv +. (surface st ~with_bc:true /. st.mesh.Fvm.Mesh.cell_volume.(cell))

(* Decompose a flat component id of the unknown into per-index values
   (first declared index fastest) and store them in the env. *)
let set_ivals_of_comp st comp =
  let ix = st.comp_index in
  let c = ref comp in
  for k = 0 to Array.length ix - 1 do
    let r, ext = ix.(k) in
    r := !c mod ext;
    c := !c / ext
  done

(* The slot of face [f] in [cell]. *)
let slot_of st cell f =
  let fcs = st.mesh.Fvm.Mesh.cell_faces.(cell) in
  let rec find i =
    if fcs.(i) = f then st.faces.Eval.slot_start.(cell) + i else find (i + 1)
  in
  find 0

(* The boundary term of [face] (owned by [cell]) for component [comp],
   with nothing set in the env beforehand: a callback flux face is a
   direct call to its staged function; any other condition evaluates
   under the env [dof_rhs] would have set. *)
let boundary_value st f cell comp =
  match st.face_bc.(f) with
  | None -> 0.
  | Some (RFlux_callback _) -> (Lazy.force st.staged).(f) comp
  | Some bc ->
    let env = st.env in
    env.Eval.cell <- cell;
    set_ivals_of_comp st comp;
    env.Eval.face <- f;
    env.Eval.slot <- slot_of st cell f;
    env.Eval.cell2 <- -1;
    boundary_term st f bc

let sweep_dof st ~dt () =
  let cell = st.env.Eval.cell in
  let c = st.ucomp () in
  let v = Fvm.Field.get st.u cell c +. (dt *. dof_rhs st) in
  Fvm.Field.set st.u_new cell c v

(* One forward-Euler sweep over the owned DOFs into the double buffer.
   A generated native entry replaces the whole loop nest (bit-identical
   by construction), not just the expression evaluation. *)
let sweep st =
  match st.native with
  | Some n -> n.n_sweep st.info.owned_cells
  | None -> iterate_dofs st (sweep_dof st ~dt:!(st.dt))

(* The same sweep restricted to [cells] (a subset of the owned cells).
   Per-DOF updates are independent, so sweeping disjoint subsets in any
   order is bit-identical to one full [sweep] — which is what lets an
   executor sweep interior cells while ghost messages are in flight and
   frontier cells after they land. *)
let sweep_cells st cells =
  match st.native with
  | Some n -> n.n_sweep (Some cells)
  | None -> iterate_dofs_cells st ~cells:(Some cells) (sweep_dof st ~dt:!(st.dt))

(* Publish the double buffer: owned DOFs of u_new become current. *)
let commit st =
  match st.native with
  | Some n -> n.n_commit st.info.owned_cells
  | None ->
    iterate_dofs st (fun () ->
        let cell = st.env.Eval.cell in
        let c = st.ucomp () in
        Fvm.Field.set st.u cell c (Fvm.Field.get st.u_new cell c))

(* The components of [v] a rank owns: those whose value of every
   partitioned index [v] carries lies in the rank's slice.  [None] when
   [v] carries no partitioned index (every rank then computes all of it,
   like the band-parallel temperature). *)
let owned_comps (v : Entity.variable) index_ranges =
  let slices =
    List.filter_map
      (fun ((name, _, stride), i) ->
        Option.map
          (fun slice -> stride, Entity.index_extent i, slice)
          (List.assoc_opt name index_ranges))
      (List.combine (layout_of_var v) v.Entity.vindices)
  in
  if slices = [] then None
  else
    Some
      (Array.of_list
         (List.filter
            (fun c ->
              List.for_all
                (fun (stride, ext, (off, len)) ->
                  let x = c / stride mod ext in
                  x >= off && x < off + len)
                slices)
            (List.init (Entity.var_ncomp v) Fun.id)))

(* Gather every variable across ranks into [into]'s fields: each rank
   contributes its owned cells (cell-partitioned runs) and its owned
   component slices (band-partitioned runs); everything else in a rank's
   storage is stale.  Values not partitioned at all keep [into]'s. *)
let gather_fields ~into (states : state array) =
  List.iter
    (fun (v : Entity.variable) ->
      let name = v.Entity.vname in
      let dst = field into name in
      Array.iter
        (fun (st : state) ->
          let src = field st name in
          let info = st.info in
          match info.owned_cells, owned_comps v info.index_ranges with
          | None, None -> ()
          | Some cells, None -> Fvm.Field.blit_cells ~src ~dst cells
          | cells, Some comps ->
            let cells =
              match cells with
              | Some cs -> cs
              | None -> Array.init (Fvm.Field.ncells dst) Fun.id
            in
            Array.iter
              (fun cell ->
                Array.iter
                  (fun c -> Fvm.Field.set dst cell c (Fvm.Field.get src cell c))
                  comps)
              cells)
        states)
    into.p.Problem.variables

let make_step_ctx st ~allreduce =
  {
    Problem.st_mesh = st.mesh;
    st_field = (fun n -> field st n);
    st_coef = (fun n -> coef_exn st.p n);
    st_time = !(st.time);
    st_dt = !(st.dt);
    st_step = !(st.step);
    st_rank = st.info.rank;
    st_nranks = st.info.nranks;
    st_index_range =
      (fun name ->
        match Problem.find_index st.p name with
        | None -> raise (Lower_error ("step ctx: unknown index " ^ name))
        | Some i -> index_range st name (Entity.index_extent i));
    st_allreduce = allreduce;
    st_cells = st.info.owned_cells;
  }

let run_post_step st ~allreduce =
  let ctx = make_step_ctx st ~allreduce in
  List.iter (fun c -> c.Problem.pc_fn ctx) st.p.Problem.post_step

(* ------------------------------------------------------------------ *)
(* Support for the hybrid GPU target.                                  *)
(* ------------------------------------------------------------------ *)

(* A state whose closures read and write the given field storage (device
   views) instead of the base state's host fields.  Time/dt refs are shared
   with the base so both sides agree on the clock.  The base's condition
   table is shared; its callback faces stage again against the new
   storage, all at once on the state's first boundary evaluation: the
   fused schedule's B parity reads the unknown through [u_new], and
   device mirrors, which never evaluate a boundary, stage nothing. *)
let rebind (base : state) ~fields ~u_new =
  let p = base.p in
  let mesh = base.mesh in
  let bindings : Eval.bindings =
    List.map
      (fun (v : Entity.variable) ->
        v.Entity.vname,
        Eval.Bfield (List.assoc v.Entity.vname fields, layout_of_var v))
      p.Problem.variables
    @ List.filter_map
        (fun (name, b) ->
          match b with
          | Eval.Bfield _ -> None
          | b -> Some (name, b))
        base.bindings
  in
  let index_names = List.map (fun i -> i.Entity.iname) p.Problem.indices in
  let env = Eval.make_env ~mesh ~dt:base.dt ~time:base.time ~index_names in
  let faces = base.faces in
  let compile_rhs name e =
    match p.Problem.eval_mode with
    | Config.Closure | Config.Native -> Eval.compile ~faces bindings e, None
    | Config.Tape ->
      let t = Eval.compile_tape ~faces bindings e in
      Eval.tape_compiled t, Some (name, t)
  in
  let rvol_f, rvol_t = compile_rhs "rvol" base.eq.Transform.rvol in
  let rsurf_f, rsurf_t = compile_rhs "rsurf" base.eq.Transform.rsurf in
  let tapes = List.filter_map Fun.id [ rvol_t; rsurf_t ] in
  let comp_index = comp_index env base.uvar in
  let st' =
    {
      base with
      fields;
      u = List.assoc base.uvar.Entity.vname fields;
      u_new;
      env;
      bindings;
      rvol_f;
      rsurf_f;
      comp_index;
      ucomp = ucomp_of comp_index;
      staged = lazy (stage_faces p mesh fields base.face_bc);
      rvol_du_f = lazy (fst (compile_rhs "rvol_du" (Transform.rvol_linearization base.eq)));
      tapes;
      (* own accounting: sharing base's mutable breakdown record would make
         aggregators that sum both states double-count every phase *)
      breakdown = Prt.Breakdown.zero ();
      (* re-derive generated entry points against the rebound storage *)
      native = None;
    }
  in
  attach_native st';
  st'

(* Volume term plus interior-face fluxes only; boundary faces contribute
   nothing (the CPU adds their part separately in the hybrid schedule). *)
let rec dof_rhs_interior st =
  match st.native with
  | Some n -> n.n_dof_interior st.env.Eval.cell (st.ucomp ())
  | None -> dof_rhs_interior_interp st

and dof_rhs_interior_interp st =
  let cell = st.env.Eval.cell in
  let rv = st.rvol_f st.env in
  rv +. (surface st ~with_bc:false /. st.mesh.Fvm.Mesh.cell_volume.(cell))

(* Accumulate dt * (area * boundary term) / volume for every boundary face
   and each of [comps] into [into].  Used by the hybrid target's CPU
   side, which reads back only the rank's own components. *)
let boundary_contributions st ~comps ~into =
  Eval.bump_epoch st.env; (* fields changed since the last traversal *)
  let mesh = st.mesh in
  let dt = !(st.dt) in
  Array.iter
    (fun f ->
      match st.face_bc.(f) with
      | None -> ()
      | Some _ ->
        let cell = mesh.Fvm.Mesh.face_cell1.(f) in
        Array.iter
          (fun comp ->
            let g = boundary_value st f cell comp in
            let dv =
              dt *. mesh.Fvm.Mesh.face_area.(f) *. g
              /. mesh.Fvm.Mesh.cell_volume.(cell)
            in
            Fvm.Field.set into cell comp (Fvm.Field.get into cell comp +. dv))
          comps)
    mesh.Fvm.Mesh.boundary_faces

(* ------------------------------------------------------------------ *)
(* Runge-Kutta stage support (serial executor).                        *)
(* ------------------------------------------------------------------ *)

(* Evaluate R(u) for every owned DOF into [into] (no dt applied). *)
let sweep_rhs st ~into =
  iterate_dofs st (fun () ->
      let cell = st.env.Eval.cell in
      let c = st.ucomp () in
      Fvm.Field.set into cell c (dof_rhs st))

(* u := base + a * k over the owned DOFs. *)
let set_combination st ~base ~a ~k =
  iterate_dofs st (fun () ->
      let cell = st.env.Eval.cell in
      let c = st.ucomp () in
      Fvm.Field.set st.u cell c
        (Fvm.Field.get base cell c +. (a *. Fvm.Field.get k cell c)))

(* The surface part of R only: (1/V) sum over faces of area * rsurf with
   boundary conditions applied — [dof_rhs] minus the volume term. *)
let dof_flux st =
  surface st ~with_bc:true /. st.mesh.Fvm.Mesh.cell_volume.(st.env.Eval.cell)

(* Point-implicit sweep: relaxation-type volume terms treated implicitly
   via the symbolic linearization b = -d(rvol)/du, advection explicit:
     u' = (u + dt*(rvol(u) + b*u + flux)) / (1 + dt*b).
   Exact for volume terms affine in u (the BTE's (Io - I)*beta), and free
   of the dt * max(1/tau) < 1 stability bound. *)
let sweep_point_implicit st =
  let dt = !(st.dt) in
  let bf = Lazy.force st.rvol_du_f in
  iterate_dofs st (fun () ->
      let cell = st.env.Eval.cell in
      let c = st.ucomp () in
      let u0 = Fvm.Field.get st.u cell c in
      let b = bf st.env in
      let rv = st.rvol_f st.env in
      let flux = dof_flux st in
      let v = (u0 +. (dt *. (rv +. (b *. u0) +. flux))) /. (1. +. (dt *. b)) in
      Fvm.Field.set st.u_new cell c v)

(* One step of the configured scheme, advancing the unknown in place.
   Stage evaluations hold boundary data at the step's start time (the
   schemes here are used with autonomous right-hand sides).  Supported:
   Euler, point-implicit Euler, RK2 midpoint, classic RK4. *)
let rk_step st =
  let dt = !(st.dt) in
  let scratch name =
    Fvm.Field.create ~name ~ncells:(Fvm.Field.ncells st.u)
      ~ncomp:(Fvm.Field.ncomp st.u) ()
  in
  match st.p.Problem.stepper with
  | Config.Euler_explicit ->
    sweep st;
    commit st
  | Config.Euler_point_implicit ->
    sweep_point_implicit st;
    commit st
  | Config.RK2 ->
    (* midpoint: k1 = R(u); u_mid = u + dt/2 k1; u' = u + dt R(u_mid) *)
    let base = Fvm.Field.copy st.u in
    let k1 = scratch "rk_k1" and k2 = scratch "rk_k2" in
    sweep_rhs st ~into:k1;
    set_combination st ~base ~a:(dt /. 2.) ~k:k1;
    sweep_rhs st ~into:k2;
    set_combination st ~base ~a:dt ~k:k2
  | Config.RK4 ->
    let base = Fvm.Field.copy st.u in
    let k1 = scratch "rk_k1"
    and k2 = scratch "rk_k2"
    and k3 = scratch "rk_k3"
    and k4 = scratch "rk_k4" in
    sweep_rhs st ~into:k1;
    set_combination st ~base ~a:(dt /. 2.) ~k:k1;
    sweep_rhs st ~into:k2;
    set_combination st ~base ~a:(dt /. 2.) ~k:k2;
    sweep_rhs st ~into:k3;
    set_combination st ~base ~a:dt ~k:k3;
    sweep_rhs st ~into:k4;
    iterate_dofs st (fun () ->
        let cell = st.env.Eval.cell in
        let c = st.ucomp () in
        let combo =
          Fvm.Field.get k1 cell c
          +. (2. *. Fvm.Field.get k2 cell c)
          +. (2. *. Fvm.Field.get k3 cell c)
          +. Fvm.Field.get k4 cell c
        in
        Fvm.Field.set st.u cell c
          (Fvm.Field.get base cell c +. (dt /. 6. *. combo)))
