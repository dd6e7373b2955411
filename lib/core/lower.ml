(* Lowering: from a declared problem to executable state.

   Creates field storage for every variable, compiles the equation's volume
   and flux expressions to lane programs, resolves boundary conditions to a
   per-face table, and packages the loop/rank configuration the executors
   need.  One [state] is built per rank; serial runs have a single rank
   owning everything.

   The interpreter evaluates one cell's owned components as a lane group
   (Eval): the slot loop ([surface]) runs the face form's V once per
   interior face and group, every lane accumulating (area·K)·V from the
   solve's table in face order, then scaling its sum by P.  A group
   whose slice repeats from cell to cell is kept with its stamp, so the
   offsets derived from it are derived once per distinct slice. *)

module Expr = Finch_symbolic.Expr

exception Lower_error of string

(* A boundary face's condition.  Expressions compile once per region;
   a callback is staged once per face and state, into the state's
   [staged] table (see [stage_faces]). *)
type bc_resolved =
  | RFlux_expr of Eval.program
  | RFlux_callback of bc_call
  | RDirichlet_expr of Eval.program
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

(* The generated kernel of one state (lib/codegen): u_new <- u + dt * R
   over a slice of one cell's components, R the volume term plus the
   interior faces.  When present, [sweep]/[sweep_cells]/[update_interior]
   hand it the slices the interpreter would run as lane groups; the
   generated body is bit-identical by construction, so every executor
   schedule composes unchanged. *)
type native_entry = {
  n_advance : int -> int array -> int -> int -> unit;
}

(* The interpreter's per-lane buffers and the layout of the unknown's
   components over the env's indices; one per state, since a state's
   programs run on one domain. *)
type lanebuf = {
  comp : int array;        (* per lane of the group: component of the unknown *)
  flux : float array;      (* per lane: the surface sum *)
  rhs : float array;       (* per lane: the update's right-hand side *)
  bterm : float array;     (* per lane: the current boundary face's term *)
  bpart : float array;     (* per lane: the cell's boundary part *)
  ghost : float array;     (* per lane: the unknown's ghost on a Dirichlet face *)
  ghost_acc : (string -> int -> int -> float) option;
    (* the accessor reading [ghost]; other variables read the cell *)
  upos : int array;        (* per index of the unknown, first fastest: its env position *)
  uext : int array;        (*   and extent *)
  others : int array;      (* env positions the unknown does not carry *)
  tup_iv : int array array;
    (* per env position, per owned index tuple of a cell (configured loop
       order): the index's value *)
  tup_comp : int array;    (* per tuple: its component of the unknown *)
  bcells : int array;
    (* the owned cells owning a boundary face with a condition, in walk
       order: the cells whose DOFs get a boundary part *)
  kpos : int array;        (* per index the face coefficient reads: its env position *)
  kstride : int array;     (*   and stride in a slot's row of the table *)
  koff : int array;        (* per lane: its offset in a slot's row, set by [loaded] *)
  mutable held : int;
    (* how Lower last loaded the group: [by_comps] ([set_group]) or a
       tuple offset ([load_group]) *)
  mutable held_stamp : int;  (* the group's stamp then; -1: never *)
}

let by_comps = -1

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
  rvol : Eval.program;
  rsurf : Eval.program;
  fpre : Eval.program option;  (* the face form's P, once per DOF *)
  fvar : Eval.program;         (*   and V, once per interior face *)
  lanes : lanebuf;
  face_bc : bc_resolved option array; (* indexed by face id; None on interior *)
  staged : (int -> float) array Lazy.t;
    (* indexed by face id: a callback face's staged per-component function *)
  time : float ref;
  dt : float ref;
  step : int ref;
  info : rankinfo;
  breakdown : Prt.Breakdown.t;
  (* -d(rvol)/du, compiled lazily (used by the point-implicit stepper) *)
  rvol_du : Eval.program Lazy.t;
  (* generated entry points, installed by the native-codegen hook when
     eval_mode = Native and emission/compilation succeeded *)
  mutable native : native_entry option;
}

(* Core cannot depend on lib/codegen (which depends on core), so native
   code generation reaches states through this hook: Finch_codegen
   installs a function that emits, compiles/loads and binds a state,
   returning its entry points (or None to fall back to the interpreter).
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
         installed; falling back to the interpreter"
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

let is_normal s = String.length s > 7 && String.sub s 0 7 = "NORMAL_"

(* Whether [e] reads only face geometry, numbers and coefficients that
   no callback writes: its value then depends only on the slot and the
   indices it names, for the whole solve. *)
let rec face_invariant ~dim ~bindings ~written ~indices (e : Expr.t) =
  let ok = face_invariant ~dim ~bindings ~written ~indices in
  let unwritten name = not (List.mem name written) in
  match e with
  | Expr.Num _ | Expr.Sym ("pi" | "FACEAREA") -> true
  | Expr.Sym s when is_normal s -> (
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

(* Whether [e] reads no face context: no normal, no face area, no
   reference across the face and no staged test.  Its value is then one
   per DOF, whatever the face. *)
let rec face_free staged (e : Expr.t) =
  let ok = face_free staged in
  match e with
  | Expr.Num _ -> true
  | Expr.Sym s -> not (s = "FACEAREA" || is_normal s)
  | Expr.Ref (_, _, side) -> side <> Expr.Cell2
  | Expr.Add es | Expr.Mul es | Expr.Call (_, es) -> List.for_all ok es
  | Expr.Pow (a, b) | Expr.Cmp (_, a, b) -> ok a && ok b
  | Expr.Cond (c, t, el) -> (not (List.mem c staged)) && ok c && ok t && ok el

(* [e] as K·V: K the list of its face-invariant factors ([] when none
   splits out), V the rest.  A product splits factor by factor; a sum
   whose terms split with one structurally equal V, and a staged [Cond]
   whose branches split with structurally equal K, give their K out;
   anything else is all V.  [why] keeps the first shape that does not
   split. *)
let rec split ~invariant ~staged why (e : Expr.t) =
  let whole reason =
    if Option.is_none !why then why := Some reason;
    [], e
  in
  match e with
  | _ when invariant e -> [ e ], Expr.one
  | Expr.Mul fs -> split_factors ~invariant ~staged why fs
  | Expr.Add ms -> (
    match List.map (split ~invariant ~staged why) ms with
    | (_, v0) :: _ as parts
      when List.for_all (fun (k, v) -> k <> [] && Expr.equal v v0) parts ->
      [ Expr.add (List.map (fun (k, _) -> Expr.mul k) parts) ], v0
    | _ -> whole "the terms of a sum share no variant factor")
  | Expr.Cond (c, t, el) when List.mem c staged ->
    let kt, vt = split ~invariant ~staged why t
    and ke, ve = split ~invariant ~staged why el in
    if kt <> [] && Expr.equal (Expr.mul kt) (Expr.mul ke) then kt, Expr.cond c vt ve
    else whole "the branches of a staged conditional have different face coefficients"
  | Expr.Cond _ -> whole "a conditional's test is evaluated per face"
  | _ -> [], e

and split_factors ~invariant ~staged why fs =
  let ks, vs =
    List.fold_left
      (fun (ks, vs) f ->
        if invariant f then ks @ [ f ], vs
        else
          let k, v = split ~invariant ~staged why f in
          ks @ k, vs @ [ v ])
      ([], []) fs
  in
  ks, Expr.mul vs

(* The face form of the surface integrand [e]: P its top-level factors
   free of face context (slot-independent, so they stay out of the
   table), K and V the split of the rest.  [Error why] when neither P
   nor K takes anything. *)
let factor ~invariant ~staged (e : Expr.t) =
  let fs = match e with Expr.Mul fs -> fs | e -> [ e ] in
  let pre, rest = List.partition (face_free staged) fs in
  let why = ref None in
  match pre, split_factors ~invariant ~staged why rest with
  | [], ([], _) ->
    Error
      (Option.value !why
         ~default:"no factor is free of face context or face-invariant")
  | pre, (k, v) ->
    Ok ((if pre = [] then None else Some (Expr.mul pre)), Expr.mul k, v)

let position names name =
  let rec go k = function
    | [] -> raise (Lower_error ("unknown index " ^ name))
    | n :: rest -> if String.equal n name then k else go (k + 1) rest
  in
  go 0 names

(* The product of the extents of [names]. *)
let extent names = List.fold_left (fun acc (_, ext) -> acc * ext) 1 names

(* The indices of [indices] that [e] reads by name, with extents. *)
let named_indices indices e =
  let named =
    List.concat_map
      (fun (_, idx, _) ->
        List.filter_map (function Expr.Ivar n -> Some n | _ -> None) idx)
      (Expr.refs e)
  in
  List.filter (fun (n, _) -> List.mem n named) indices

(* Evaluate [f] at every slot of [geometry] ([interior]: every interior
   slot) and every value of the indices [names] (first fastest), those
   values as the lanes of one group, in slices past a group's worth: the
   lanes are the same at every slot, so they are set once per slice.
   [put ~slot ~face j n r] takes the values [r.(0) .. r.(n - 1)] of the
   slot's entries [j .. j + n - 1]. *)
let tabulate ?(interior = false) (p : Problem.t) (geometry : Eval.faces) ~index_names
    names f put =
  let mesh = Problem.mesh_exn p in
  let cell_faces = mesh.Fvm.Mesh.cell_faces in
  let slot_start = geometry.Eval.slot_start in
  let width = extent names in
  let env =
    Eval.make_env ~lanes:(min Eval.max_lanes width) ~mesh
      ~dt:(ref p.Problem.dt) ~time:(ref 0.) ~index_names
  in
  let g = env.Eval.group in
  let iv = List.map (fun (n, ext) -> g.Eval.iv.(position index_names n), ext) names in
  let first = ref 0 in
  while !first < width do
    let n = min env.Eval.lanes (width - !first) in
    g.Eval.n <- n;
    for l = 0 to n - 1 do
      ignore
        (List.fold_left
           (fun rest (lane_values, ext) ->
             lane_values.(l) <- rest mod ext;
             rest / ext)
           (!first + l) iv)
    done;
    Eval.touch g;
    for c = 0 to mesh.Fvm.Mesh.ncells - 1 do
      env.Eval.cell <- c;
      for s = slot_start.(c) to slot_start.(c + 1) - 1 do
        let face = cell_faces.(c).(s - slot_start.(c)) in
        env.Eval.slot <- s;
        env.Eval.face <- face;
        env.Eval.cell2 <- geometry.Eval.slot_nbr.(s);
        if not (interior && env.Eval.cell2 < 0) then
          put ~slot:s ~face !first n (Eval.run f env)
      done
    done;
    first := !first + n
  done

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
  let rsurf = (Problem.the_equation p).Transform.rsurf in
  (* the tables the tests and K compile against; the form is not read *)
  let geometry =
    { Eval.dim; slot_start; slot_nbr; slot_normal; tests = [];
      form =
        { Eval.pre = None; coef = Expr.one; var = rsurf; knames = []; kwidth = 1;
          ktable = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0;
          unfactored = None } }
  in
  let bindings = coef_bindings p in
  let indices =
    List.map (fun (i : Entity.index) -> i.Entity.iname, Entity.index_extent i)
      p.Problem.indices
  in
  let index_names = List.map fst indices in
  let invariant = face_invariant ~dim ~bindings ~written:(written_coefficients p) ~indices in
  (* a test or coefficient the compiler rejects stays in the integrand,
     whose compilation reports the error *)
  let compiled faces e =
    match Eval.program ~faces bindings e with
    | f -> Some f
    | exception Eval.Compile_error _ -> None
  in
  let tests =
    List.filter_map
      (fun test ->
        Option.map
          (fun f ->
            let names = named_indices indices test in
            let width = extent names in
            let holds = Bytes.make (nslots * width) '\000' in
            tabulate p geometry ~index_names names f (fun ~slot ~face:_ j n r ->
                for l = 0 to n - 1 do
                  if r.(l) <> 0. then Bytes.set holds ((slot * width) + j + l) '\001'
                done);
            { Eval.test; names; width; holds })
          (compiled geometry test))
      (stageable_tests invariant [] rsurf)
  in
  let with_tests = { geometry with tests } in
  let staged = List.map (fun (t : Eval.staged) -> t.Eval.test) tests in
  (* nothing factors: no P, K = 1, the whole integrand per face *)
  let pre, coef, var, unfactored =
    match factor ~invariant ~staged rsurf with
    | Ok (pre, coef, var) when Option.is_some (compiled with_tests coef) ->
      pre, coef, var, None
    | Ok _ -> None, Expr.one, rsurf, Some "the face coefficient does not compile"
    | Error why -> None, Expr.one, rsurf, Some why
  in
  let knames = named_indices indices coef in
  let kwidth = extent knames in
  let ktable = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (nslots * kwidth) in
  (* boundary slots hold 0: the interior sum skips them, and a boundary
     face's term comes from its condition *)
  Bigarray.Array1.fill ktable 0.;
  let area = mesh.Fvm.Mesh.face_area in
  tabulate ~interior:true p with_tests ~index_names knames
    (Eval.program ~faces:with_tests bindings coef)
    (fun ~slot ~face j n r ->
      let a = area.(face) in
      for l = 0 to n - 1 do
        Bigarray.Array1.set ktable ((slot * kwidth) + j + l) (a *. r.(l))
      done);
  { with_tests with form = { Eval.pre; coef; var; knames; kwidth; ktable; unfactored } }

(* Everything [stage_interior] reads but the mesh: the surface
   integrand, the value of every coefficient it names, the indices, the
   written coefficients, and dt when the integrand reads it. *)
let stage_key (p : Problem.t) =
  let rsurf = (Problem.the_equation p).Transform.rsurf in
  let values =
    List.map
      (fun name ->
        ( name,
          Option.map
            (fun (c : Entity.coefficient) -> c.Entity.cvalue, c.Entity.cindex)
            (Problem.find_coefficient p name) ))
      (List.sort_uniq String.compare (Expr.ref_names rsurf @ Expr.sym_names rsurf))
  in
  if List.exists (function _, Some (Entity.Space_fn _, _) -> true | _ -> false) values
  then None
  else
    let dt = if Expr.contains_sym "dt" rsurf then Some p.Problem.dt else None in
    Some
      (Digest.string
         (Marshal.to_string
            (rsurf, values, p.Problem.indices, written_coefficients p, dt)
            [ Marshal.No_sharing ]))

(* owned range of an index for a rank (0-based offset, length) *)
let range_of (info : rankinfo) name extent =
  match List.assoc_opt name info.index_ranges with
  | Some r -> r
  | None -> 0, extent

(* The owned index tuples of one cell, in the loop plan's order (its
   index loops, outer to inner, with their extents): per position of
   [index_names], each tuple's value (0 for an index no loop runs), and
   each tuple's component of the unknown. *)
let cell_tuples ~index_names ~plan ~info (uvar : Entity.variable) =
  let inner =
    List.map
      (fun (name, extent) ->
        let off, len = range_of info name extent in
        position index_names name, off, len)
      plan
  in
  let count = List.fold_left (fun acc (_, _, len) -> acc * len) 1 inner in
  let iv = Array.init (List.length index_names) (fun _ -> Array.make count 0) in
  let cur = Array.make (List.length index_names) 0 in
  let k = ref 0 in
  let rec go = function
    | [] ->
      Array.iteri (fun p v -> iv.(p).(!k) <- v) cur;
      incr k
    | (p, off, len) :: rest ->
      for v = off to off + len - 1 do
        cur.(p) <- v;
        go rest
      done
  in
  go inner;
  let stride = ref 1 in
  let terms =
    List.map
      (fun (i : Entity.index) ->
        let t = position index_names i.Entity.iname, !stride in
        stride := !stride * Entity.index_extent i;
        t)
      uvar.Entity.vindices
  in
  let comp =
    Array.init count (fun t ->
        List.fold_left (fun acc (p, s) -> acc + (iv.(p).(t) * s)) 0 terms)
  in
  iv, comp

(* Whether a face of [fcs] from the [i]th on has a boundary condition. *)
let rec conditioned face_bc fcs i =
  i < Array.length fcs
  && (Option.is_some face_bc.(fcs.(i)) || conditioned face_bc fcs (i + 1))

let make_lanebuf (env : Eval.env) ~(faces : Eval.faces) ~fields
    (uvar : Entity.variable) ~tuples ~bcells =
  let cap = env.Eval.lanes in
  let names = List.map fst env.Eval.ivals in
  let knames = faces.Eval.form.Eval.knames in
  let upos =
    Array.of_list
      (List.map (fun (i : Entity.index) -> position names i.Entity.iname)
         uvar.Entity.vindices)
  in
  let ghost = Array.make cap 0. in
  let uname = uvar.Entity.vname in
  let ghost_acc name l comp =
    if String.equal name uname then ghost.(l)
    else
      match List.assoc_opt name fields with
      | Some f -> Fvm.Field.get f env.Eval.cell comp
      | None -> raise (Lower_error ("no field for variable " ^ name))
  in
  let tup_iv, tup_comp = tuples in
  { comp = Array.make cap 0;
    flux = Array.make cap 0.;
    rhs = Array.make cap 0.;
    bterm = Array.make cap 0.;
    bpart = Array.make cap 0.;
    ghost;
    ghost_acc = Some ghost_acc;
    upos;
    uext =
      Array.of_list (List.map Entity.index_extent uvar.Entity.vindices);
    others =
      Array.of_list
        (List.filter
           (fun p -> not (Array.mem p upos))
           (List.init (List.length names) Fun.id));
    tup_iv;
    tup_comp;
    bcells;
    kpos = Array.of_list (List.map (fun (n, _) -> position names n) knames);
    kstride =
      (* first name fastest: the product of the extents before it *)
      Array.of_list
        (List.mapi (fun k _ -> extent (List.filteri (fun j _ -> j < k) knames)) knames);
    koff = Array.make cap 0;
    held = by_comps;
    held_stamp = -1 }

(* Lanes per group: one kernel block at most, and no more than a cell's
   owned DOFs. *)
let lane_count (uvar : Entity.variable) tup_comp =
  max 1
    (min Eval.max_lanes (max (Array.length tup_comp) (Entity.var_ncomp uvar)))

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
     state's storage and differ only in env/programs/ownership *)
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
  (* the loop plan ([assemblyLoops]) orders only a cell's index tuples:
     every walk runs cells outermost *)
  let plan =
    let order =
      match p.Problem.loop_order with
      | Some o -> o
      | None -> "elements" :: index_names
    in
    let is_cells s = s = "elements" || s = "cells" in
    if not (List.exists is_cells order) then
      raise (Lower_error "assemblyLoops must include \"elements\"");
    List.filter_map
      (fun s ->
        if is_cells s then None
        else
          match Problem.find_index p s with
          | Some i -> Some (s, Entity.index_extent i)
          | None -> raise (Lower_error ("assemblyLoops: unknown index " ^ s)))
      order
  in
  let tuples = cell_tuples ~index_names ~plan ~info uvar in
  let env =
    Eval.make_env ~lanes:(lane_count uvar (snd tuples)) ~mesh ~dt ~time
      ~index_names
  in
  (* native mode compiles the programs too: they are the fallback and
     serve the expression boundary terms the generated code calls back
     into *)
  let compile = Eval.program ~faces bindings in
  let rvol = compile eq.Transform.rvol in
  let rsurf = compile eq.Transform.rsurf in
  let form = faces.Eval.form in
  let fpre = Option.map compile form.Eval.pre in
  let fvar = compile form.Eval.var in
  let rvol_du = lazy (compile (Transform.rvol_linearization eq)) in
  (* resolve boundary conditions into a per-face table, every callback
     face staged now, so a failing stage stops the build *)
  let face_bc = resolve_bcs p mesh ~compile uvar in
  let staged = Lazy.from_val (stage_faces p mesh fields face_bc) in
  let bcells =
    Array.of_list
      (List.filter (fun c -> conditioned face_bc mesh.Fvm.Mesh.cell_faces.(c) 0)
         (match info.owned_cells with
          | Some cs -> Array.to_list cs
          | None -> List.init mesh.Fvm.Mesh.ncells Fun.id))
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
      rvol;
      rsurf;
      fpre;
      fvar;
      lanes = make_lanebuf env ~faces ~fields uvar ~tuples ~bcells;
      face_bc;
      staged;
      time;
      dt;
      step = ref 0;
      info;
      breakdown = Prt.Breakdown.zero ();
      rvol_du;
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
          (* one centroid per cell, read by each of its components *)
          for cell = 0 to mesh.Fvm.Mesh.ncells - 1 do
            let pos = Fvm.Mesh.cell_centroid mesh cell in
            for comp = 0 to Fvm.Field.ncomp f - 1 do
              Fvm.Field.set f cell comp (g pos comp)
            done
          done))
    st.p.Problem.initials;
  (* the double buffer starts as a copy so untouched comps stay coherent *)
  Fvm.Field.blit ~src:st.u ~dst:st.u_new

(* ---- Lane groups ---------------------------------------------------- *)

(* Whether the group still holds what Lower loaded as [how] ([by_comps]
   or a tuple offset), [n] lanes of it: nobody has touched it since. *)
let still_held st how n =
  let g = st.env.Eval.group and lb = st.lanes in
  lb.held = how && lb.held_stamp = g.Eval.stamp && g.Eval.n = n

(* Record that Lower loaded the group as [how], mark it changed, and
   derive each lane's offset in a slot's row of the face coefficient
   table. *)
let loaded st how =
  let g = st.env.Eval.group and lb = st.lanes in
  Eval.touch g;
  lb.held <- how;
  lb.held_stamp <- g.Eval.stamp;
  for l = 0 to g.Eval.n - 1 do
    let o = ref 0 in
    for k = 0 to Array.length lb.kpos - 1 do
      o := !o + (g.Eval.iv.(lb.kpos.(k)).(l) * lb.kstride.(k))
    done;
    lb.koff.(l) <- !o
  done

(* Whether the lanes' components are [comps.(off) .. comps.(off + n -
   1)]; a loop, since a local closure would allocate. *)
let same_comps (lb : lanebuf) comps off n =
  let l = ref 0 in
  while !l < n && lb.comp.(!l) = comps.(off + !l) do incr l done;
  !l = n

(* The group of [cell]'s components [comps.(off) .. comps.(off + n - 1)]:
   each lane's index values, decoded from its component, and 0 for the
   indices the unknown does not carry.  A group that already holds those
   components keeps them and its stamp, so every selector keeps the
   offsets it derived: the GPU thread body gives every cell the same
   slice. *)
let set_group st cell comps off n =
  let g = st.env.Eval.group and lb = st.lanes in
  st.env.Eval.cell <- cell;
  if not (still_held st by_comps n && same_comps lb comps off n) then begin
    g.Eval.n <- n;
    for l = 0 to n - 1 do
      let c = comps.(off + l) in
      lb.comp.(l) <- c;
      let rest = ref c in
      for k = 0 to Array.length lb.upos - 1 do
        let ext = lb.uext.(k) in
        g.Eval.iv.(lb.upos.(k)).(l) <- !rest mod ext;
        rest := !rest / ext
      done;
      for k = 0 to Array.length lb.others - 1 do
        g.Eval.iv.(lb.others.(k)).(l) <- 0
      done
    done;
    loaded st by_comps
  end

(* Run [f cell off n] on every lane-group slice of the owned DOFs of
   [cells] ([None] = every mesh cell): per cell, its owned index tuples
   ([tup_comp], in the loop plan's order) in slices of at most the env's
   lanes.  The one walk over a state's DOFs: the interpreter evaluates
   each slice as a lane group, the generated kernel advances it, and
   [iterate_owned] visits its elements. *)
let iterate_slices st ~cells f =
  let ntup = Array.length st.lanes.tup_comp and cap = st.env.Eval.lanes in
  let per_cell c =
    let off = ref 0 in
    while !off < ntup do
      let n = min cap (ntup - !off) in
      f c !off n;
      off := !off + n
    done
  in
  match cells with
  | None ->
    for c = 0 to st.mesh.Fvm.Mesh.ncells - 1 do
      per_cell c
    done
  | Some cs -> Array.iter per_cell cs

(* The group of [cell]'s owned tuples [off .. off + n - 1], copied by int
   loops: [Array.blit] writes these long-lived arrays via [caml_modify].
   Every cell has the same tuples, so a group that already holds them
   keeps them and its stamp. *)
let load_group st cell off n =
  let env = st.env and lb = st.lanes in
  let g = env.Eval.group in
  env.Eval.cell <- cell;
  if not (still_held st off n) then begin
    g.Eval.n <- n;
    for p = 0 to Array.length g.Eval.iv - 1 do
      let src = lb.tup_iv.(p) and dst = g.Eval.iv.(p) in
      for l = 0 to n - 1 do dst.(l) <- src.(off + l) done
    done;
    for l = 0 to n - 1 do lb.comp.(l) <- lb.tup_comp.(off + l) done;
    loaded st off
  end

(* Run [f] on every lane group of the owned DOFs of [cells]. *)
let iterate_groups_cells st ~cells (f : unit -> unit) =
  iterate_slices st ~cells (fun c off n -> load_group st c off n; f ())

let iterate_groups st f = iterate_groups_cells st ~cells:st.info.owned_cells f

(* [f]'s storage holds ([cell], comp) at [cell_base f cell + comp *
   comp_stride f]. *)
let cell_base f cell =
  match Fvm.Field.layout f with
  | Fvm.Field.Cell_major -> cell * Fvm.Field.ncomp f
  | Fvm.Field.Comp_major -> cell

let comp_stride f =
  match Fvm.Field.layout f with
  | Fvm.Field.Cell_major -> 1
  | Fvm.Field.Comp_major -> Fvm.Field.ncells f

(* Face [f]'s condition, per lane of the current group, into
   [lanes.bterm]: a callback face calls its staged function on each
   lane's component, a Dirichlet face evaluates the flux integrand under
   the ghost the condition gives each lane. *)
let rec boundary_lanes st f bc =
  let env = st.env and lb = st.lanes in
  let n = env.Eval.group.Eval.n in
  match bc with
  | RFlux_expr g -> Array.blit (Eval.run g env) 0 lb.bterm 0 n
  | RFlux_callback _ ->
    let fn = (Lazy.force st.staged).(f) in
    for l = 0 to n - 1 do
      lb.bterm.(l) <- fn lb.comp.(l)
    done
  | RDirichlet_expr g ->
    Array.blit (Eval.run g env) 0 lb.ghost 0 n;
    under_ghost st
  | RDirichlet_callback _ ->
    let fn = (Lazy.force st.staged).(f) in
    for l = 0 to n - 1 do
      lb.ghost.(l) <- fn lb.comp.(l)
    done;
    under_ghost st

and under_ghost st =
  let env = st.env and lb = st.lanes in
  let saved = env.Eval.ghost in
  env.Eval.ghost <- lb.ghost_acc;
  let r = Eval.run st.rsurf env in
  env.Eval.ghost <- saved;
  Array.blit r 0 lb.bterm 0 env.Eval.group.Eval.n

(* The interior surface sums of the current group into [lanes.flux], in
   the face form: per lane, P·(0 + Σ (area·K)[s]·V) over the cell's
   interior slots in face order, (area·K)[s] read from the table and V
   evaluated per slot (reading neighbour, signed normal and staged tests
   from the face tables), then P evaluated once; no P, no multiply.
   Boundary slots are [boundary_part]'s. *)
let surface st =
  let env = st.env and lb = st.lanes in
  let g = env.Eval.group in
  let n = g.Eval.n in
  let flux = lb.flux and koff = lb.koff in
  let nbr = st.faces.Eval.slot_nbr in
  let form = st.faces.Eval.form in
  let kt = form.Eval.ktable and kw = form.Eval.kwidth in
  let cell = env.Eval.cell in
  let fcs = st.mesh.Fvm.Mesh.cell_faces.(cell) in
  let s0 = st.faces.Eval.slot_start.(cell) in
  Array.fill flux 0 n 0.;
  for i = 0 to Array.length fcs - 1 do
    let s = s0 + i in
    let c2 = nbr.(s) in
    if c2 >= 0 then begin
      env.Eval.slot <- s;
      env.Eval.face <- fcs.(i);
      env.Eval.cell2 <- c2;
      let r = Eval.run st.fvar env in
      let row = s * kw in
      for l = 0 to n - 1 do
        flux.(l) <- flux.(l) +. (Bigarray.Array1.unsafe_get kt (row + koff.(l)) *. r.(l))
      done
    end
  done;
  match st.fpre with
  | None -> ()
  | Some pf ->
    let pv = Eval.run pf env in
    for l = 0 to n - 1 do
      flux.(l) <- pv.(l) *. flux.(l)
    done

(* The interior right-hand side of the current group (forward Euler
   form) into [lanes.rhs]: rv + (P·sum)/V. *)
let rhs st =
  let env = st.env and lb = st.lanes in
  let rv = Eval.run st.rvol env in
  surface st;
  let vol = st.mesh.Fvm.Mesh.cell_volume.(env.Eval.cell) in
  for l = 0 to env.Eval.group.Eval.n - 1 do
    lb.rhs.(l) <- rv.(l) +. (lb.flux.(l) /. vol)
  done

(* The boundary part of the current group into [lanes.bpart], the one
   every executor adds after the interior update: per lane, 0 + Σ
   ((scale·area)·g)/V over the cell's conditioned boundary faces in face
   order (g the face's term).  Adding a 0 part changes nothing: interior
   updates and right-hand sides are never -0. *)
let boundary_part st ~scale =
  let env = st.env and lb = st.lanes in
  let n = env.Eval.group.Eval.n and cell = env.Eval.cell in
  let fcs = st.mesh.Fvm.Mesh.cell_faces.(cell) in
  let vol = st.mesh.Fvm.Mesh.cell_volume.(cell) in
  Array.fill lb.bpart 0 n 0.;
  for i = 0 to Array.length fcs - 1 do
    let f = fcs.(i) in
    match st.face_bc.(f) with
    | None -> ()
    | Some bc ->
      env.Eval.slot <- st.faces.Eval.slot_start.(cell) + i;
      env.Eval.face <- f;
      env.Eval.cell2 <- -1;
      boundary_lanes st f bc;
      let w = scale *. st.mesh.Fvm.Mesh.face_area.(f) in
      for l = 0 to n - 1 do
        lb.bpart.(l) <- lb.bpart.(l) +. (w *. lb.bterm.(l) /. vol)
      done
  done

(* u_new <- u + dt * rhs on the current group's lanes.  [u] and [u_new]
   share one shape and layout, so one element index serves both. *)
let advance_group st =
  let lb = st.lanes in
  let dt = !(st.dt) in
  let base = cell_base st.u st.env.Eval.cell and cs = comp_stride st.u in
  let ud = Fvm.Field.raw st.u and nd = Fvm.Field.raw st.u_new in
  for l = 0 to st.env.Eval.group.Eval.n - 1 do
    let e = base + (lb.comp.(l) * cs) in
    Bigarray.Array1.unsafe_set nd e
      (Bigarray.Array1.unsafe_get ud e +. (dt *. lb.rhs.(l)))
  done

(* u_new += the boundary part on the current group's lanes. *)
let advance_boundary st =
  boundary_part st ~scale:!(st.dt);
  let lb = st.lanes in
  let base = cell_base st.u_new st.env.Eval.cell and cs = comp_stride st.u_new in
  let nd = Fvm.Field.raw st.u_new in
  for l = 0 to st.env.Eval.group.Eval.n - 1 do
    let e = base + (lb.comp.(l) * cs) in
    Bigarray.Array1.unsafe_set nd e (Bigarray.Array1.unsafe_get nd e +. lb.bpart.(l))
  done

(* The forward-Euler sweep of the owned DOFs of [cells] into the double
   buffer: each slice's interior update through the generated kernel
   when the state has one (bit-identical by construction), else as a
   lane group, then, on a cell owning a conditioned boundary face, the
   slice's boundary part. *)
let advance_cells st cells =
  let comps = st.lanes.tup_comp in
  iterate_slices st ~cells (fun cell off n ->
      (match st.native with
       | Some nt -> nt.n_advance cell comps off n
       | None ->
         load_group st cell off n;
         rhs st;
         advance_group st);
      if conditioned st.face_bc st.mesh.Fvm.Mesh.cell_faces.(cell) 0 then begin
        if Option.is_some st.native then load_group st cell off n; (* no group yet *)
        advance_boundary st
      end)

let sweep st = advance_cells st st.info.owned_cells

(* The same sweep restricted to [cells] (a subset of the owned cells).
   Per-DOF updates are independent, so sweeping disjoint subsets in any
   order is bit-identical to one full [sweep] — which is what lets an
   executor sweep interior cells while ghost messages are in flight and
   frontier cells after they land. *)
let sweep_cells st cells = advance_cells st (Some cells)

(* Run [f base off n] on every slice of the owned DOFs (the owned cells'
   [iterate_slices]): the slice's elements in the unknown's storage, and
   in every field shaped like it ([raw_like]), are [base + tup_comp.(j)]
   for [j] in [off, off + n).  [f] loops over the elements itself, so no
   call is paid per element. *)
let iterate_owned st f =
  let ncomp = Fvm.Field.ncomp st.u in
  iterate_slices st ~cells:st.info.owned_cells (fun cell off n ->
      f (cell * ncomp) off n)

(* [f]'s storage, which [iterate_owned]'s elements index.
   @raise Invalid_argument unless [f] is cell-major and shaped like the
   unknown. *)
let raw_like st f =
  if
    Fvm.Field.layout f <> Fvm.Field.Cell_major
    || Fvm.Field.ncells f <> Fvm.Field.ncells st.u
    || Fvm.Field.ncomp f <> Fvm.Field.ncomp st.u
  then invalid_arg ("Lower: " ^ Fvm.Field.name f ^ " is not shaped like the unknown");
  Fvm.Field.raw f

(* Publish the double buffer: owned DOFs of u_new become current. *)
let commit st =
  let ud = raw_like st st.u and nd = raw_like st st.u_new in
  let comps = st.lanes.tup_comp in
  iterate_owned st (fun base off n ->
      for j = off to off + n - 1 do
        let e = base + comps.(j) in
        Bigarray.Array1.unsafe_set ud e (Bigarray.Array1.unsafe_get nd e)
      done)

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
        | Some i -> range_of st.info name (Entity.index_extent i));
    st_allreduce = allreduce;
    st_cells = st.info.owned_cells;
  }

let run_post_step st ~allreduce =
  let ctx = make_step_ctx st ~allreduce in
  List.iter (fun c -> c.Problem.pc_fn ctx) st.p.Problem.post_step

(* ------------------------------------------------------------------ *)
(* Support for the hybrid GPU target.                                  *)
(* ------------------------------------------------------------------ *)

(* A state whose programs read and write the given field storage (device
   views) instead of the base state's host fields.  Time/dt refs are shared
   with the base so both sides agree on the clock.  The base's condition
   table is shared, its expression programs included: a program binds to
   its first env and serves any env of the same indices and lanes, and
   the two states run on one domain.  Its callback faces stage again
   against the new storage, all at once on the state's first boundary
   evaluation: the fused schedule's B parity reads the unknown through
   [u_new], and device mirrors, which never evaluate a boundary, stage
   nothing. *)
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
  let env =
    Eval.make_env ~lanes:base.env.Eval.lanes ~mesh ~dt:base.dt ~time:base.time
      ~index_names
  in
  let compile = Eval.program ~faces:base.faces bindings in
  let st' =
    {
      base with
      fields;
      u = List.assoc base.uvar.Entity.vname fields;
      u_new;
      env;
      bindings;
      rvol = compile base.eq.Transform.rvol;
      rsurf = compile base.eq.Transform.rsurf;
      fpre = Option.map compile base.faces.Eval.form.Eval.pre;
      fvar = compile base.faces.Eval.form.Eval.var;
      lanes =
        make_lanebuf env ~faces:base.faces ~fields base.uvar
          ~tuples:(base.lanes.tup_iv, base.lanes.tup_comp)
          ~bcells:base.lanes.bcells;
      staged = lazy (stage_faces p mesh fields base.face_bc);
      rvol_du = lazy (compile (Transform.rvol_linearization base.eq));
      (* own accounting: sharing base's mutable breakdown record would make
         aggregators that sum both states double-count every phase *)
      breakdown = Prt.Breakdown.zero ();
      (* re-derive generated entry points against the rebound storage *)
      native = None;
    }
  in
  attach_native st';
  st'

(* The hybrid schedule's interior update of [cell]'s components
   [comps.(off) .. comps.(off + len - 1)]: u_new <- u + dt * (volume term
   plus interior-face fluxes), by the generated kernel or evaluated as
   lane groups of at most the env's lanes. *)
let update_interior st cell comps off len =
  match st.native with
  | Some nt -> nt.n_advance cell comps off len
  | None ->
    let cap = st.env.Eval.lanes in
    let o = ref off in
    while !o < off + len do
      let n = min cap (off + len - !o) in
      set_group st cell comps !o n;
      rhs st;
      advance_group st;
      o := !o + n
    done

(* The hybrid schedule's host share: the boundary part of every owned
   DOF of the cells owning a conditioned boundary face, written into
   [into], the same part the sweeps add.  Other values of [into] are
   left alone. *)
let boundary_contributions st ~into =
  let d = Fvm.Field.raw into and lb = st.lanes and cs = comp_stride into in
  iterate_groups_cells st ~cells:(Some lb.bcells) (fun () ->
      boundary_part st ~scale:!(st.dt);
      let base = cell_base into st.env.Eval.cell in
      for l = 0 to st.env.Eval.group.Eval.n - 1 do
        Bigarray.Array1.unsafe_set d (base + (lb.comp.(l) * cs)) lb.bpart.(l)
      done)

(* ------------------------------------------------------------------ *)
(* Runge-Kutta stage support (serial executor).                        *)
(* ------------------------------------------------------------------ *)

(* Evaluate R(u) for every owned DOF into [into] (no dt applied): the
   interior right-hand side, then the boundary part at scale 1. *)
let sweep_rhs st ~into =
  iterate_groups st (fun () ->
      let lb = st.lanes and cell = st.env.Eval.cell in
      rhs st;
      boundary_part st ~scale:1.;
      for l = 0 to st.env.Eval.group.Eval.n - 1 do
        Fvm.Field.set into cell lb.comp.(l) (lb.rhs.(l) +. lb.bpart.(l))
      done)

(* u := base + a * k over the owned DOFs. *)
let set_combination st ~base ~a ~k =
  let ud = raw_like st st.u and bd = raw_like st base and kd = raw_like st k in
  let comps = st.lanes.tup_comp in
  iterate_owned st (fun b off n ->
      for j = off to off + n - 1 do
        let e = b + comps.(j) in
        Bigarray.Array1.unsafe_set ud e
          (Bigarray.Array1.unsafe_get bd e +. (a *. Bigarray.Array1.unsafe_get kd e))
      done)

(* Point-implicit sweep: relaxation-type volume terms treated implicitly
   via the symbolic linearization b = -d(rvol)/du, advection explicit:
     u' = (u + dt*(rvol(u) + b*u + flux)) / (1 + dt*b),
   flux = interior sum / V + boundary part at scale 1.  Exact for volume
   terms affine in u (the BTE's (Io - I)*beta), and free of the
   dt * max(1/tau) < 1 stability bound. *)
let sweep_point_implicit st =
  let dt = !(st.dt) in
  let bf = Lazy.force st.rvol_du in
  iterate_groups st (fun () ->
      let env = st.env and lb = st.lanes in
      let cell = env.Eval.cell in
      let b = Eval.run bf env in
      let rv = Eval.run st.rvol env in
      surface st;
      boundary_part st ~scale:1.;
      let vol = st.mesh.Fvm.Mesh.cell_volume.(cell) in
      for l = 0 to env.Eval.group.Eval.n - 1 do
        let c = lb.comp.(l) in
        let u0 = Fvm.Field.get st.u cell c in
        let b = b.(l) and flux = (lb.flux.(l) /. vol) +. lb.bpart.(l) in
        let v = (u0 +. (dt *. (rv.(l) +. (b *. u0) +. flux))) /. (1. +. (dt *. b)) in
        Fvm.Field.set st.u_new cell c v
      done)

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
    let ud = raw_like st st.u and bd = raw_like st base in
    let k1 = raw_like st k1 and k2 = raw_like st k2
    and k3 = raw_like st k3 and k4 = raw_like st k4 in
    let comps = st.lanes.tup_comp and h = dt /. 6. in
    iterate_owned st (fun b off n ->
        let open Bigarray.Array1 in
        for j = off to off + n - 1 do
          let e = b + comps.(j) in
          let combo =
            unsafe_get k1 e
            +. (2. *. unsafe_get k2 e)
            +. (2. *. unsafe_get k3 e)
            +. unsafe_get k4 e
          in
          unsafe_set ud e (unsafe_get bd e +. (h *. combo))
        done)
