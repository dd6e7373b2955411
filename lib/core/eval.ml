(* Compilation of symbolic expressions to evaluation closures.

   The code generation targets do not interpret the AST in the inner loop:
   [compile] resolves every entity reference to a direct field/coefficient
   access once, producing a closure tree whose evaluation does no lookups,
   no allocation and no matching beyond the structure of the expression
   itself.  The closure reads loop state (current cell, face, index values)
   from a mutable environment owned by the executor.

   [cost] statically estimates FLOPs and DRAM traffic per evaluation; the
   GPU simulator's roofline model consumes these numbers. *)

open Finch_symbolic

exception Compile_error of string

type env = {
  mesh : Fvm.Mesh.t;
  dt : float ref;
  time : float ref;
  (* loop state, written by the executor *)
  mutable cell : int;
  mutable cell2 : int;   (* neighbour across the current face; -1 = ghost *)
  mutable face : int;
  mutable slot : int;    (* the current (cell, local face) slot of [faces] *)
  (* ghost accessor for boundary faces: variable name -> component -> value *)
  mutable ghost : (string -> int -> float) option;
  (* current value of each index variable, 0-based *)
  ivals : (string * int ref) list;
  (* traversal counter: bumped once per DOF traversal so tape evaluation
     knows when mutable inputs (field contents, dt, time) may have changed *)
  mutable epoch : int;
}

let make_env ~mesh ~dt ~time ~index_names =
  {
    mesh;
    dt;
    time;
    cell = 0;
    cell2 = -1;
    face = 0;
    slot = 0;
    ghost = None;
    ivals = List.map (fun n -> n, ref 0) index_names;
    epoch = 0;
  }

let bump_epoch env = env.epoch <- env.epoch + 1

let ival env name =
  match List.assoc_opt name env.ivals with
  | Some r -> r
  | None -> raise (Compile_error ("unknown index " ^ name))

(* What a compiled expression can reference. *)
type binding =
  | Bfield of Fvm.Field.t * (string * int * int) list
    (* field plus per-index (name, 1-based lo, stride) layout *)
  | Bcoef_const of float
  | Bcoef_arr of float array * string * int (* array, index name, 1-based lo *)
  | Bcoef_fn of (float array -> float)

type bindings = (string * binding) list

type compiled = env -> float

(* The face-invariant part of the surface integrand, tabulated once per
   solve (Lower.stage_interior) over the (cell, local face) slots: cell
   [c]'s face [mesh.cell_faces.(c).(i)] is slot [slot_start.(c) + i].  A
   compiled [NORMAL_k] reads the current slot's signed normal, and a
   [Cond] whose test is staged reads the test's byte table instead of
   evaluating it. *)
type faces = {
  dim : int;
  slot_start : int array;    (* per cell, its first slot; ncells + 1 entries *)
  slot_nbr : int array;      (* per slot: the neighbour cell, -1 on a boundary *)
  slot_normal : float array; (* per slot x dim: nsign * n_k *)
  tests : staged list;
}

and staged = {
  test : Expr.t;                 (* the Cond test the table replaces *)
  names : (string * int) list;   (* indices the test reads, with extents *)
  width : int;                   (* product of those extents *)
  holds : Bytes.t;
    (* per slot x index values (first name fastest): '\001' where the
       test is nonzero *)
}

(* Whether the staged test holds at the current slot and index values.
   The index cells are resolved against the env of the first call and
   memoized, as [compile_ref] does. *)
let holds_fn (t : staged) : env -> bool =
  let tab = t.holds and width = t.width in
  let strides =
    let rec go stride = function
      | [] -> []
      | (_, ext) :: rest -> stride :: go (stride * ext) rest
    in
    Array.of_list (go 1 t.names)
  in
  let cache : (env * int ref array) option ref = ref None in
  fun env ->
    let refs =
      match !cache with
      | Some (e, rs) when e == env -> rs
      | _ ->
        let rs = Array.of_list (List.map (fun (n, _) -> ival env n) t.names) in
        cache := Some (env, rs);
        rs
    in
    let off = ref 0 in
    for k = 0 to Array.length refs - 1 do
      off := !off + (!(refs.(k)) * strides.(k))
    done;
    Bytes.get tab ((env.slot * width) + !off) <> '\000'

(* Component offset closure for a field reference with the given index
   refs. *)
let compile_comp env layout (idx_refs : Expr.index_ref list) : env -> int =
  if List.length layout <> List.length idx_refs then
    raise (Compile_error "index arity mismatch");
  let pieces =
    List.map2
      (fun (iname, lo, stride) iref ->
        match iref with
        | Expr.Iconst k ->
          let p = k - lo in
          fun (_ : env) -> p * stride
        | Expr.Ivar n ->
          if not (String.equal n iname) then
            (* referencing a different index than the layout position was
               declared with is allowed as long as it is a known index —
               e.g. Io[b] on a variable declared over [b]. The layout
               position name is informative only; the *position* governs
               the stride. *)
            ();
          let r = ival env n in
          fun (_ : env) -> !r * stride
        | Expr.Ishift (n, k) ->
          let r = ival env n in
          fun (_ : env) -> (!r + k) * stride)
      layout idx_refs
  in
  fun env -> List.fold_left (fun acc f -> acc + f env) 0 pieces

let rec compile ?faces (bindings : bindings) (e : Expr.t) : compiled =
  let compile = compile ?faces in
  match e with
  | Expr.Num x -> fun _ -> x
  | Expr.Sym s -> compile_sym ?faces bindings s
  | Expr.Ref (name, idx_refs, side) -> compile_ref bindings name idx_refs side
  | Expr.Add es ->
    let fs = Array.of_list (List.map (compile bindings) es) in
    fun env ->
      let s = ref 0. in
      for i = 0 to Array.length fs - 1 do
        s := !s +. fs.(i) env
      done;
      !s
  | Expr.Mul es ->
    let fs = Array.of_list (List.map (compile bindings) es) in
    fun env ->
      let s = ref 1. in
      for i = 0 to Array.length fs - 1 do
        s := !s *. fs.(i) env
      done;
      !s
  | Expr.Pow (a, Expr.Num x) when Float.equal x (-1.) ->
    let fa = compile bindings a in
    fun env -> 1. /. fa env
  | Expr.Pow (a, Expr.Num x) when Float.equal x 2. ->
    let fa = compile bindings a in
    fun env ->
      let v = fa env in
      v *. v
  | Expr.Pow (a, b) ->
    let fa = compile bindings a and fb = compile bindings b in
    fun env -> Float.pow (fa env) (fb env)
  | Expr.Call (name, args) -> compile_call ?faces bindings name args
  | Expr.Cmp (op, a, b) ->
    let fa = compile bindings a and fb = compile bindings b in
    let test =
      match op with
      | Expr.Gt -> fun x y -> x > y
      | Expr.Ge -> fun x y -> x >= y
      | Expr.Lt -> fun x y -> x < y
      | Expr.Le -> fun x y -> x <= y
      | Expr.Eq -> fun x y -> Float.equal x y
      | Expr.Ne -> fun x y -> not (Float.equal x y)
    in
    fun env -> if test (fa env) (fb env) then 1. else 0.
  | Expr.Cond (c, t, el) -> (
    let ft = compile bindings t and fe = compile bindings el in
    match Option.bind faces (fun fs -> List.find_opt (fun st -> st.test = c) fs.tests) with
    | Some st ->
      let holds = holds_fn st in
      fun env -> if holds env then ft env else fe env
    | None ->
      let fc = compile bindings c in
      fun env -> if fc env <> 0. then ft env else fe env)

and compile_sym ?faces bindings s =
  match s with
  | "dt" -> fun env -> !(env.dt)
  | "t" | "time" -> fun env -> !(env.time)
  | "pi" -> fun _ -> Float.pi
  | "x" -> fun env -> env.mesh.Fvm.Mesh.cell_centroid.(env.cell * env.mesh.Fvm.Mesh.dim)
  | "y" ->
    fun env ->
      env.mesh.Fvm.Mesh.cell_centroid.((env.cell * env.mesh.Fvm.Mesh.dim) + 1)
  | "z" ->
    fun env ->
      env.mesh.Fvm.Mesh.cell_centroid.((env.cell * env.mesh.Fvm.Mesh.dim) + 2)
  | "VOLUME" -> fun env -> env.mesh.Fvm.Mesh.cell_volume.(env.cell)
  | "FACEAREA" -> fun env -> env.mesh.Fvm.Mesh.face_area.(env.face)
  | s when String.length s > 7 && String.sub s 0 7 = "NORMAL_" -> (
    let k = int_of_string (String.sub s 7 (String.length s - 7)) - 1 in
    match faces with
    | Some { slot_normal; dim; _ } -> fun env -> slot_normal.((env.slot * dim) + k)
    | None -> raise (Compile_error (s ^ " needs the face tables")))
  | s -> (
    match List.assoc_opt s bindings with
    | Some (Bcoef_const v) -> fun _ -> v
    | Some (Bcoef_fn f) ->
      fun env ->
        let d = env.mesh.Fvm.Mesh.dim in
        f (Array.init d (fun k -> env.mesh.Fvm.Mesh.cell_centroid.((env.cell * d) + k)))
    | Some (Bcoef_arr _) ->
      raise (Compile_error (s ^ " is an indexed coefficient; write " ^ s ^ "[i]"))
    | Some (Bfield _) ->
      raise (Compile_error (s ^ " is an indexed variable; write " ^ s ^ "[...]"))
    | None -> raise (Compile_error ("unknown symbol " ^ s)))

and compile_ref bindings name idx_refs side =
  match List.assoc_opt name bindings with
  | Some (Bfield (field, layout)) ->
    (* fail fast: arity errors are compile-time errors, not lazy runtime
       surprises inside the first evaluation *)
    if not (idx_refs = [] && layout = [])
       && List.length layout <> List.length idx_refs
    then
      raise
        (Compile_error
           (Printf.sprintf "%s expects %d indices, given %d" name
              (List.length layout) (List.length idx_refs)));
    (* Index-variable cells live in the runtime env, so the component
       closure is built lazily against the env of the first call and
       memoized (each compiled program runs against a single env). Scalar
       variables (no indices) read component 0. *)
    let cache : (env * (env -> int)) option ref = ref None in
    let comp env =
      match !cache with
      | Some (e, f) when e == env -> f env
      | _ ->
        let f =
          if idx_refs = [] && layout = [] then fun (_ : env) -> 0
          else compile_comp env layout idx_refs
        in
        cache := Some (env, f);
        f env
    in
    (match side with
     | Expr.Here | Expr.Cell1 ->
       fun env -> Fvm.Field.get field env.cell (comp env)
     | Expr.Cell2 ->
       fun env ->
         let c = comp env in
         if env.cell2 >= 0 then Fvm.Field.get field env.cell2 c
         else (
           match env.ghost with
           | Some g -> g name c
           | None ->
             raise
               (Compile_error
                  ("boundary face reached with no ghost accessor for " ^ name))))
  | Some (Bcoef_arr (arr, iname, lo)) -> (
    match idx_refs with
    | [ Expr.Ivar n ] ->
      ignore iname;
      let cache : (env * int ref) option ref = ref None in
      fun env ->
        let r =
          match !cache with
          | Some (e, r) when e == env -> r
          | _ ->
            let r = ival env n in
            cache := Some (env, r);
            r
        in
        arr.(!r)
    | [ Expr.Iconst k ] ->
      let v = arr.(k - lo) in
      fun _ -> v
    | _ -> raise (Compile_error ("coefficient " ^ name ^ " expects one index")))
  | Some (Bcoef_const v) -> fun _ -> v
  | Some (Bcoef_fn f) ->
    fun env ->
      let d = env.mesh.Fvm.Mesh.dim in
      f (Array.init d (fun k -> env.mesh.Fvm.Mesh.cell_centroid.((env.cell * d) + k)))
  | None -> raise (Compile_error ("unknown entity " ^ name))

and compile_call ?faces bindings name args =
  let compile = compile ?faces in
  let unary f =
    match args with
    | [ a ] ->
      let fa = compile bindings a in
      fun env -> f (fa env)
    | _ -> raise (Compile_error (name ^ " expects one argument"))
  in
  match name with
  | "sin" -> unary sin
  | "cos" -> unary cos
  | "tan" -> unary tan
  | "exp" -> unary exp
  | "log" -> unary log
  | "sqrt" -> unary sqrt
  | "abs" -> unary Float.abs
  | "sinh" -> unary sinh
  | "cosh" -> unary cosh
  | "tanh" -> unary tanh
  | "min" | "max" -> (
    match args with
    | [ a; b ] ->
      let fa = compile bindings a and fb = compile bindings b in
      let f = if name = "min" then Float.min else Float.max in
      fun env -> f (fa env) (fb env)
    | _ -> raise (Compile_error (name ^ " expects two arguments")))
  | _ ->
    raise
      (Compile_error
         (Printf.sprintf
            "unresolved call %s/%d (operators must be expanded before compilation)"
            name (List.length args)))

(* ------------------------------------------------------------------ *)
(* Tape compilation: flat register tape with CSE and invariant caching. *)
(* ------------------------------------------------------------------ *)

(* The closure tree above re-evaluates every node on every call.  A tape
   lowers the expression into SSA form — op [i] writes register [i], in
   producer-before-consumer order — which buys two things:

   - common-subexpression elimination: structurally equal subtrees (e.g.
     the advection speed "b . n" appearing in all three positions of an
     upwind cond) lower to a single op;

   - loop-invariant caching: each op carries a dependency signature
     (constant / epoch / cell / specific index variables / face) unioned
     over its subtree, and ops whose inputs did not change since the last
     run keep their register value instead of re-executing.  Terms that
     only depend on the outer loop variables are therefore hoisted out of
     the inner loops at run time — the band loop does not re-evaluate
     direction-only terms, the cell loop does not re-evaluate geometry.

   Field and coefficient-array contents can mutate between traversals
   (commit, post-step callbacks), so their loads also depend on an [epoch]
   counter which executors bump once per traversal (see [bump_epoch];
   Lower.iterate_dofs and friends call it).  Face-dependent ops (FACEAREA,
   normals, neighbour reads — whose value also depends on slot/cell2 and
   the ghost accessor) are never cached.

   Evaluation order within Add/Mul and the special-cased powers replicate
   the closure compiler exactly, so tape results are bit-identical.  The
   one semantic difference: [cond] evaluates both branches eagerly (float
   arithmetic cannot trap, and boundary evaluation always runs under a
   ghost accessor, so this is safe for every expressible program; an
   index-shifted reference whose range safety depends on a cond guard
   would need the closure evaluator). *)

type top =
  | Tleaf of compiled
  | Tadd of int array
  | Tmul of int array
  | Trecip of int
  | Tsq of int
  | Tpow of int * int
  | Tcall1 of (float -> float) * int
  | Tcall2 of (float -> float -> float) * int * int
  | Tcmp of (float -> float -> bool) * int * int
  | Tcond of int * int * int

type tsig = {
  s_face : bool;           (* never cached *)
  s_cell : bool;
  s_epoch : bool;
  s_ivars : string array;  (* sorted index-variable names *)
}

let sig_const = { s_face = false; s_cell = false; s_epoch = false; s_ivars = [||] }
let sig_epoch = { sig_const with s_epoch = true }
let sig_cell = { sig_const with s_cell = true }
let sig_face = { sig_const with s_face = true }

let sig_union a b =
  {
    s_face = a.s_face || b.s_face;
    s_cell = a.s_cell || b.s_cell;
    s_epoch = a.s_epoch || b.s_epoch;
    s_ivars =
      (if a.s_ivars = [||] then b.s_ivars
       else if b.s_ivars = [||] then a.s_ivars
       else
         Array.of_list
           (List.sort_uniq String.compare
              (Array.to_list a.s_ivars @ Array.to_list b.s_ivars)));
  }

(* Per-signature cache state: the input snapshot the group's registers
   were last computed against. *)
type tgroup = {
  g_sig : tsig;
  mutable c_epoch : int;
  mutable c_cell : int;
  c_ivals : int array;            (* parallel to g_sig.s_ivars *)
  mutable g_refs : int ref array; (* env index cells, resolved per env *)
}

type tape = {
  t_ops : top array;
  t_group_of : int array;  (* op index -> group index *)
  t_groups : tgroup array;
  t_regs : float array;
  t_dirty : bool array;    (* per group, scratch *)
  t_flops : float;         (* static post-CSE cost of one full evaluation *)
  t_loads : int;
  mutable t_env : env option;
  mutable t_runs : int;
  mutable t_exec : int;
}

let ivars_of_refs idx_refs =
  List.filter_map
    (function
      | Expr.Iconst _ -> None
      | Expr.Ivar n | Expr.Ishift (n, _) -> Some n)
    idx_refs
  |> List.sort_uniq String.compare |> Array.of_list

(* Dependency signature of a leaf (Num/Sym/Ref), mirroring the access
   each compiled closure performs. *)
let leaf_sig (bindings : bindings) (e : Expr.t) =
  match e with
  | Expr.Num _ -> sig_const
  | Expr.Sym s -> (
    match s with
    | "dt" | "t" | "time" -> sig_epoch
    | "pi" -> sig_const
    | "x" | "y" | "z" | "VOLUME" -> sig_cell (* static mesh geometry *)
    | "FACEAREA" -> sig_face
    | s when String.length s > 7 && String.sub s 0 7 = "NORMAL_" -> sig_face
    | s -> (
      match List.assoc_opt s bindings with
      | Some (Bcoef_const _) -> sig_const
      | Some (Bcoef_fn _) -> sig_cell
      | _ -> sig_epoch (* compile will raise; be conservative *)))
  | Expr.Ref (name, idx_refs, side) -> (
    match List.assoc_opt name bindings with
    | Some (Bfield _) -> (
      match side with
      | Expr.Cell2 -> sig_face (* also covers cell2/nsign/ghost changes *)
      | Expr.Here | Expr.Cell1 ->
        { s_face = false; s_cell = true; s_epoch = true;
          s_ivars = ivars_of_refs idx_refs })
    | Some (Bcoef_arr _) -> (
      match idx_refs with
      | [ Expr.Iconst _ ] -> sig_const (* closure bakes the value in *)
      | _ -> { sig_epoch with s_ivars = ivars_of_refs idx_refs })
    | Some (Bcoef_const _) -> sig_const
    | Some (Bcoef_fn _) -> sig_cell
    | None -> sig_epoch (* compile will raise *))
  | _ -> invalid_arg "leaf_sig: not a leaf"

let compile_tape ?faces (bindings : bindings) (e : Expr.t) : tape =
  let ops = ref [] and sigs = ref [] and nops = ref 0 in
  let flops = ref 0. and loads = ref 0 in
  let memo : (Expr.t, int) Hashtbl.t = Hashtbl.create 64 in
  let emit op s =
    let id = !nops in
    ops := op :: !ops;
    sigs := s :: !sigs;
    incr nops;
    id
  in
  let leaf e =
    (match e with
     | Expr.Ref _ -> incr loads
     | Expr.Sym s when String.length s > 7 && String.sub s 0 7 = "NORMAL_" ->
       incr loads
     | _ -> ());
    emit (Tleaf (compile ?faces bindings e)) (leaf_sig bindings e)
  in
  let sig_of id = List.nth !sigs (!nops - 1 - id) in
  let union_of ids = List.fold_left (fun s i -> sig_union s (sig_of i)) sig_const ids in
  let rec go (e : Expr.t) =
    match Hashtbl.find_opt memo e with
    | Some id -> id
    | None ->
      let id =
        match e with
        | Expr.Num _ | Expr.Sym _ | Expr.Ref _ -> leaf e
        | Expr.Add es ->
          let ids = List.map go es in
          flops := !flops +. float_of_int (List.length es - 1);
          emit (Tadd (Array.of_list ids)) (union_of ids)
        | Expr.Mul es ->
          let ids = List.map go es in
          flops := !flops +. float_of_int (List.length es - 1);
          emit (Tmul (Array.of_list ids)) (union_of ids)
        | Expr.Pow (a, Expr.Num x) when Float.equal x (-1.) ->
          let ia = go a in
          flops := !flops +. 4.;
          emit (Trecip ia) (sig_of ia)
        | Expr.Pow (a, Expr.Num x) when Float.equal x 2. ->
          let ia = go a in
          flops := !flops +. 4.;
          emit (Tsq ia) (sig_of ia)
        | Expr.Pow (a, b) ->
          let ia = go a in
          let ib = go b in
          flops := !flops +. 4.;
          emit (Tpow (ia, ib)) (union_of [ ia; ib ])
        | Expr.Call (("min" | "max") as name, [ a; b ]) ->
          let ia = go a in
          let ib = go b in
          let f = if name = "min" then Float.min else Float.max in
          flops := !flops +. 1.;
          emit (Tcall2 (f, ia, ib)) (union_of [ ia; ib ])
        | Expr.Call (name, args) ->
          let f, weight =
            match name with
            | "sin" -> sin, 8.
            | "cos" -> cos, 8.
            | "tan" -> tan, 8.
            | "exp" -> exp, 8.
            | "log" -> log, 8.
            | "sqrt" -> sqrt, 8.
            | "abs" -> Float.abs, 1.
            | "sinh" -> sinh, 8.
            | "cosh" -> cosh, 8.
            | "tanh" -> tanh, 8.
            | _ ->
              raise
                (Compile_error
                   (Printf.sprintf
                      "unresolved call %s/%d (operators must be expanded \
                       before compilation)"
                      name (List.length args)))
          in
          (match args with
           | [ a ] ->
             let ia = go a in
             flops := !flops +. weight;
             emit (Tcall1 (f, ia)) (sig_of ia)
           | _ -> raise (Compile_error (name ^ " expects one argument")))
        | Expr.Cmp (op, a, b) ->
          let ia = go a in
          let ib = go b in
          let test =
            match op with
            | Expr.Gt -> fun x y -> x > y
            | Expr.Ge -> fun x y -> x >= y
            | Expr.Lt -> fun x y -> x < y
            | Expr.Le -> fun x y -> x <= y
            | Expr.Eq -> fun x y -> Float.equal x y
            | Expr.Ne -> fun x y -> not (Float.equal x y)
          in
          flops := !flops +. 1.;
          emit (Tcmp (test, ia, ib)) (union_of [ ia; ib ])
        | Expr.Cond (c, t, el) ->
          let ic = go c in
          let it = go t in
          let ie = go el in
          emit (Tcond (ic, it, ie)) (union_of [ ic; it; ie ])
      in
      Hashtbl.replace memo e id;
      id
  in
  let _root = go e in
  let ops = Array.of_list (List.rev !ops) in
  let sigs = Array.of_list (List.rev !sigs) in
  (* group ops by signature *)
  let groups = ref [] and ngroups = ref 0 in
  let group_of =
    Array.map
      (fun s ->
        match
          List.find_opt (fun (_, s') -> s = s') !groups
        with
        | Some (gi, _) -> gi
        | None ->
          let gi = !ngroups in
          groups := (gi, s) :: !groups;
          incr ngroups;
          gi)
      sigs
  in
  let groups =
    Array.init !ngroups (fun gi ->
        let s = List.assoc gi !groups in
        {
          g_sig = s;
          c_epoch = min_int;
          c_cell = min_int;
          c_ivals = Array.make (Array.length s.s_ivars) min_int;
          g_refs = [||];
        })
  in
  {
    t_ops = ops;
    t_group_of = group_of;
    t_groups = groups;
    t_regs = Array.make (Array.length ops) 0.;
    t_dirty = Array.make !ngroups true;
    t_flops = !flops;
    t_loads = !loads;
    t_env = None;
    t_runs = 0;
    t_exec = 0;
  }

let tape_run (t : tape) (env : env) : float =
  let groups = t.t_groups in
  (* bind to the env on first use (or env change): resolve index cells and
     force a full evaluation *)
  let fresh =
    match t.t_env with
    | Some e when e == env -> false
    | _ ->
      t.t_env <- Some env;
      Array.iter
        (fun g -> g.g_refs <- Array.map (fun n -> ival env n) g.g_sig.s_ivars)
        groups;
      true
  in
  for gi = 0 to Array.length groups - 1 do
    let g = groups.(gi) in
    let s = g.g_sig in
    let dirty =
      fresh || s.s_face
      || (s.s_epoch && g.c_epoch <> env.epoch)
      || (s.s_cell && g.c_cell <> env.cell)
      ||
      let n = Array.length g.g_refs in
      let rec changed i = i < n && (!(g.g_refs.(i)) <> g.c_ivals.(i) || changed (i + 1)) in
      changed 0
    in
    if dirty then begin
      g.c_epoch <- env.epoch;
      g.c_cell <- env.cell;
      Array.iteri (fun i r -> g.c_ivals.(i) <- !r) g.g_refs
    end;
    t.t_dirty.(gi) <- dirty
  done;
  let ops = t.t_ops and regs = t.t_regs and gof = t.t_group_of in
  let dirty = t.t_dirty in
  (* interpreter inner loop: indices are constructed in-range, so use
     unchecked accesses *)
  let reg j = Array.unsafe_get regs j in
  let nexec = ref 0 in
  for i = 0 to Array.length ops - 1 do
    if Array.unsafe_get dirty (Array.unsafe_get gof i) then begin
      incr nexec;
      Array.unsafe_set regs i
        (match Array.unsafe_get ops i with
         | Tleaf f -> f env
         | Tadd js ->
           let s = ref 0. in
           for k = 0 to Array.length js - 1 do
             s := !s +. reg (Array.unsafe_get js k)
           done;
           !s
         | Tmul js ->
           let s = ref 1. in
           for k = 0 to Array.length js - 1 do
             s := !s *. reg (Array.unsafe_get js k)
           done;
           !s
         | Trecip j -> 1. /. reg j
         | Tsq j ->
           let v = reg j in
           v *. v
         | Tpow (a, b) -> Float.pow (reg a) (reg b)
         | Tcall1 (f, a) -> f (reg a)
         | Tcall2 (f, a, b) -> f (reg a) (reg b)
         | Tcmp (test, a, b) -> if test (reg a) (reg b) then 1. else 0.
         | Tcond (c, th, el) -> if reg c <> 0. then reg th else reg el)
    end
  done;
  t.t_runs <- t.t_runs + 1;
  t.t_exec <- t.t_exec + !nexec;
  regs.(Array.length ops - 1)

let tape_compiled (t : tape) : compiled = fun env -> tape_run t env
let tape_length (t : tape) = Array.length t.t_ops
let tape_runs (t : tape) = t.t_runs
let tape_executed (t : tape) = t.t_exec

let tape_reset_stats (t : tape) =
  t.t_runs <- 0;
  t.t_exec <- 0

(* ------------------------------------------------------------------ *)
(* Static cost estimation for the roofline model.                      *)
(* ------------------------------------------------------------------ *)

type cost = { flops : float; loads : int }

let cost e =
  let flops = ref 0. and loads = ref 0 in
  let count _ n =
    (match n with
     | Expr.Add es -> flops := !flops +. float_of_int (List.length es - 1)
     | Expr.Mul es -> flops := !flops +. float_of_int (List.length es - 1)
     | Expr.Pow _ -> flops := !flops +. 4.
     | Expr.Call (("min" | "max" | "abs"), _) -> flops := !flops +. 1.
     | Expr.Call _ -> flops := !flops +. 8. (* transcendental *)
     | Expr.Cmp _ -> flops := !flops +. 1.
     | Expr.Ref _ -> incr loads
     | Expr.Sym s when String.length s > 7 && String.sub s 0 7 = "NORMAL_" ->
       incr loads
     | Expr.Sym _ | Expr.Num _ | Expr.Cond _ -> ());
    ()
  in
  Expr.fold count () e;
  { flops = !flops; loads = !loads }

(* Post-CSE cost of one full tape evaluation: same per-op weights as
   [cost], but duplicate subtrees are only counted once.  The run-time op
   skip rate ([tape_executed] / ([tape_runs] * [tape_length])) refines
   this further. *)
let tape_cost (t : tape) = { flops = t.t_flops; loads = t.t_loads }
