(* Compilation of symbolic expressions to lane programs.

   The code generation targets do not interpret the AST in the inner loop:
   [program] resolves every entity reference to a direct field/coefficient
   access once, producing a tree of nodes that evaluates over a lane group
   — DOFs that share one cell, one lane per component, as a GPU warp runs
   its threads in lockstep.  Each node loops over the group's active lanes
   into its own preallocated float array, so node dispatch is paid once per
   group instead of once per DOF, and an evaluation allocates nothing.
   Every lane performs exactly the float operations of a per-DOF
   evaluation, in the same order; the scalar entry [compile] is the same
   program run on one lane.

   [cost] statically estimates FLOPs and DRAM traffic per evaluation; the
   GPU simulator's roofline model consumes these numbers. *)

open Finch_symbolic

exception Compile_error of string

(* The most lanes a group holds: one kernel block. *)
let max_lanes = 256

(* A lane group: per index of the env (in [make_env]'s order), each
   lane's 0-based value.  The cell, face and slot are the env's, shared
   by every lane.  [stamp] changes whenever the lanes do ([touch]): a
   program reuses the offsets it derived from them until it does. *)
type lanes = {
  mutable n : int;
  iv : int array array;
  mutable stamp : int;
}

let touch (g : lanes) = g.stamp <- g.stamp + 1

type env = {
  mesh : Fvm.Mesh.t;
  dt : float ref;
  time : float ref;
  (* loop state, written by the executor *)
  mutable cell : int;
  mutable cell2 : int;   (* neighbour across the current face; -1 = ghost *)
  mutable face : int;
  mutable slot : int;    (* the current (cell, local face) slot of [faces] *)
  (* ghost accessor for boundary faces: variable name -> lane -> component
     -> value *)
  mutable ghost : (string -> int -> int -> float) option;
  (* current value of each index variable, 0-based: what the scalar entry
     reads *)
  ivals : (string * int ref) list;
  lanes : int;           (* lanes a group may hold; sizes program scratch *)
  group : lanes;         (* the current lane group, written by the executor *)
  one : lanes;           (* the scalar entry's one-lane group *)
}

let make_group nidx cap =
  { n = 0; iv = Array.init nidx (fun _ -> Array.make cap 0); stamp = 0 }

let make_env ~lanes ~mesh ~dt ~time ~index_names =
  if lanes < 1 || lanes > max_lanes then
    invalid_arg (Printf.sprintf "Eval.make_env: %d lanes (1..%d)" lanes max_lanes);
  let nidx = List.length index_names in
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
    lanes;
    group = make_group nidx lanes;
    one = make_group nidx 1;
  }

let ival env name =
  match List.assoc_opt name env.ivals with
  | Some r -> r
  | None -> raise (Compile_error ("unknown index " ^ name))

(* Lane [l] of [g] takes the env's index values [ivals] (from the [k]-th
   on); closure-free, since the scalar entry runs it per evaluation. *)
let rec copy_ivals (g : lanes) l k = function
  | [] -> ()
  | (_, r) :: rest ->
    g.iv.(k).(l) <- !r;
    copy_ivals g l (k + 1) rest

(* Lane [l] of [g] takes the env's current index values. *)
let lane_of_ivals env (g : lanes) l =
  copy_ivals g l 0 env.ivals;
  touch g

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

(* ------------------------------------------------------------------ *)
(* Lane programs.                                                      *)
(* ------------------------------------------------------------------ *)

(* An index-dependent offset: [base + Σ_k iv.(pos.(k)).(lane) * strides.(k)].
   Field components, coefficient indices and staged-test offsets are all
   selectors, shared by the nodes of a program that name the same one;
   [pos] is resolved once, against the env the program binds to, and the
   per-lane offsets once per group ([offsets]). *)
type sel = {
  base : int;
  names : string array;
  strides : int array;
  mutable pos : int array;
  mutable offs : int array;  (* per lane of [src] at [stamp] *)
  mutable src : lanes;
  mutable stamp : int;
}

let no_lanes = { n = 0; iv = [||]; stamp = 0 }

(* A value shared by every lane of a group: computed once per group. *)
type uniform =
  | U_dt
  | U_time
  | U_centroid of int
  | U_volume
  | U_facearea
  | U_normal of float array * int * int (* slot normals, dim, component *)
  | U_fn of (float array -> float)

type fn1 = Sin | Cos | Tan | Exp | Log | Sqrt | Abs | Sinh | Cosh | Tanh

(* A node writes its value at each active lane into [out], allocated at
   bind with one entry per lane.  A group-uniform value lives in a
   one-entry array, so it passes between functions unboxed. *)
type node = { op : op; mutable out : float array }

and op =
  | Const of float array            (* [out] filled once, at bind *)
  | Uniform of uniform * float array
  | Load of load
  | Coef of float array * sel       (* coefficient array by index variable *)
  | Add of node array
  | Mul of node array
  | Recip of node
  | Sq of node
  | Pow of node * node
  | Call1 of fn1 * node
  | Call2 of bool * node * node     (* true: max, false: min *)
  | Cmp of Expr.cmp_op * node * node
  | Cond of cond

and load = {
  name : string;
  data : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  cell_stride : int;                (* element of (cell, comp) is *)
  comp_stride : int;                (* cell * cell_stride + comp * comp_stride *)
  ncomp : int;
  sel : sel;
  across : bool;                    (* a Cell2 read: neighbour or ghost *)
  shifted : bool;                   (* an index shift: range-checked *)
}

(* Each branch runs only on the lanes whose test takes it: [on_t] and
   [on_e] receive the split of the active lanes. *)
and cond = {
  test : test;
  th : node;
  el : node;
  mutable on_t : int array;
  mutable on_e : int array;
}

and test =
  | Test of node
  | Staged of Bytes.t * int * sel   (* table, width, offset within the slot *)

let node op = { op; out = [||] }

(* Selectors of one program, shared by structure. *)
let selector sels base names strides =
  let key = base, names, strides in
  match Hashtbl.find_opt sels key with
  | Some s -> s
  | None ->
    let s =
      { base; names; strides; pos = [||]; offs = [||]; src = no_lanes; stamp = 0 }
    in
    Hashtbl.add sels key s;
    s

let sel_of sels layout idx_refs =
  let base = ref 0 and vars = ref [] and shifted = ref false in
  List.iter2
    (fun (_, lo, stride) iref ->
      match iref with
      | Expr.Iconst k -> base := !base + ((k - lo) * stride)
      | Expr.Ivar n ->
        (* referencing a different index than the layout position was
           declared with is allowed as long as it is a known index —
           e.g. Io[b] on a variable declared over [b]. The layout
           position name is informative only; the *position* governs
           the stride. *)
        vars := (n, stride) :: !vars
      | Expr.Ishift (n, k) ->
        base := !base + (k * stride);
        vars := (n, stride) :: !vars;
        shifted := true)
    layout idx_refs;
  let vars = List.rev !vars in
  ( selector sels !base
      (Array.of_list (List.map fst vars))
      (Array.of_list (List.map snd vars)),
    !shifted )

let rec build ?faces sels (bindings : bindings) (e : Expr.t) : node =
  let build = build ?faces sels bindings in
  match e with
  | Expr.Num x -> node (Const [| x |])
  | Expr.Sym s -> build_sym ?faces bindings s
  | Expr.Ref (name, idx_refs, side) -> build_ref sels bindings name idx_refs side
  | Expr.Add es -> node (Add (Array.of_list (List.map build es)))
  | Expr.Mul es -> node (Mul (Array.of_list (List.map build es)))
  | Expr.Pow (a, Expr.Num x) when Float.equal x (-1.) -> node (Recip (build a))
  | Expr.Pow (a, Expr.Num x) when Float.equal x 2. -> node (Sq (build a))
  | Expr.Pow (a, b) ->
    let na = build a in
    node (Pow (na, build b))
  | Expr.Call (name, args) -> build_call ?faces sels bindings name args
  | Expr.Cmp (op, a, b) ->
    let na = build a in
    node (Cmp (op, na, build b))
  | Expr.Cond (c, t, el) ->
    let th = build t in
    let el = build el in
    let test =
      match
        Option.bind faces (fun fs ->
            List.find_opt (fun (st : staged) -> st.test = c) fs.tests)
      with
      | Some st ->
        (* the table's offset within a slot: first name fastest *)
        let _, strides =
          List.fold_left
            (fun (stride, acc) (n, ext) -> stride * ext, (n, stride) :: acc)
            (1, []) st.names
        in
        let strides = List.rev strides in
        Staged
          ( st.holds,
            st.width,
            selector sels 0
              (Array.of_list (List.map fst strides))
              (Array.of_list (List.map snd strides)) )
      | None -> Test (build c)
    in
    node (Cond { test; th; el; on_t = [||]; on_e = [||] })

and build_sym ?faces bindings s =
  let uniform u = node (Uniform (u, [| 0. |])) in
  match s with
  | "dt" -> uniform U_dt
  | "t" | "time" -> uniform U_time
  | "pi" -> node (Const [| Float.pi |])
  | "x" -> uniform (U_centroid 0)
  | "y" -> uniform (U_centroid 1)
  | "z" -> uniform (U_centroid 2)
  | "VOLUME" -> uniform U_volume
  | "FACEAREA" -> uniform U_facearea
  | s when String.length s > 7 && String.sub s 0 7 = "NORMAL_" -> (
    let k = int_of_string (String.sub s 7 (String.length s - 7)) - 1 in
    match faces with
    | Some { slot_normal; dim; _ } -> uniform (U_normal (slot_normal, dim, k))
    | None -> raise (Compile_error (s ^ " needs the face tables")))
  | s -> (
    match List.assoc_opt s bindings with
    | Some (Bcoef_const v) -> node (Const [| v |])
    | Some (Bcoef_fn f) -> uniform (U_fn f)
    | Some (Bcoef_arr _) ->
      raise (Compile_error (s ^ " is an indexed coefficient; write " ^ s ^ "[i]"))
    | Some (Bfield _) ->
      raise (Compile_error (s ^ " is an indexed variable; write " ^ s ^ "[...]"))
    | None -> raise (Compile_error ("unknown symbol " ^ s)))

and build_ref sels bindings name idx_refs side =
  match List.assoc_opt name bindings with
  | Some (Bfield (field, layout)) ->
    (* fail fast: arity errors are compile-time errors, not lazy runtime
       surprises inside the first evaluation.  Scalar variables (no
       indices) read component 0. *)
    if List.length layout <> List.length idx_refs then
      raise
        (Compile_error
           (Printf.sprintf "%s expects %d indices, given %d" name
              (List.length layout) (List.length idx_refs)));
    let sel, shifted = sel_of sels layout idx_refs in
    let cell_stride, comp_stride =
      match Fvm.Field.layout field with
      | Fvm.Field.Cell_major -> Fvm.Field.ncomp field, 1
      | Fvm.Field.Comp_major -> 1, Fvm.Field.ncells field
    in
    node
      (Load
         { name;
           data = Fvm.Field.raw field;
           cell_stride;
           comp_stride;
           ncomp = Fvm.Field.ncomp field;
           sel;
           across = side = Expr.Cell2;
           shifted })
  | Some (Bcoef_arr (arr, _, lo)) -> (
    match idx_refs with
    | [ Expr.Ivar n ] -> node (Coef (arr, selector sels 0 [| n |] [| 1 |]))
    | [ Expr.Iconst k ] -> node (Const [| arr.(k - lo) |])
    | _ -> raise (Compile_error ("coefficient " ^ name ^ " expects one index")))
  | Some (Bcoef_const v) -> node (Const [| v |])
  | Some (Bcoef_fn f) -> node (Uniform (U_fn f, [| 0. |]))
  | None -> raise (Compile_error ("unknown entity " ^ name))

and build_call ?faces sels bindings name args =
  let build = build ?faces sels bindings in
  let unary f =
    match args with
    | [ a ] -> node (Call1 (f, build a))
    | _ -> raise (Compile_error (name ^ " expects one argument"))
  in
  match name with
  | "sin" -> unary Sin
  | "cos" -> unary Cos
  | "tan" -> unary Tan
  | "exp" -> unary Exp
  | "log" -> unary Log
  | "sqrt" -> unary Sqrt
  | "abs" -> unary Abs
  | "sinh" -> unary Sinh
  | "cosh" -> unary Cosh
  | "tanh" -> unary Tanh
  | "min" | "max" -> (
    match args with
    | [ a; b ] ->
      let na = build a in
      node (Call2 (name = "max", na, build b))
    | _ -> raise (Compile_error (name ^ " expects two arguments")))
  | _ ->
    raise
      (Compile_error
         (Printf.sprintf
            "unresolved call %s/%d (operators must be expanded before compilation)"
            name (List.length args)))

(* The selector's offset at every lane of [g], computed when [g] last
   changed. *)
let offsets (s : sel) (g : lanes) =
  if s.src != g || s.stamp <> g.stamp then begin
    let offs = s.offs in
    for l = 0 to g.n - 1 do
      let c = ref s.base in
      for k = 0 to Array.length s.pos - 1 do
        c := !c + (g.iv.(s.pos.(k)).(l) * s.strides.(k))
      done;
      offs.(l) <- !c
    done;
    s.src <- g;
    s.stamp <- g.stamp
  end;
  s.offs

let shift_error ld c =
  raise
    (Compile_error
       (Printf.sprintf "%s: shifted index past the range (component %d of %d)"
          ld.name c ld.ncomp))

(* A uniform's value at the env's loop state, into [cell.(0)]. *)
let set_uniform env u (cell : float array) =
  cell.(0) <-
    (match u with
     | U_dt -> !(env.dt)
     | U_time -> !(env.time)
     | U_centroid k ->
       env.mesh.Fvm.Mesh.cell_centroid.((env.cell * env.mesh.Fvm.Mesh.dim) + k)
     | U_volume -> env.mesh.Fvm.Mesh.cell_volume.(env.cell)
     | U_facearea -> env.mesh.Fvm.Mesh.face_area.(env.face)
     | U_normal (nrm, dim, k) -> nrm.((env.slot * dim) + k)
     | U_fn f ->
       let d = env.mesh.Fvm.Mesh.dim in
       f (Array.init d (fun k -> env.mesh.Fvm.Mesh.cell_centroid.((env.cell * d) + k))))

(* The row of a load's cell: the current cell, or across the face the
   neighbour; -1 on a boundary slot, where the ghost accessor answers. *)
let load_row env ld =
  let cell =
    if not ld.across then env.cell else if env.cell2 >= 0 then env.cell2 else -1
  in
  if cell >= 0 then cell * ld.cell_stride else -1

(* The combining step of an Add ([mul] false) or Mul node: each active
   lane's accumulator, starting from 0. or 1. at the first operand, takes
   the operand's value at that lane.  One function per operand source,
   so leaves are read in the same pass; none allocates. *)
let combine_scalar out (act : int array) na mul first (v : float array) =
  let x = v.(0) in
  for i = 0 to na - 1 do
    let l = Array.unsafe_get act i in
    let a = if first then (if mul then 1. else 0.) else Array.unsafe_get out l in
    Array.unsafe_set out l (if mul then a *. x else a +. x)
  done

let combine_buf out (act : int array) na mul first (v : float array) =
  for i = 0 to na - 1 do
    let l = Array.unsafe_get act i in
    let x = Array.unsafe_get v l in
    let a = if first then (if mul then 1. else 0.) else Array.unsafe_get out l in
    Array.unsafe_set out l (if mul then a *. x else a +. x)
  done

let combine_load out (act : int array) na mul first ld row (offs : int array) =
  for i = 0 to na - 1 do
    let l = Array.unsafe_get act i in
    let c = Array.unsafe_get offs l in
    if ld.shifted && (c < 0 || c >= ld.ncomp) then shift_error ld c;
    let x = Bigarray.Array1.unsafe_get ld.data (row + (c * ld.comp_stride)) in
    let a = if first then (if mul then 1. else 0.) else Array.unsafe_get out l in
    Array.unsafe_set out l (if mul then a *. x else a +. x)
  done

let combine_coef out (act : int array) na mul first (arr : float array)
    (offs : int array) =
  for i = 0 to na - 1 do
    let l = Array.unsafe_get act i in
    let x = arr.(Array.unsafe_get offs l) in
    let a = if first then (if mul then 1. else 0.) else Array.unsafe_get out l in
    Array.unsafe_set out l (if mul then a *. x else a +. x)
  done

(* Evaluate [nd] at the first [na] lanes of [act].  Lane indices below
   the env's lane count and buffers of that length are established at
   bind, so the loops use unchecked accesses; no loop allocates (local
   closures would, so there are none).  Binary nodes evaluate their right
   operand first, as OCaml evaluates a closure's arguments. *)
let rec exec env (g : lanes) nd (act : int array) na =
  let out = nd.out in
  match nd.op with
  | Const _ -> ()
  | Uniform (u, v) ->
    set_uniform env u v;
    let x = v.(0) in
    for i = 0 to na - 1 do
      Array.unsafe_set out (Array.unsafe_get act i) x
    done
  | Load ld ->
    let offs = offsets ld.sel g in
    let row = load_row env ld in
    if row >= 0 then
      for i = 0 to na - 1 do
        let l = Array.unsafe_get act i in
        let c = Array.unsafe_get offs l in
        if ld.shifted && (c < 0 || c >= ld.ncomp) then shift_error ld c;
        Array.unsafe_set out l
          (Bigarray.Array1.unsafe_get ld.data (row + (c * ld.comp_stride)))
      done
    else begin
      match env.ghost with
      | Some gh ->
        for i = 0 to na - 1 do
          let l = Array.unsafe_get act i in
          let c = Array.unsafe_get offs l in
          if ld.shifted && (c < 0 || c >= ld.ncomp) then shift_error ld c;
          Array.unsafe_set out l (gh ld.name l c)
        done
      | None ->
        raise
          (Compile_error
             ("boundary face reached with no ghost accessor for " ^ ld.name))
    end
  | Coef (arr, s) ->
    let offs = offsets s g in
    for i = 0 to na - 1 do
      let l = Array.unsafe_get act i in
      Array.unsafe_set out l arr.(Array.unsafe_get offs l)
    done
  | Add cs -> fold env g out cs act na false
  | Mul cs -> fold env g out cs act na true
  | Recip a ->
    exec env g a act na;
    let v = a.out in
    for i = 0 to na - 1 do
      let l = Array.unsafe_get act i in
      Array.unsafe_set out l (1. /. Array.unsafe_get v l)
    done
  | Sq a ->
    exec env g a act na;
    let v = a.out in
    for i = 0 to na - 1 do
      let l = Array.unsafe_get act i in
      let x = Array.unsafe_get v l in
      Array.unsafe_set out l (x *. x)
    done
  | Pow (a, b) ->
    exec env g b act na;
    exec env g a act na;
    let va = a.out and vb = b.out in
    for i = 0 to na - 1 do
      let l = Array.unsafe_get act i in
      Array.unsafe_set out l
        (Float.pow (Array.unsafe_get va l) (Array.unsafe_get vb l))
    done
  | Call1 (f, a) ->
    exec env g a act na;
    let v = a.out in
    for i = 0 to na - 1 do
      let l = Array.unsafe_get act i in
      let x = Array.unsafe_get v l in
      Array.unsafe_set out l
        (match f with
         | Sin -> sin x
         | Cos -> cos x
         | Tan -> tan x
         | Exp -> exp x
         | Log -> log x
         | Sqrt -> sqrt x
         | Abs -> Float.abs x
         | Sinh -> sinh x
         | Cosh -> cosh x
         | Tanh -> tanh x)
    done
  | Call2 (is_max, a, b) ->
    exec env g b act na;
    exec env g a act na;
    let va = a.out and vb = b.out in
    for i = 0 to na - 1 do
      let l = Array.unsafe_get act i in
      let x = Array.unsafe_get va l and y = Array.unsafe_get vb l in
      Array.unsafe_set out l (if is_max then Float.max x y else Float.min x y)
    done
  | Cmp (op, a, b) ->
    exec env g b act na;
    exec env g a act na;
    let va = a.out and vb = b.out in
    for i = 0 to na - 1 do
      let l = Array.unsafe_get act i in
      let x = Array.unsafe_get va l and y = Array.unsafe_get vb l in
      let holds =
        match op with
        | Expr.Gt -> x > y
        | Expr.Ge -> x >= y
        | Expr.Lt -> x < y
        | Expr.Le -> x <= y
        | Expr.Eq -> Float.compare x y = 0
        | Expr.Ne -> Float.compare x y <> 0
      in
      Array.unsafe_set out l (if holds then 1. else 0.)
    done
  | Cond cd ->
    (* split the active lanes by the test, then run each branch on its
       own lanes only *)
    let on_t = cd.on_t and on_e = cd.on_e in
    let nt = ref 0 and ne = ref 0 in
    (match cd.test with
     | Test t ->
       exec env g t act na;
       let v = t.out in
       for i = 0 to na - 1 do
         let l = Array.unsafe_get act i in
         if Array.unsafe_get v l <> 0. then begin
           Array.unsafe_set on_t !nt l;
           incr nt
         end
         else begin
           Array.unsafe_set on_e !ne l;
           incr ne
         end
       done
     | Staged (holds, width, s) ->
       let offs = offsets s g in
       let at = env.slot * width in
       for i = 0 to na - 1 do
         let l = Array.unsafe_get act i in
         if Bytes.get holds (at + Array.unsafe_get offs l) <> '\000' then begin
           Array.unsafe_set on_t !nt l;
           incr nt
         end
         else begin
           Array.unsafe_set on_e !ne l;
           incr ne
         end
       done);
    let nt = !nt and ne = !ne in
    if nt > 0 then begin
      exec env g cd.th on_t nt;
      let v = cd.th.out in
      for i = 0 to nt - 1 do
        let l = Array.unsafe_get on_t i in
        Array.unsafe_set out l (Array.unsafe_get v l)
      done
    end;
    if ne > 0 then begin
      exec env g cd.el on_e ne;
      let v = cd.el.out in
      for i = 0 to ne - 1 do
        let l = Array.unsafe_get on_e i in
        Array.unsafe_set out l (Array.unsafe_get v l)
      done
    end

(* An Add or Mul: operands in order, a leaf read in the combining pass
   itself, any other operand evaluated into its buffer first. *)
and fold env g out cs act na mul =
  for j = 0 to Array.length cs - 1 do
    let c = Array.unsafe_get cs j in
    let first = j = 0 in
    match c.op with
    | Const v -> combine_scalar out act na mul first v
    | Uniform (u, v) ->
      set_uniform env u v;
      combine_scalar out act na mul first v
    | Load ld when load_row env ld >= 0 ->
      combine_load out act na mul first ld (load_row env ld) (offsets ld.sel g)
    | Coef (arr, s) -> combine_coef out act na mul first arr (offsets s g)
    | _ ->
      exec env g c act na;
      combine_buf out act na mul first c.out
  done;
  if Array.length cs = 0 then
    for i = 0 to na - 1 do
      Array.unsafe_set out (Array.unsafe_get act i) (if mul then 1. else 0.)
    done

(* A compiled expression: its node tree, and the env it is bound to.
   Binding resolves every selector's index positions against the env and
   allocates the scratch — one lane buffer per node, the lane splits of
   every [Cond] and the offsets of every selector, each sized to the
   env's lane count — once per program.  A program bound to one env
   serves any other of the same indices and lane count unchanged. *)
type lprog = {
  root : node;
  sels : sel list;
  mutable bound : env option;
  mutable ident : int array;   (* lanes 0 .. lanes - 1: every lane active *)
}

let bind lp env =
  let cap = env.lanes in
  List.iter
    (fun (s : sel) ->
      s.pos <-
        Array.map
          (fun n ->
            let rec find k = function
              | [] -> raise (Compile_error ("unknown index " ^ n))
              | (m, _) :: rest -> if String.equal m n then k else find (k + 1) rest
            in
            find 0 env.ivals)
          s.names;
      s.offs <- Array.make cap 0;
      s.src <- no_lanes)
    lp.sels;
  let rec go nd =
    nd.out <- Array.make cap (match nd.op with Const v -> v.(0) | _ -> 0.);
    match nd.op with
    | Const _ | Uniform _ | Load _ | Coef _ -> ()
    | Add cs | Mul cs -> Array.iter go cs
    | Recip a | Sq a | Call1 (_, a) -> go a
    | Pow (a, b) | Call2 (_, a, b) | Cmp (_, a, b) ->
      go a;
      go b
    | Cond cd ->
      cd.on_t <- Array.make cap 0;
      cd.on_e <- Array.make cap 0;
      (match cd.test with Test t -> go t | Staged _ -> ());
      go cd.th;
      go cd.el
  in
  go lp.root;
  lp.ident <- Array.init cap Fun.id;
  lp.bound <- Some env

let same_indices a b =
  List.equal (fun (m, _) (n, _) -> String.equal m n) a.ivals b.ivals

let run_lanes lp env (g : lanes) =
  (match lp.bound with
   | Some e when e == env -> ()
   | Some e when e.lanes = env.lanes && same_indices e env -> lp.bound <- Some env
   | _ -> bind lp env);
  if g.n > env.lanes then invalid_arg "Eval.run: more lanes than the env holds";
  if g.n > 0 then exec env g lp.root lp.ident g.n;
  lp.root.out

let lprog ?faces bindings e =
  let sels = Hashtbl.create 8 in
  let root = build ?faces sels bindings e in
  { root;
    sels = Hashtbl.fold (fun _ s acc -> s :: acc) sels [];
    bound = None;
    ident = [||] }

(* A program as the executors hold it: evaluation over the env's current
   lane group, returning one value per lane (the buffer stays the
   program's, valid until its next run). *)
type program = env -> float array

let program ?faces bindings e : program =
  let lp = lprog ?faces bindings e in
  fun env -> run_lanes lp env env.group

let run (p : program) env = p env

(* The scalar entry: the same program on one lane holding the env's
   index values. *)
let compile ?faces bindings e : compiled =
  let lp = lprog ?faces bindings e in
  fun env ->
    let one = env.one in
    one.n <- 1;
    lane_of_ivals env one 0;
    (run_lanes lp env one).(0)

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
