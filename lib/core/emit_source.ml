(* Readable source emission from the IR.

   The paper stresses that the IR carries comments and metadata "to
   facilitate generation of easily readable code" and that generated code
   can be hand-modified.  This module renders an IR tree in two syntaxes:
   a Julia-like listing (the CPU target's native output in the original
   Finch) and a CUDA-C-like listing for the GPU kernel structure.  The
   output is for humans — it is what a user would inspect or edit — while
   execution goes through the compiled lane programs. *)

open Finch_symbolic

let indent n = String.make (2 * n) ' '

let range_header = function
  | Ir.Cells -> "for cell = 1:Ncells"
  | Ir.Faces_of_cell -> "for face = 1:Nfaces(cell)"
  | Ir.Index name -> Printf.sprintf "for %s = 1:N%s" name name
  | Ir.Steps -> "for step = 1:Nsteps"

let rec julia buf depth node =
  let line s = Buffer.add_string buf (indent depth ^ s ^ "\n") in
  match node with
  | Ir.Comment c -> line ("# " ^ c)
  | Ir.Seq ns -> List.iter (julia buf depth) ns
  | Ir.Loop { range; body; parallel } ->
    if parallel then line "# (parallel loop)";
    line (range_header range);
    List.iter (julia buf (depth + 1)) body;
    line "end"
  | Ir.Assign { dest; dest_new; expr; reduce; note } ->
    Option.iter (fun c -> line ("# " ^ c)) note.Ir.m_comment;
    let op = match reduce with `Set -> "=" | `Add -> "+=" in
    line
      (Printf.sprintf "%s%s %s %s" dest
         (if dest_new then "_new" else "")
         op (Printer.to_string expr))
  | Ir.Flux_update { var; rvol; rsurf; note } ->
    Option.iter (fun c -> line ("# " ^ c)) note.Ir.m_comment;
    line (Printf.sprintf "source = %s" (Printer.to_string rvol));
    line "flux = 0.0";
    line "for face = 1:Nfaces(cell)";
    line (indent 1 ^ Printf.sprintf "flux += area[face] * (%s)" (Printer.to_string rsurf));
    line "end";
    line (Printf.sprintf "%s_new = %s + dt * (source + flux / volume[cell])" var var)
  | Ir.Boundary_cpu { var; note } ->
    Option.iter (fun c -> line ("# " ^ c)) note.Ir.m_comment;
    line (Printf.sprintf "apply_boundary_conditions(%s_new)" var)
  | Ir.Callback { note } ->
    Option.iter (fun c -> line ("# " ^ c)) note.Ir.m_comment;
    line "post_step_function()"
  | Ir.Swap_buffers var -> line (Printf.sprintf "%s = %s_new" var var)
  | Ir.Halo_exchange { vars; note } ->
    Option.iter (fun c -> line ("# " ^ c)) note.Ir.m_comment;
    line (Printf.sprintf "exchange_ghosts(%s)" (String.concat ", " vars))
  | Ir.Allreduce { what; note; _ } ->
    Option.iter (fun c -> line ("# " ^ c)) note.Ir.m_comment;
    line (Printf.sprintf "MPI.Allreduce!(%s)" what)
  | Ir.Kernel { kname; body; note } ->
    Option.iter (fun c -> line ("# " ^ c)) note.Ir.m_comment;
    line (Printf.sprintf "@cuda threads=256 blocks=cld(Ndofs,256) %s(args...)" kname);
    line ("# kernel " ^ kname ^ " body:");
    List.iter (julia buf (depth + 1)) body
  | Ir.H2d { vars; every_step } ->
    line
      (Printf.sprintf "copyto!(device, (%s))%s" (String.concat ", " vars)
         (if every_step then "  # every step" else "  # once"))
  | Ir.D2h { vars; every_step } ->
    line
      (Printf.sprintf "copyto!(host, (%s))%s" (String.concat ", " vars)
         (if every_step then "  # every step" else "  # once"))
  | Ir.D2d { vars; note } ->
    Option.iter (fun c -> line ("# " ^ c)) note.Ir.m_comment;
    line
      (Printf.sprintf "copyto_peer!(neighbour_ghosts, (%s))"
         (String.concat ", " vars))
  | Ir.Stream_sync -> line "CUDA.synchronize()"
  | Ir.Advance_time -> line "time += dt"

let to_julia node =
  let buf = Buffer.create 1024 in
  julia buf 0 node;
  Buffer.contents buf

let rec cuda buf depth node =
  let line s = Buffer.add_string buf (indent depth ^ s ^ "\n") in
  match node with
  | Ir.Comment c -> line ("// " ^ c)
  | Ir.Seq ns -> List.iter (cuda buf depth) ns
  | Ir.Loop { range = Ir.Steps; body; _ } ->
    line "for (int step = 0; step < nsteps; ++step) {";
    List.iter (cuda buf (depth + 1)) body;
    line "}"
  | Ir.Loop { range; body; _ } ->
    (* flattened on the device: loops become the thread index decomposition *)
    line ("// flattened: " ^ range_header range);
    List.iter (cuda buf depth) body
  | Ir.Assign { dest; dest_new; expr; reduce; _ } ->
    let op = match reduce with `Set -> "=" | `Add -> "+=" in
    line
      (Printf.sprintf "%s%s %s %s;" dest
         (if dest_new then "_new" else "")
         op (Printer.to_string expr))
  | Ir.Flux_update { var; rvol; rsurf; note } ->
    Option.iter (fun c -> line ("// " ^ c)) note.Ir.m_comment;
    line "int tid = blockIdx.x * blockDim.x + threadIdx.x;";
    line "if (tid >= ndofs) return;";
    line "int cell = tid / ncomp, comp = tid % ncomp;";
    line (Printf.sprintf "double source = %s;" (Printer.to_string rvol));
    line "double flux = 0.0;";
    line "for (int i = 0; i < nfaces_of[cell]; ++i) {";
    line (indent 1 ^ "int face = cell_faces[cell][i];");
    line (indent 1 ^ "if (neighbour[face] < 0) continue;  // boundary: CPU adds it");
    line
      (indent 1
       ^ Printf.sprintf "flux += area[face] * (%s);" (Printer.to_string rsurf));
    line "}";
    line
      (Printf.sprintf "%s_new[tid] = %s[tid] + dt * (source + flux / volume[cell]);"
         var var)
  | Ir.Boundary_cpu { var; _ } ->
    line (Printf.sprintf "/* host */ compute_boundary_contribution(%s_bdry);" var)
  | Ir.Callback _ -> line "/* host */ post_step_function();"
  | Ir.Swap_buffers var ->
    line (Printf.sprintf "/* host */ combine_and_swap(%s, %s_new, %s_bdry);" var var var)
  | Ir.Halo_exchange { vars; _ } ->
    line (Printf.sprintf "/* host */ exchange_ghosts(%s);" (String.concat ", " vars))
  | Ir.Allreduce { what; _ } ->
    line (Printf.sprintf "/* host */ MPI_Allreduce(%s);" what)
  | Ir.Kernel { kname; body; note } ->
    Option.iter (fun c -> line ("// " ^ c)) note.Ir.m_comment;
    line (Printf.sprintf "%s<<<cld(ndofs,256), 256, 0, stream>>>(...);" kname);
    line ("// __global__ void " ^ kname ^ " {");
    List.iter (cuda buf (depth + 1)) body;
    line "// }"
  | Ir.H2d { vars; every_step } ->
    line
      (Printf.sprintf "cudaMemcpyAsync(dev, host, {%s}, H2D);%s"
         (String.concat ", " vars)
         (if every_step then "  // every step" else "  // once"))
  | Ir.D2h { vars; every_step } ->
    line
      (Printf.sprintf "cudaMemcpyAsync(host, dev, {%s}, D2H);%s"
         (String.concat ", " vars)
         (if every_step then "  // every step" else "  // once"))
  | Ir.D2d { vars; note } ->
    Option.iter (fun c -> line ("// " ^ c)) note.Ir.m_comment;
    line
      (Printf.sprintf
         "cudaMemcpyPeerAsync(ghosts_on_neighbour, {%s});  // NVLink"
         (String.concat ", " vars))
  | Ir.Stream_sync -> line "cudaStreamSynchronize(stream);"
  | Ir.Advance_time -> line "time += dt;"

let to_cuda node =
  let buf = Buffer.create 1024 in
  cuda buf 0 node;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Executable OCaml emission (the native-codegen backend's front half). *)
(* ------------------------------------------------------------------ *)

(* Unlike the listings above, [to_ocaml] is executable: it renders a
   lowered state's full sweep/commit/interior-DOF loop bodies as an OCaml
   module that Finch_codegen compiles to a .cmxs and dynlinks.  The
   emitted arithmetic mirrors [Eval.compile] operation for operation —
   as every lane of a lane program performs it — (fold-from-zero sums,
   fold-from-one products, the reciprocal/square power special cases,
   lazy conditionals, Float.equal comparisons), so generated results are
   bit-identical to the interpreter.

   Anything whose interpreted semantics cannot be reproduced in straight-line
   generated code raises [Unsupported_native] and the caller falls back
   to the interpreter: NaN/infinite literals, face-context symbols
   (FACEAREA / NORMAL_k / CELL2 references) inside the volume term —
   whose interpreted value would depend on stale traversal state — and
   boundary conditions that depend on loop indices the generated
   callback cannot reconstruct from the unknown's component id.

   Values never land in the source text: field/array/function slots are
   positional, and constants (Const coefficients and the array elements
   the lane compiler bakes in at [Iconst] indices) are emitted as
   [const_spec] recipes the binder evaluates at bind time.  The source is
   therefore a pure function of the program structure, which is what
   makes the content-hash cache key stable across runs and mesh sizes. *)

exception Unsupported_native of string

type const_spec =
  | Cs_coef of string
  | Cs_arr_elem of string * int

type ocaml_emission = {
  oc_src : string;
  oc_fields : string list;
  oc_arrays : string list;
  oc_fns : string list;
  oc_consts : const_spec list;
}

(* face context of an emitted expression: the volume term has none; the
   surface term is only emitted for the interior branch of the slot loop
   (boundary faces go through the runtime's bc_term callback), where the
   slot [s], its [face] and [cell2] are bound *)
type face_ctx = No_face | Interior

let unsup fmt = Printf.ksprintf (fun s -> raise (Unsupported_native s)) fmt

let check_ident what n =
  let ok_char i c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || c = '_'
    || (i > 0 && c >= '0' && c <= '9')
  in
  if
    n = ""
    || not (String.for_all (fun c -> ok_char 1 c) n)
    || not (ok_char 0 n.[0])
  then unsup "%s %S is not a valid generated identifier" what n

(* a float literal that round-trips exactly: hex mantissa/exponent form *)
let lit x =
  if Float.is_nan x || not (Float.is_finite x) then
    unsup "non-finite literal %f" x;
  Printf.sprintf "(%h)" x

let to_ocaml (st : Lower.state) : ocaml_emission =
  let p = st.Lower.p in
  let uvar = st.Lower.uvar in
  let vars = p.Problem.variables in
  let nvars = List.length vars in
  let var_slot name =
    let rec go i = function
      | [] -> None
      | (v : Entity.variable) :: rest ->
        if String.equal v.Entity.vname name then Some (i, v) else go (i + 1) rest
    in
    go 0 vars
  in
  let coef name =
    List.find_opt
      (fun (c : Entity.coefficient) -> String.equal c.Entity.cname name)
      p.Problem.coefficients
  in
  let arr_names =
    List.filter_map
      (fun (c : Entity.coefficient) ->
        match c.Entity.cvalue with Entity.Arr _ -> Some c.Entity.cname | _ -> None)
      p.Problem.coefficients
  in
  let fn_names =
    List.filter_map
      (fun (c : Entity.coefficient) ->
        match c.Entity.cvalue with
        | Entity.Space_fn _ -> Some c.Entity.cname
        | _ -> None)
      p.Problem.coefficients
  in
  let slot_of names n =
    let rec go i = function
      | [] -> None
      | x :: rest -> if String.equal x n then Some i else go (i + 1) rest
    in
    go 0 names
  in
  (* constant slots: Const coefficients first, then the values the
     lane compiler bakes in (Arr elements at literal indices),
     appended in emission-walk order *)
  let consts = ref [] and nconsts = ref 0 in
  let const_slot spec =
    let rec find i = function
      | [] -> None
      | s :: rest -> if s = spec then Some (!nconsts - 1 - i) else find (i + 1) rest
    in
    match find 0 !consts with
    | Some i -> i
    | None ->
      let i = !nconsts in
      consts := spec :: !consts;
      incr nconsts;
      i
  in
  List.iter
    (fun (c : Entity.coefficient) ->
      match c.Entity.cvalue with
      | Entity.Const _ -> ignore (const_slot (Cs_coef c.Entity.cname))
      | _ -> ())
    p.Problem.coefficients;
  List.iter (fun (i : Entity.index) -> check_ident "index" i.Entity.iname) p.Problem.indices;
  let idx_slot name = slot_of (List.map (fun (i : Entity.index) -> i.Entity.iname) p.Problem.indices) name in
  let ivar n scope =
    match List.assoc_opt n scope with
    | Some v -> Some v
    | None ->
      (* a declared index that no enclosing loop (or component
         decomposition) sets: the interpreter reads its env cell, which
         stays 0 for the whole traversal *)
      if List.exists (fun (i : Entity.index) -> String.equal i.Entity.iname n) p.Problem.indices
      then None
      else unsup "unknown index %s" n
  in
  (* the staged test [c] is, numbered in list order (the binder passes
     their tables in the same order) *)
  let staged_index c =
    let rec find k = function
      | [] -> None
      | (t : Eval.staged) :: rest ->
        if t.Eval.test = c then Some (k, t) else find (k + 1) rest
    in
    find 0 st.Lower.faces.Eval.tests
  in
  (* a staged test's table offset within the slot: its index values,
     first name fastest, as Eval reads it *)
  let test_offset ~scope (t : Eval.staged) =
    let _, pieces =
      List.fold_left
        (fun (stride, acc) (n, ext) ->
          let piece =
            match ivar n scope with
            | Some v -> Printf.sprintf "(%s * %d)" v stride
            | None -> "0"
          in
          stride * ext, acc @ [ piece ])
        (1, []) t.Eval.names
    in
    if pieces = [] then "0" else "(" ^ String.concat " + " pieces ^ ")"
  in
  (* component offset of a field reference, mirroring Eval.compile_comp:
     position in the declared index list governs the stride *)
  let comp_of ~scope name layout idx_refs =
    if idx_refs = [] && layout = [] then "0"
    else if List.length layout <> List.length idx_refs then
      unsup "%s: index arity mismatch" name
    else
      let pieces =
        List.map2
          (fun (_iname, lo, stride) (iref : Expr.index_ref) ->
            match iref with
            | Expr.Iconst k -> string_of_int ((k - lo) * stride)
            | Expr.Ivar n -> (
              match ivar n scope with
              | Some v -> Printf.sprintf "(%s * %d)" v stride
              | None -> "0")
            | Expr.Ishift (n, k) -> (
              match ivar n scope with
              | Some v -> Printf.sprintf "((%s + %d) * %d)" v k stride
              | None -> Printf.sprintf "(%d * %d)" k stride))
          layout idx_refs
      in
      "(" ^ String.concat " + " pieces ^ ")"
  in
  let rec ex ~scope ~face (e : Expr.t) : string =
    match e with
    | Expr.Num x -> lit x
    | Expr.Sym s -> sym ~scope ~face s
    | Expr.Ref (name, idx_refs, side) -> ref_ ~scope ~face name idx_refs side
    | Expr.Add es ->
      (* fold from 0, exactly like each lane's accumulator *)
      "(0." ^ String.concat "" (List.map (fun e -> " +. " ^ ex ~scope ~face e) es) ^ ")"
    | Expr.Mul es ->
      "(1." ^ String.concat "" (List.map (fun e -> " *. " ^ ex ~scope ~face e) es) ^ ")"
    | Expr.Pow (a, Expr.Num x) when Float.equal x (-1.) ->
      "(1. /. " ^ ex ~scope ~face a ^ ")"
    | Expr.Pow (a, Expr.Num x) when Float.equal x 2. ->
      "(let pv = " ^ ex ~scope ~face a ^ " in pv *. pv)"
    | Expr.Pow (a, b) ->
      "(Float.pow " ^ ex ~scope ~face a ^ " " ^ ex ~scope ~face b ^ ")"
    | Expr.Call (name, args) -> call ~scope ~face name args
    | Expr.Cmp (op, a, b) ->
      let sa = ex ~scope ~face a and sb = ex ~scope ~face b in
      (match op with
       | Expr.Gt -> Printf.sprintf "(if %s > %s then 1. else 0.)" sa sb
       | Expr.Ge -> Printf.sprintf "(if %s >= %s then 1. else 0.)" sa sb
       | Expr.Lt -> Printf.sprintf "(if %s < %s then 1. else 0.)" sa sb
       | Expr.Le -> Printf.sprintf "(if %s <= %s then 1. else 0.)" sa sb
       | Expr.Eq -> Printf.sprintf "(if Float.equal %s %s then 1. else 0.)" sa sb
       | Expr.Ne -> Printf.sprintf "(if not (Float.equal %s %s) then 1. else 0.)" sa sb)
    | Expr.Cond (c, t, el) -> (
      (* lazy, like the lane programs; a staged test reads its table
         at the slot, as they do *)
      match staged_index c with
      | Some (k, staged) when face = Interior ->
        Printf.sprintf "(if Bytes.get t%d ((s * %d) + %s) <> '\\000' then %s else %s)"
          k staged.Eval.width (test_offset ~scope staged) (ex ~scope ~face t)
          (ex ~scope ~face el)
      | _ ->
        Printf.sprintf "(if %s <> 0. then %s else %s)" (ex ~scope ~face c)
          (ex ~scope ~face t) (ex ~scope ~face el))
  and sym ~scope ~face s =
    match s with
    | "dt" -> "dt"
    | "t" | "time" -> "(!time_r)"
    | "pi" -> "Float.pi"
    | "x" -> "cent.(cell * dim)"
    | "y" -> "cent.((cell * dim) + 1)"
    | "z" -> "cent.((cell * dim) + 2)"
    | "VOLUME" -> "vol.(cell)"
    | "FACEAREA" ->
      if face = No_face then unsup "FACEAREA outside a face context";
      "area.(face)"
    | s when String.length s > 7 && String.sub s 0 7 = "NORMAL_" ->
      if face = No_face then unsup "%s outside a face context" s;
      let k = int_of_string (String.sub s 7 (String.length s - 7)) - 1 in
      Printf.sprintf "snrm.((s * dim) + %d)" k
    | s -> (
      ignore scope;
      match var_slot s with
      | Some _ -> unsup "%s is an indexed variable used as a scalar" s
      | None -> (
        match coef s with
        | Some { Entity.cvalue = Entity.Const _; _ } ->
          Printf.sprintf "cns.(%d)" (const_slot (Cs_coef s))
        | Some { Entity.cvalue = Entity.Space_fn _; _ } ->
          (match slot_of fn_names s with
           | Some i -> Printf.sprintf "(fnv %d cell)" i
           | None -> assert false)
        | Some { Entity.cvalue = Entity.Arr _; _ } ->
          unsup "%s is an indexed coefficient used as a scalar" s
        | None -> unsup "unknown symbol %s" s))
  and ref_ ~scope ~face name idx_refs side =
    match var_slot name with
    | Some (vi, v) -> (
      let layout = Lower.layout_of_var v in
      let comp = comp_of ~scope name layout idx_refs in
      let nc = Entity.var_ncomp v in
      match side with
      | Expr.Here | Expr.Cell1 ->
        Printf.sprintf "(Bigarray.Array1.unsafe_get f%d ((cell * %d) + %s))" vi
          nc comp
      | Expr.Cell2 ->
        if face = No_face then unsup "CELL2 reference to %s outside a face context" name;
        Printf.sprintf "(Bigarray.Array1.unsafe_get f%d ((cell2 * %d) + %s))" vi
          nc comp)
    | None -> (
      match coef name with
      | Some { Entity.cvalue = Entity.Arr _; cindex; _ } -> (
        let lo = match cindex with Some i -> i.Entity.lo | None -> 1 in
        match idx_refs with
        | [ Expr.Ivar n ] -> (
          let slot = match slot_of arr_names name with Some i -> i | None -> assert false in
          match ivar n scope with
          | Some v -> Printf.sprintf "a%d.(%s)" slot v
          | None -> Printf.sprintf "a%d.(0)" slot)
        | [ Expr.Iconst k ] ->
          (* the lane compiler bakes the element's value in, so
             the binder captures it into a constant slot at bind time *)
          Printf.sprintf "cns.(%d)" (const_slot (Cs_arr_elem (name, k - lo)))
        | _ -> unsup "coefficient %s expects one index" name)
      | Some { Entity.cvalue = Entity.Const _; _ } ->
        Printf.sprintf "cns.(%d)" (const_slot (Cs_coef name))
      | Some { Entity.cvalue = Entity.Space_fn _; _ } ->
        (match slot_of fn_names name with
         | Some i -> Printf.sprintf "(fnv %d cell)" i
         | None -> assert false)
      | None -> unsup "unknown entity %s" name)
  and call ~scope ~face name args =
    let unary fname =
      match args with
      | [ a ] -> Printf.sprintf "(%s %s)" fname (ex ~scope ~face a)
      | _ -> unsup "%s expects one argument" name
    in
    match name with
    | "sin" | "cos" | "tan" | "exp" | "log" | "sqrt" | "sinh" | "cosh" | "tanh" ->
      unary name
    | "abs" -> unary "Float.abs"
    | "min" | "max" -> (
      match args with
      | [ a; b ] ->
        Printf.sprintf "(Float.%s %s %s)" name (ex ~scope ~face a)
          (ex ~scope ~face b)
      | _ -> unsup "%s expects two arguments" name)
    | _ -> unsup "unresolved call %s/%d" name (List.length args)
  in
  (* ---- feasibility checks beyond per-expression support ---- *)
  let u_layout = Lower.layout_of_var uvar in
  let u_nc = Entity.var_ncomp uvar in
  let u_slot = match var_slot uvar.Entity.vname with Some (i, _) -> i | None -> assert false in
  if Fvm.Field.layout st.Lower.u <> Fvm.Field.Cell_major
     || Fvm.Field.layout st.Lower.u_new <> Fvm.Field.Cell_major
  then unsup "non-cell-major unknown storage";
  let uvar_inames = List.map (fun (i : Entity.index) -> i.Entity.iname) uvar.Entity.vindices in
  let has_any_bc = Array.exists (fun o -> o <> None) st.Lower.face_bc in
  List.iter
    (fun entry ->
      match entry with
      | Lower.Over_cells -> ()
      | Lower.Over_index (n, _) ->
        if has_any_bc && not (List.mem n uvar_inames) then
          unsup
            "boundary conditions with loop index %s not derivable from the \
             unknown's component"
            n)
    st.Lower.loops;
  (* ---- source assembly ---- *)
  let buf = Buffer.create 4096 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s) fmt in
  let line d s = out "%s%s\n" (String.make (2 * d) ' ') s in
  let linef d fmt = Printf.ksprintf (line d) fmt in
  let gensym =
    let n = ref 0 in
    fun base ->
      incr n;
      Printf.sprintf "%s%d" base !n
  in
  (* the loop nest around a per-DOF body; [scope] maps index names to the
     generated loop variables *)
  let scope =
    List.filter_map
      (function
        | Lower.Over_cells -> None
        | Lower.Over_index (n, _) -> Some (n, "i_" ^ n))
      st.Lower.loops
  in
  let rec emit_loops d loops body =
    match loops with
    | [] -> body d
    | Lower.Over_cells :: rest ->
      let fn = gensym "cell_body" in
      linef d "let %s cell =" fn;
      emit_loops (d + 1) rest body;
      line d "in";
      line d "(match cells with";
      linef d " | None -> for cell = 0 to ncells - 1 do %s cell done" fn;
      linef d " | Some cs -> Array.iter %s cs)" fn
    | Lower.Over_index (n, _) :: rest ->
      let slot = match idx_slot n with Some i -> i | None -> assert false in
      linef d "for i_%s = ioff.(%d) to ioff.(%d) + ilen.(%d) - 1 do" n slot slot
        slot;
      emit_loops (d + 1) rest body;
      line d "done"
  in
  (* the face sum shared by sweep and dof_interior: one loop over the
     cell's slots, reading neighbour, signed normal and staged tests from
     the face tables; [with_bc] adds the boundary branch through the
     runtime callback *)
  let emit_flux d ~scope ~with_bc =
    let rsurf = ex ~scope ~face:Interior st.Lower.eq.Transform.rsurf in
    line d "let flux = ref 0. in";
    line d "let fcs = cfaces.(cell) and s0 = sstart.(cell) in";
    line d "for fi = 0 to Array.length fcs - 1 do";
    line (d + 1) "let s = s0 + fi in";
    line (d + 1) "let cell2 = snbr.(s) in";
    line (d + 1) "if cell2 >= 0 then begin";
    line (d + 2) "let face = fcs.(fi) in";
    linef (d + 2) "flux := !flux +. (area.(face) *. %s)" rsurf;
    line (d + 1) "end";
    if with_bc then begin
      line (d + 1) "else begin";
      line (d + 2) "let face = fcs.(fi) in";
      (* unconstrained boundary faces add nothing — not even +. 0. — so
         signed zeros survive exactly as in the interpreter *)
      line (d + 2) "if has_bc.(face) then";
      line (d + 3) "flux := !flux +. (area.(face) *. (bc_term face cell comp))";
      line (d + 1) "end"
    end;
    line d "done;"
  in
  line 0 "[@@@warning \"-a\"]";
  line 0 "";
  line 0 "let () =";
  line 1 "Finch_ci.register (fun rt ->";
  let d0 = 2 in
  line d0 "let ncells = rt.Finch_ci.ncells in";
  line d0 "let dim = rt.Finch_ci.dim in";
  line d0 "let cfaces = rt.Finch_ci.cell_faces in";
  line d0 "let sstart = rt.Finch_ci.slot_start in";
  line d0 "let snbr = rt.Finch_ci.slot_nbr in";
  line d0 "let snrm = rt.Finch_ci.slot_normal in";
  List.iteri
    (fun k _ -> linef d0 "let t%d = rt.Finch_ci.tests.(%d) in" k k)
    st.Lower.faces.Eval.tests;
  line d0 "let area = rt.Finch_ci.face_area in";
  line d0 "let vol = rt.Finch_ci.cell_volume in";
  line d0 "let cent = rt.Finch_ci.cell_centroid in";
  List.iteri (fun i _ -> linef d0 "let f%d = rt.Finch_ci.fields.(%d) in" i i) vars;
  linef d0 "let fnew = rt.Finch_ci.fields.(%d) in" nvars;
  List.iteri (fun i _ -> linef d0 "let a%d = rt.Finch_ci.arrays.(%d) in" i i) arr_names;
  line d0 "let cns = rt.Finch_ci.consts in";
  line d0 "let fns = rt.Finch_ci.fns in";
  line d0
    "let fnv i cell = fns.(i) (Array.init dim (fun k -> cent.((cell * dim) + \
     k))) in";
  line d0 "let dt_r = rt.Finch_ci.dt in";
  line d0 "let time_r = rt.Finch_ci.time in";
  line d0 "let ioff = rt.Finch_ci.index_off in";
  line d0 "let ilen = rt.Finch_ci.index_len in";
  line d0 "let has_bc = rt.Finch_ci.has_bc in";
  line d0 "let bc_term = rt.Finch_ci.bc_term in";
  (* sweep: the full forward-Euler update over the loop plan *)
  line d0 "let sweep cells =";
  line (d0 + 1) "let dt = !dt_r in";
  emit_loops (d0 + 1) st.Lower.loops (fun d ->
      linef d "let comp = %s in"
        (comp_of ~scope uvar.Entity.vname u_layout
           (List.map (fun (i : Entity.index) -> Expr.Ivar i.Entity.iname)
              uvar.Entity.vindices));
      linef d "let rv = %s in" (ex ~scope ~face:No_face st.Lower.eq.Transform.rvol);
      emit_flux d ~scope ~with_bc:true;
      linef d "let idx = (cell * %d) + comp in" u_nc;
      linef d
        "Bigarray.Array1.unsafe_set fnew idx ((Bigarray.Array1.unsafe_get f%d \
         idx) +. (dt *. (rv +. (!flux /. vol.(cell)))))"
        u_slot);
  line d0 "in";
  (* commit: publish the double buffer over the same loop plan *)
  line d0 "let commit cells =";
  emit_loops (d0 + 1) st.Lower.loops (fun d ->
      linef d "let comp = %s in"
        (comp_of ~scope uvar.Entity.vname u_layout
           (List.map (fun (i : Entity.index) -> Expr.Ivar i.Entity.iname)
              uvar.Entity.vindices));
      linef d "let idx = (cell * %d) + comp in" u_nc;
      linef d
        "Bigarray.Array1.unsafe_set f%d idx (Bigarray.Array1.unsafe_get fnew \
         idx)"
        u_slot);
  line d0 "in";
  (* dof_interior: the GPU kernel's per-thread body — volume term plus
     interior-face fluxes, index values decomposed from the component *)
  line d0 "let dof_interior cell comp =";
  let dscope =
    (* first declared index fastest, as Lower.set_group decomposes it *)
    let d1 = d0 + 1 in
    line d1 "let dt = !dt_r in";
    line d1 "let dc0 = comp in";
    List.mapi
      (fun k (i : Entity.index) ->
        let ext = Entity.index_extent i in
        linef d1 "let i_%s = dc%d mod %d in" i.Entity.iname k ext;
        linef d1 "let dc%d = dc%d / %d in" (k + 1) k ext;
        (i.Entity.iname, "i_" ^ i.Entity.iname))
      uvar.Entity.vindices
  in
  let d1 = d0 + 1 in
  linef d1 "let rv = %s in" (ex ~scope:dscope ~face:No_face st.Lower.eq.Transform.rvol);
  emit_flux d1 ~scope:dscope ~with_bc:false;
  line d1 "rv +. (!flux /. vol.(cell))";
  line d0 "in";
  line d0
    "{ Finch_ci.e_sweep = sweep; e_commit = commit; e_dof_interior = \
     dof_interior })";
  {
    oc_src = Buffer.contents buf;
    oc_fields = List.map (fun (v : Entity.variable) -> v.Entity.vname) vars;
    oc_arrays = arr_names;
    oc_fns = fn_names;
    oc_consts = List.rev !consts;
  }
