(* Native code generation: compile lowered programs to OCaml, dynlink
   them, and bind the generated kernel to solver states.

   The pipeline per state (behind Lower.native_hook, engaged only when
   the problem's eval_mode is Native):

     emit     Emit_source.to_ocaml renders the one kernel body, advance,
              as a module registering itself through Finch_ci;
     key      the source digest alone — the source is value-independent
              and does not depend on the opt level or the loop order,
              so identical programs share one compilation across
              scenarios, levels and runs;
     compile  `ocamlfind ocamlopt -shared` against the Finch_ci
              interface, persisted as <key>.cmxs under the cache dir
              (default _build/finch_cache) with an in-process memo;
     verify   Finch_analysis.Driver.check_problem gates the program the
              same way optimizer passes are gated, once per key, opt
              level and callback contract — any error falls back to the
              interpreter;
     bind     pack the solve's face tables (the face coefficient's
              included) and the mesh/field/coefficient storage into a
              Finch_ci.rt.  The kernel is interior-only:
              Lower adds the boundary part after it, as lane groups.

   Every fallback path prints one warning per reason and returns None,
   leaving the closure interpreter in charge — `--eval native` degrades
   gracefully on bytecode runs, missing toolchains, or unsupported
   programs. *)

let m_hits = Prt.Metrics.counter "codegen.cache_hits"
let m_misses = Prt.Metrics.counter "codegen.cache_misses"
let m_compile_ns = Prt.Metrics.counter "codegen.compile_ns"

(* ------------------------------------------------------------------ *)
(* Cache directory and toolchain discovery.                            *)
(* ------------------------------------------------------------------ *)

let cache_dir_override : string option ref = ref None
let set_cache_dir d = cache_dir_override := Some d

let cache_dir () =
  match !cache_dir_override with
  | Some d -> d
  | None -> (
    match Sys.getenv_opt "FINCH_CODEGEN_CACHE_DIR" with
    | Some d -> d
    | None -> Filename.concat (Sys.getcwd ()) (Filename.concat "_build" "finch_cache"))

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    let parent = Filename.dirname d in
    if parent <> d then mkdir_p parent;
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Directories holding finch_ci.cmi/.cmx, which generated modules compile
   against: an explicit override, or dune's object directories located by
   walking up from the running executable (falling back to the build tree
   under the current directory). *)
let iface_include_dirs () =
  match Sys.getenv_opt "FINCH_CI_DIR" with
  | Some d -> if Sys.file_exists (Filename.concat d "finch_ci.cmi") then Some [ d ] else None
  | None ->
    let objs_of root =
      Filename.concat root
        (List.fold_left Filename.concat "lib" [ "codegen"; "iface"; ".finch_ci.objs" ])
    in
    let usable objs = Sys.file_exists (Filename.concat objs (Filename.concat "byte" "finch_ci.cmi")) in
    let abs p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p in
    let rec up dir n =
      if n > 8 then None
      else if usable (objs_of dir) then Some (objs_of dir)
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else up parent (n + 1)
    in
    let found =
      match up (Filename.dirname (abs Sys.executable_name)) 0 with
      | Some o -> Some o
      | None ->
        let o = objs_of (Filename.concat (Sys.getcwd ()) (Filename.concat "_build" "default")) in
        if usable o then Some o else None
    in
    Option.map
      (fun o -> [ Filename.concat o "byte"; Filename.concat o "native" ])
      found

(* ------------------------------------------------------------------ *)
(* Warnings: once per reason, to stderr.                               *)
(* ------------------------------------------------------------------ *)

let warned : (string, unit) Hashtbl.t = Hashtbl.create 8

let warn fmt =
  Printf.ksprintf
    (fun s ->
      if not (Hashtbl.mem warned s) then begin
        Hashtbl.add warned s ();
        Printf.eprintf "finch-codegen: warning: %s; falling back to the closure interpreter\n%!" s
      end)
    fmt

(* ------------------------------------------------------------------ *)
(* Compile + load, behind the two-level cache.                         *)
(* ------------------------------------------------------------------ *)

let memo : (string, Finch_ci.rt -> Finch_ci.entry) Hashtbl.t = Hashtbl.create 8

let clear_memo () = Hashtbl.reset memo

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* A .cmxs that cannot be loaded — truncated, or built against another
   build's Finch_ci interface — is an error value, so the cache can
   recompile it. *)
let load_cmxs cmxs =
  match Dynlink.loadfile_private cmxs with
  | exception Dynlink.Error e -> Error (Dynlink.error_message e)
  | () -> (
    match Finch_ci.take () with
    | Some maker -> Ok maker
    | None -> Error "loaded module did not register an entry maker")

let compile_cmxs ~src ~ml ~cmxs ~log =
  match iface_include_dirs () with
  | None -> Error "cannot locate the Finch_ci interface (set FINCH_CI_DIR)"
  | Some incs ->
    write_file ml src;
    let cmd =
      Printf.sprintf "ocamlfind ocamlopt -shared %s -o %s %s > %s 2>&1"
        (String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) incs))
        (Filename.quote cmxs) (Filename.quote ml) (Filename.quote log)
    in
    let t0 = Unix.gettimeofday () in
    let status = Prt.Trace.span ~cat:"codegen" Prt.Trace.main "compile" (fun () -> Sys.command cmd) in
    Prt.Metrics.add m_compile_ns
      (int_of_float ((Unix.gettimeofday () -. t0) *. 1e9));
    if status <> 0 then begin
      let tail = try read_file log with _ -> "" in
      Error
        (Printf.sprintf "ocamlfind ocamlopt failed (status %d): %s" status
           (String.trim tail))
    end
    else Ok ()

(* The maker for one emission key: in-process memo, then the on-disk
   .cmxs, then a fresh compile.  Loads count as cache hits; only a real
   compile is a miss. *)
let maker_for_key ~key ~src =
  match Hashtbl.find_opt memo key with
  | Some maker ->
    Prt.Metrics.incr m_hits;
    Ok maker
  | None ->
    let dir = cache_dir () in
    mkdir_p dir;
    let base = Filename.concat dir ("finch_kernel_" ^ key) in
    let cmxs = base ^ ".cmxs" in
    let fresh_compile () =
      match compile_cmxs ~src ~ml:(base ^ ".ml") ~cmxs ~log:(base ^ ".log") with
      | Error _ as e -> e
      | Ok () -> (
        Prt.Metrics.incr m_misses;
        match load_cmxs cmxs with
        | Ok maker -> Ok maker
        | Error e -> Error e)
    in
    let r =
      if Sys.file_exists cmxs then
        match load_cmxs cmxs with
        | Ok maker ->
          Prt.Metrics.incr m_hits;
          Ok maker
        | Error _ ->
          (* a stale artifact from an older build of the host: recompile *)
          fresh_compile ()
      else fresh_compile ()
    in
    (match r with Ok maker -> Hashtbl.replace memo key maker | Error _ -> ());
    r

(* ------------------------------------------------------------------ *)
(* Binding a generated module to one state.                            *)
(* ------------------------------------------------------------------ *)

let bind_state (st : Finch.Lower.state) (em : Finch.Emit_source.ocaml_emission)
    maker : Finch.Lower.native_entry option =
  let p = st.Finch.Lower.p in
  let mesh = st.Finch.Lower.mesh in
  let field name =
    let f = Finch.Lower.field st name in
    if Fvm.Field.layout f <> Fvm.Field.Cell_major then
      failwith (name ^ ": not cell-major");
    Fvm.Field.raw f
  in
  let coef_arr name =
    match Finch.Problem.find_coefficient p name with
    | Some { Finch.Entity.cvalue = Finch.Entity.Arr a; _ } -> a
    | _ -> failwith ("missing array coefficient " ^ name)
  in
  let coef_fn name =
    match Finch.Problem.find_coefficient p name with
    | Some { Finch.Entity.cvalue = Finch.Entity.Space_fn f; _ } -> f
    | _ -> failwith ("missing space-function coefficient " ^ name)
  in
  let const_of = function
    | Finch.Emit_source.Cs_coef name -> (
      match Finch.Problem.find_coefficient p name with
      | Some { Finch.Entity.cvalue = Finch.Entity.Const x; _ } -> x
      | _ -> failwith ("missing constant coefficient " ^ name))
    | Finch.Emit_source.Cs_arr_elem (name, off) -> (coef_arr name).(off)
  in
  match
    let fields =
      Array.of_list
        (List.map field em.Finch.Emit_source.oc_fields
        @ [ Fvm.Field.raw st.Finch.Lower.u_new ])
    in
    let faces = st.Finch.Lower.faces in
    let rt =
      {
        Finch_ci.dim = mesh.Fvm.Mesh.dim;
        cell_faces = mesh.Fvm.Mesh.cell_faces;
        (* the solve's face tables, read in place *)
        slot_start = faces.Finch.Eval.slot_start;
        slot_nbr = faces.Finch.Eval.slot_nbr;
        slot_normal = faces.Finch.Eval.slot_normal;
        tests =
          Array.of_list
            (List.map (fun (t : Finch.Eval.staged) -> t.Finch.Eval.holds)
               faces.Finch.Eval.tests);
        face_coef = faces.Finch.Eval.form.Finch.Eval.ktable;
        face_area = mesh.Fvm.Mesh.face_area;
        cell_volume = mesh.Fvm.Mesh.cell_volume;
        cell_centroid = mesh.Fvm.Mesh.cell_centroid;
        fields;
        arrays = Array.of_list (List.map coef_arr em.Finch.Emit_source.oc_arrays);
        consts = Array.of_list (List.map const_of em.Finch.Emit_source.oc_consts);
        fns = Array.of_list (List.map coef_fn em.Finch.Emit_source.oc_fns);
        dt = st.Finch.Lower.dt;
        time = st.Finch.Lower.time;
      }
    in
    maker rt
  with
  | exception Failure msg ->
    warn "cannot bind generated code (%s)" msg;
    None
  | entry -> Some { Finch.Lower.n_advance = entry.Finch_ci.e_advance }

(* ------------------------------------------------------------------ *)
(* The hook.                                                           *)
(* ------------------------------------------------------------------ *)

(* analysis verification runs once per key, optimizer level and
   callback contract (the re-check mirrors how optimizer passes are
   gated; see docs/CODEGEN.md): the generated source does not depend on
   the level, but the gate's checks do, and each program is gated under
   its own problem's post-step I/O *)
let verified :
    (string * Finch.Config.opt_level * Finch.Problem.callback_io, bool) Hashtbl.t =
  Hashtbl.create 8

let verify_key key (p : Finch.Problem.t) =
  let vkey = key, p.Finch.Problem.opt_level, Finch.Problem.post_io p in
  match Hashtbl.find_opt verified vkey with
  | Some ok -> ok
  | None ->
    let report = Finch_analysis.Driver.check_problem p in
    let ok = report.Finch_analysis.Driver.errors = 0 in
    Hashtbl.replace verified vkey ok;
    ok

let native_entry_for (st : Finch.Lower.state) : Finch.Lower.native_entry option =
  if not Dynlink.is_native then begin
    warn "bytecode runtime cannot load native kernels";
    None
  end
  else if Fvm.Field.sanitize_enabled () then begin
    (* generated sweeps bypass the poison-read instrumentation *)
    warn "field sanitizer is enabled";
    None
  end
  else
    match Finch.Emit_source.to_ocaml st with
    | exception Finch.Emit_source.Unsupported_native msg ->
      warn "program not supported by the emitter (%s)" msg;
      None
    | em ->
      let key = Digest.to_hex (Digest.string em.Finch.Emit_source.oc_src) in
      if not (verify_key key st.Finch.Lower.p) then begin
        warn "static analysis reported errors for the generated program";
        None
      end
      else (
        match maker_for_key ~key ~src:em.Finch.Emit_source.oc_src with
        | Error msg ->
          warn "%s" msg;
          None
        | Ok maker -> bind_state st em maker)

let install ?post_io:_ () =
  Finch.Lower.native_hook := native_entry_for;
  Finch.Lower.native_hook_installed := true
