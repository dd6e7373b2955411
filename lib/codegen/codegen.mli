(** Native code generation: emit lowered programs as OCaml
    ([Emit_source.to_ocaml]), compile them with
    [ocamlfind ocamlopt -shared], dynlink the result, and bind the
    generated kernel to solver states through [Lower.native_hook].

    Compilations sit behind a two-level content-hash cache — an
    in-process memo plus [<cache-dir>/finch_kernel_<key>.cmxs] on disk,
    keyed on the digest of the (value-independent) generated source
    alone, which no opt level or loop order changes — and are observable
    as [codegen.cache_hits] / [codegen.cache_misses] /
    [codegen.compile_ns] plus a compile span on the main trace track.  Generated programs are re-verified with
    [Finch_analysis] before first use, the same gate optimizer passes
    run behind.  Every failure path (bytecode runtime, missing
    toolchain, unsupported program, analysis errors) warns once and
    falls back to the closure interpreter.  See docs/CODEGEN.md. *)

val set_cache_dir : string -> unit
(** Override the on-disk cache directory (highest precedence, above the
    [FINCH_CODEGEN_CACHE_DIR] environment variable and the default
    [_build/finch_cache] under the current directory). *)

val cache_dir : unit -> string
(** The directory compiled kernels are persisted under. *)

val clear_memo : unit -> unit
(** Drop the in-process memo (the disk level is untouched); for tests
    that assert cold-vs-warm compile behaviour. *)

val install : ?post_io:Finch.Problem.callback_io -> unit -> unit
(** Install the codegen backend into [Lower.native_hook]; states built
    with eval mode [Native] then compile and bind generated kernels.
    The analysis re-verification gates each program under its own
    problem's callback contract ({!Finch.Problem.post_io}); [post_io] is
    ignored and stays only for existing callers. *)

val native_entry_for : Finch.Lower.state -> Finch.Lower.native_entry option
(** The hook body itself: emit, verify, compile/load through the cache,
    and bind one state.  Exposed for tests; returns [None] (after a
    one-shot warning) on any fallback path. *)
