(** Source emission from the IR and from lowered states.

    [to_julia]/[to_cuda] are the documentation-grade listings a Finch
    user would inspect or hand-modify.  [to_ocaml] is executable: it
    renders a lowered program's one kernel body as an OCaml module that
    lib/codegen compiles to a shared object and dynlinks
    (docs/CODEGEN.md). *)

val to_julia : Ir.node -> string
(** Julia-like CPU listing (the original Finch's native output style).
    The flux update skips boundary faces: [apply_boundary_conditions]
    adds them after the interior update, as every executor does. *)

val to_cuda : Ir.node -> string
(** CUDA-C-like hybrid listing: kernel body with thread-index
    decomposition and guard, host-side callback/combine steps, stream
    synchronization and memcpy annotations. *)

exception Unsupported_native of string
(** Raised by {!to_ocaml} when a program's interpreted semantics cannot
    be reproduced in generated code (non-finite literals, face-context
    symbols in the volume term, a declared index the unknown does not
    carry, non-cell-major storage); callers fall back to the
    interpreter. *)

(** How the binder fills one constant slot at bind time: a [Const]
    coefficient's value, or the element (at a 0-based offset) of an
    indexed coefficient referenced at a literal index — the two value
    classes [Eval.compile] bakes into its programs, kept out of the source
    text so the content-hash cache key is value-independent. *)
type const_spec =
  | Cs_coef of string
  | Cs_arr_elem of string * int

type ocaml_emission = {
  oc_src : string;      (** complete module source, registers via Finch_ci *)
  oc_fields : string list;
      (** field slot order (the unknown's double buffer is appended by
          the binder as the final slot) *)
  oc_arrays : string list;  (** indexed-coefficient slot order *)
  oc_fns : string list;     (** space-function coefficient slot order *)
  oc_consts : const_spec list;  (** constant slot recipes *)
}
(** An executable emission: the source plus the positional slot tables
    the binder resolves against a concrete state. *)

val to_ocaml : Lower.state -> ocaml_emission
(** Emit a lowered state's kernel as an OCaml module registering one
    body, [advance cell comps off len] ([Finch_ci.entry]):
    [u_new <- u + dt * R] over a slice of one cell's components, each
    component's index values decoded from it, R the volume term plus the
    interior faces ([Lower] adds the boundary part; the kernel calls no
    host code).  The interior faces are summed in the face form
    ([Eval.form]), R = rv + (P·(0 + Σ (area·K)[s]·V))/vol, reading
    area·K from the solve's table ([Finch_ci.rt]'s [face_coef]) in the
    association [Lower] uses.  The arithmetic mirrors [Eval.compile]
    operation for operation, as each lane of a lane program performs it,
    so generated results are bit-identical to the interpreter.  The
    source depends only on program structure (never on field or
    coefficient values, mesh size or loop order), so its digest is a
    stable cache key.
    @raise Unsupported_native when emission cannot preserve the
    interpreter's semantics. *)
