(** Host/plugin interface for generated native kernels.

    Generated modules (emitted by [Emit_source.to_ocaml], compiled and
    dynlinked by [Finch_codegen]) are built against this module alone, so
    it must stay dependency-free: the host packs everything a kernel
    needs into an {!rt} record of plain arrays and refs, and the plugin
    hands back an {!entry} holding its one body.  Nothing crosses back:
    the kernel calls no host code.  The
    register/take handshake keys nothing on the generated source, keeping
    the content-hash cache key value-independent. *)

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Raw cell-major field storage as exposed by [Fvm.Field.raw]. *)

type rt = {
  dim : int;
  cell_faces : int array array;  (** face ids bounding each cell *)
  slot_start : int array;
      (** per cell, the (cell, local face) slot of its first face: face
          [cell_faces.(c).(i)] is slot [slot_start.(c) + i] *)
  slot_nbr : int array;          (** per slot: neighbour cell, -1 on the boundary *)
  slot_normal : float array;     (** per slot x dim: the normal seen from the slot's cell *)
  tests : Bytes.t array;
      (** staged conditional tests, in emission order: per slot x index
          values, nonzero where the test holds *)
  face_coef : ba;
      (** the face form's coefficient ([Eval.form]): per slot x the
          values of the indices K reads, the face area times K *)
  face_area : float array;
  cell_volume : float array;
  cell_centroid : float array;   (** ncells * dim *)
  fields : ba array;             (** slot order fixed by the emission *)
  arrays : float array array;    (** indexed-coefficient arrays, aliased *)
  consts : float array;          (** values captured at bind time *)
  fns : (float array -> float) array;  (** space-function coefficients *)
  dt : float ref;
  time : float ref;
}
(** Everything a generated kernel reads or writes, bound per solver
    state.  The slot tables and the face coefficient are the solve's
    face tables ([Lower.stage_interior]), read in place and shared with
    every other state of the solve; changing this record changes every
    emitted source, so every kernel cache goes stale once. *)

type entry = {
  e_advance : int -> int array -> int -> int -> unit;
      (** [e_advance cell comps off len]: [u_new <- u + dt * R] for the
          components [comps.(off) .. comps.(off + len - 1)] of [cell],
          each component's index values decoded from it.  R is the volume
          term plus the interior face fluxes in the face form, rv +
          (P·Σ face_coef·V)/vol; the host adds the boundary part
          afterwards, on every executor. *)
}
(** The generated body for one compiled program. *)

val register : (rt -> entry) -> unit
(** Called by a plugin's top-level code to publish its entry maker. *)

val take : unit -> (rt -> entry) option
(** Claim (and clear) the most recently registered maker; the host calls
    this immediately after [Dynlink.loadfile_private]. *)
