(** Host/plugin interface for generated native kernels.

    Generated modules (emitted by [Emit_source.to_ocaml], compiled and
    dynlinked by [Finch_codegen]) are built against this module alone, so
    it must stay dependency-free: the host packs everything a sweep needs
    into an {!rt} record of plain arrays, refs and callbacks, and the
    plugin hands back an {!entry} of loop bodies.  The register/take
    handshake keys nothing on the generated source, keeping the
    content-hash cache key value-independent. *)

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Raw cell-major field storage as exposed by [Fvm.Field.raw]. *)

type rt = {
  ncells : int;
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
  face_area : float array;
  cell_volume : float array;
  cell_centroid : float array;   (** ncells * dim *)
  fields : ba array;             (** slot order fixed by the emission *)
  arrays : float array array;    (** indexed-coefficient arrays, aliased *)
  consts : float array;          (** values captured at bind time *)
  fns : (float array -> float) array;  (** space-function coefficients *)
  dt : float ref;
  time : float ref;
  index_off : int array;         (** per declared index: owned offset *)
  index_len : int array;         (** per declared index: owned length *)
  has_bc : bool array;           (** per face: a boundary condition applies *)
  bc_term : int -> int -> int -> float;
      (** [bc_term face cell comp]: the boundary term — a callback face's
          staged function, called directly, or the interpreter-evaluated
          condition (flux value, or rsurf under a Dirichlet ghost) *)
}
(** Everything a generated kernel reads or writes, bound per solver
    state.  The slot tables are the solve's face tables
    ([Lower.stage_interior]), read in place and shared with every other
    state of the solve; changing this record changes every emitted
    source, so every kernel cache goes stale once. *)

type entry = {
  e_sweep : int array option -> unit;
      (** forward-Euler sweep into the double buffer over the given cells
          ([None] = every cell), restricted to the owned index ranges *)
  e_commit : int array option -> unit;
      (** publish the double buffer over the given cells *)
  e_dof_interior : int -> int -> float;
      (** [e_dof_interior cell comp]: volume term plus interior-face
          fluxes only (the GPU kernel's per-thread body) *)
}
(** The generated loop bodies for one compiled program. *)

val register : (rt -> entry) -> unit
(** Called by a plugin's top-level code to publish its entry maker. *)

val take : unit -> (rt -> entry) option
(** Claim (and clear) the most recently registered maker; the host calls
    this immediately after [Dynlink.loadfile_private]. *)
