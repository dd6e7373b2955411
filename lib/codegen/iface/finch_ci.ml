(* Host <-> generated-plugin interface.

   Generated kernel modules (see Finch_codegen) are compiled out of
   process and loaded with Dynlink, so they cannot link against the full
   solver libraries: everything a generated kernel needs crosses this one
   tiny module, which both the host executable and every plugin compile
   against.  A plugin's top-level code calls [register] with its
   entry-point maker; the host calls [take] right after loading to claim
   it.  The indirection avoids baking a registry key into the generated
   source (which would perturb the content-hash cache key). *)

type ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type rt = {
  dim : int;
  cell_faces : int array array;
  slot_start : int array;
  slot_nbr : int array;
  slot_normal : float array;
  tests : Bytes.t array;
  face_coef : ba;
  face_area : float array;
  cell_volume : float array;
  cell_centroid : float array;
  fields : ba array;
  arrays : float array array;
  consts : float array;
  fns : (float array -> float) array;
  dt : float ref;
  time : float ref;
}

type entry = { e_advance : int -> int array -> int -> int -> unit }

let pending : (rt -> entry) option ref = ref None
let register f = pending := Some f

let take () =
  let v = !pending in
  pending := None;
  v
