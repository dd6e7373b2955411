(** Angular discretization of the direction space.

    2-D: [n] uniformly spaced unit vectors on the circle, equal weights
    summing to 2 pi, placed at half-step offsets with an even count so
    axis-aligned specular reflections map the set onto itself exactly.
    3-D: a product azimuthal x polar rule on the sphere, weights summing
    to 4 pi. *)

type t = {
  dim : int;
  ndirs : int;
  sx : float array;
  sy : float array;
  sz : float array;      (** zeros in 2-D *)
  weight : float array;  (** quadrature weights; sum = total measure *)
  total : float;         (** 2 pi in 2-D, 4 pi in 3-D *)
}

val make_2d : ndirs:int -> t
(** Requires an even [ndirs] >= 2. *)

val make_3d : n_azimuthal:int -> n_polar:int -> t
(** The product rule on the sphere: [n_azimuthal] uniform azimuths times
    [n_polar] midpoint values of cos(theta), azimuth fastest, equal weights
    summing to 4 pi.  Requires [n_azimuthal] >= 2 and [n_polar] >= 1. *)

val dir : t -> int -> float array
(** [dir t d]: direction [d] as a unit vector of length [t.dim]. *)

val closest : t -> float array -> int
(** [closest t v]: the index of the direction with the largest dot
    product with [v] (the lowest index on ties). *)

val reflect : t -> int -> float array -> int
(** Index of the direction obtained by specular reflection about a plane
    with the given unit normal; exact for axis-aligned normals with the
    layouts above, nearest-direction otherwise. *)

val reflection_is_involution : t -> float array -> bool
(** [reflection_is_involution t n]: reflecting every direction about the
    plane with unit normal [n] twice gives it back — the property the
    symmetry boundary needs of the direction set. *)
