(** Boundary conditions for the phonon BTE (paper Eq. 6), implemented as
    staged FLUX callbacks: staged once per boundary face, each returns the
    per-component surface-term integrand with the same sign convention as
    the equation's [- surface(vg * upwind(S, I))] term.
    These run on the CPU in the hybrid target, exactly like the paper's
    user-supplied callbacks. *)

type ctx = {
  disp : Dispersion.t;
  eqtab : Equilibrium.t;
  angles : Angles.t;
}

type wall = Const_wall of float | Profile_wall of (float array -> float)

val wall_temperature : wall -> float array -> float
(** [wall_temperature w pos]: the wall's temperature at position [pos] —
    the constant, or the profile evaluated there. *)

val bn : ctx -> d:int -> b:int -> normal:float array -> float
(** Advective normal speed vg (s . n) of a (direction, band) pair. *)

val isothermal : ?wall:wall -> ctx -> Finch.Problem.bc_callback
(** Ghost intensity = I0_b(T_wall); the wall temperature comes from
    [wall] (e.g. the Gaussian hot-spot profile) or from the first numeric
    argument of the DSL boundary string.  Takes the group velocities once;
    each face stages s . n per direction (summed as {!bn} does) and
    I0_b(T_wall) per band, and its per-component function (component
    d + b * ndirs of [I]) is the upwind flux integrand, sign-matched to
    the equation. *)

val symmetry : ctx -> Finch.Problem.bc_callback
(** Specular reflection: the ghost intensity of direction d is the
    interior intensity of the reflected direction at the same band — the
    direction coupling the paper highlights.  Each face stages s . n and
    the reflected index per direction; the flux is as {!isothermal}'s. *)

val adiabatic : Finch.Problem.bc_callback
(** Zero net flux (used by conservation tests). *)
