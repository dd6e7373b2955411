(* Boundary conditions for the phonon BTE (paper Eq. 6).

   Both conditions are implemented as staged FLUX callbacks: staged once
   per boundary face, each returns the per-component surface-term
   integrand with the same sign convention as the equation's
   [- surface(vg * upwind(S, I))] term, i.e. minus the outward advective
   flux, with the ghost ("outside") intensity chosen as

     isothermal wall:    I_ghost = I0_b(T_wall(x))
     symmetry (specular): I_ghost = I_{r,b} of the interior cell,
                          r = reflected direction index.

   These run on the CPU in the hybrid target, exactly as the paper's
   user-supplied callbacks do. *)

type ctx = {
  disp : Dispersion.t;
  eqtab : Equilibrium.t;
  angles : Angles.t;
}

(* wall temperature profile: constant, or a function of position along the
   wall (the hot-spot wall uses a Gaussian) *)
type wall = Const_wall of float | Profile_wall of (float array -> float)

let wall_temperature w pos =
  match w with Const_wall t -> t | Profile_wall f -> f pos

(* s . n of direction d through a face normal; handles 1-D, 2-D and 3-D
   meshes *)
let s_dot_n angles ~d ~normal =
  let dim = Array.length normal in
  (angles.Angles.sx.(d) *. normal.(0))
  +. (if dim > 1 then angles.Angles.sy.(d) *. normal.(1) else 0.)
  +. if dim > 2 then angles.Angles.sz.(d) *. normal.(2) else 0.

(* advective normal speed of direction d, band b through face normal *)
let bn ctx ~d ~b ~normal =
  (Dispersion.band ctx.disp b).Dispersion.vg *. s_dot_n ctx.angles ~d ~normal

(* The staged upwind flux integrand through one boundary face, per
   component comp = d + b * ndirs: minus the outward flux of the interior
   value when outgoing, of [ghost d b] when incoming.  [vg] and [sn] are
   the two factors [bn] multiplies, so every speed is bit-identical to
   it. *)
let upwind ~vg ~sn ~nd (bctx : Finch.Problem.bc_ctx) ghost =
  let fi = bctx.Finch.Problem.bc_field "I" and cell = bctx.Finch.Problem.bc_cell in
  fun comp ->
    let d = comp mod nd and b = comp / nd in
    let speed = vg.(b) *. sn.(d) in
    let i_face = if speed > 0. then Fvm.Field.get fi cell comp else ghost d b in
    (* minus the outward flux, matching the equation's surface-term sign *)
    -.(speed *. i_face)

(* s . n per direction through the face *)
let face_sn ctx (bctx : Finch.Problem.bc_ctx) =
  Array.init ctx.angles.Angles.ndirs (fun d ->
      s_dot_n ctx.angles ~d ~normal:bctx.Finch.Problem.bc_normal)

(* Isothermal boundary: ghost intensity is the equilibrium intensity at the
   wall temperature.  The first numeric argument of the DSL string (e.g.
   "isothermal(I,vg,Sx,Sy,b,d,normal,300)") provides the default wall
   temperature; [wall] overrides it with a profile.  Staged per face: the
   wall temperature and I0_b(T_wall) of every band. *)
let isothermal ?wall ctx =
  let vg = Dispersion.vg_array ctx.disp in
  fun (bctx : Finch.Problem.bc_ctx) ->
    let t_wall =
      match wall with
      | Some w ->
        wall_temperature w
          (Fvm.Mesh.face_centroid bctx.Finch.Problem.bc_mesh bctx.Finch.Problem.bc_face)
      | None ->
        if Array.length bctx.Finch.Problem.bc_args > 0 then
          bctx.Finch.Problem.bc_args.(0)
        else Constants.t_reference
    in
    let i0 = Array.init (Array.length vg) (fun b -> Equilibrium.i0 ctx.eqtab b t_wall) in
    upwind ~vg ~sn:(face_sn ctx bctx) ~nd:ctx.angles.Angles.ndirs bctx (fun _ b ->
        i0.(b))

(* Symmetry boundary: specular reflection couples directions — the ghost
   intensity of direction d is the interior intensity of the reflected
   direction r at the same band.  Staged per face: the reflected index of
   every direction. *)
let symmetry ctx =
  let vg = Dispersion.vg_array ctx.disp in
  fun (bctx : Finch.Problem.bc_ctx) ->
    let nd = ctx.angles.Angles.ndirs in
    (* the mesh normal may have fewer components than the direction set
       (1-D slabs use the circle quadrature); pad with zeros *)
    let normal =
      let n = bctx.Finch.Problem.bc_normal in
      if Array.length n >= ctx.angles.Angles.dim then n
      else
        Array.init ctx.angles.Angles.dim (fun k ->
            if k < Array.length n then n.(k) else 0.)
    in
    let refl = Array.init nd (fun d -> Angles.reflect ctx.angles d normal) in
    let fi = bctx.Finch.Problem.bc_field "I" and cell = bctx.Finch.Problem.bc_cell in
    upwind ~vg ~sn:(face_sn ctx bctx) ~nd bctx (fun d b ->
        Fvm.Field.get fi cell (refl.(d) + (b * nd)))

(* Adiabatic (perfectly insulated) wall: zero net flux.  Not used by the
   paper's scenarios but handy for conservation tests. *)
let adiabatic (_ : Finch.Problem.bc_ctx) (_ : int) = 0.
