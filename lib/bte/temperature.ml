(* The nonlinear temperature update — the paper's post-step user code.

   After each intensity step, the lattice temperature of every cell is
   recovered from the energy balance of the scattering operator:

     sum_b [ Omega * I0_b(T) - J_b ] * rate_b(T) / vg_b = 0,
     J_b = sum_d w_d I_{d,b}            (angular integral of intensity)

   so that relaxation neither creates nor destroys energy during the next
   sweep (energy density per (d,b) is w I / vg, hence the 1/vg weights).
   The equation is scalar but nonlinear in T (Bose-Einstein statistics in
   I0_b, Holland rates in rate_b); it is solved per cell by Newton's
   method with the exact Jacobian, with a bisection fallback.

   Cross-band coupling: in band-parallel runs every rank owns a band
   subset; the per-band partials are summed across ranks ("a reduction of
   intensity across bands"), after which each rank performs the
   (duplicated, cheap) Newton solve and refreshes I0 and beta = 1/tau for
   its own bands. *)

(* How the cross-band coupling is formulated:
   - [Scalar_energy] balances emission at T against the absorbed power
     G_c = sum_{d,b} w_d I beta / vg with the current (pre-update) rates;
   - [Per_band] balances the per-band angular integrals J_b with rates at
     the updated temperature — exactly energy-conserving for the next
     sweep.
   Both reduce one value per (cell, band), see [post_step]. *)
type reduction = Scalar_energy | Per_band

type model = {
  disp : Dispersion.t;
  eqtab : Equilibrium.t;
  angles : Angles.t;
  max_newton : int;
  tol : float; (* on |F| relative to the emission magnitude *)
  reduction : reduction;
  laws : Scattering.band_law array;
  vg : float array;
}

let make ?(max_newton = 30) ?(tol = 1e-12) ?(reduction = Scalar_energy)
    ~disp ~eqtab ~angles () =
  { disp; eqtab; angles; max_newton; tol; reduction;
    laws = Array.map Scattering.band_law disp.Dispersion.bands;
    vg = Dispersion.vg_array disp }

let nbands m = Dispersion.nbands m.disp

(* the residual at the last evaluated temperature (an all-float record,
   so updating it does not allocate) *)
type residual = { mutable f : float; mutable df : float; mutable scale : float }

(* Evaluator workspace.  One per call, never stored in the model: SPMD
   ranks share one model and interleave at [st_allreduce]. *)
type scratch = {
  rate : float array;  (* rate_b at the last evaluated temperature *)
  slope : float array; (* d rate_b / dT *)
  i0 : float array;    (* I0_b *)
  di0 : float array;   (* dI0_b / dT *)
  res : residual;      (* F, dF/dT and the emission magnitude *)
  mutable newton_evals : int;
  mutable bisection_evals : int;
}

let scratch m =
  let nb = nbands m in
  { rate = Array.make nb 0.; slope = Array.make nb 0.; i0 = Array.make nb 0.;
    di0 = Array.make nb 0.; res = { f = 0.; df = 0.; scale = 0. };
    newton_evals = 0; bisection_evals = 0 }

(* One pass over the bands at temperature [t]:
     F     = sum_b (Omega I0_b - J_b) rate_b / vg_b  -  g
     dF/dT = sum_b [Omega dI0_b rate_b + (Omega I0_b - J_b) rate_b'] / vg_b
   and the emission magnitude sum_b Omega I0_b rate_b / vg_b that scales
   the convergence test.  J_b is [j.(j_off + b)]; the scalar form passes
   zeros and the absorbed power as [g].  The powers of T and the
   interpolation stencil are computed once and shared by every band. *)
let eval m s ~j ~j_off ~g t =
  let omega = m.angles.Angles.total in
  Scattering.rates_at m.laws t ~rate:s.rate ~slope:s.slope;
  Equilibrium.bands_at m.eqtab t ~i0:s.i0 ~di0:s.di0;
  let f = ref (-.g) and df = ref 0. and scale = ref 0. in
  for b = 0 to Array.length m.laws - 1 do
    let vg = m.vg.(b) in
    let w = s.rate.(b) /. vg in
    let e = omega *. s.i0.(b) in
    let net = e -. j.(j_off + b) in
    f := !f +. (net *. w);
    df := !df +. (omega *. s.di0.(b) *. w) +. (net *. s.slope.(b) /. vg);
    scale := !scale +. (e *. w)
  done;
  s.res.f <- !f;
  s.res.df <- !df;
  s.res.scale <- !scale

exception No_convergence of float

(* Newton from [guess] (clamped to the table range); bisection over the
   whole range when Newton stalls or exhausts [max_newton] (F increases
   with T, as I0 and the rates do).  On return [s] holds the rates and
   I0 at the returned temperature: every exit is at an evaluated point. *)
let solve m s ~j ~j_off ~g ~guess =
  let t_lo = m.eqtab.Equilibrium.t_lo and t_hi = m.eqtab.Equilibrium.t_hi in
  let clamp t = Float.max t_lo (Float.min t_hi t) in
  let newton_eval t =
    s.newton_evals <- s.newton_evals + 1;
    eval m s ~j ~j_off ~g t
  in
  let t0 = clamp guess in
  newton_eval t0;
  let tol = m.tol *. Float.max s.res.scale 1e-300 in
  let rec bisect lo hi iter =
    if iter > 200 then raise (No_convergence ((lo +. hi) /. 2.))
    else begin
      let mid = (lo +. hi) /. 2. in
      s.bisection_evals <- s.bisection_evals + 1;
      eval m s ~j ~j_off ~g mid;
      let f = s.res.f in
      if Float.abs f <= tol || hi -. lo < 1e-10 then mid
      else if f > 0. then bisect lo mid (iter + 1)
      else bisect mid hi (iter + 1)
    end
  in
  let rec go t iter =
    let f = s.res.f and df = s.res.df in
    if Float.abs f <= tol then t
    else if iter >= m.max_newton || df <= 0. then bisect t_lo t_hi 0
    else begin
      let t' = clamp (t -. (f /. df)) in
      newton_eval t';
      if Float.abs (t' -. t) < 1e-13 *. t then t' else go t' (iter + 1)
    end
  in
  go t0 0

let residual m ~j ~g t =
  let s = scratch m in
  eval m s ~j ~j_off:0 ~g t;
  s.res.f, s.res.df

let newton m ~jb ~guess =
  solve m (scratch m) ~j:(Array.init (nbands m) jb) ~j_off:0 ~g:0. ~guess

let newton_scalar m ~g ~guess =
  solve m (scratch m) ~j:(Array.make (nbands m) 0.) ~j_off:0 ~g ~guess

let m_newton = Prt.Metrics.counter "bte.newton_iters"
let m_bisection = Prt.Metrics.counter "bte.bisection_steps"

(* What [post_step] reads and writes: the intensity in, the equilibrium
   intensity, rates and temperature out.  Every registration passes it. *)
let post_io =
  { Finch.Problem.cb_reads = [ "I" ]; cb_writes = [ "Io"; "beta"; "T" ] }

(* The post-step callback wired into the DSL problem.  Field names follow
   the BTE encoding: intensity "I" over [d; b], equilibrium "Io" over [b],
   rates "beta" over [b], temperature "T" (scalar). *)
let post_step m (ctx : Finch.Problem.step_ctx) =
  let mesh = ctx.Finch.Problem.st_mesh in
  let ncells = mesh.Fvm.Mesh.ncells in
  let nd = m.angles.Angles.ndirs in
  let nb = nbands m in
  let weight = m.angles.Angles.weight in
  let fi = ctx.Finch.Problem.st_field "I" in
  let fio = ctx.Finch.Problem.st_field "Io" in
  let fbeta = ctx.Finch.Problem.st_field "beta" in
  let ft = ctx.Finch.Problem.st_field "T" in
  let b_off, b_len = ctx.Finch.Problem.st_index_range "b" in
  let iter_cells f =
    match ctx.Finch.Problem.st_cells with
    | Some cs -> Array.iter f cs
    | None -> for c = 0 to ncells - 1 do f c done
  in
  (* the cell's partial of each owned band b into into.(off + b): J_b
     (Per_band) or the band's absorbed power sum_d w_d I beta / vg
     (Scalar_energy) *)
  let partials cell ~into ~off =
    for b = b_off to b_off + b_len - 1 do
      let scale =
        match m.reduction with
        | Per_band -> 1.
        | Scalar_energy -> Fvm.Field.get fbeta cell b /. m.vg.(b)
      in
      let acc = ref 0. in
      for d = 0 to nd - 1 do
        acc := !acc +. (weight.(d) *. Fvm.Field.get fi cell (d + (b * nd)) *. scale)
      done;
      into.(off + b) <- !acc
    done
  in
  let s = scratch m in
  let zeros = Array.make nb 0. in
  (* Newton on the cell's partials j.(j_off + b), folded in band order for
     the scalar form; then refresh T, Io, beta for the owned bands from
     the evaluation at the solution *)
  let update cell ~j ~j_off =
    let guess = Fvm.Field.get ft cell 0 in
    let t =
      match m.reduction with
      | Per_band -> solve m s ~j ~j_off ~g:0. ~guess
      | Scalar_energy ->
        let g = ref 0. in
        for b = 0 to nb - 1 do
          g := !g +. j.(j_off + b)
        done;
        solve m s ~j:zeros ~j_off:0 ~g:!g ~guess
    in
    Fvm.Field.set ft cell 0 t;
    for b = b_off to b_off + b_len - 1 do
      Fvm.Field.set fio cell b s.i0.(b);
      Fvm.Field.set fbeta cell b s.rate.(b)
    done
  in
  let part = Array.make (ncells * nb) 0. in
  iter_cells (fun cell -> partials cell ~into:part ~off:(cell * nb));
  (* Band-partitioned: sum the per-(cell, band) partials across ranks.
     Every slot has exactly one nonzero writer, so the reduced values are
     exact and each rank folds the same numbers a serial run does. *)
  if ctx.Finch.Problem.st_nranks > 1 && b_len < nb then
    ctx.Finch.Problem.st_allreduce part;
  iter_cells (fun cell -> update cell ~j:part ~j_off:(cell * nb));
  Prt.Metrics.add m_newton s.newton_evals;
  Prt.Metrics.add m_bisection s.bisection_evals
