(* Physics-layer tests: dispersion, scattering, angular quadrature,
   equilibrium tables and the temperature inversion. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- dispersion ---------- *)

let test_paper_band_counts () =
  (* 40 frequency bands -> 40 LA + 15 TA = 55 resolved bands (paper) *)
  let d = Bte.Dispersion.paper () in
  check_int "LA bands" 40 d.Bte.Dispersion.n_la;
  check_int "TA bands" 15 d.Bte.Dispersion.n_ta;
  check_int "total" 55 (Bte.Dispersion.nbands d)

let test_band_structure () =
  let d = Bte.Dispersion.make ~n_la:10 in
  Array.iter
    (fun (b : Bte.Dispersion.band) ->
      check_bool "positive width" true (b.Bte.Dispersion.w_hi > b.Bte.Dispersion.w_lo);
      check_bool "centre inside" true
        (b.Bte.Dispersion.w_center > b.Bte.Dispersion.w_lo
         && b.Bte.Dispersion.w_center < b.Bte.Dispersion.w_hi);
      check_bool "positive group velocity" true (b.Bte.Dispersion.vg > 0.))
    d.Bte.Dispersion.bands;
  (* LA bands tile [0, wmax_la] *)
  let wmax = Bte.Dispersion.omega_max Bte.Dispersion.LA in
  Tutil.check_close ~eps:1e-9 "LA bands tile the range" wmax
    d.Bte.Dispersion.bands.(9).Bte.Dispersion.w_hi

let test_k_omega_inverse () =
  List.iter
    (fun br ->
      let wmax = Bte.Dispersion.omega_max br in
      List.iter
        (fun frac ->
          let w = frac *. wmax in
          let k = Bte.Dispersion.k_of_omega br w in
          Tutil.check_close ~eps:1e-9 "omega(k(w)) = w" w (Bte.Dispersion.omega_of_k br k);
          check_bool "k in range" true (k >= 0. && k <= Bte.Constants.k_max *. 1.0001))
        [ 0.01; 0.25; 0.5; 0.75; 0.99 ])
    [ Bte.Dispersion.LA; Bte.Dispersion.TA ]

let test_group_velocity_decreases () =
  (* quadratic dispersion with c < 0: vg decreases with frequency *)
  let vg_lo = Bte.Dispersion.vg_of_omega Bte.Dispersion.LA 1e12 in
  let vg_hi =
    Bte.Dispersion.vg_of_omega Bte.Dispersion.LA
      (0.9 *. Bte.Dispersion.omega_max Bte.Dispersion.LA)
  in
  check_bool "vg decreasing" true (vg_hi < vg_lo);
  Tutil.check_close ~eps:1e-3 "vg -> sound speed at w -> 0"
    Bte.Constants.vs_la
    (Bte.Dispersion.vg_of_omega Bte.Dispersion.LA 1e9)

let test_ta_below_la_range () =
  check_bool "TA zone edge below LA" true
    (Bte.Dispersion.omega_max Bte.Dispersion.TA
     < Bte.Dispersion.omega_max Bte.Dispersion.LA)

let test_dos_positive () =
  List.iter
    (fun frac ->
      let w = frac *. Bte.Dispersion.omega_max Bte.Dispersion.LA in
      check_bool "dos > 0" true (Bte.Dispersion.dos Bte.Dispersion.LA w > 0.))
    [ 0.1; 0.5; 0.9 ]

(* ---------- scattering ---------- *)

let test_rates_positive_and_monotone_t () =
  let d = Bte.Dispersion.paper () in
  Array.iter
    (fun b ->
      let r300 = Bte.Scattering.band_rate b 300. in
      let r400 = Bte.Scattering.band_rate b 400. in
      check_bool "positive rate" true (r300 > 0.);
      check_bool "rate grows with T" true (r400 >= r300))
    d.Bte.Dispersion.bands

let test_rates_grow_with_frequency () =
  (* impurity scattering (w^4) dominates at high frequency *)
  let lo = Bte.Scattering.rate Bte.Dispersion.LA 1e12 300. in
  let hi = Bte.Scattering.rate Bte.Dispersion.LA 6e13 300. in
  check_bool "higher frequency scatters faster" true (hi > lo *. 10.)

let test_tau_reciprocal () =
  let w = 3e13 in
  Tutil.check_close "tau = 1/rate" 1.
    (Bte.Scattering.tau Bte.Dispersion.LA w 300.
     *. Bte.Scattering.rate Bte.Dispersion.LA w 300.)

let test_realistic_lifetimes () =
  (* zone-edge LA phonons at room temperature live a few ps; low-frequency
     phonons much longer *)
  let tau_edge =
    Bte.Scattering.tau Bte.Dispersion.LA
      (0.95 *. Bte.Dispersion.omega_max Bte.Dispersion.LA) 300.
  in
  check_bool "edge lifetime ps-scale" true (tau_edge > 1e-13 && tau_edge < 1e-10);
  let tau_low = Bte.Scattering.tau Bte.Dispersion.LA 1e12 300. in
  check_bool "low-frequency much longer" true (tau_low > 100. *. tau_edge)

(* ---------- angles ---------- *)

let test_angles_2d_weights () =
  let a = Bte.Angles.make_2d ~ndirs:8 in
  let total = Array.fold_left ( +. ) 0. a.Bte.Angles.weight in
  Tutil.check_close "weights sum to 2pi" (2. *. Float.pi) total;
  for d = 0 to 7 do
    let v = Bte.Angles.dir a d in
    Tutil.check_close "unit vectors" 1. (Fvm.Vec.norm v)
  done;
  (* first moments vanish by symmetry *)
  let mx = ref 0. and my = ref 0. in
  for d = 0 to 7 do
    mx := !mx +. (a.Bte.Angles.weight.(d) *. a.Bte.Angles.sx.(d));
    my := !my +. (a.Bte.Angles.weight.(d) *. a.Bte.Angles.sy.(d))
  done;
  Tutil.check_close ~eps:1e-12 "zero net x flux" 0. !mx;
  Tutil.check_close ~eps:1e-12 "zero net y flux" 0. !my

let test_angles_3d_weights () =
  let a = Bte.Angles.make_3d ~n_azimuthal:8 ~n_polar:4 in
  check_int "count" 32 a.Bte.Angles.ndirs;
  let total = Array.fold_left ( +. ) 0. a.Bte.Angles.weight in
  Tutil.check_close "weights sum to 4pi" (4. *. Float.pi) total;
  for d = 0 to a.Bte.Angles.ndirs - 1 do
    Tutil.check_close "unit" 1. (Fvm.Vec.norm (Bte.Angles.dir a d))
  done

let test_reflection_involution () =
  List.iter
    (fun n ->
      let a = Bte.Angles.make_2d ~ndirs:n in
      check_bool "x-normal involution" true
        (Bte.Angles.reflection_is_involution a [| 1.; 0. |]);
      check_bool "y-normal involution" true
        (Bte.Angles.reflection_is_involution a [| 0.; 1. |]))
    [ 4; 8; 12; 20 ]

let test_reflection_exact_for_axes () =
  let a = Bte.Angles.make_2d ~ndirs:8 in
  for d = 0 to 7 do
    let r = Bte.Angles.reflect a d [| 1.; 0. |] in
    (* reflected vector flips x and keeps y *)
    Tutil.check_close "x flipped" (-.a.Bte.Angles.sx.(d)) a.Bte.Angles.sx.(r);
    Tutil.check_close "y kept" a.Bte.Angles.sy.(d) a.Bte.Angles.sy.(r)
  done

let test_angles_validation () =
  (match Bte.Angles.make_2d ~ndirs:5 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "odd direction count must be rejected")

(* ---------- equilibrium ---------- *)

let make_eqtab () =
  let d = Bte.Dispersion.make ~n_la:10 in
  d, Bte.Equilibrium.make ~omega_total:(2. *. Float.pi) d

let test_equilibrium_monotone_in_t () =
  let d, tab = make_eqtab () in
  for b = 0 to Bte.Dispersion.nbands d - 1 do
    let prev = ref 0. in
    List.iter
      (fun t ->
        let v = Bte.Equilibrium.i0 tab b t in
        check_bool "i0 positive" true (v > 0.);
        check_bool "i0 monotone" true (v > !prev);
        prev := v)
      [ 100.; 200.; 300.; 400.; 500. ]
  done

let test_equilibrium_interp_accuracy () =
  let d, tab = make_eqtab () in
  for b = 0 to Bte.Dispersion.nbands d - 1 do
    List.iter
      (fun t ->
        Tutil.check_close ~eps:5e-5 "interp vs exact"
          (Bte.Equilibrium.i0_exact tab b t)
          (Bte.Equilibrium.i0 tab b t))
      [ 123.4; 300.17; 456.7 ]
  done

let test_equilibrium_derivative () =
  let d, tab = make_eqtab () in
  for b = 0 to Bte.Dispersion.nbands d - 1 do
    let t = 310. in
    let h = 0.5 in
    let numeric =
      (Bte.Equilibrium.i0_exact tab b (t +. h) -. Bte.Equilibrium.i0_exact tab b (t -. h))
      /. (2. *. h)
    in
    let tabulated = Bte.Equilibrium.di0 tab b t in
    Tutil.check_close ~eps:2e-3 "dI0/dT" numeric tabulated
  done

let test_energy_density_monotone () =
  let _, tab = make_eqtab () in
  check_bool "energy density grows with T" true
    (Bte.Equilibrium.energy_density tab 350. > Bte.Equilibrium.energy_density tab 250.)

(* ---------- temperature inversion ---------- *)

let make_model () =
  let d = Bte.Dispersion.make ~n_la:10 in
  let a = Bte.Angles.make_2d ~ndirs:8 in
  let tab = Bte.Equilibrium.make ~omega_total:a.Bte.Angles.total d in
  d, a, Bte.Temperature.make ~disp:d ~eqtab:tab ~angles:a ()

let test_newton_roundtrip () =
  (* at equilibrium intensity for T0, the inversion must return T0 *)
  let d, a, m = make_model () in
  let tab = m.Bte.Temperature.eqtab in
  List.iter
    (fun t0 ->
      let jb b = a.Bte.Angles.total *. Bte.Equilibrium.i0 tab b t0 in
      let t = Bte.Temperature.newton m ~jb ~guess:(t0 +. 17.) in
      Tutil.check_close ~eps:1e-6 "per-band roundtrip" t0 t;
      (* scalar-energy formulation *)
      let g = ref 0. in
      for b = 0 to Bte.Dispersion.nbands d - 1 do
        let band = Bte.Dispersion.band d b in
        let rate = Bte.Scattering.band_rate band t0 in
        g := !g +. (jb b *. rate /. band.Bte.Dispersion.vg)
      done;
      let t' = Bte.Temperature.newton_scalar m ~g:!g ~guess:(t0 -. 23.) in
      Tutil.check_close ~eps:1e-6 "scalar roundtrip" t0 t')
    [ 150.; 250.; 300.; 350.; 450. ]

let test_newton_monotone () =
  (* more absorbed energy -> higher temperature *)
  let d, a, m = make_model () in
  let tab = m.Bte.Temperature.eqtab in
  ignore d;
  let jb0 b = a.Bte.Angles.total *. Bte.Equilibrium.i0 tab b 300. in
  let t1 = Bte.Temperature.newton m ~jb:jb0 ~guess:300. in
  let t2 = Bte.Temperature.newton m ~jb:(fun b -> 1.3 *. jb0 b) ~guess:300. in
  check_bool "hotter with more energy" true (t2 > t1)

let test_newton_from_bad_guess () =
  let _, a, m = make_model () in
  let tab = m.Bte.Temperature.eqtab in
  let jb b = a.Bte.Angles.total *. Bte.Equilibrium.i0 tab b 320. in
  let t = Bte.Temperature.newton m ~jb ~guess:(tab.Bte.Equilibrium.t_hi) in
  Tutil.check_close ~eps:1e-5 "converges from the clamp" 320. t

(* The paper's 55-band material on a fine table from 2 K: it holds LA,
   TA-normal and TA-umklapp bands, and at a few kelvin the lowest bands
   sit on the rate floor. *)
let paper_model =
  let m =
    lazy
      (let d = Bte.Dispersion.paper () in
       let a = Bte.Angles.make_2d ~ndirs:8 in
       let tab =
         Bte.Equilibrium.make ~omega_total:a.Bte.Angles.total ~t_lo:2.
           ~t_hi:460. ~dt_grid:0.25 d
       in
       d, a, Bte.Temperature.make ~disp:d ~eqtab:tab ~angles:a ())
  in
  fun () -> Lazy.force m

let rate_floor = 1e4

let test_rate_slopes_match_fd () =
  (* every rate law's analytic d(rate)/dT against a central difference of
     its temperature-dependent term (the impurity term is constant and
     would swamp the difference), with each law and the floor exercised *)
  let d, _, _ = paper_model () in
  let laws = Array.map Bte.Scattering.band_law d.Bte.Dispersion.bands in
  let nb = Array.length laws in
  let seen = Hashtbl.create 4 in
  List.iter
    (fun t ->
      let rate = Array.make nb 0. and slope = Array.make nb 0. in
      Bte.Scattering.rates_at laws t ~rate ~slope;
      Array.iteri
        (fun b (band : Bte.Dispersion.band) ->
          let w = band.Bte.Dispersion.w_center in
          let branch_rate =
            match band.Bte.Dispersion.branch with
            | Bte.Dispersion.LA -> Bte.Scattering.rate_la w
            | Bte.Dispersion.TA -> Bte.Scattering.rate_ta w
          in
          let h = 1e-4 *. t in
          let fd = (branch_rate (t +. h) -. branch_rate (t -. h)) /. (2. *. h) in
          let law =
            if rate.(b) = rate_floor then "floored"
            else
              match band.Bte.Dispersion.branch with
              | Bte.Dispersion.LA -> "LA"
              | Bte.Dispersion.TA ->
                if band.Bte.Dispersion.w_center < Bte.Constants.omega_half_ta
                then "TA-normal"
                else "TA-umklapp"
          in
          Hashtbl.replace seen law ();
          if law = "floored" then
            check_bool (Printf.sprintf "band %d floored at %g K: zero slope" b t)
              true (slope.(b) = 0.)
          else
            Tutil.check_close ~eps:1e-6
              (Printf.sprintf "%s band %d slope at %g K" law b t)
              fd slope.(b))
        d.Bte.Dispersion.bands)
    [ 8.; 60.; 150.; 300.; 450. ];
  List.iter
    (fun law -> check_bool (law ^ " bands covered") true (Hashtbl.mem seen law))
    [ "LA"; "TA-normal"; "TA-umklapp"; "floored" ]

let test_residual_jacobian_matches_fd () =
  (* dF/dT of both residual forms against a central difference of F:
     per-band with J_b from 0.9 T (so the rate-derivative term carries
     weight), scalar with an absorbed power from 0.9 T *)
  let d, a, m = paper_model () in
  let tab = m.Bte.Temperature.eqtab in
  let nb = Bte.Dispersion.nbands d in
  let omega = a.Bte.Angles.total in
  List.iter
    (fun t ->
      let j = Array.init nb (fun b -> omega *. Bte.Equilibrium.i0 tab b (0.9 *. t)) in
      let g =
        let acc = ref 0. in
        Array.iteri
          (fun b jb ->
            let band = Bte.Dispersion.band d b in
            acc :=
              !acc +. (jb *. Bte.Scattering.band_rate band t /. band.Bte.Dispersion.vg))
          j;
        !acc
      in
      let zeros = Array.make nb 0. in
      List.iter
        (fun (form, j, g) ->
          let h = 0.01 in
          let f_at t = fst (Bte.Temperature.residual m ~j ~g t) in
          let fd = (f_at (t +. h) -. f_at (t -. h)) /. (2. *. h) in
          let _, df = Bte.Temperature.residual m ~j ~g t in
          Tutil.check_close ~eps:1e-4 (Printf.sprintf "%s dF/dT at %g K" form t)
            fd df)
        [ "per-band", j, 0.; "scalar", zeros, g ])
    [ 60.; 150.; 300.; 450. ]

let test_hoisted_rates_bit_identical () =
  (* the Newton evaluator's hoisted rates are Scattering.band_rate, bit
     for bit *)
  let d, _, m = paper_model () in
  let nb = Array.length m.Bte.Temperature.laws in
  let rates = Array.make nb 0. and slopes = Array.make nb 0. in
  let t = ref 2. in
  while !t <= 750. do
    Bte.Scattering.rates_at m.Bte.Temperature.laws !t ~rate:rates ~slope:slopes;
    Array.iteri
      (fun b band ->
        let r = Bte.Scattering.band_rate band !t in
        if Int64.bits_of_float rates.(b) <> Int64.bits_of_float r then
          Alcotest.failf "band %d at %.17g K: hoisted %h, band_rate %h" b !t
            rates.(b) r)
      d.Bte.Dispersion.bands;
    t := !t +. 0.37
  done

(* ---------- kinetic-theory conductivity ---------- *)

let test_conductivity_magnitude () =
  (* silicon's measured k(300K) is 148 W/mK; the acoustic-only Holland
     model should land in the same decade *)
  let k300 = Bte.Conductivity.bulk 300. in
  check_bool (Printf.sprintf "k(300K) = %.0f in [50, 250]" k300) true
    (k300 > 50. && k300 < 250.)

let test_conductivity_trend () =
  (* above the Umklapp peak, k decreases with temperature *)
  let k200 = Bte.Conductivity.bulk 200. in
  let k300 = Bte.Conductivity.bulk 300. in
  let k400 = Bte.Conductivity.bulk 400. in
  check_bool "k(200) > k(300) > k(400)" true (k200 > k300 && k300 > k400);
  (* roughly 1/T^alpha with alpha in [1, 2] *)
  let alpha = log (k200 /. k400) /. log 2. in
  check_bool (Printf.sprintf "power law alpha %.2f" alpha) true
    (alpha > 0.9 && alpha < 2.2)

let test_heat_capacity () =
  (* acoustic-branch C grows with T toward saturation; a large part of
     silicon's 1.66e6 J/m3K *)
  let c100 = Bte.Conductivity.heat_capacity 100. in
  let c300 = Bte.Conductivity.heat_capacity 300. in
  check_bool "C grows" true (c300 > c100);
  check_bool "C(300) order of magnitude" true (c300 > 3e5 && c300 < 1.66e6)

let test_mean_free_path () =
  (* the sub-micron scale that motivates the whole paper *)
  let mfp = Bte.Conductivity.mean_free_path 300. in
  check_bool
    (Printf.sprintf "MFP(300K) = %.0f nm in [30, 500]" (1e9 *. mfp))
    true
    (mfp > 30e-9 && mfp < 500e-9)

let suite =
  ( "bte-physics",
    [
      Alcotest.test_case "paper band counts (40 -> 55)" `Quick test_paper_band_counts;
      Alcotest.test_case "band structure" `Quick test_band_structure;
      Alcotest.test_case "k/omega inverse" `Quick test_k_omega_inverse;
      Alcotest.test_case "group velocity trend" `Quick test_group_velocity_decreases;
      Alcotest.test_case "TA range below LA" `Quick test_ta_below_la_range;
      Alcotest.test_case "density of states" `Quick test_dos_positive;
      Alcotest.test_case "rates positive/monotone in T" `Quick
        test_rates_positive_and_monotone_t;
      Alcotest.test_case "rates grow with frequency" `Quick test_rates_grow_with_frequency;
      Alcotest.test_case "tau reciprocal" `Quick test_tau_reciprocal;
      Alcotest.test_case "realistic lifetimes" `Quick test_realistic_lifetimes;
      Alcotest.test_case "2-D angular weights" `Quick test_angles_2d_weights;
      Alcotest.test_case "3-D angular weights" `Quick test_angles_3d_weights;
      Alcotest.test_case "reflection involution" `Quick test_reflection_involution;
      Alcotest.test_case "axis reflection exact" `Quick test_reflection_exact_for_axes;
      Alcotest.test_case "angles validation" `Quick test_angles_validation;
      Alcotest.test_case "equilibrium monotone in T" `Quick test_equilibrium_monotone_in_t;
      Alcotest.test_case "equilibrium interpolation" `Quick test_equilibrium_interp_accuracy;
      Alcotest.test_case "equilibrium derivative" `Quick test_equilibrium_derivative;
      Alcotest.test_case "energy density monotone" `Quick test_energy_density_monotone;
      Alcotest.test_case "newton roundtrip" `Quick test_newton_roundtrip;
      Alcotest.test_case "newton monotone" `Quick test_newton_monotone;
      Alcotest.test_case "newton from bad guess" `Quick test_newton_from_bad_guess;
      Alcotest.test_case "rate slopes match finite differences" `Quick
        test_rate_slopes_match_fd;
      Alcotest.test_case "residual Jacobian matches finite differences" `Quick
        test_residual_jacobian_matches_fd;
      Alcotest.test_case "hoisted rates bit-identical" `Quick
        test_hoisted_rates_bit_identical;
      Alcotest.test_case "conductivity magnitude" `Quick test_conductivity_magnitude;
      Alcotest.test_case "conductivity trend" `Quick test_conductivity_trend;
      Alcotest.test_case "heat capacity" `Quick test_heat_capacity;
      Alcotest.test_case "mean free path" `Quick test_mean_free_path;
    ] )
