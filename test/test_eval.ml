(* Direct tests of the expression-to-closure compiler: special symbols,
   index handling, coefficient kinds, ghost access, and error paths. *)

open Finch_symbolic

let check_bool = Alcotest.(check bool)

let mesh = Fvm.Mesh_gen.rectangle ~nx:3 ~ny:2 ~lx:3.0 ~ly:2.0 ()

let make_env () =
  Finch.Eval.make_env ~lanes:1 ~mesh ~dt:(ref 0.5) ~time:(ref 2.0)
    ~index_names:[ "d"; "b" ]

let compile bindings s = Finch.Eval.compile bindings (Parser.parse s)

let test_special_symbols () =
  let env = make_env () in
  env.Finch.Eval.cell <- 4; (* grid position (1,1): centroid (1.5, 1.5) *)
  Tutil.check_close "dt" 0.5 (compile [] "dt" env);
  Tutil.check_close "time" 2.0 (compile [] "t" env);
  Tutil.check_close "pi" Float.pi (compile [] "pi" env);
  Tutil.check_close "x" 1.5 (compile [] "x" env);
  Tutil.check_close "y" 1.5 (compile [] "y" env);
  Tutil.check_close "VOLUME" 1.0 (compile [] "VOLUME" env)

let test_normals_with_sign () =
  let env = make_env () in
  (* find a vertical interior face and read NORMAL_1 from both sides:
     from its slot in each of its two cells *)
  let f = ref (-1) in
  for i = 0 to mesh.Fvm.Mesh.nfaces - 1 do
    if mesh.Fvm.Mesh.face_cell2.(i) >= 0
       && Float.abs mesh.Fvm.Mesh.face_normal.(i * 2) > 0.5
    then f := i
  done;
  let f = !f in
  check_bool "found interior vertical face" true (f >= 0);
  let p = Finch.Problem.init "normals" in
  Finch.Problem.set_mesh p mesh;
  let u = Finch.Problem.variable p ~name:"u" () in
  let _ = Finch.Problem.conservation_form p u "-surface(upwind([1;0], u))" in
  let faces = Finch.Lower.stage_interior p in
  let slot_in c =
    let s = ref (-1) in
    Array.iteri
      (fun i g -> if g = f then s := faces.Finch.Eval.slot_start.(c) + i)
      mesh.Fvm.Mesh.cell_faces.(c);
    !s
  in
  let n1 = Finch.Eval.compile ~faces [] (Parser.parse "NORMAL_1") in
  env.Finch.Eval.slot <- slot_in mesh.Fvm.Mesh.face_cell1.(f);
  let from_owner = n1 env in
  env.Finch.Eval.slot <- slot_in mesh.Fvm.Mesh.face_cell2.(f);
  let from_neighbour = n1 env in
  Tutil.check_close "normals flip" (-.from_owner) from_neighbour;
  Tutil.check_close "unit" 1. (Float.abs from_owner);
  (* a normal has no value outside the face tables *)
  match ignore (compile [] "NORMAL_1" : Finch.Eval.compiled) with
  | exception Finch.Eval.Compile_error _ -> ()
  | () -> Alcotest.fail "NORMAL_1 without face tables must not compile"

let test_field_access_sides () =
  let env = make_env () in
  let fld = Fvm.Field.create ~name:"u" ~ncells:6 ~ncomp:1 () in
  Fvm.Field.init fld (fun c _ -> float_of_int (10 * c));
  let bindings = [ "u", Finch.Eval.Bfield (fld, []) ] in
  (* bare identifiers are promoted to references by the pipeline's
     resolve_vars; at this level we construct the reference directly *)
  let here = Finch.Eval.compile bindings (Expr.ref_ "u" []) in
  env.Finch.Eval.cell <- 2;
  Tutil.check_close "Here reads cell" 20. (here env);
  let cell2 =
    Finch.Eval.compile bindings (Expr.ref_ ~side:Expr.Cell2 "u" [])
  in
  env.Finch.Eval.cell2 <- 5;
  Tutil.check_close "Cell2 reads neighbour" 50. (cell2 env);
  (* ghost access on the boundary *)
  env.Finch.Eval.cell2 <- -1;
  env.Finch.Eval.ghost <- Some (fun name lane comp ->
      check_bool "ghost var name" true (name = "u");
      check_bool "ghost lane" true (lane = 0);
      check_bool "ghost comp" true (comp = 0);
      99.);
  Tutil.check_close "ghost value" 99. (cell2 env);
  env.Finch.Eval.ghost <- None;
  (match cell2 env with
   | exception Finch.Eval.Compile_error _ -> ()
   | _ -> Alcotest.fail "missing ghost accessor must raise")

let test_indexed_field () =
  let env = make_env () in
  let fld = Fvm.Field.create ~name:"I" ~ncells:6 ~ncomp:12 () in
  Fvm.Field.init fld (fun c k -> float_of_int ((100 * c) + k));
  (* layout: d (extent 4, stride 1), b (extent 3, stride 4) *)
  let layout = [ "d", 1, 1; "b", 1, 4 ] in
  let bindings = [ "I", Finch.Eval.Bfield (fld, layout) ] in
  let g = compile bindings "I[d,b]" in
  env.Finch.Eval.cell <- 1;
  !(Finch.Eval.ival env "d") |> ignore;
  Finch.Eval.ival env "d" := 2;
  Finch.Eval.ival env "b" := 1;
  Tutil.check_close "comp = d + b*4" (float_of_int (100 + 2 + 4)) (g env);
  (* constant and shifted indices *)
  let gc = compile bindings "I[3,b]" in
  Finch.Eval.ival env "b" := 0;
  Tutil.check_close "Iconst is 1-based" (float_of_int (100 + 2)) (gc env);
  let gs = compile bindings "I[d+1,b]" in
  Finch.Eval.ival env "d" := 0;
  Tutil.check_close "Ishift" (float_of_int (100 + 1)) (gs env)

let test_coefficient_kinds () =
  let env = make_env () in
  let bindings =
    [ "k", Finch.Eval.Bcoef_const 2.5;
      "arr", Finch.Eval.Bcoef_arr ([| 10.; 20.; 30. |], "b", 1);
      "fn", Finch.Eval.Bcoef_fn (fun pos -> pos.(0) +. pos.(1)) ]
  in
  Tutil.check_close "const" 2.5 (compile bindings "k" env);
  Finch.Eval.ival env "b" := 2;
  Tutil.check_close "array by index var" 30. (compile bindings "arr[b]" env);
  Tutil.check_close "array by literal" 10. (compile bindings "arr[1]" env);
  env.Finch.Eval.cell <- 0; (* centroid (0.5, 0.5) *)
  Tutil.check_close "space function" 1.0 (compile bindings "fn" env)

let test_compile_errors () =
  let sink : Finch.Eval.compiled -> unit = fun _ -> () in
  let expect s bindings =
    match sink (compile bindings s) with
    | exception Finch.Eval.Compile_error _ -> ()
    | () -> Alcotest.failf "expected Compile_error for %s" s
  in
  expect "unknown_thing" [];
  expect "arr" [ "arr", Finch.Eval.Bcoef_arr ([| 1. |], "b", 1) ];
  expect "arr[d,b]" [ "arr", Finch.Eval.Bcoef_arr ([| 1. |], "b", 1) ];
  let fld = Fvm.Field.create ~name:"u" ~ncells:6 ~ncomp:2 () in
  expect "u" [ "u", Finch.Eval.Bfield (fld, [ "d", 1, 1 ]) ];
  (* unexpanded operators must be rejected at compile time *)
  expect "surface(u)" [];
  (* unknown index inside a reference *)
  (match
     let env = make_env () in
     let g =
       Finch.Eval.compile
         [ "I", Finch.Eval.Bfield (fld, [ "zz", 1, 1 ]) ]
         (Parser.parse "I[zz]")
     in
     g env
   with
   | exception Finch.Eval.Compile_error _ -> ()
   | _ -> Alcotest.fail "unknown index must raise")

let test_cost_estimation () =
  let c1 = Finch.Eval.cost (Parser.parse "a + b") in
  check_bool "one flop" true (c1.Finch.Eval.flops = 1.);
  let c2 = Finch.Eval.cost (Parser.parse "I[d,b] * vg[b] + Io[b]") in
  check_bool "three loads" true (c2.Finch.Eval.loads = 3);
  check_bool "two flops" true (c2.Finch.Eval.flops = 2.);
  let c3 = Finch.Eval.cost (Parser.parse "exp(a)") in
  check_bool "transcendental weighted" true (c3.Finch.Eval.flops >= 8.)

let test_compiled_matches_interpreter () =
  (* the closure compiler and the reference interpreter agree on the BTE
     volume expression *)
  let env = make_env () in
  let fio = Fvm.Field.create ~name:"Io" ~ncells:6 ~ncomp:3 () in
  let fi = Fvm.Field.create ~name:"I" ~ncells:6 ~ncomp:12 () in
  let fbeta = Fvm.Field.create ~name:"beta" ~ncells:6 ~ncomp:3 () in
  let rnd = Tutil.lcg 42 in
  Fvm.Field.init fio (fun _ _ -> rnd ());
  Fvm.Field.init fi (fun _ _ -> rnd ());
  Fvm.Field.init fbeta (fun _ _ -> rnd () +. 0.5);
  let bindings =
    [ "Io", Finch.Eval.Bfield (fio, [ "b", 1, 1 ]);
      "I", Finch.Eval.Bfield (fi, [ "d", 1, 1; "b", 1, 4 ]);
      "beta", Finch.Eval.Bfield (fbeta, [ "b", 1, 1 ]) ]
  in
  let e = Parser.parse "(Io[b] - I[d,b]) * beta[b]" in
  let g = Finch.Eval.compile bindings e in
  for cell = 0 to 5 do
    for d = 0 to 3 do
      for b = 0 to 2 do
        env.Finch.Eval.cell <- cell;
        Finch.Eval.ival env "d" := d;
        Finch.Eval.ival env "b" := b;
        let expected =
          (Fvm.Field.get fio cell b -. Fvm.Field.get fi cell (d + (b * 4)))
          *. Fvm.Field.get fbeta cell b
        in
        Tutil.check_close "closure vs direct" expected (g env)
      done
    done
  done

(* property: the closure compiler agrees with the reference interpreter
   (Expr.eval) on random expressions over a shared vocabulary *)
let prop_compile_matches_eval =
  let mesh_p = Fvm.Mesh_gen.rectangle ~nx:2 ~ny:2 ~lx:2.0 ~ly:2.0 () in
  let fio = Fvm.Field.create ~name:"Io" ~ncells:4 ~ncomp:3 () in
  let fi = Fvm.Field.create ~name:"I" ~ncells:4 ~ncomp:12 () in
  let fbeta = Fvm.Field.create ~name:"beta" ~ncells:4 ~ncomp:3 () in
  let rnd = Tutil.lcg 7 in
  Fvm.Field.init fio (fun _ _ -> rnd () +. 0.1);
  Fvm.Field.init fi (fun _ _ -> rnd () +. 0.1);
  Fvm.Field.init fbeta (fun _ _ -> rnd () +. 0.1);
  let bindings =
    [ "Io", Finch.Eval.Bfield (fio, [ "b", 1, 1 ]);
      "I", Finch.Eval.Bfield (fi, [ "d", 1, 1; "b", 1, 4 ]);
      "beta", Finch.Eval.Bfield (fbeta, [ "b", 1, 1 ]);
      "a", Finch.Eval.Bcoef_const 1.25;
      "b", Finch.Eval.Bcoef_const (-0.75);
      "k", Finch.Eval.Bcoef_const 2.0 ]
  in
  let env =
    Finch.Eval.make_env ~lanes:1 ~mesh:mesh_p ~dt:(ref 0.25) ~time:(ref 0.)
      ~index_names:[ "d"; "b" ]
  in
  (* reference interpretation with identical semantics *)
  let env_sym = function
    | "dt" -> 0.25
    | "a" -> 1.25
    | "b" -> -0.75
    | "k" -> 2.0
    | s -> Alcotest.failf "sym %s" s
  in
  let env_ref name idx _side =
    let comp_of layout =
      List.fold_left2
        (fun acc (_, _lo, stride) iref ->
          match iref with
          | Expr.Ivar n -> acc + (!(Finch.Eval.ival env n) * stride)
          | Expr.Iconst k -> acc + ((k - 1) * stride)
          | Expr.Ishift (n, s) -> acc + ((!(Finch.Eval.ival env n) + s) * stride))
        0 layout idx
    in
    match name with
    | "Io" -> Fvm.Field.get fio env.Finch.Eval.cell (comp_of [ "b", 1, 1 ])
    | "I" ->
      Fvm.Field.get fi env.Finch.Eval.cell (comp_of [ "d", 1, 1; "b", 1, 4 ])
    | "beta" -> Fvm.Field.get fbeta env.Finch.Eval.cell (comp_of [ "b", 1, 1 ])
    | s -> Alcotest.failf "ref %s" s
  in
  QCheck.Test.make ~name:"closure compiler == reference interpreter"
    ~count:200 Test_expr.arb_expr (fun e ->
      (* restrict to the vocabulary both sides know: skip expressions with
         unknown entities by catching the compile error *)
      match Finch.Eval.compile bindings e with
      | exception Finch.Eval.Compile_error _ -> true
      | g ->
        env.Finch.Eval.cell <- 2;
        Finch.Eval.ival env "d" := 1;
        Finch.Eval.ival env "b" := 2;
        let v1 = g env in
        let v2 = Expr.eval ~env_sym ~env_ref e in
        Tutil.feq ~eps:1e-9 v1 v2
        || (Float.is_nan v1 && Float.is_nan v2)
        || Float.abs v2 > 1e14)


(* --- lane groups --------------------------------------------------- *)

(* Advection of I[d,b] (d 1..4, b 1..3) on [mesh] whose upwind test is
   staged (the speeds hold exact zeros, so it splits the directions),
   with the fields and coefficients the generated expressions read.
   [fn] counts its calls. *)
let lane_fixture () =
  let p = Finch.Problem.init "lanes" in
  Finch.Problem.domain p 2;
  Finch.Problem.set_mesh p mesh;
  Finch.Problem.set_steps p ~dt:1e-3 ~nsteps:1;
  let d = Finch.Problem.index p ~name:"d" ~range:(1, 4) in
  let b = Finch.Problem.index p ~name:"b" ~range:(1, 3) in
  let vi = Finch.Problem.variable p ~name:"I" ~indices:[ d; b ] () in
  let _ = Finch.Problem.variable p ~name:"Io" ~indices:[ b ] () in
  let _ = Finch.Problem.variable p ~name:"beta" ~indices:[ b ] () in
  let arr name index a =
    ignore (Finch.Problem.coefficient p ~name ~index (Finch.Entity.Arr a))
  in
  arr "Sx" d [| 1.0; -0.5; 0.0; 0.75 |];
  arr "Sy" d [| 0.25; 0.0; -1.0; 0.5 |];
  arr "ds" d [| 0.; 1.; 2.; 3. |];
  arr "vg" b [| 2.0; 0.5; 1.25 |];
  ignore (Finch.Problem.coefficient p ~name:"k" (Finch.Entity.Const 0.75));
  let calls = ref 0 in
  ignore
    (Finch.Problem.coefficient p ~name:"fn"
       (Finch.Entity.Space_fn
          (fun pos ->
            incr calls;
            pos.(0) -. (0.5 *. pos.(1)))));
  let _ =
    Finch.Problem.conservation_form p vi "-surface(upwind([Sx[d];Sy[d]], I[d,b]))"
  in
  let st = Finch.Lower.build p in
  let rnd = Tutil.lcg 2201 in
  List.iter
    (fun (_, f) -> Fvm.Field.init f (fun _ _ -> rnd () -. 0.25))
    st.Finch.Lower.fields;
  let faces = st.Finch.Lower.faces in
  let staged =
    match faces.Finch.Eval.tests with
    | [ t ] -> t.Finch.Eval.test
    | _ -> Alcotest.fail "lane fixture: one staged test expected"
  in
  st, staged, calls

(* Every node kind: staged and unstaged conditionals, constant and
   shifted indices, reads across the face (a ghost on boundary slots),
   powers, calls and comparisons. *)
let lane_expr_gen staged =
  let open QCheck.Gen in
  let d = Expr.Ivar "d" and b = Expr.Ivar "b" in
  let leaf =
    frequency
      [ 2, map (fun x -> Expr.num (float_of_int x)) (int_range (-3) 3);
        2, map Expr.sym (oneofl [ "k"; "dt"; "x"; "VOLUME"; "FACEAREA"; "NORMAL_1"; "fn" ]);
        4,
        oneofl
          [ Expr.ref_ "I" [ d; b ];
            Expr.ref_ ~side:Expr.Cell2 "I" [ d; b ];
            Expr.ref_ "I" [ Expr.Ishift ("d", 1); b ];
            Expr.ref_ "I" [ Expr.Ishift ("d", -1); b ];
            Expr.ref_ "I" [ Expr.Iconst 2; b ];
            Expr.ref_ "Io" [ b ];
            Expr.ref_ ~side:Expr.Cell2 "beta" [ b ];
            Expr.ref_ "Sx" [ d ];
            Expr.ref_ "vg" [ b ];
            Expr.ref_ "ds" [ d ];
            Expr.ref_ "Sy" [ Expr.Iconst 3 ] ] ]
  in
  let rec go n =
    if n <= 0 then leaf
    else
      let sub = go (n - 1) in
      frequency
        [ 2, leaf;
          2, map Expr.add (list_size (int_range 0 3) sub);
          2, map Expr.mul (list_size (int_range 2 3) sub);
          1, map (fun e -> Expr.pow e (Expr.num 2.)) sub;
          1, map (fun e -> Expr.pow e (Expr.num (-1.))) sub;
          1, map2 Expr.pow sub (map (fun k -> Expr.num (float_of_int k)) (int_range 0 3));
          1, map2 (fun f e -> Expr.call f [ e ]) (oneofl [ "sin"; "exp"; "abs"; "sqrt"; "tanh" ]) sub;
          1, map3 (fun f a b -> Expr.call f [ a; b ]) (oneofl [ "min"; "max" ]) sub sub;
          1,
          map3 Expr.cmp
            (oneofl Expr.[ Gt; Ge; Lt; Le; Eq; Ne ])
            sub sub;
          2, map2 (fun t e -> Expr.cond staged t e) sub sub;
          2,
          map3
            (fun (op, k) t e ->
              Expr.cond (Expr.cmp op (Expr.ref_ "ds" [ d ]) (Expr.num k)) t e)
            (pair (oneofl Expr.[ Gt; Le; Eq ]) (map float_of_int (int_range 0 3)))
            sub sub;
          1, map3 Expr.cond sub sub sub ]
  in
  go 3

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  || (Float.is_nan a && Float.is_nan b)

(* A group of the fixture's components: a band slice, a random subset in
   random order, or the whole cell shuffled. *)
let pick_comps rng =
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    done;
    a
  in
  match Random.State.int rng 3 with
  | 0 ->
    let b = Random.State.int rng 3 in
    Array.init 4 (fun d -> d + (4 * b))
  | 1 ->
    let all = shuffle (Array.init 12 Fun.id) in
    Array.sub all 0 (1 + Random.State.int rng 12)
  | _ -> shuffle (Array.init 12 Fun.id)

(* A scalar reference for one DOF, independent of the lane programs: a
   plain tree walk over [e] at [cell]'s face [face], the DOF's 0-based
   index values [ivals], and [ghost name comp] for a read across a
   boundary face.  It follows the rules the lane programs document: an
   Add starts from 0. and a Mul from 1., x^-1 is 1. /. x, x^2 is x *. x
   and any other power Float.pow; a conditional evaluates its raw test
   (never a staged table) and then only the branch it takes; a shifted
   read past the field's components raises.  Geometry comes from the
   mesh, not from the face tables.  ([Expr.eval] is not exact here: it
   takes small integer powers by repeated multiplication.) *)
let walk (st : Finch.Lower.state) ~cell ~face ~ivals ~ghost e =
  let mesh = st.Finch.Lower.mesh in
  let cell2 = Fvm.Mesh.neighbour mesh face cell in
  let iv n = List.assoc n ivals in
  let coef_fn f = f (Fvm.Mesh.cell_centroid mesh cell) in
  let rec go (e : Expr.t) =
    match e with
    | Expr.Num x -> x
    | Expr.Sym s -> sym s
    | Expr.Ref (name, idx, side) -> read name idx side
    | Expr.Add es -> List.fold_left (fun acc e -> acc +. go e) 0. es
    | Expr.Mul es -> List.fold_left (fun acc e -> acc *. go e) 1. es
    | Expr.Pow (a, Expr.Num x) when Float.equal x (-1.) -> 1. /. go a
    | Expr.Pow (a, Expr.Num x) when Float.equal x 2. ->
      let v = go a in
      v *. v
    | Expr.Pow (a, b) -> Float.pow (go a) (go b)
    | Expr.Call (("min" | "max") as f, [ a; b ]) ->
      (if f = "max" then Float.max else Float.min) (go a) (go b)
    | Expr.Call (f, [ a ]) ->
      (match f with
       | "sin" -> sin
       | "cos" -> cos
       | "tan" -> tan
       | "exp" -> exp
       | "log" -> log
       | "sqrt" -> sqrt
       | "abs" -> Float.abs
       | "sinh" -> sinh
       | "cosh" -> cosh
       | "tanh" -> tanh
       | f -> Alcotest.failf "walk: call %s" f)
        (go a)
    | Expr.Call (f, _) -> Alcotest.failf "walk: call %s" f
    | Expr.Cmp (op, a, b) ->
      let x = go a and y = go b in
      let holds =
        match op with
        | Expr.Gt -> x > y
        | Expr.Ge -> x >= y
        | Expr.Lt -> x < y
        | Expr.Le -> x <= y
        | Expr.Eq -> Float.equal x y
        | Expr.Ne -> not (Float.equal x y)
      in
      if holds then 1. else 0.
    | Expr.Cond (c, t, el) -> if go c <> 0. then go t else go el
  and sym s =
    match s with
    | "dt" -> !(st.Finch.Lower.dt)
    | "t" | "time" -> !(st.Finch.Lower.time)
    | "pi" -> Float.pi
    | "x" -> (Fvm.Mesh.cell_centroid mesh cell).(0)
    | "y" -> (Fvm.Mesh.cell_centroid mesh cell).(1)
    | "VOLUME" -> mesh.Fvm.Mesh.cell_volume.(cell)
    | "FACEAREA" -> mesh.Fvm.Mesh.face_area.(face)
    | s when String.length s > 7 && String.sub s 0 7 = "NORMAL_" ->
      let k = int_of_string (String.sub s 7 (String.length s - 7)) - 1 in
      Fvm.Mesh.normal_sign mesh face cell *. (Fvm.Mesh.face_normal mesh face).(k)
    | s -> (
      match List.assoc_opt s st.Finch.Lower.bindings with
      | Some (Finch.Eval.Bcoef_const v) -> v
      | Some (Finch.Eval.Bcoef_fn f) -> coef_fn f
      | _ -> Alcotest.failf "walk: symbol %s" s)
  and read name idx side =
    match List.assoc_opt name st.Finch.Lower.bindings with
    | Some (Finch.Eval.Bfield (fld, layout)) ->
      let comp =
        List.fold_left2
          (fun acc (_, lo, stride) i ->
            match i with
            | Expr.Iconst k -> acc + ((k - lo) * stride)
            | Expr.Ivar n -> acc + (iv n * stride)
            | Expr.Ishift (n, k) -> acc + ((iv n + k) * stride))
          0 layout idx
      in
      let shifted = List.exists (function Expr.Ishift _ -> true | _ -> false) idx in
      if shifted && (comp < 0 || comp >= Fvm.Field.ncomp fld) then
        raise (Finch.Eval.Compile_error (name ^ ": shifted past the range"));
      (match side with
       | Expr.Cell2 when cell2 < 0 -> ghost name comp
       | Expr.Cell2 -> Fvm.Field.get fld cell2 comp
       | Expr.Here | Expr.Cell1 -> Fvm.Field.get fld cell comp)
    | Some (Finch.Eval.Bcoef_arr (a, _, lo)) -> (
      match idx with
      | [ Expr.Ivar n ] -> a.(iv n)
      | [ Expr.Iconst k ] -> a.(k - lo)
      | _ -> Alcotest.failf "walk: %s index" name)
    | Some (Finch.Eval.Bcoef_const v) -> v
    | Some (Finch.Eval.Bcoef_fn f) -> coef_fn f
    | None -> Alcotest.failf "walk: entity %s" name
  in
  go e

(* The boundary ghost of [name]'s component [comp] for the DOF [dof]:
   distinct per DOF, so a lane reading another lane's ghost shows. *)
let ghost_value name comp dof =
  float_of_int (String.length name) +. (0.125 *. float_of_int comp)
  +. (0.01 *. float_of_int dof)

(* Evaluate [e] over a random group at a random slot, and each of its
   lanes on one lane and by the scalar walk: every lane equals both, bit
   for bit, or the group raises exactly when some lane's own evaluation
   does, and the walk raises exactly when the one-lane evaluation
   does. *)
let lanes_agree st (e, seed) =
  let bindings = st.Finch.Lower.bindings and faces = st.Finch.Lower.faces in
  match Finch.Eval.program ~faces bindings e with
  | exception Finch.Eval.Compile_error _ -> true
  | prog ->
    let one = Finch.Eval.compile ~faces bindings e in
    let rng = Random.State.make [| seed |] in
    let env =
      Finch.Eval.make_env ~lanes:12 ~mesh ~dt:st.Finch.Lower.dt
        ~time:st.Finch.Lower.time ~index_names:[ "d"; "b" ]
    in
    let cell = Random.State.int rng mesh.Fvm.Mesh.ncells in
    let fcs = mesh.Fvm.Mesh.cell_faces.(cell) in
    let i = Random.State.int rng (Array.length fcs) in
    let s = faces.Finch.Eval.slot_start.(cell) + i in
    let face = fcs.(i) in
    env.Finch.Eval.cell <- cell;
    env.Finch.Eval.slot <- s;
    env.Finch.Eval.face <- face;
    env.Finch.Eval.cell2 <- faces.Finch.Eval.slot_nbr.(s);
    let dofs = ref [||] in
    env.Finch.Eval.ghost <- Some (fun name l c -> ghost_value name c !dofs.(l));
    let comps = pick_comps rng in
    let g = env.Finch.Eval.group in
    g.Finch.Eval.n <- Array.length comps;
    Array.iteri
      (fun l c ->
        g.Finch.Eval.iv.(0).(l) <- c mod 4;
        g.Finch.Eval.iv.(1).(l) <- c / 4)
      comps;
    Finch.Eval.touch g;
    let attempt f = match f () with v -> Some v | exception Finch.Eval.Compile_error _ -> None in
    dofs := comps;
    let grouped = attempt (fun () -> Array.copy (Finch.Eval.run prog env)) in
    let per_lane =
      Array.map
        (fun c ->
          Finch.Eval.ival env "d" := c mod 4;
          Finch.Eval.ival env "b" := c / 4;
          dofs := [| c |];
          ( attempt (fun () -> one env),
            attempt (fun () ->
                walk st ~cell ~face
                  ~ivals:[ "d", c mod 4; "b", c / 4 ]
                  ~ghost:(fun name k -> ghost_value name k c)
                  e) ))
        comps
    in
    let fail fmt = QCheck.Test.fail_reportf fmt in
    (match grouped with
     | None ->
       if Array.for_all (fun (o, _) -> o <> None) per_lane then
         fail "group raised, but no lane does on its own"
     | Some vs ->
       Array.iteri
         (fun l (o, _) ->
           match o with
           | None -> fail "lane %d (comp %d) raises alone, not in the group" l comps.(l)
           | Some v ->
             if not (same vs.(l) v) then
               fail "lane %d (comp %d): group %h, one lane %h" l comps.(l) vs.(l) v)
         per_lane);
    Array.iteri
      (fun l (o, w) ->
        match o, w with
        | Some v, Some wv ->
          if not (same v wv) then
            fail "lane %d (comp %d): one lane %h, walk %h" l comps.(l) v wv
        | None, None -> ()
        | Some _, None -> fail "lane %d (comp %d): the walk raises alone" l comps.(l)
        | None, Some _ -> fail "lane %d (comp %d): one lane raises alone" l comps.(l))
      per_lane;
    true

let prop_lanes_agree =
  let st, staged, _ = lane_fixture () in
  QCheck.Test.make ~name:"lane group == one lane == tape" ~count:400
    (QCheck.make
       ~print:(fun (e, seed) -> Printf.sprintf "%s (seed %d)" (Printer.to_string e) seed)
       QCheck.Gen.(pair (lane_expr_gen staged) (int_bound 1_000_000)))
    (lanes_agree st)

(* A group over every component of [cell], at its first interior or
   boundary slot. *)
let whole_cell env (st : Finch.Lower.state) ~boundary =
  let faces = st.Finch.Lower.faces in
  let pick = ref None in
  for c = mesh.Fvm.Mesh.ncells - 1 downto 0 do
    Array.iteri
      (fun i f ->
        let s = faces.Finch.Eval.slot_start.(c) + i in
        if (faces.Finch.Eval.slot_nbr.(s) < 0) = boundary then pick := Some (c, s, f))
      mesh.Fvm.Mesh.cell_faces.(c)
  done;
  let c, s, f = Option.get !pick in
  env.Finch.Eval.cell <- c;
  env.Finch.Eval.slot <- s;
  env.Finch.Eval.face <- f;
  env.Finch.Eval.cell2 <- faces.Finch.Eval.slot_nbr.(s);
  let g = env.Finch.Eval.group in
  g.Finch.Eval.n <- 12;
  for l = 0 to 11 do
    g.Finch.Eval.iv.(0).(l) <- l mod 4;
    g.Finch.Eval.iv.(1).(l) <- l / 4
  done;
  Finch.Eval.touch g

(* A conditional's untaken branch runs on no lane: a shift past the last
   direction, a read across a boundary face with no ghost and a
   coefficient function, each guarded so that some lanes would reach it
   and the group's lanes do not; the same program on a group with one
   lane that takes the branch does raise (or call). *)
let test_lanes_lazy () =
  let st, _, calls = lane_fixture () in
  let env =
    Finch.Eval.make_env ~lanes:12 ~mesh ~dt:st.Finch.Lower.dt
      ~time:st.Finch.Lower.time ~index_names:[ "d"; "b" ]
  in
  let compile s = Finch.Eval.program ~faces:st.Finch.Lower.faces st.Finch.Lower.bindings (Parser.parse s) in
  let drop_last_direction () =
    (* lanes d = 0..2 only: the last direction's shift is never taken *)
    let g = env.Finch.Eval.group in
    let n = ref 0 in
    for c = 0 to 11 do
      if c mod 4 < 3 then begin
        g.Finch.Eval.iv.(0).(!n) <- c mod 4;
        g.Finch.Eval.iv.(1).(!n) <- c / 4;
        incr n
      end
    done;
    g.Finch.Eval.n <- !n;
    Finch.Eval.touch g
  in
  let raises what f =
    match f () with
    | exception Finch.Eval.Compile_error _ -> ()
    | _ -> Alcotest.failf "%s: expected the taken branch to raise" what
  in
  (* the shift: I[d+1,b] past the last component when d = 3, b = 3 *)
  let shift = compile "conditional(ds[d] < 2.5, I[d+1,b], 7)" in
  whole_cell env st ~boundary:false;
  let vs = Finch.Eval.run shift env in
  Tutil.check_close "the untaken shift is not read" 7. vs.(11);
  let eager = compile "conditional(ds[d] < 3.5, I[d+1,b], 7)" in
  raises "shift" (fun () -> Finch.Eval.run eager env);
  drop_last_direction ();
  ignore (Finch.Eval.run eager env);
  (* across a boundary face with no ghost accessor *)
  let across =
    Finch.Eval.program ~faces:st.Finch.Lower.faces st.Finch.Lower.bindings
      (Expr.cond
         (Expr.cmp Expr.Gt (Expr.ref_ "ds" [ Expr.Ivar "d" ]) (Expr.num 1.5))
         (Expr.num 1.)
         (Expr.ref_ ~side:Expr.Cell2 "I" [ Expr.Ivar "d"; Expr.Ivar "b" ]))
  in
  whole_cell env st ~boundary:true;
  env.Finch.Eval.ghost <- None;
  raises "across" (fun () -> Finch.Eval.run across env);
  let g = env.Finch.Eval.group in
  (* lanes d = 2, 3 only take the safe branch *)
  for l = 0 to 5 do
    g.Finch.Eval.iv.(0).(l) <- 2 + (l mod 2);
    g.Finch.Eval.iv.(1).(l) <- l / 2
  done;
  g.Finch.Eval.n <- 6;
  Finch.Eval.touch g;
  Array.iteri
    (fun l v -> if l < 6 then Tutil.check_close "the safe branch" 1. v)
    (Finch.Eval.run across env);
  (* a coefficient function under a branch no lane takes *)
  let guarded = compile "conditional(ds[d] > 5, fn, 2)" in
  whole_cell env st ~boundary:false;
  calls := 0;
  ignore (Finch.Eval.run guarded env);
  Alcotest.(check int) "the function is not called" 0 !calls;
  let taken = compile "conditional(ds[d] > 2.5, fn, 2)" in
  ignore (Finch.Eval.run taken env);
  check_bool "the taken branch calls it" true (!calls > 0)

(* Evaluating a lane group allocates nothing, on the BTE's integrands
   over a whole serve-sized cell (4 directions x 5 bands) and on the
   fixture's expressions with powers, calls and comparisons. *)
let test_lanes_allocate_nothing () =
  let sc =
    { Bte.Setup.small_hotspot with Bte.Setup.nx = 4; ny = 4; ndirs = 4; n_la_bands = 4; nsteps = 1 }
  in
  let built = Bte.Setup.build sc in
  let st = Finch.Lower.build built.Bte.Setup.problem in
  let ncomp = Fvm.Field.ncomp st.Finch.Lower.u in
  Alcotest.(check int) "20 lanes per cell" 20 st.Finch.Lower.env.Finch.Eval.lanes;
  let comps = Array.init ncomp Fun.id in
  let run () =
    for cell = 0 to 15 do
      Finch.Lower.update_interior st cell comps 0 ncomp
    done
  in
  run ();
  let w0 = Gc.minor_words () in
  run ();
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "update_interior: minor words" 0. (w1 -. w0);
  let fx, _, _ = lane_fixture () in
  let env = Finch.Eval.make_env ~lanes:12 ~mesh ~dt:fx.Finch.Lower.dt
      ~time:fx.Finch.Lower.time ~index_names:[ "d"; "b" ] in
  whole_cell env fx ~boundary:false;
  List.iter
    (fun s ->
      let p = Finch.Eval.program ~faces:fx.Finch.Lower.faces fx.Finch.Lower.bindings (Parser.parse s) in
      ignore (Finch.Eval.run p env);
      let w0 = Gc.minor_words () in
      for _ = 1 to 10 do
        Finch.Eval.touch env.Finch.Eval.group;
        ignore (Finch.Eval.run p env)
      done;
      let w1 = Gc.minor_words () in
      Alcotest.(check (float 0.)) (s ^ ": minor words") 0. (w1 -. w0))
    [ "(Io[b] - I[d,b])*beta[b] + k*dt*VOLUME";
      "conditional(ds[d] > 1.5, sqrt(abs(I[d,b]))^2, exp(-Sx[d])*max(I[d+0,b], x))";
      "(Sx[d] >= Sy[d]) + I[1,b]^(-1) + I[d,b]^3 + min(vg[b], NORMAL_1*FACEAREA)" ]

let suite =
  ( "eval",
    [
      Alcotest.test_case "special symbols" `Quick test_special_symbols;
      Alcotest.test_case "normals with sign" `Quick test_normals_with_sign;
      Alcotest.test_case "field access sides + ghost" `Quick test_field_access_sides;
      Alcotest.test_case "indexed field layouts" `Quick test_indexed_field;
      Alcotest.test_case "coefficient kinds" `Quick test_coefficient_kinds;
      Alcotest.test_case "compile errors" `Quick test_compile_errors;
      Alcotest.test_case "cost estimation" `Quick test_cost_estimation;
      Alcotest.test_case "closure compiler vs direct evaluation" `Quick
        test_compiled_matches_interpreter;
      QCheck_alcotest.to_alcotest prop_compile_matches_eval;
      QCheck_alcotest.to_alcotest prop_lanes_agree;
      Alcotest.test_case "lanes: untaken branches run on no lane" `Quick test_lanes_lazy;
      Alcotest.test_case "lanes: a group evaluation allocates nothing" `Quick
        test_lanes_allocate_nothing;
    ] )
