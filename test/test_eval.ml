(* Direct tests of the expression-to-closure compiler: special symbols,
   index handling, coefficient kinds, ghost access, and error paths. *)

open Finch_symbolic

let check_bool = Alcotest.(check bool)

let mesh = Fvm.Mesh_gen.rectangle ~nx:3 ~ny:2 ~lx:3.0 ~ly:2.0 ()

let make_env () =
  Finch.Eval.make_env ~mesh ~dt:(ref 0.5) ~time:(ref 2.0)
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
  env.Finch.Eval.ghost <- Some (fun name comp ->
      check_bool "ghost var name" true (name = "u");
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

(* --- tape compiler ------------------------------------------------- *)

let bte_bindings () =
  let fio = Fvm.Field.create ~name:"Io" ~ncells:6 ~ncomp:3 () in
  let fi = Fvm.Field.create ~name:"I" ~ncells:6 ~ncomp:12 () in
  let fbeta = Fvm.Field.create ~name:"beta" ~ncells:6 ~ncomp:3 () in
  let rnd = Tutil.lcg 99 in
  Fvm.Field.init fio (fun _ _ -> rnd ());
  Fvm.Field.init fi (fun _ _ -> rnd ());
  Fvm.Field.init fbeta (fun _ _ -> rnd () +. 0.5);
  let bindings =
    [ "Io", Finch.Eval.Bfield (fio, [ "b", 1, 1 ]);
      "I", Finch.Eval.Bfield (fi, [ "d", 1, 1; "b", 1, 4 ]);
      "beta", Finch.Eval.Bfield (fbeta, [ "b", 1, 1 ]) ]
  in
  bindings, fi

let test_tape_matches_closure_exactly () =
  (* bit-identical results on the BTE volume expression over the full
     (cell, d, b) iteration space *)
  let bindings, _ = bte_bindings () in
  let e = Parser.parse "(Io[b] - I[d,b]) * beta[b] + exp(-beta[b]*dt)" in
  let g = Finch.Eval.compile bindings e in
  let t = Finch.Eval.compile_tape bindings e in
  let env = make_env () in
  Finch.Eval.bump_epoch env;
  for cell = 0 to 5 do
    env.Finch.Eval.cell <- cell;
    for b = 0 to 2 do
      Finch.Eval.ival env "b" := b;
      for d = 0 to 3 do
        Finch.Eval.ival env "d" := d;
        let vc = g env and vt = Finch.Eval.tape_run t env in
        if vc <> vt then
          Alcotest.failf "tape differs at cell=%d d=%d b=%d: %h vs %h" cell d b
            vc vt
      done
    done
  done

let test_tape_cse_reduces_ops () =
  (* repeated subterms compile to a single op *)
  let bindings = [ "a", Finch.Eval.Bcoef_const 1.5; "b", Finch.Eval.Bcoef_const 2.0 ] in
  let t = Finch.Eval.compile_tape bindings (Parser.parse "(a+b)*(a+b) + (a+b)") in
  (* leaves a and b, one add, one mul, one outer add: 5 ops for 11 nodes *)
  Alcotest.(check int) "CSE op count" 5 (Finch.Eval.tape_length t);
  let bindings2, _ = bte_bindings () in
  let t2 =
    Finch.Eval.compile_tape bindings2
      (Parser.parse "I[d,b]*beta[b] + Io[b]*beta[b]")
  in
  (* beta[b] loaded once: I, beta, mul, Io, mul, add *)
  Alcotest.(check int) "shared load op count" 6 (Finch.Eval.tape_length t2);
  (* the post-CSE static cost is below the tree cost *)
  let e = Parser.parse "(a+b)*(a+b) + (a+b)" in
  let tree = Finch.Eval.cost e in
  let tape = Finch.Eval.tape_cost (Finch.Eval.compile_tape bindings e) in
  check_bool "tape flops below tree flops" true
    (tape.Finch.Eval.flops < tree.Finch.Eval.flops)

let test_tape_hoists_invariant_ops () =
  (* with d as the innermost loop, the b-only subterms (Io[b], beta[b])
     execute once per (cell, b) instead of once per (cell, b, d) *)
  let bindings, _ = bte_bindings () in
  let e = Parser.parse "(Io[b] - I[d,b]) * beta[b]" in
  let t = Finch.Eval.compile_tape bindings e in
  let g = Finch.Eval.compile bindings e in
  let env = make_env () in
  Finch.Eval.bump_epoch env;
  for cell = 0 to 5 do
    env.Finch.Eval.cell <- cell;
    for b = 0 to 2 do
      Finch.Eval.ival env "b" := b;
      for d = 0 to 3 do
        Finch.Eval.ival env "d" := d;
        let vt = Finch.Eval.tape_run t env in
        if vt <> g env then Alcotest.fail "tape drifted from closure"
      done
    done
  done;
  let runs = Finch.Eval.tape_runs t in
  let len = Finch.Eval.tape_length t in
  let executed = Finch.Eval.tape_executed t in
  Alcotest.(check int) "runs counted" (6 * 3 * 4) runs;
  check_bool "some ops executed" true (executed >= len);
  check_bool
    (Printf.sprintf "invariant ops skipped (%d executed of %d possible)"
       executed (runs * len))
    true
    (executed < runs * len);
  Finch.Eval.tape_reset_stats t;
  Alcotest.(check int) "stats reset" 0 (Finch.Eval.tape_runs t)

let test_tape_epoch_invalidation () =
  (* mutating a field and bumping the epoch must invalidate cached
     registers; without the bump the cache contract does not cover it *)
  let bindings, fi = bte_bindings () in
  let e = Parser.parse "(Io[b] - I[d,b]) * beta[b]" in
  let t = Finch.Eval.compile_tape bindings e in
  let g = Finch.Eval.compile bindings e in
  let env = make_env () in
  Finch.Eval.bump_epoch env;
  env.Finch.Eval.cell <- 3;
  Finch.Eval.ival env "d" := 2;
  Finch.Eval.ival env "b" := 1;
  let v0 = Finch.Eval.tape_run t env in
  Tutil.check_close "initial agreement" (g env) v0;
  (* change the intensity field in place, as an executor step would *)
  Fvm.Field.set fi 3 (2 + 4) 123.456;
  Finch.Eval.bump_epoch env;
  let v1 = Finch.Eval.tape_run t env in
  if v1 = v0 then Alcotest.fail "stale register survived an epoch bump";
  Tutil.check_close "agreement after mutation" (g env) v1

(* property: the tape evaluator agrees bit-for-bit with the closure
   compiler on random expressions, including across repeated runs with
   cached registers *)
let prop_tape_matches_closure =
  let bindings, _ = bte_bindings () in
  let bindings =
    bindings
    @ [ "a", Finch.Eval.Bcoef_const 1.25;
        "b", Finch.Eval.Bcoef_const (-0.75);
        "k", Finch.Eval.Bcoef_const 2.0 ]
  in
  QCheck.Test.make ~name:"tape evaluator == closure evaluator" ~count:200
    Test_expr.arb_expr (fun e ->
      match Finch.Eval.compile bindings e with
      | exception Finch.Eval.Compile_error _ -> true
      | g ->
        let t = Finch.Eval.compile_tape bindings e in
        let env = make_env () in
        Finch.Eval.bump_epoch env;
        let same_at cell d b =
          env.Finch.Eval.cell <- cell;
          Finch.Eval.ival env "d" := d;
          Finch.Eval.ival env "b" := b;
          let vc = g env and vt = Finch.Eval.tape_run t env in
          vc = vt || (Float.is_nan vc && Float.is_nan vt)
        in
        (* sweep d innermost to exercise register caching, then revisit
           the first point to check nothing stale persists *)
        same_at 0 0 0 && same_at 0 1 0 && same_at 0 2 0 && same_at 1 2 1
        && same_at 1 3 2 && same_at 0 0 0)

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
    Finch.Eval.make_env ~mesh:mesh_p ~dt:(ref 0.25) ~time:(ref 0.)
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
      Alcotest.test_case "tape == closure (bit-identical)" `Quick
        test_tape_matches_closure_exactly;
      Alcotest.test_case "tape CSE reduces op count" `Quick test_tape_cse_reduces_ops;
      Alcotest.test_case "tape hoists loop-invariant ops" `Quick
        test_tape_hoists_invariant_ops;
      Alcotest.test_case "tape epoch invalidation" `Quick test_tape_epoch_invalidation;
      QCheck_alcotest.to_alcotest prop_tape_matches_closure;
      QCheck_alcotest.to_alcotest prop_compile_matches_eval;
    ] )
