(* Parallel-runtime tests: breakdown accounting, network cost models and
   the effects-based SPMD executor. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_breakdown_arith () =
  let a =
    Prt.Breakdown.make ~intensity:3. ~temperature:1. ~communication:0.5 ()
  in
  Tutil.check_close "total" 4.5 (Prt.Breakdown.total a);
  let b = Prt.Breakdown.scale 2. a in
  Tutil.check_close "scaled" 9. (Prt.Breakdown.total b);
  let c = Prt.Breakdown.add a b in
  Tutil.check_close "added" 13.5 (Prt.Breakdown.total c);
  let p = Prt.Breakdown.percentages a in
  Tutil.check_close "intensity pct" (100. *. 3. /. 4.5) p.Prt.Breakdown.pct_intensity;
  Tutil.check_close "pcts sum to 100"
    100.
    (p.Prt.Breakdown.pct_intensity +. p.pct_temperature +. p.pct_communication
     +. p.pct_boundary +. p.pct_other)

let test_breakdown_record_timed () =
  let b = Prt.Breakdown.zero () in
  Prt.Breakdown.record b Prt.Breakdown.Intensity 1.5;
  Prt.Breakdown.record b Prt.Breakdown.Communication 0.5;
  let r = Prt.Breakdown.timed b Prt.Breakdown.Temperature (fun () -> 42) in
  check_int "timed returns" 42 r;
  check_bool "temperature recorded" true (b.Prt.Breakdown.temperature >= 0.);
  Tutil.check_close "intensity" 1.5 b.Prt.Breakdown.intensity

let test_network_models () =
  let net = Prt.Cluster.default_network in
  check_bool "p2p has latency floor" true
    (Prt.Cluster.p2p net ~bytes:0 >= net.Prt.Cluster.alpha);
  Tutil.check_close "allreduce p=1 free" 0. (Prt.Cluster.allreduce net ~p:1 ~bytes:1000);
  let a2 = Prt.Cluster.allreduce net ~p:2 ~bytes:1000 in
  let a16 = Prt.Cluster.allreduce net ~p:16 ~bytes:1000 in
  check_bool "allreduce grows log p" true (a16 > a2 && a16 < 8. *. a2);
  let g = Prt.Cluster.allgather net ~p:4 ~bytes_per_rank:100 in
  check_bool "allgather positive" true (g > 0.);
  Tutil.check_close "halo exchange sums"
    (2. *. Prt.Cluster.p2p net ~bytes:50)
    (Prt.Cluster.halo_exchange net ~neighbour_bytes:[ 50; 50 ]);
  check_bool "broadcast grows with p" true
    (Prt.Cluster.broadcast net ~p:8 ~bytes:100 > Prt.Cluster.broadcast net ~p:2 ~bytes:100)

let test_spmd_barrier_order () =
  (* events around a barrier: all "before" precede all "after" *)
  let log = ref [] in
  Prt.Spmd.run ~nranks:3 (fun rank ->
      log := (`Before, rank) :: !log;
      Prt.Spmd.barrier ();
      log := (`After, rank) :: !log);
  let events = List.rev !log in
  let rec split acc = function
    | (`Before, _) :: rest -> split (acc + 1) rest
    | rest -> acc, rest
  in
  let nbefore, rest = split 0 events in
  check_int "all befores first" 3 nbefore;
  check_int "then all afters" 3 (List.length rest)

let test_spmd_allreduce () =
  let results = Array.make 4 [||] in
  Prt.Spmd.run ~nranks:4 (fun rank ->
      let a = [| float_of_int rank; 1.; float_of_int (rank * rank) |] in
      Prt.Spmd.allreduce_sum a;
      results.(rank) <- a);
  Array.iter
    (fun a ->
      Tutil.check_close "sum of ranks" 6. a.(0);
      Tutil.check_close "sum of ones" 4. a.(1);
      Tutil.check_close "sum of squares" 14. a.(2))
    results

let test_spmd_multiple_rounds () =
  let acc = Array.make 3 0. in
  Prt.Spmd.run ~nranks:3 (fun rank ->
      for _round = 1 to 5 do
        let a = [| 1. |] in
        Prt.Spmd.allreduce_sum a;
        acc.(rank) <- acc.(rank) +. a.(0);
        Prt.Spmd.barrier ()
      done);
  Array.iter (fun v -> Tutil.check_close "5 rounds of 3" 15. v) acc

let test_spmd_single_rank () =
  let hit = ref false in
  Prt.Spmd.run ~nranks:1 (fun _ ->
      let a = [| 2. |] in
      Prt.Spmd.allreduce_sum a;
      Tutil.check_close "identity reduce" 2. a.(0);
      Prt.Spmd.barrier ();
      hit := true);
  check_bool "ran" true !hit

let test_spmd_mismatch_detected () =
  let mismatch () =
    Prt.Spmd.run ~nranks:2 (fun rank ->
        if rank = 0 then Prt.Spmd.barrier ()
        (* rank 1 exits without reaching the barrier *))
  in
  match mismatch () with
  | exception Prt.Spmd.Spmd_error _ -> ()
  | () -> Alcotest.fail "expected Spmd_error"

let test_spmd_length_mismatch () =
  let bad () =
    Prt.Spmd.run ~nranks:2 (fun rank ->
        let a = Array.make (1 + rank) 0. in
        Prt.Spmd.allreduce_sum a)
  in
  match bad () with
  | exception Prt.Spmd.Spmd_error _ -> ()
  | () -> Alcotest.fail "expected length mismatch error"

let test_spmd_stress () =
  (* many ranks, many mixed collective rounds: a prefix-sum style program
     whose final values are checkable in closed form *)
  let nranks = 16 and rounds = 30 in
  let finals = Array.make nranks 0. in
  Prt.Spmd.run ~nranks (fun rank ->
      let acc = ref 0. in
      for round = 1 to rounds do
        let a = [| float_of_int (rank + round) |] in
        Prt.Spmd.allreduce_sum a;
        acc := !acc +. a.(0);
        Prt.Spmd.barrier ()
      done;
      finals.(rank) <- !acc);
  (* sum over rounds of sum over ranks of (rank + round) *)
  let expected =
    let n = float_of_int nranks and r = float_of_int rounds in
    (r *. (n *. (n -. 1.) /. 2.)) +. (n *. (r *. (r +. 1.) /. 2.))
  in
  Array.iter (fun v -> Tutil.check_close "prefix sums" expected v) finals

(* --- nonblocking point-to-point ------------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let expect_spmd_error name subs f =
  match f () with
  | exception Prt.Spmd.Spmd_error msg ->
    List.iter
      (fun sub ->
        if not (contains msg sub) then
          Alcotest.failf "%s: error %S should mention %S" name msg sub)
      subs
  | () -> Alcotest.failf "%s: expected Spmd_error" name

let test_p2p_send_before_recv () =
  (* rank 0 runs first and finishes its isend before rank 1 even starts *)
  let got = Array.make 3 0. in
  Prt.Spmd.run ~nranks:2 (fun rank ->
      if rank = 0 then begin
        let data = [| 1.; 2.; 3. |] in
        let r = Prt.Spmd.isend ~dst:1 ~tag:0 data in
        (* eager buffered semantics: reuse of the array is safe *)
        data.(0) <- 99.;
        Prt.Spmd.wait r
      end
      else begin
        let buf = Array.make 3 0. in
        Prt.Spmd.wait (Prt.Spmd.irecv ~src:0 ~tag:0 buf);
        Array.blit buf 0 got 0 3
      end);
  Tutil.check_close "payload snapshot" 1. got.(0);
  Tutil.check_close "payload" 3. got.(2)

let test_p2p_wait_before_arrival () =
  (* rank 0 posts the irecv and waits while rank 1 has not run yet: the
     wait must suspend, then complete when rank 1's isend matches *)
  let got = ref 0. and order = ref [] in
  Prt.Spmd.run ~nranks:2 (fun rank ->
      if rank = 0 then begin
        let buf = [| 0. |] in
        let r = Prt.Spmd.irecv ~src:1 ~tag:7 buf in
        check_bool "not done before sender ran" false (Prt.Spmd.request_done r);
        Prt.Spmd.wait r;
        order := `Recv_done :: !order;
        got := buf.(0)
      end
      else begin
        order := `Send_posted :: !order;
        Prt.Spmd.wait (Prt.Spmd.isend ~dst:0 ~tag:7 [| 42. |])
      end);
  Tutil.check_close "delivered" 42. !got;
  check_bool "recv completed after send was posted" true
    (List.rev !order = [ `Send_posted; `Recv_done ])

let test_p2p_tag_matching () =
  (* same rank pair, two tags posted in opposite orders: matching is by
     tag, not arrival order *)
  let a = [| 0. |] and b = [| 0. |] in
  Prt.Spmd.run ~nranks:2 (fun rank ->
      if rank = 0 then
        Prt.Spmd.waitall
          [ Prt.Spmd.isend ~dst:1 ~tag:1 [| 10. |];
            Prt.Spmd.isend ~dst:1 ~tag:2 [| 20. |] ]
      else
        Prt.Spmd.waitall
          [ Prt.Spmd.irecv ~src:0 ~tag:2 b; Prt.Spmd.irecv ~src:0 ~tag:1 a ]);
  Tutil.check_close "tag 1" 10. a.(0);
  Tutil.check_close "tag 2" 20. b.(0)

let test_p2p_fifo_same_tag () =
  (* two messages on the same (pair, tag) are matched in posting order *)
  let first = [| 0. |] and second = [| 0. |] in
  Prt.Spmd.run ~nranks:2 (fun rank ->
      if rank = 0 then
        Prt.Spmd.waitall
          [ Prt.Spmd.isend ~dst:1 ~tag:0 [| 1. |];
            Prt.Spmd.isend ~dst:1 ~tag:0 [| 2. |] ]
      else
        Prt.Spmd.waitall
          [ Prt.Spmd.irecv ~src:0 ~tag:0 first;
            Prt.Spmd.irecv ~src:0 ~tag:0 second ]);
  Tutil.check_close "first posted, first matched" 1. first.(0);
  Tutil.check_close "second" 2. second.(0)

let test_p2p_ring_rounds () =
  (* a shifting ring: every rank sends its value right and receives from
     the left, several rounds, no barriers at all *)
  let nranks = 8 and rounds = 10 in
  let finals = Array.make nranks 0. in
  Prt.Spmd.run ~nranks (fun rank ->
      let v = ref (float_of_int rank) in
      for _ = 1 to rounds do
        let buf = [| 0. |] in
        let s = Prt.Spmd.isend ~dst:((rank + 1) mod nranks) ~tag:0 [| !v |] in
        let r = Prt.Spmd.irecv ~src:((rank + nranks - 1) mod nranks) ~tag:0 buf in
        Prt.Spmd.waitall [ s; r ];
        v := buf.(0)
      done;
      finals.(rank) <- !v);
  (* after [rounds] shifts each rank holds (rank - rounds) mod nranks *)
  Array.iteri
    (fun rank v ->
      Tutil.check_close "ring shifted"
        (float_of_int ((rank - rounds + (nranks * rounds)) mod nranks))
        v)
    finals

let test_p2p_unmatched_irecv () =
  (* waited on: every other rank is finished, so this is a deadlock and
     the report names the stuck rank and tag *)
  expect_spmd_error "waited unmatched irecv"
    [ "deadlock"; "rank 1"; "irecv"; "tag 5" ]
    (fun () ->
      Prt.Spmd.run ~nranks:2 (fun rank ->
          if rank = 1 then
            Prt.Spmd.wait (Prt.Spmd.irecv ~src:0 ~tag:5 (Array.make 1 0.))));
  (* not waited on: detected as a leftover posting at program end *)
  expect_spmd_error "posted unmatched irecv" [ "unmatched"; "rank 1"; "tag 5" ]
    (fun () ->
      Prt.Spmd.run ~nranks:2 (fun rank ->
          if rank = 1 then
            ignore (Prt.Spmd.irecv ~src:0 ~tag:5 (Array.make 1 0.))))

let test_p2p_unmatched_isend () =
  (* a send nobody receives is reported at program end even without wait *)
  expect_spmd_error "unmatched isend" [ "unmatched"; "isend"; "tag 3" ]
    (fun () ->
      Prt.Spmd.run ~nranks:2 (fun rank ->
          if rank = 0 then ignore (Prt.Spmd.isend ~dst:1 ~tag:3 [| 1. |])))

let test_p2p_length_mismatch () =
  expect_spmd_error "p2p length" [ "length mismatch"; "rank 0"; "rank 1"; "tag 2" ]
    (fun () ->
      Prt.Spmd.run ~nranks:2 (fun rank ->
          if rank = 0 then ignore (Prt.Spmd.isend ~dst:1 ~tag:2 [| 1.; 2. |])
          else ignore (Prt.Spmd.irecv ~src:0 ~tag:2 (Array.make 5 0.))))

let test_p2p_bad_peer () =
  expect_spmd_error "peer out of range" [ "rank 0"; "rank 7" ] (fun () ->
      Prt.Spmd.run ~nranks:2 (fun rank ->
          if rank = 0 then ignore (Prt.Spmd.isend ~dst:7 ~tag:0 [| 1. |])))

let test_p2p_deadlock_with_collective () =
  (* rank 0 waits on a message rank 1 can never send: rank 1 is stuck at
     a barrier rank 0 will not reach.  The report names both states. *)
  expect_spmd_error "deadlock"
    [ "deadlock"; "rank 0"; "rank 1"; "barrier"; "tag 9" ]
    (fun () ->
      Prt.Spmd.run ~nranks:2 (fun rank ->
          if rank = 0 then
            Prt.Spmd.wait (Prt.Spmd.irecv ~src:1 ~tag:9 (Array.make 1 0.))
          else Prt.Spmd.barrier ()))

let test_collective_mismatch_names_ranks () =
  (* the pre-existing mismatch case must now name who is stuck where *)
  expect_spmd_error "collective mismatch"
    [ "rank 0 at barrier"; "1 of 2 ranks finished" ]
    (fun () ->
      Prt.Spmd.run ~nranks:2 (fun rank ->
          if rank = 0 then Prt.Spmd.barrier ()))

let test_allreduce_mismatch_names_ranks () =
  expect_spmd_error "allreduce length" [ "allreduce length mismatch"; "rank 1" ]
    (fun () ->
      Prt.Spmd.run ~nranks:2 (fun rank ->
          Prt.Spmd.allreduce_sum (Array.make (1 + rank) 0.)))

let test_p2p_metrics () =
  Prt.Metrics.reset_all ();
  Prt.Metrics.enable ();
  Prt.Spmd.run ~nranks:2 (fun rank ->
      if rank = 0 then Prt.Spmd.wait (Prt.Spmd.isend ~dst:1 ~tag:0 (Array.make 4 1.))
      else Prt.Spmd.wait (Prt.Spmd.irecv ~src:0 ~tag:0 (Array.make 4 0.)));
  Prt.Metrics.disable ();
  check_int "one message" 1 (Prt.Metrics.value (Prt.Metrics.counter "spmd.p2p_msgs"));
  check_int "payload bytes" 32
    (Prt.Metrics.value (Prt.Metrics.counter "spmd.p2p_bytes"));
  check_bool "cluster p2p time charged" true
    (Prt.Metrics.value (Prt.Metrics.counter "cluster.p2p_time_ns") > 0);
  Prt.Metrics.reset_all ()

(* --- Commsched: static schedule simulation ----------------------- *)

let send peer tag len label = Prt.Commsched.Send { peer; tag; len; label }
let recv peer tag len label = Prt.Commsched.Recv { peer; tag; len; label }
let wait = Prt.Commsched.Wait_all

(* compact shape of a problem list, for multiset assertions *)
let shapes ps =
  List.map
    (function
      | Prt.Commsched.Unmatched_send _ -> "unmatched-send"
      | Prt.Commsched.Unmatched_recv _ -> "unmatched-recv"
      | Prt.Commsched.Deadlock _ -> "deadlock"
      | Prt.Commsched.Tag_collision _ -> "tag-collision"
      | Prt.Commsched.Size_mismatch _ -> "size-mismatch")
    ps

let check_shapes name expect sched =
  Alcotest.(check (list string)) name expect
    (shapes (Prt.Commsched.simulate sched))

let test_commsched_clean () =
  (* symmetric two-rank halo round: everything matches, no problems *)
  check_shapes "clean exchange" []
    [| [ send 1 0 2 "u"; recv 1 0 2 "u"; wait ];
       [ send 0 0 2 "u"; recv 0 0 2 "u"; wait ] |];
  check_shapes "empty schedule" [] [| []; [] |]

let test_commsched_unmatched () =
  (* rank 1 never posts the receive for rank 0's send *)
  check_shapes "dropped receive" [ "unmatched-send" ]
    [| [ send 1 0 2 "u"; wait ]; [ wait ] |];
  (* rank 0 never posts the send rank 1 receives; rank 1's wait cannot
     cycle (rank 0 finishes), so this is unmatched, not deadlock *)
  check_shapes "dropped send" [ "unmatched-recv" ]
    [| [ wait ]; [ recv 0 0 2 "u"; wait ] |]

let test_commsched_deadlock () =
  (* both ranks wait before sending: a waits-for cycle, reported once
     and subsuming the per-message unmatched reports *)
  check_shapes "recv-before-send cycle" [ "deadlock" ]
    [| [ recv 1 0 2 "u"; wait; send 1 0 2 "u" ];
       [ recv 0 0 2 "u"; wait; send 0 0 2 "u" ] |];
  match Prt.Commsched.simulate
          [| [ recv 1 0 1 "u"; wait; send 1 0 1 "u" ];
             [ recv 0 0 1 "u"; wait; send 0 0 1 "u" ] |]
  with
  | [ Prt.Commsched.Deadlock { ranks } ] ->
    Alcotest.(check (list int)) "cycle members" [ 0; 1 ] ranks
  | ps -> Alcotest.failf "expected one deadlock, got %d problems" (List.length ps)

let test_commsched_tag_collision () =
  (* two in-flight sends with different lengths on one channel: FIFO
     matching is order-dependent (and the lengths cross, so the two
     deliveries also mismatch) *)
  check_shapes "busy channel"
    [ "tag-collision"; "size-mismatch"; "size-mismatch" ]
    [| [ send 1 0 1 "a"; send 1 0 2 "b" ];
       [ recv 0 0 2 "b"; recv 0 0 1 "a"; wait ] |]

let test_commsched_size_mismatch () =
  check_shapes "framing disagreement" [ "size-mismatch" ]
    [| [ send 1 0 3 "u"; recv 1 0 2 "u"; wait ];
       [ send 0 0 2 "u"; recv 0 0 2 "u"; wait ] |]

let test_commsched_to_string () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let covers p sub =
    let s = Prt.Commsched.problem_to_string p in
    check_bool (Printf.sprintf "%S mentions %S" s sub) true (contains s sub)
  in
  covers (Prt.Commsched.Unmatched_send { src = 0; dst = 1; tag = 0; label = "u" })
    "never received";
  covers (Prt.Commsched.Deadlock { ranks = [ 0; 1 ] }) "cycle"

let suite =
  ( "prt",
    [
      Alcotest.test_case "breakdown arithmetic" `Quick test_breakdown_arith;
      Alcotest.test_case "breakdown record/timed" `Quick test_breakdown_record_timed;
      Alcotest.test_case "network cost models" `Quick test_network_models;
      Alcotest.test_case "spmd barrier ordering" `Quick test_spmd_barrier_order;
      Alcotest.test_case "spmd allreduce" `Quick test_spmd_allreduce;
      Alcotest.test_case "spmd multiple rounds" `Quick test_spmd_multiple_rounds;
      Alcotest.test_case "spmd single rank" `Quick test_spmd_single_rank;
      Alcotest.test_case "spmd mismatch detected" `Quick test_spmd_mismatch_detected;
      Alcotest.test_case "spmd length mismatch" `Quick test_spmd_length_mismatch;
      Alcotest.test_case "spmd stress (16 ranks, 30 rounds)" `Quick test_spmd_stress;
      Alcotest.test_case "p2p send before recv" `Quick test_p2p_send_before_recv;
      Alcotest.test_case "p2p wait before arrival" `Quick test_p2p_wait_before_arrival;
      Alcotest.test_case "p2p tag matching" `Quick test_p2p_tag_matching;
      Alcotest.test_case "p2p FIFO on same tag" `Quick test_p2p_fifo_same_tag;
      Alcotest.test_case "p2p ring (8 ranks, 10 rounds)" `Quick test_p2p_ring_rounds;
      Alcotest.test_case "p2p unmatched irecv" `Quick test_p2p_unmatched_irecv;
      Alcotest.test_case "p2p unmatched isend" `Quick test_p2p_unmatched_isend;
      Alcotest.test_case "p2p length mismatch" `Quick test_p2p_length_mismatch;
      Alcotest.test_case "p2p peer out of range" `Quick test_p2p_bad_peer;
      Alcotest.test_case "p2p deadlock vs collective" `Quick
        test_p2p_deadlock_with_collective;
      Alcotest.test_case "collective mismatch names ranks" `Quick
        test_collective_mismatch_names_ranks;
      Alcotest.test_case "allreduce mismatch names ranks" `Quick
        test_allreduce_mismatch_names_ranks;
      Alcotest.test_case "p2p metrics accounted" `Quick test_p2p_metrics;
      Alcotest.test_case "commsched clean" `Quick test_commsched_clean;
      Alcotest.test_case "commsched unmatched halves" `Quick
        test_commsched_unmatched;
      Alcotest.test_case "commsched deadlock cycle" `Quick
        test_commsched_deadlock;
      Alcotest.test_case "commsched tag collision" `Quick
        test_commsched_tag_collision;
      Alcotest.test_case "commsched size mismatch" `Quick
        test_commsched_size_mismatch;
      Alcotest.test_case "commsched problem strings" `Quick
        test_commsched_to_string;
    ] )
