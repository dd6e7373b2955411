(* Observability tests: span nesting and track assignment in [Prt.Trace],
   histogram bucketing in [Prt.Metrics], well-formedness of the Chrome
   trace-event export (parsed back with a minimal JSON reader), the
   breakdown double-count regressions, and the guarantee that tracing and
   metrics do not perturb solver numerics. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Every test that touches the global trace/metric state brackets itself
   with a full reset so suites stay order-independent. *)
let with_observability f =
  Prt.Trace.clear ();
  Prt.Trace.enable ();
  Prt.Metrics.reset_all ();
  Prt.Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Prt.Trace.disable ();
      Prt.Trace.clear ();
      Prt.Metrics.disable ();
      Prt.Metrics.reset_all ())
    f

(* ------------------------------------------------------------------ *)
(* spans and tracks                                                    *)

let test_span_nesting () =
  with_observability (fun () ->
      let r =
        Prt.Trace.span ~cat:"outer" Prt.Trace.main "parent" (fun () ->
            Prt.Trace.span ~cat:"inner" Prt.Trace.main "child" (fun () -> 7))
      in
      check_int "span returns its body's value" 7 r;
      let evs = Prt.Trace.events () in
      check_int "two events recorded" 2 (List.length evs);
      let find name = List.find (fun e -> e.Prt.Trace.ev_name = name) evs in
      let parent = find "parent" and child = find "child" in
      check_string "categories preserved" "outer" parent.Prt.Trace.ev_cat;
      check_int "same track" parent.Prt.Trace.ev_tid child.Prt.Trace.ev_tid;
      (* Chrome nesting is by time containment: the child's interval must
         sit inside the parent's *)
      check_bool "child starts after parent" true
        (child.Prt.Trace.ev_ts >= parent.Prt.Trace.ev_ts);
      check_bool "child ends before parent" true
        (child.Prt.Trace.ev_ts +. child.Prt.Trace.ev_dur
         <= parent.Prt.Trace.ev_ts +. parent.Prt.Trace.ev_dur +. 1e-9))

let test_span_records_on_exception () =
  with_observability (fun () ->
      (try
         Prt.Trace.span Prt.Trace.main "failing" (fun () -> failwith "boom")
       with Failure _ -> ());
      check_int "span closed despite exception" 1 (Prt.Trace.event_count ()))

let test_track_assignment () =
  with_observability (fun () ->
      Prt.Trace.instant (Prt.Trace.worker 0) "a";
      Prt.Trace.instant (Prt.Trace.rank 1) "b";
      Prt.Trace.span_at (Prt.Trace.stream 2) "k" ~ts_s:0. ~dur_s:1e-6;
      let evs = Prt.Trace.events () in
      let tid name =
        (List.find (fun e -> e.Prt.Trace.ev_name = name) evs).Prt.Trace.ev_tid
      in
      check_bool "worker and rank tracks differ" true (tid "a" <> tid "b");
      check_bool "rank and stream tracks differ" true (tid "b" <> tid "k");
      let pid name =
        (List.find (fun e -> e.Prt.Trace.ev_name = name) evs).Prt.Trace.ev_pid
      in
      check_int "worker events live on the host timeline" Prt.Trace.host_pid
        (pid "a");
      check_int "stream events live on the device timeline"
        Prt.Trace.device_pid (pid "k");
      check_int "three tracks registered with events" 3
        (List.length
           (List.sort_uniq compare
              (List.map (fun e -> e.Prt.Trace.ev_tid) evs))))

let test_disabled_is_silent () =
  Prt.Trace.clear ();
  Prt.Trace.disable ();
  let r = Prt.Trace.span Prt.Trace.main "ghost" (fun () -> 3) in
  Prt.Trace.instant Prt.Trace.main "ghost2";
  check_int "body still runs when disabled" 3 r;
  check_int "nothing recorded when disabled" 0 (Prt.Trace.event_count ())

(* ------------------------------------------------------------------ *)
(* metrics                                                             *)

let test_histogram_bucketing () =
  (* log2 buckets: bucket 0 takes v <= 1, bucket i takes 2^(i-1) < v <= 2^i *)
  check_int "0.5 -> bucket 0" 0 (Prt.Metrics.bucket_of 0.5);
  check_int "1.0 -> bucket 0" 0 (Prt.Metrics.bucket_of 1.0);
  check_int "1.5 -> bucket 1" 1 (Prt.Metrics.bucket_of 1.5);
  check_int "2.0 -> bucket 1" 1 (Prt.Metrics.bucket_of 2.0);
  check_int "2.1 -> bucket 2" 2 (Prt.Metrics.bucket_of 2.1);
  check_int "1024 -> bucket 10" 10 (Prt.Metrics.bucket_of 1024.);
  check_int "huge values clamp to the last bucket" 63
    (Prt.Metrics.bucket_of 1e300);
  with_observability (fun () ->
      let h = Prt.Metrics.histogram "test.hist" in
      List.iter (Prt.Metrics.observe h) [ 1.; 3.; 1000.; 1024. ];
      check_int "count" 4 (Prt.Metrics.hist_count h);
      Tutil.check_close "sum" 2028. (Prt.Metrics.hist_sum h);
      Tutil.check_close "max" 1024. (Prt.Metrics.hist_max h);
      Tutil.check_close "mean" 507. (Prt.Metrics.hist_mean h);
      check_int "bucket 0 holds v<=1" 1 (Prt.Metrics.hist_bucket h 0);
      check_int "bucket 2 holds 3" 1 (Prt.Metrics.hist_bucket h 2);
      check_int "bucket 10 holds 1000 and 1024" 2
        (Prt.Metrics.hist_bucket h 10))

let test_metrics_registry () =
  with_observability (fun () ->
      let a = Prt.Metrics.counter "test.reg" in
      let b = Prt.Metrics.counter "test.reg" in
      Prt.Metrics.add a 2;
      Prt.Metrics.incr b;
      check_int "same name -> same counter" 3 (Prt.Metrics.value a);
      check_bool "kind clash raises" true
        (try
           ignore (Prt.Metrics.histogram "test.reg");
           false
         with Invalid_argument _ -> true);
      let g = Prt.Metrics.gauge "test.gauge" in
      Prt.Metrics.set g 2.5;
      Tutil.check_close "gauge holds last value" 2.5
        (Prt.Metrics.gauge_value g));
  (* updates are no-ops while disabled *)
  Prt.Metrics.disable ();
  let c = Prt.Metrics.counter "test.reg" in
  Prt.Metrics.add c 100;
  check_int "disabled counter does not move" 0 (Prt.Metrics.value c);
  Prt.Metrics.reset_all ()

(* ------------------------------------------------------------------ *)
(* Chrome JSON well-formedness, via a minimal JSON reader              *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

(* A strict-enough recursive-descent parser for the subset of JSON the
   exporter emits (backslash escapes for quote, backslash and control
   characters, which is all [Trace.json_escape] produces). *)
let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "JSON parse error at %d: %s" !pos msg in
  let peek () = if !pos < n then s.[!pos] else fail "eof" in
  let advance () = incr pos in
  let rec skip_ws () =
    if !pos < n then
      match s.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
      | _ -> ()
  in
  let expect c =
    skip_ws ();
    if peek () <> c then fail (Printf.sprintf "expected %c got %c" c (peek ()));
    advance ()
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'n' -> Buffer.add_char buf '\n'
         | 't' -> Buffer.add_char buf '\t'
         | 'r' -> Buffer.add_char buf '\r'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | c -> fail (Printf.sprintf "bad escape \\%c" c));
        advance ();
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let numchar c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !pos < n && numchar s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let parse_lit lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> Str (parse_string ())
    | '{' ->
      advance ();
      skip_ws ();
      if peek () = '}' then begin
        advance ();
        Obj []
      end
      else Obj (parse_members [])
    | '[' ->
      advance ();
      skip_ws ();
      if peek () = ']' then begin
        advance ();
        Arr []
      end
      else Arr (parse_elements [])
    | 't' -> parse_lit "true" (Bool true)
    | 'f' -> parse_lit "false" (Bool false)
    | 'n' -> parse_lit "null" Null
    | _ -> Num (parse_number ())
  and parse_members acc =
    skip_ws ();
    let k = parse_string () in
    expect ':';
    let v = parse_value () in
    skip_ws ();
    match peek () with
    | ',' ->
      advance ();
      parse_members ((k, v) :: acc)
    | '}' ->
      advance ();
      List.rev ((k, v) :: acc)
    | c -> fail (Printf.sprintf "expected , or } got %c" c)
  and parse_elements acc =
    let v = parse_value () in
    skip_ws ();
    match peek () with
    | ',' ->
      advance ();
      parse_elements (v :: acc)
    | ']' ->
      advance ();
      List.rev (v :: acc)
    | c -> fail (Printf.sprintf "expected , or ] got %c" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let obj_field name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let str_field name j =
  match obj_field name j with Some (Str s) -> Some s | _ -> None

let test_chrome_json_well_formed () =
  with_observability (fun () ->
      Prt.Trace.span Prt.Trace.main "a \"quoted\"\nname" (fun () ->
          Prt.Trace.instant ~args:[ "bytes", 42. ] (Prt.Trace.worker 0) "tick");
      Prt.Trace.span_at (Prt.Trace.stream 0) ~cat:"gpu" "kernel\\path"
        ~args:[ "threads", 128. ] ~ts_s:1e-3 ~dur_s:2e-3;
      let j = parse_json (Prt.Trace.chrome_json ()) in
      let events =
        match obj_field "traceEvents" j with
        | Some (Arr evs) -> evs
        | _ -> Alcotest.fail "traceEvents array missing"
      in
      check_string "displayTimeUnit present" "ms"
        (Option.value ~default:"?" (str_field "displayTimeUnit" j));
      let phase e = Option.value ~default:"?" (str_field "ph" e) in
      let metas = List.filter (fun e -> phase e = "M") events in
      let xs = List.filter (fun e -> phase e = "X") events in
      let is = List.filter (fun e -> phase e = "i") events in
      (* 2 process_name records + one thread_name and one thread_sort_index
         per registered track (the registry outlives [clear], so count it) *)
      check_int "metadata records"
        (2 + (2 * List.length (Prt.Trace.tracks ())))
        (List.length metas);
      check_int "complete events" 2 (List.length xs);
      check_int "instant events" 1 (List.length is);
      (* escaped characters survive a round trip *)
      check_bool "escaped span name round-trips" true
        (List.exists (fun e -> str_field "name" e = Some "a \"quoted\"\nname") xs);
      check_bool "backslash name round-trips" true
        (List.exists (fun e -> str_field "name" e = Some "kernel\\path") xs);
      (* every complete event carries the required Chrome keys *)
      List.iter
        (fun e ->
          List.iter
            (fun k ->
              check_bool (Printf.sprintf "X event has %s" k) true
                (obj_field k e <> None))
            [ "name"; "cat"; "ph"; "ts"; "dur"; "pid"; "tid" ])
        xs;
      (* args payloads survive *)
      check_bool "instant carries its args" true
        (List.exists
           (fun e ->
             match obj_field "args" e with
             | Some (Obj [ ("bytes", Num v) ]) -> v = 42.
             | _ -> false)
           is))

(* ------------------------------------------------------------------ *)
(* breakdown aggregation regressions                                   *)

let test_sum_distinct_dedupes_aliases () =
  let mk i = Prt.Breakdown.make ~intensity:i ~temperature:0. ~communication:0. () in
  let a = mk 1. in
  let b = mk 2. in
  (* [a] appears twice (shared-state aliasing, as when SPMD ranks share the
     base state); it must be counted once *)
  let s = Prt.Breakdown.sum_distinct [ a; b; a ] in
  Tutil.check_close "aliased record counted once" 3. (Prt.Breakdown.total s);
  let s2 = Prt.Breakdown.sum_distinct [ a; mk 1. ] in
  Tutil.check_close "equal-valued distinct records both counted" 2.
    (Prt.Breakdown.total s2)

let tiny =
  {
    Bte.Setup.small_hotspot with
    Bte.Setup.nx = 10;
    ny = 10;
    lx = 2e-6;
    ly = 2e-6;
    ndirs = 4;
    n_la_bands = 4;
    hot_radius = 0.6e-6;
    hot_center = 1e-6;
    nsteps = 6;
  }

let test_rebind_fresh_breakdown () =
  let built = Bte.Setup.build tiny in
  let base = Finch.Lower.build built.Bte.Setup.problem in
  let rebound =
    Finch.Lower.rebind base ~fields:base.Finch.Lower.fields
      ~u_new:base.Finch.Lower.u_new
  in
  check_bool "rebound state gets its own breakdown" true
    (rebound.Finch.Lower.breakdown != base.Finch.Lower.breakdown);
  Prt.Breakdown.record rebound.Finch.Lower.breakdown Prt.Breakdown.Intensity 1.;
  Tutil.check_close "recording on the rebound state leaves the base at zero"
    0.
    (Prt.Breakdown.total base.Finch.Lower.breakdown)

let test_breakdown_of_events () =
  with_observability (fun () ->
      let b = Prt.Breakdown.zero () in
      (* busy-wait past the clock granularity so the phase span has a
         strictly positive duration *)
      let spin () =
        let t0 = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t0 < 2e-5 do
          ()
        done
      in
      Prt.Breakdown.timed ~track:Prt.Trace.main b Prt.Breakdown.Intensity spin;
      Prt.Breakdown.timed ~track:Prt.Trace.main b Prt.Breakdown.Communication
        spin;
      let rebuilt = Prt.Breakdown.of_events (Prt.Trace.events ()) in
      check_bool "phase spans rebuild a breakdown" true
        (rebuilt.Prt.Breakdown.intensity > 0.);
      (* span-derived and accumulator-derived totals agree to clock
         granularity (both come from the same gettimeofday pair) *)
      Tutil.check_close "rebuilt total matches accumulated total"
        (Prt.Breakdown.total b)
        (Prt.Breakdown.total rebuilt))

(* Every GPU rank drives its own device, so each rank's kernel and DMA
   spans land on that device's own "gpu stream N" / "gpu N dma" rows
   instead of piling onto device 0's. *)
let test_gpu_rank_tracks () =
  with_observability (fun () ->
      let built = Bte.Setup.build { tiny with Bte.Setup.nsteps = 2 } in
      Finch.Problem.set_target built.Bte.Setup.problem
        (Finch.Config.Gpu { spec = Gpu_sim.Spec.a6000; devices = 1; ranks = 2 });
      ignore (Finch.Solve.solve built.Bte.Setup.problem);
      let events =
        match obj_field "traceEvents" (parse_json (Prt.Trace.chrome_json ())) with
        | Some (Arr evs) -> evs
        | _ -> Alcotest.fail "traceEvents array missing"
      in
      let num name e =
        match obj_field name e with Some (Num v) -> v | _ -> nan
      in
      let track_names =
        List.filter_map
          (fun e ->
            match str_field "ph" e, str_field "name" e, obj_field "args" e with
            | Some "M", Some "thread_name", Some args ->
              Option.map
                (fun n -> (num "pid" e, num "tid" e), n)
                (str_field "name" args)
            | _ -> None)
          events
      in
      (* gpu span count per track, kernels and transfers apart *)
      let per_track kernels =
        List.fold_left
          (fun acc e ->
            let is_kernel =
              match str_field "name" e with
              | Some n -> String.starts_with ~prefix:"interior_update" n
              | None -> false
            in
            if str_field "ph" e = Some "X" && str_field "cat" e = Some "gpu"
               && is_kernel = kernels
            then begin
              let track = List.assoc (num "pid" e, num "tid" e) track_names in
              let n = Option.value ~default:0 (List.assoc_opt track acc) in
              (track, n + 1) :: List.remove_assoc track acc
            end
            else acc)
          [] events
        |> List.sort compare
      in
      let check_tracks what expected counts =
        Alcotest.(check (list string))
          (what ^ ": one track per rank") expected (List.map fst counts);
        match counts with
        | (_, a) :: rest ->
          check_bool (what ^ ": spans present") true (a > 0);
          List.iter
            (fun (t, b) -> check_int (what ^ " on " ^ t ^ ": even split") a b)
            rest
        | [] -> ()
      in
      check_tracks "kernels" [ "gpu stream 0"; "gpu stream 1" ] (per_track true);
      check_tracks "transfers" [ "gpu 0 dma"; "gpu 1 dma" ] (per_track false))

(* ------------------------------------------------------------------ *)
(* observability must not perturb numerics                             *)

let fields_bits_equal fa fb =
  let ra = Fvm.Field.raw fa and rb = Fvm.Field.raw fb in
  let na = Bigarray.Array1.dim ra in
  na = Bigarray.Array1.dim rb
  && (let ok = ref true in
      for i = 0 to na - 1 do
        if
          Int64.bits_of_float (Bigarray.Array1.get ra i)
          <> Int64.bits_of_float (Bigarray.Array1.get rb i)
        then ok := false
      done;
      !ok)

let solve_tiny_serial () =
  let built = Bte.Setup.build tiny in
  Finch.Problem.set_target built.Bte.Setup.problem
    (Finch.Config.Cpu Finch.Config.Serial);
  let o = Finch.Solve.solve built.Bte.Setup.problem in
  Finch.Solve.field o "I", Finch.Solve.field o "T"

let test_bit_identity_under_observability () =
  Prt.Trace.disable ();
  Prt.Trace.clear ();
  Prt.Metrics.disable ();
  let i_off, t_off = solve_tiny_serial () in
  let i_on, t_on =
    with_observability (fun () -> solve_tiny_serial ())
  in
  check_bool "intensity bit-identical with tracing+metrics on" true
    (fields_bits_equal i_off i_on);
  check_bool "temperature bit-identical with tracing+metrics on" true
    (fields_bits_equal t_off t_on)

let suite =
  ( "trace-metrics",
    [
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "span closes on exception" `Quick
        test_span_records_on_exception;
      Alcotest.test_case "track assignment" `Quick test_track_assignment;
      Alcotest.test_case "disabled tracing is silent" `Quick
        test_disabled_is_silent;
      Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
      Alcotest.test_case "metrics registry" `Quick test_metrics_registry;
      Alcotest.test_case "chrome json well-formed" `Quick
        test_chrome_json_well_formed;
      Alcotest.test_case "sum_distinct dedupes aliases" `Quick
        test_sum_distinct_dedupes_aliases;
      Alcotest.test_case "rebind gets fresh breakdown" `Quick
        test_rebind_fresh_breakdown;
      Alcotest.test_case "breakdown from phase spans" `Quick
        test_breakdown_of_events;
      Alcotest.test_case "bit identity under observability" `Quick
        test_bit_identity_under_observability;
      Alcotest.test_case "gpu rank tracks" `Quick test_gpu_rank_tracks;
    ] )
