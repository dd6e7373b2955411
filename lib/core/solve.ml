(* Top-level driver: dispatch a configured problem to its code-generation
   target and package the results, mirroring the paper's [solve(I)]. *)

type outcome = {
  u : Fvm.Field.t;                  (* gathered unknown after the run *)
  fields : (string * Fvm.Field.t) list; (* every variable, gathered *)
  breakdown : Prt.Breakdown.t;
  gpu : Target_gpu.result option;   (* present for GPU runs *)
  states : Lower.state array;
}

(* Which index is split by band-parallel runs.  Defaults to the last
   declared index (the paper's band index is declared after the direction
   index), overridable per call. *)
let default_band_index (p : Problem.t) =
  match List.rev p.Problem.indices with
  | i :: _ -> i.Entity.iname
  | [] -> raise (Problem.Problem_error "band-parallel run with no indices")

(* Post-solve metrics: steps taken and, for tape-mode runs, the dynamic
   op savings derivable from the tape counters (recorded once here rather
   than per-DOF in the hot path). *)
let m_steps = Prt.Metrics.counter "solve.steps"
let m_tape_skipped = Prt.Metrics.counter "tape.ops_skipped"

let record_solve_metrics (p : Problem.t) states =
  if Prt.Metrics.enabled () then begin
    Prt.Metrics.add m_steps p.Problem.nsteps;
    Array.iter
      (fun (st : Lower.state) ->
        List.iter
          (fun (_, t) ->
            let skipped =
              (Eval.tape_runs t * Eval.tape_length t) - Eval.tape_executed t
            in
            Prt.Metrics.add m_tape_skipped skipped)
          st.Lower.tapes)
      states
  end

(* Outcome of a partitioned run: every field reassembled into rank 0's
   storage from the ranks' owned cells and component slices. *)
let gathered (r : Target_cpu.result) =
  let st = Target_cpu.primary r in
  Lower.gather_fields ~into:st r.Target_cpu.states;
  {
    u = st.Lower.u;
    fields = st.Lower.fields;
    breakdown = r.Target_cpu.breakdown;
    gpu = None;
    states = r.Target_cpu.states;
  }

let solve_dispatch ?band_index ?post_io (p : Problem.t) =
  match p.Problem.target with
  | Config.Cpu Config.Serial ->
    let r = Target_cpu.run_serial p in
    let st = Target_cpu.primary r in
    {
      u = st.Lower.u;
      fields = st.Lower.fields;
      breakdown = r.Target_cpu.breakdown;
      gpu = None;
      states = r.Target_cpu.states;
    }
  | Config.Cpu (Config.Band_parallel n) ->
    let index =
      match band_index with Some i -> i | None -> default_band_index p
    in
    gathered (Target_cpu.run_band_parallel p ~index ~nranks:n)
  | Config.Cpu (Config.Cell_parallel n) ->
    gathered (Target_cpu.run_cell_parallel ~overlap:p.Problem.overlap p ~nranks:n)
  | Config.Cpu (Config.Threaded n) ->
    (* workers share the base state's fields, so rank 0 already holds the
       complete unknown *)
    let r = Target_cpu.run_threaded ?post_io p ~ndomains:n in
    let st = Target_cpu.primary r in
    {
      u = st.Lower.u;
      fields = st.Lower.fields;
      breakdown = r.Target_cpu.breakdown;
      gpu = None;
      states = r.Target_cpu.states;
    }
  | Config.Cpu (Config.Hybrid (nranks, ndomains)) ->
    let index =
      match band_index with Some i -> i | None -> default_band_index p
    in
    gathered (Target_cpu.run_hybrid p ~index ~nranks ~ndomains)
  | Config.Gpu _ ->
    let r = Target_gpu.run ?post_io p in
    let st = r.Target_gpu.state in
    {
      u = st.Lower.u;
      fields = st.Lower.fields;
      breakdown = r.Target_gpu.breakdown;
      gpu = Some r;
      states = [| st |];
    }
  | Config.Auto ->
    invalid_arg "Solve: unresolved auto target (run the tuner first)"

(* Only the serial executor steps through Lower.rk_step; every other
   executor sweeps and commits, which is forward Euler. *)
let check_stepper (p : Problem.t) =
  match p.Problem.stepper, p.Problem.target with
  | Config.Euler_explicit, _ | _, Config.Cpu Config.Serial -> ()
  | stepper, target ->
    raise
      (Problem.Problem_error
         (Printf.sprintf
            "time stepper %s runs only on the serial target, not on %s"
            (Config.stepper_name stepper) (Config.target_name target)))

let solve ?band_index ?post_io (p : Problem.t) =
  check_stepper p;
  let outcome =
    Prt.Trace.span ~cat:"solve" Prt.Trace.main "solve" (fun () ->
        solve_dispatch ?band_index ?post_io p)
  in
  record_solve_metrics p outcome.states;
  outcome

let field outcome name =
  match List.assoc_opt name outcome.fields with
  | Some f -> f
  | None -> raise (Problem.Problem_error ("solve outcome: no field " ^ name))
