(** The execution-plan autotuner behind [--backend auto] (docs/TUNER.md).

    Given a solve request, the tuner enumerates the legal candidate
    plans (backend x opt level x evaluator x overlap, bounded by the
    machine profile and the problem shape), scores every candidate with
    the calibrated {!Bte.Perfmodel} (plus a small dispatch/launch
    overhead model that separates the optimizer levels, the
    [cells_overlap] model for overlapped cell-parallel plans, and a
    communication-hiding credit for overlapped GPU plans), walks the
    ranking through the {!Finch_analysis} gate — a plan whose program
    fails analysis is discarded, never silently "fixed" — optionally
    refines the surviving shortlist with short measured calibration runs
    on the real executors, and memoizes the winner in a two-level cache
    (in-process plus [_build/finch_tune/] on disk) keyed by
    [(program digest, grid shape, machine profile, refinement mode)].

    Observability: [tune.candidates_scored], [tune.measured_trials],
    [tune.cache_hits], [tune.cache_misses], [tune.plan_switches] and
    [tune.key_builds] counters, plus a [tune:plan] span on the main trace
    track with a [tune:key] span nested in it. *)

type profile = {
  cores : int;       (** pool domains available to CPU plans *)
  gpu : string;      (** simulated device enumerated for GPU plans *)
  native_ok : bool;  (** native runtime + ocamlfind toolchain present *)
}
(** The machine profile a plan is tuned for — part of the cache key, so
    a decision never leaks onto a differently-shaped host. *)

val detect_profile : unit -> profile
(** Probe the running host (memoized): recommended domain count, the
    default simulated GPU, and whether the codegen toolchain can
    compile [--eval native] kernels. *)

val profile_digest : profile -> string
(** Stable hex digest of a profile, the machine component of the cache
    key. *)

(** Why a candidate did or did not survive. [Scored] candidates were
    ranked by the model but never reached the analysis gate. *)
type verdict =
  | Scored                    (** model-ranked only; below the gate cutoff *)
  | Legal                     (** passed the analysis gate with zero errors *)
  | Rejected of string        (** prepare failed or analysis found errors *)
  | Unpredictable of string   (** cost model refused (beyond partition caps) *)

type candidate = {
  cd_plan : Plan.t;
  cd_predicted_s : float;       (** modelled runtime; [infinity] if refused *)
  cd_verdict : verdict;
  cd_measured_s : float option; (** best trial wall clock, when refined *)
}

(** Where the winning decision came from. *)
type origin = Computed | Memory_hit | Disk_hit

type decision = {
  dc_plan : Plan.t;             (** the winner *)
  dc_predicted_s : float;       (** its modelled runtime, seconds *)
  dc_measured_s : float option; (** its best calibration trial, if any *)
  dc_candidates : candidate list;
    (** the full scored table in ranking order; empty on cache hits
        (recompute with [~force:true] to rebuild it) *)
  dc_origin : origin;
  dc_key : string;              (** two-level cache key, hex *)
}

val candidates : ?profile:profile -> Finch.Solve_request.t -> Plan.t list
(** The structural candidate set for a request: every plan the profile
    and the problem shape admit, before scoring and the analysis
    gate. *)

val predict : Finch.Solve_request.t -> Plan.t -> float
(** Modelled runtime of one plan on the request's shape, seconds;
    [infinity] when the cost model refuses the decomposition. *)

val plan :
  ?profile:profile ->
  ?shortlist:int ->
  ?measure_steps:int ->
  ?measure_trials:int ->
  ?force:bool ->
  ?cache:Finch.Stage_cache.t ->
  Finch.Solve_request.t ->
  (decision, string) result
(** Choose a plan for the request.  [shortlist] bounds how many ranked
    candidates pass the analysis gate (default 4; the walk extends past
    rejected candidates until one survives).  [measure_steps > 0]
    refines the surviving shortlist with calibration runs clamped to
    that many steps, [measure_trials] times each (default 1); trial
    rounds interleave across the shortlist so clock drift biases no
    candidate, each candidate keeps its best trial, and measured walls
    within 0.5% of the minimum count as ties broken by the
    deterministic model ranking.  [measure_steps = 0] (the default)
    trusts the model, which is fully deterministic.  [force] skips
    cache {e reads} (the winner is still written back).  [Error] when
    the scenario is unknown, no candidate survives the gate, or the
    winner cannot be written to the cache directory (the message names
    the directory).  A cache entry that cannot be read is a miss.
    [cache], a stage cache ({!Finch.Stage_cache}, not the decision
    cache), goes to every preparation the planning makes (the key's,
    the gate's and the trials', whose solves stage through it too);
    without it every preparation builds fresh. *)

val resolve :
  ?profile:profile ->
  ?post_io:Finch.Problem.callback_io ->
  ?shortlist:int ->
  ?measure_steps:int ->
  ?measure_trials:int ->
  ?force:bool ->
  ?cache:Finch.Stage_cache.t ->
  Finch.Solve_request.t ->
  (Finch.Solve_request.t * decision option, string) result
(** The entry-point helper: requests with a concrete backend pass
    through untouched ([None]); a [backend = Auto] request is planned
    and returned with the winner applied ({!Plan.apply}).  [post_io] is
    ignored: the analysis gate reads each prepared problem's own callback
    contract ({!Finch.Problem.post_io}); the parameter stays only for
    existing callers.  [cache] goes to {!plan}. *)

val cache_key :
  ?measure_steps:int ->
  ?cache:Finch.Stage_cache.t ->
  profile:profile ->
  Finch.Solve_request.t ->
  (string, string) result
(** The decision cache key: digest of the value-independent program
    text (emitted from a canonical serial preparation, so all backends
    share it), the grid shape, the machine profile and the refinement
    mode.  The program digest comes from {!Finch.program_digest}, which
    prepares a request (one [tune.key_builds]) only the first time it
    sees it, ignoring [label] and [deadline_s]: a repeated key is a hash
    lookup, and every key equals the one a fresh preparation gives.  At
    most [Finch.program_digest_cap] requests are remembered;
    [Finch.register_scenario] and {!clear_memo} forget them.  [cache]
    goes to that preparation.  Exposed for tests and cache tooling. *)

val set_cache_dir : string -> unit
(** Override the on-disk decision cache directory (highest precedence,
    above the [FINCH_TUNE_CACHE_DIR] environment variable and the
    default [_build/finch_tune] under the current directory). *)

val cache_dir : unit -> string
(** The directory decisions are persisted under. *)

val clear_memo : unit -> unit
(** Drop the in-process decision memo and the program digests behind
    {!cache_key} (the disk level is untouched); for tests that assert
    cold-vs-warm behaviour. *)
