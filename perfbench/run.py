#!/usr/bin/env python3
"""finch-bte benchmark: one workload per invocation.

    python3 perfbench/run.py --workload solve-serial --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds perfbench/main.exe with dune,
generates the workload's requests from the seed, runs the executor in
fresh processes (cold caches in a fresh directory each time), checks
every result against a reference solve, and prints the metrics.  The
last line of stdout is one JSON object: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  Workloads, metrics and
the layer-to-metric table are in perfbench/README.md.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
OUT = ".perfbench_out"
DEADLINE_S = 170.0  # every invocation ends well inside 180 s

BASE_T_HOT = {"hotspot": 350.0, "corner": 150.0}


def temps(scenario, n):
    """n hot temperatures spread over the 25 K above the scenario's base."""
    base = BASE_T_HOT[scenario]
    return [base + 25.0 * i / (n - 1) for i in range(n)]


WORKLOADS = {
    # compute-bound single-user fast path: native kernels and the executor
    # do most of each request; tune, serve, gpu and spmd do nothing
    "solve-serial": {
        "loop": "closed",
        "shape": {"nx": 16, "ny": 16, "ndirs": 8, "nbands": 4, "nsteps": 20},
        "plan": {"backend": "serial", "opt": "2", "eval": "native"},
        "temps": 4,
        "reference": {"backend": "serial", "opt": "0", "eval": "closure"},
    },
    # overhead-bound: every request is planned by the tuner (model-only,
    # deterministic), so front end, tuner, codegen bind and SPMD halo
    # exchange make up most of the latency
    "solve-auto": {
        "loop": "closed",
        "shape": {"nx": 12, "ny": 12, "ndirs": 4, "nbands": 4, "nsteps": 10},
        "plan": {"backend": "auto", "opt": "2", "eval": "closure"},
        "temps": 4,
        "reference": {"backend": "serial", "opt": "0", "eval": "closure"},
    },
    # the only workload through the scheduler, program cache, co-batching,
    # GPU simulator and closure evaluator; open loop of temperature sweeps
    "serve-sweep": {
        "loop": "open",
        "shape": {"nx": 12, "ny": 12, "ndirs": 4, "nbands": 4, "nsteps": 6},
        "plan": {"backend": "gpu:a6000", "opt": "2", "eval": "closure"},
        "temps": 6,
        "sweep": 3,
        "rate": 12.0,
        "reference": None,  # the solo, unbatched run on the same backend
        "max_batch": 8,
        "max_queue": 64,
    },
}

SETUP_RUNS = 12  # setup-only processes per invocation, besides the main one

PHASES = ["phase.intensity", "phase.temperature", "phase.communication",
          "phase.boundary", "phase.other"]

END_TO_END = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("cpu_ms_per_req", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("tune.resolve_ms", "ms"),
    ("tune.cache_hits", "count/req"),
    ("tune.cache_misses", "count/setup"),
    ("tune.candidates_scored", "count/setup"),
    ("analysis.errors", "count/setup"),
    ("analysis.warnings", "count/setup"),
    ("tune.model_ratio", "ratio"),
    ("bte.prepare_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("phase.intensity_ms", "ms"),
    ("phase.temperature_ms", "ms"),
    ("phase.communication_ms", "ms"),
    ("phase.boundary_ms", "ms"),
    ("phase.other_ms", "ms"),
    ("codegen.compile_ms", "ms/setup"),
    ("codegen.cache_misses", "count/setup"),
    ("codegen.cache_hits", "count/req"),
    ("opt.kernels_fused", "count/req"),
    ("opt.passes_rejected", "count/req"),
    ("spmd.p2p_msgs", "count/req"),
    ("spmd.p2p_bytes", "B/req"),
    ("spmd.waits", "count/req"),
    ("halo.rounds", "count/req"),
    ("halo.bytes", "B/req"),
    ("serve.drain_ms", "ms"),
    ("serve.requests_per_drain", "req/drain"),
    ("serve.batches", "count/req"),
    ("serve.batch_size_mean", "req/batch"),
    ("serve.batched_launches", "count/req"),
    ("serve.program_hit_ratio", "ratio"),
    ("serve.program_lookups", "count"),
    ("serve.batch_fallbacks", "count/req"),
    ("serve.rejected", "count/req"),
    ("serve.timed_out", "count/req"),
    ("gpu.kernel_launches", "count/req"),
    ("gpu.h2d_bytes", "B/req"),
    ("gpu.d2h_bytes", "B/req"),
    ("gpu.kernel_ms_modelled", "ms-model/req"),
    ("gpu.sync_wait_ms_modelled", "ms-model/req"),
    ("gc.minor_mwords_per_req", "Mword/req"),
    ("gc.major_collections_per_req", "count/req"),
    ("serve.generator_late_p50_ms", "ms"),
    ("serve.generator_late_max_ms", "ms"),
    ("trace.overhead_frac", "frac"),
]

# Prt.Metrics counters read as per-request deltas over the traced units
PER_REQ_COUNTERS = [
    "tune.cache_hits", "codegen.cache_hits", "opt.kernels_fused", "opt.passes_rejected",
    "spmd.p2p_msgs", "spmd.p2p_bytes", "spmd.waits", "halo.rounds", "halo.bytes",
    "serve.batches", "serve.batched_launches", "serve.batch_fallbacks", "serve.rejected",
    "serve.timed_out", "gpu.kernel_launches", "gpu.h2d_bytes", "gpu.d2h_bytes",
]

# counters read over the set-up phase (cold compiles, cold plans)
SETUP_COUNTERS = [
    "tune.cache_misses", "tune.candidates_scored", "analysis.errors", "analysis.warnings",
    "codegen.cache_misses",
]

# why a per-layer metric reads zero on a workload whose path skips it
ZERO_REASONS = [
    ("tune.", {"solve-serial", "serve-sweep"}, "fixed plan: the tuner is not called"),
    ("codegen.", {"serve-sweep"}, "closure evaluator: no native kernels"),
    ("spmd.", {"solve-serial", "serve-sweep"}, "plan has no SPMD ranks"),
    ("halo.", {"solve-serial", "serve-sweep"}, "plan has no SPMD ranks"),
    ("serve.", {"solve-serial", "solve-auto"}, "closed loop calls Finch directly"),
    ("gpu.", {"solve-serial", "solve-auto"}, "CPU plan"),
    ("core.solve", {"serve-sweep"}, "the scheduler calls the solver; see serve.drain_ms"),
    ("bte.prepare", {"serve-sweep"}, "the scheduler prepares; see serve.drain_ms"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# request generation (the only place the seed is used)


def request(wl, scenario, t_hot):
    r = {"scenario": scenario, "t_hot": t_hot}
    r.update(wl["shape"])
    r.update(wl["plan"])
    return r


def deck(rng, items):
    """Endless draws from `items` in seeded shuffled passes: every pass
    deals each item once, so the seed moves the order, never the mix."""
    while True:
        p = list(items)
        rng.shuffle(p)
        yield from p


def generate(wl, seed, seconds):
    """Warm-up groups and the timed requests, all derived from the seed."""
    rng = random.Random(seed)
    scen = ["hotspot", "corner"]
    distinct = [request(wl, s, t) for s in scen for t in temps(s, wl["temps"])]
    index = {(r["scenario"], r["t_hot"]): i for i, r in enumerate(distinct)}
    hot_ids = [index[("hotspot", t)] for t in temps("hotspot", wl["temps"])]
    cold_ids = [index[("corner", t)] for t in temps("corner", wl["temps"])]
    hot, cold = deck(rng, hot_ids), deck(rng, cold_ids)
    if wl["loop"] == "closed":
        # warm-up: one cold request per scenario
        warmup = [[distinct[hot_ids[0]], distinct[cold_ids[0]]]]
        # rounds of two hotspot requests and one corner, in a seeded order.
        # Hotspot costs about twice what corner does, so an even mix would
        # put the median in the gap between the two; with two to one it
        # falls inside the hotspot cluster.
        seq = []
        for _ in range(int(seconds * 70) + 40):
            r = [next(hot), next(hot), next(cold)]
            rng.shuffle(r)
            seq.extend(r)
        timed = {"distinct": distinct, "sequence": seq}
    else:
        # warm-up: one co-batched burst of every distinct request, then one
        # solo request per scenario
        warmup = [list(distinct), [distinct[hot_ids[0]]], [distinct[cold_ids[0]]]]
        # a sweep is one scenario at `sweep` temperatures, all due at once;
        # every four sweeps (two per scenario) hold the same mix
        size = wl["sweep"]
        dues = stats.jittered_schedule(rng.getrandbits(64), wl["rate"] / size, seconds)
        kinds = []
        while len(kinds) < len(dues):
            k = [hot, hot, cold, cold]
            rng.shuffle(k)
            kinds.extend(k)
        arrivals = [[d, next(kind)] for d, kind in zip(dues, kinds) for _ in range(size)]
        timed = {"distinct": distinct, "arrivals": arrivals}
    return warmup, timed


# ---------------------------------------------------------------------------
# process management


def run_executor(spec, workdir, name, deadline):
    """Run one executor process to completion; return its report."""
    spec = dict(spec)
    spec["report"] = os.path.join(workdir, name + ".report.json")
    spec["cache_dir"] = os.path.join(workdir, name + ".cache")
    spec_path = os.path.join(workdir, name + ".spec.json")
    env = dict(os.environ, TMPDIR=os.path.abspath(workdir))
    spec["t_spawn"] = time.time()
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise RuntimeError("out of time before %s" % name)
    # subprocess.run kills and reaps the child on timeout
    proc = subprocess.run([EXE, spec_path], stdout=sys.stderr, stderr=sys.stderr,
                          env=env, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError("executor %s exited with %d" % (name, proc.returncode))
    with open(spec["report"]) as f:
        return json.load(f)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        log("perfbench: run from the repository root (no dune-project/lib here)")
        sys.exit(2)
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(["dune", "build", "--root", ".", "./perfbench/main.exe"],
                          stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if proc.returncode != 0 or not os.path.isfile(EXE):
        log("perfbench: build failed")
        sys.exit(3)


# ---------------------------------------------------------------------------
# metrics


def closed_latencies(records):
    return [(r["done"] - r["start"]) * 1e3 for r in records]


def cpu_shares(main, records):
    """Per-request CPU seconds.  Open-loop CPU is measured per drain and
    split evenly over the requests that drain resolved."""
    if "drain" not in records[0]:
        return [r["cpu"] for r in records]
    drains = main["drains"]
    return [drains[r["drain"]]["cpu"] / drains[r["drain"]]["requests"] for r in records]


def probes(main, records):
    """The probe time around each request's unit (request or drain)."""
    if "drain" not in records[0]:
        return [r["probe"] for r in records]
    return [main["drains"][r["drain"]]["probe"] for r in records]


def latencies(wl, main, records):
    """Per-request latency in ms at the reference host speed."""
    lat = (closed_latencies(records) if wl["loop"] == "closed"
           else stats.open_loop_latency(records)[0])
    return stats.scaled(lat, probes(main, records))


def scaled_setup(report):
    """A process's set-up time at the reference host speed, scaled by the
    median of the probes it ran right after set-up."""
    return report["setup_s"] * stats.PROBE_REF_S / statistics.median(report["setup_probes"])


def end_to_end(wl, main, setups, records):
    """End-to-end metrics: {name: (value, unit, note)}."""
    attempted = len(records)
    done = [r for r in records if r["ok"]]
    cpu = statistics.mean(stats.scaled(cpu_shares(main, records), probes(main, records)))
    lat = latencies(wl, main, done)
    if wl["loop"] == "closed":
        # one client: the loop's rate is one over its time per request
        cycle = stats.scaled(stats.cycle_times(records), probes(main, records))
        rate = len(done) / sum(cycle)
        rate_note = "one client, %d completions over %.3fs scaled" % (len(done), sum(cycle))
    else:
        # arrivals are pinned to the offered rate, so a windowed median
        # reads the schedule back exactly.  Completions over the time from
        # the start of the timed phase to the last result fall below the
        # offered rate when a backlog is left.
        span = max(r["done"] for r in records)
        rate = len(done) / span
        rate_note = "%d completions over %.3fs" % (len(done), span)
    tail, pct, n = stats.tail(stats.per_completion(done, lat))
    what = "requests" if wl["loop"] == "closed" else "sweeps"
    tail_note = ("p%.1f of n=%d %s, %d beyond" % (pct, n, what, stats.BEYOND) if n > stats.BEYOND
                 else "max of n=%d %s: too few samples for a tail" % (n, what))
    p = probes(main, records)
    return {
        "latency_p50_ms": (statistics.median(lat), "ms", "n=%d" % len(lat)),
        "latency_tail_ms": (tail, "ms", tail_note),
        "throughput_per_s": (rate, "1/s", rate_note),
        "cpu_ms_per_req": (cpu * 1e3, "ms", "mean of n=%d" % attempted),
        "failed_frac": ((attempted - len(done)) / attempted, "frac",
                        "%d of %d" % (attempted - len(done), attempted)),
        "peak_rss_mb": (main["peak_rss_mb"], "MiB", "VmHWM"),
        "setup_s": (statistics.median(setups), "s", "median of %d cold set-ups" % len(setups)),
        "probe_ms": (statistics.median(p) * 1e3, "ms",
                     "median host probe; %.3f ms is the reference speed" % (stats.PROBE_REF_S * 1e3)),
    }


def per_layer(name, wl, main, records):
    """Per-layer metrics from a traced run: {name: (value, unit, note)}."""
    drains = main["drains"]
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"] and r["ok"]]
    if wl["loop"] == "closed":
        units, n_traced = traced, len(traced)
        gc_units, n_gc = [r for r in records if not r["traced"]], len(untraced)
    else:
        units = [d for d in drains if d["traced"]]
        n_traced = int(sum(d["requests"] for d in units))
        gc_units = [d for d in drains if not d["traced"]]
        n_gc = int(sum(d["requests"] for d in gc_units))

    lat_t = latencies(wl, main, [r for r in traced if r["ok"]])
    lat_u = latencies(wl, main, untraced)

    def count_sum(key):
        return sum(u["counts"].get(key, 0) for u in units)

    def med_ms(key, rs=traced):
        xs = [r["ms"][key] for r in rs if key in r["ms"]]
        return statistics.median(xs) if xs else 0.0

    setup = main["setup_counts"]
    out = {}
    unit_of = dict(PER_LAYER)
    for m in PER_REQ_COUNTERS:
        out[m] = count_sum(m) / max(1, n_traced)
    for m in SETUP_COUNTERS:
        out[m] = float(setup.get(m, 0))
    out["codegen.compile_ms"] = setup.get("codegen.compile_ns", 0) / 1e6
    out["tune.resolve_ms"] = med_ms("tune.resolve")
    out["bte.prepare_ms"] = med_ms("bte.prepare")
    out["core.solve_ms"] = med_ms("core.solve")
    for p in PHASES:
        out[p + "_ms"] = med_ms(p)
    ratios = [r["ms"]["core.solve"] / r["ms"]["predicted"] for r in traced
              if r["ms"].get("predicted", 0) > 0 and "core.solve" in r["ms"]]
    out["tune.model_ratio"] = statistics.median(ratios) if ratios else 0.0
    out["gpu.kernel_ms_modelled"] = count_sum("gpu.kernel_ns") / 1e6 / max(1, n_traced)
    out["gpu.sync_wait_ms_modelled"] = count_sum("gpu.sync_wait_ns") / 1e6 / max(1, n_traced)
    # serve layer
    out["serve.drain_ms"] = (statistics.median((d["done"] - d["start"]) * 1e3 for d in units)
                             if units and drains else 0.0)
    out["serve.requests_per_drain"] = (n_traced / len(units)) if units and drains else 0.0
    bs_count = sum(d["batch_size_count"] for d in units) if drains else 0
    out["serve.batch_size_mean"] = (sum(d["batch_size_sum"] for d in units) / bs_count
                                    if bs_count else 0.0)
    hits, misses = count_sum("serve.program_hits"), count_sum("serve.program_misses")
    out["serve.program_lookups"] = float(hits + misses)
    out["serve.program_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    # runtime: over the untraced units, so tracing's own allocation is excluded
    out["gc.minor_mwords_per_req"] = sum(u["gc_minor_words"] for u in gc_units) / 1e6 / max(1, n_gc)
    out["gc.major_collections_per_req"] = sum(u["gc_major"] for u in gc_units) / max(1, n_gc)
    # harness
    if wl["loop"] == "open":
        _, late = stats.open_loop_latency(records)
        out["serve.generator_late_p50_ms"] = statistics.median(late)
        out["serve.generator_late_max_ms"] = max(late)
    else:
        out["serve.generator_late_p50_ms"] = 0.0
        out["serve.generator_late_max_ms"] = 0.0
    out["trace.overhead_frac"] = (statistics.median(lat_t) / statistics.median(lat_u) - 1.0
                                  if lat_t and lat_u else 0.0)

    notes = {}
    for m in out:
        if out[m] == 0:
            for prefix, wls, why in ZERO_REASONS:
                if m.startswith(prefix) and name in wls:
                    notes[m] = "zero: " + why
                    break
    if wl["loop"] == "closed":
        notes["serve.generator_late_p50_ms"] = notes["serve.generator_late_max_ms"] = \
            "zero: closed loop has no arrival schedule"
    else:
        for p in PHASES:
            notes[p + "_ms"] = "mixed: modelled GPU time + host wall"
        notes["tune.model_ratio"] = "zero: the scheduler calls the solver"
    notes["gpu.kernel_ms_modelled"] = notes.get("gpu.kernel_ms_modelled", "modelled, not wall")
    notes["gpu.sync_wait_ms_modelled"] = notes.get("gpu.sync_wait_ms_modelled",
                                                   "modelled, not wall")
    notes["serve.program_lookups"] = notes.get("serve.program_lookups",
                                               "base of serve.program_hit_ratio")
    notes["trace.overhead_frac"] = "traced p50 %.3f ms (n=%d) vs untraced %.3f ms (n=%d)" % (
        statistics.median(lat_t) if lat_t else 0, len(lat_t),
        statistics.median(lat_u) if lat_u else 0, len(lat_u))
    return {m: (out[m], unit_of[m], notes.get(m, "")) for m, _ in PER_LAYER}


def self_time_table(wl, main, records):
    """Per-layer totals and self times over the traced units, ms."""
    traced = [r for r in records if r["traced"]]
    rows = []
    if wl["loop"] == "closed":
        def tot(key):
            return sum(r["ms"].get(key, 0.0) for r in traced)
        req = sum((r["done"] - r["start"]) * 1e3 for r in traced)
        children = ["tune.resolve", "bte.prepare", "core.solve"]
        rows.append(("request", "wall", req, req - sum(tot(c) for c in children)))
        for c in children[:2]:
            rows.append((c, "wall", tot(c), tot(c)))
        solve = tot("core.solve")
        if any(r["counts"].get("spmd.p2p_msgs", 0) for r in traced):
            # SPMD plans report each phase summed over ranks that run
            # interleaved, so the phases are not a split of the solve's
            # wall time and leave it no self time to compute
            rows.append(("core.solve", "wall", solve, solve))
            rows += [(p, "rank-sum", tot(p), tot(p)) for p in PHASES]
        else:
            rows.append(("core.solve", "wall", solve, solve - sum(tot(p) for p in PHASES)))
            rows += [(p, "wall", tot(p), tot(p)) for p in PHASES]
        n = len(traced)
    else:
        units = [d for d in main["drains"] if d["traced"]]
        drain = sum((d["done"] - d["start"]) * 1e3 for d in units)
        rows.append(("serve.drain", "wall", drain, drain))
        for p in PHASES:
            t = sum(r["ms"].get(p, 0.0) for r in traced)
            rows.append((p, "mixed", t, t))
        for key, label in (("gpu.kernel_ns", "gpu.kernel"), ("gpu.sync_wait_ns", "gpu.sync_wait")):
            t = sum(d["counts"].get(key, 0) for d in units) / 1e6
            rows.append((label, "modelled", t, t))
        n = int(sum(d["requests"] for d in units))
    return rows, n


# ---------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    wl = WORKLOADS[args.workload]

    build()
    deadline = max(deadline, time.monotonic() + 150.0)  # a cold build is not run time

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    warmup, timed = generate(wl, args.seed, args.seconds)
    timed_path = os.path.join(workdir, "timed.json")
    with open(timed_path, "w") as f:
        json.dump(timed, f)
    trace_out = os.path.join(OUT, "trace-%s-%d.json" % (args.workload, args.seed))
    spec = {
        "loop": wl["loop"],
        "trace": bool(args.trace),
        "setup_only": True,
        "seconds": args.seconds,
        "warmup": warmup,
        "reference": wl["reference"],
        "timed": timed_path,
        "trace_out": trace_out,
    }
    if wl["loop"] == "open":
        spec.update(max_queue=wl["max_queue"], max_batch=wl["max_batch"])
    # set-up-only processes run half before and half after the measured
    # one, so their median spans the run instead of one moment of it
    n_setup = 0 if args.trace else SETUP_RUNS

    def setup_runs(ks):
        return [run_executor(spec, workdir, "setup%d" % k, deadline) for k in ks]

    try:
        setups = setup_runs(range(n_setup // 2))
        main_report = run_executor(dict(spec, setup_only=False), workdir, "main", deadline)
        setups += setup_runs(range(n_setup // 2, n_setup))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        shutil.rmtree(workdir, ignore_errors=True)
        sys.exit(1)
    shutil.rmtree(workdir, ignore_errors=True)
    setups.append(main_report)
    log("perfbench: set-up samples %s s, scaled %s s; timed phase %.2f s wall" % (
        " ".join("%.3f" % r["setup_s"] for r in setups),
        " ".join("%.3f" % scaled_setup(r) for r in setups), main_report["wall_s"]))
    setups = [scaled_setup(r) for r in setups]

    records = main_report["records"]
    if wl["loop"] == "open":
        records = [r for r in records if r["due"] < args.seconds]
    attempted = len(records)
    failed = sum(1 for r in records if not r["ok"])
    correct = failed == 0 and attempted > 0

    print("workload %s  seed %d  %s loop  %s" % (
        args.workload, args.seed, wl["loop"],
        " ".join("%s=%s" % kv for kv in sorted(wl["plan"].items()))))
    for scen, plan in sorted(main_report["plans"].items()):
        print("  tuner plan for %-8s %s" % (scen, plan))
    if args.trace:
        layers = per_layer(args.workload, wl, main_report, records)
        rows, n = self_time_table(wl, main_report, records)
        print("  self time over %d traced requests (wall = host clock; modelled = "
              "simulator clock; mixed = GPU breakdown of both; rank-sum = host "
              "clock summed over SPMD ranks)" % n)
        print("    %-22s %-9s %12s %12s" % ("layer", "clock", "total ms", "self ms"))
        for layer, clock, total, self_ms in rows:
            print("    %-22s %-9s %12.3f %12.3f" % (layer, clock, total, self_ms))
        metrics = layers
        print("  chrome trace: %s (%d events)" % (trace_out, main_report["trace_events"]))
    else:
        metrics = (end_to_end(wl, main_report, setups, records)
                   if failed < attempted else {})
    for m, (v, unit, note) in metrics.items():
        print("  %-30s %14.4f %-13s %s" % (m, v, unit, note))
    print("  correct=%s attempted=%d failed=%d" % (correct, attempted, failed))
    names = [m for m, _ in (PER_LAYER if args.trace else END_TO_END)]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": metrics[m][0], "unit": metrics[m][1]}
                    for m in names if m in metrics},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
