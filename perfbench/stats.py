"""Estimators and the arrival schedule used by perfbench/run.py.

Everything here is pure: samples in, numbers out.  The rules, and why
each was chosen, are in perfbench/README.md.
"""

import random

BEYOND = 10  # samples the tail percentile keeps above it
PROBE_REF_S = 0.25e-3  # the probe's time on an uncontended core of a 2-vCPU Xeon VM
JITTER = 0.3  # arrival offset either way from a slot's centre, in slots


def tail(samples):
    """The highest percentile that keeps at least BEYOND samples above it.

    That is the (BEYOND+1)-th largest sample.  Returns (value, percentile,
    count): with n samples the value sits at percentile 100*(n-BEYOND)/n.
    With BEYOND or fewer samples there is no such percentile and the
    maximum is returned at percentile 100.
    """
    s = sorted(samples)
    n = len(s)
    if n == 0:
        raise ValueError("no samples")
    if n <= BEYOND:
        return s[-1], 100.0, n
    return s[n - 1 - BEYOND], 100.0 * (n - BEYOND) / n, n


def scaled(values, probes):
    """Each value at the reference host speed.

    `probes` holds the probe time (main.ml) around each value's unit.  A
    contended core slows the program and the probe alike, so a value
    times PROBE_REF_S over its probe is what it would read on an
    uncontended core, while a change to the program moves it in full:
    the probe is the benchmark's own code.
    """
    return [v * PROBE_REF_S / p for v, p in zip(values, probes)]


def cycle_times(records):
    """Closed-loop time per request: each request's start to the next
    one's, so the loop's own work between requests counts; the last
    request runs to its result."""
    out = [b["start"] - a["start"] for a, b in zip(records, records[1:])]
    if records:
        out.append(records[-1]["done"] - records[-1]["start"])
    return out


def jittered_schedule(seed, rate, seconds):
    """Seeded arrival times at `rate` per second.

    One arrival per slot of 1/rate seconds, at the slot's centre moved by
    a uniform offset of up to JITTER slots either way.  Two arrivals are
    never closer than (1 - 2*JITTER) slots, so an arrival waits only
    behind a slow drain, never behind a cluster of arrivals the seed
    happened to draw.
    """
    rng = random.Random(seed)
    slot = 1.0 / rate
    return [(k + 0.5 + rng.uniform(-JITTER, JITTER)) * slot
            for k in range(int(round(seconds * rate)))]


def per_completion(records, lat):
    """One latency per independent completion, for the tail rule.

    On the open loop (records with a "drain") the requests of a sweep are
    due at once and resolved by one drain, so they share one latency and
    count as one sample: three copies of four sweeps are not ten samples
    beyond the tail.  Closed-loop latencies pass through.
    """
    if not records or "drain" not in records[0]:
        return list(lat)
    return list({(r["drain"], r["due"]): x for r, x in zip(records, lat)}.values())


def open_loop_latency(records):
    """Latency and generator lateness of open-loop requests, in ms.

    Latency runs from the request's due time, not its submit time, so a
    generator that falls behind charges the delay to the requests it
    delayed.  Lateness is submit minus due.
    """
    lat = [(r["done"] - r["due"]) * 1e3 for r in records]
    late = [(r["submit"] - r["due"]) * 1e3 for r in records]
    return lat, late
