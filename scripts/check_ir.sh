#!/bin/sh
# Static-analysis gate for the generated IR programs.
#
# Builds the lint CLI, runs the analyzer's seeded-defect selftest (every
# error code must be reproduced exactly), then lints every shipped
# scenario under the full backend x overlap matrix and requires zero
# findings; then smoke-tests codegen (the kernel cache, and the face
# form the default equation lowers to), serve, tuner and scaling, checks
# that the interpreted GPU (lane-group thread bodies) writes the native
# kernel's temperatures under every slice pattern (blocks splitting
# cells, one launch per band, alternating mirrors), and checks that
# executors agree exactly: every run of
# a scenario, CPU and GPU targets alike, prints one field digest
# (examples/field_digest.exe, its kernels compiled into a fresh cache).
# A native run that falls back to the interpreter (any
# "finch-codegen: warning" line) fails the last two stages, since its
# results would be the interpreter's. Exits non-zero on any regression;
# meant for CI and local pre-commit use. See docs/ANALYSIS.md for the
# pass catalogue.
set -eu
cd "$(dirname "$0")/.."

dune build bin/bte_lint.exe

echo "== analyzer selftest (seeded-defect fixtures) =="
./_build/default/bin/bte_lint.exe --selftest

echo "== scenario x backend x overlap lint matrix (naive IR, --opt 0) =="
./_build/default/bin/bte_lint.exe --opt 0

echo "== scenario x backend x overlap lint matrix (optimized IR, --opt 2) =="
./_build/default/bin/bte_lint.exe --opt 2

echo "== communication-schedule verifier (multi-rank and multi-device) =="
# the configurations whose programs actually exchange ghosts: the Comm
# pass (A025-A032) elaborates and simulates their full message schedule
./_build/default/bin/bte_lint.exe --backend cells:2 --backend cells:4 \
  --backend gpu:a6000:2x2 --backend gpu:a6000:2x4

echo "== machine-readable lint output (--format json) =="
json_out=$(mktemp)
./_build/default/bin/bte_lint.exe --backend cells:2 --opt 0 --format json \
  > "$json_out"
grep -q '"summary"' "$json_out" || {
  echo "check_ir: JSON lint output missing the summary object"
  cat "$json_out"
  rm -f "$json_out"
  exit 1
}
grep -q '"errors": 0' "$json_out" || {
  echo "check_ir: JSON lint output reports errors (or lost the count)"
  cat "$json_out"
  rm -f "$json_out"
  exit 1
}
rm -f "$json_out"

echo "== native codegen smoke test (cold compile, then warm cache; the default face form) =="
dune build bin/bte_sim.exe
cache_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir"' EXIT
# cold: compiles the kernel into the fresh cache (cache_misses >= 1)
./_build/default/bin/bte_sim.exe run --nx 6 --ny 6 --dirs 4 --bands 3 \
  --steps 10 --eval native --codegen-cache-dir "$cache_dir" --metrics \
  > /tmp/check_ir_native_cold.$$ 2>&1
grep -q 'codegen.cache_misses.*[1-9]' /tmp/check_ir_native_cold.$$ || {
  echo "check_ir: cold native run did not compile a kernel"
  cat /tmp/check_ir_native_cold.$$
  rm -f /tmp/check_ir_native_cold.$$
  exit 1
}
rm -f /tmp/check_ir_native_cold.$$
ls "$cache_dir"/finch_kernel_*.cmxs > /dev/null || {
  echo "check_ir: no compiled kernel persisted in the cache dir"
  exit 1
}
# warm: a second process must load from disk without recompiling
./_build/default/bin/bte_sim.exe run --nx 6 --ny 6 --dirs 4 --bands 3 \
  --steps 10 --eval native --codegen-cache-dir "$cache_dir" --metrics \
  > /tmp/check_ir_native_warm.$$ 2>&1
grep -q 'codegen.cache_misses.*0$' /tmp/check_ir_native_warm.$$ || {
  echo "check_ir: warm native run recompiled instead of hitting the cache"
  cat /tmp/check_ir_native_warm.$$
  rm -f /tmp/check_ir_native_warm.$$
  exit 1
}
rm -f /tmp/check_ir_native_warm.$$
# the default equation's integrand factors: the listing ends with its
# face form (P, the tabulated K, V), not "no face form"
codegen_out=$(mktemp)
./_build/default/bin/bte_sim.exe codegen > "$codegen_out" 2>&1
for line in '=== lowered face form ===' 'P (once per DOF): ' \
            'K (table over slot): ' 'V (per interior face): '; do
  grep -q "^$line" "$codegen_out" || {
    echo "check_ir: bte_sim codegen printed no face form (missing \"$line\")"
    cat "$codegen_out"
    rm -f "$codegen_out"
    exit 1
  }
done
rm -f "$codegen_out"

echo "== serve scheduler smoke (3 requests, no cache vs a stage cache; emitter self-validates) =="
dune build bin/bte_serve.exe
serve_out=$(mktemp)
# one temperature repeated three times: the warm pass's scheduler builds
# the tables, mesh, equation and face tables once and hits its stage
# cache on the repeats, so its throughput is robustly above the cold
# pass, which has no cache and builds them three times
./_build/default/bin/bte_serve.exe --requests 1 --repeat 3 --scenario hotspot \
  --nx 8 --dirs 4 --bands 3 --steps 4 --json "$serve_out" > /dev/null || {
  echo "check_ir: serve smoke run failed (warm != cold, or warm not faster)"
  rm -f "$serve_out"
  exit 1
}
for field in '"validated": true' '"max_abs_diff": 0' \
             '"cold"' '"warm"' '"requests_per_s"'; do
  grep -q "$field" "$serve_out" || {
    echo "check_ir: BENCH_serve.json missing $field"
    rm -f "$serve_out"
    exit 1
  }
done
python3 - "$serve_out" <<'PY' || { rm -f "$serve_out"; exit 1; }
import json, sys
j = json.load(open(sys.argv[1]))
cold, warm = j["cold"], j["warm"]
if not j["validated"]:
    sys.exit("check_ir: serve smoke not validated")
if warm["stage_hits"] <= 0:
    sys.exit("check_ir: the warm pass never hit its stage cache")
if cold["stage_hits"] + cold["stage_misses"] != 0:
    sys.exit("check_ir: the cold pass has no cache but counted stage lookups")
PY
rm -f "$serve_out"

echo "== tuner smoke (--backend auto cold+warm, both scenarios; bench campaign self-validates) =="
tune_cache=$(mktemp -d)
for scenario in hotspot corner; do
  # cold: the decision is computed and persisted
  ./_build/default/bin/bte_sim.exe run --scenario "$scenario" --nx 8 --ny 8 \
    --dirs 4 --bands 3 --steps 4 --backend auto \
    --tune-cache-dir "$tune_cache" --metrics \
    > /tmp/check_ir_tune_cold.$$ 2>&1
  grep -q 'tuner: plan ' /tmp/check_ir_tune_cold.$$ || {
    echo "check_ir: $scenario auto run did not report a tuned plan"
    cat /tmp/check_ir_tune_cold.$$
    rm -f /tmp/check_ir_tune_cold.$$
    exit 1
  }
  grep -q 'tune.cache_misses.*1$' /tmp/check_ir_tune_cold.$$ || {
    echo "check_ir: $scenario cold auto run did not miss the decision cache"
    cat /tmp/check_ir_tune_cold.$$
    rm -f /tmp/check_ir_tune_cold.$$
    exit 1
  }
  rm -f /tmp/check_ir_tune_cold.$$
  # warm: a second process must reuse the persisted decision
  ./_build/default/bin/bte_sim.exe run --scenario "$scenario" --nx 8 --ny 8 \
    --dirs 4 --bands 3 --steps 4 --backend auto \
    --tune-cache-dir "$tune_cache" --metrics \
    > /tmp/check_ir_tune_warm.$$ 2>&1
  grep -q 'tune.cache_hits.*1$' /tmp/check_ir_tune_warm.$$ || {
    echo "check_ir: $scenario warm auto run re-tuned instead of hitting the cache"
    cat /tmp/check_ir_tune_warm.$$
    rm -f /tmp/check_ir_tune_warm.$$
    exit 1
  }
  rm -f /tmp/check_ir_tune_warm.$$
done
# the explain table lists the candidate ranking with the pick marked
./_build/default/bin/bte_sim.exe run --nx 6 --ny 6 --dirs 4 --bands 3 \
  --steps 4 --backend auto --explain-plan --tune-cache-dir "$tune_cache" \
  > /tmp/check_ir_tune_explain.$$ 2>&1
grep -q 'candidate(s) scored' /tmp/check_ir_tune_explain.$$ || {
  echo "check_ir: --explain-plan printed no candidate table"
  cat /tmp/check_ir_tune_explain.$$
  rm -f /tmp/check_ir_tune_explain.$$
  exit 1
}
grep -q -- '<- chosen' /tmp/check_ir_tune_explain.$$ || {
  echo "check_ir: --explain-plan marked no chosen plan"
  cat /tmp/check_ir_tune_explain.$$
  rm -f /tmp/check_ir_tune_explain.$$
  exit 1
}
rm -f /tmp/check_ir_tune_explain.$$
rm -rf "$tune_cache"
# the measured campaign: hand-picked plans vs auto, emitter self-validates
dune build bench/main.exe
tune_out=$(mktemp)
FINCH_TUNE_CACHE_DIR=$(mktemp -d) ./_build/default/bench/main.exe tune \
  --out "$tune_out" > /dev/null || {
  echo "check_ir: tune campaign failed (auto plan not competitive or not bit-identical)"
  rm -f "$tune_out"
  exit 1
}
grep -q '"validated": true' "$tune_out" || {
  echo "check_ir: BENCH_tune.json missing the validated marker"
  rm -f "$tune_out"
  exit 1
}
rm -f "$tune_out"

echo "== scaling campaign smoke (tiny 8-rank sweep; emitter self-validates) =="
scaling_out=$(mktemp)
scripts/run_scaling.sh 8 "$scaling_out" > /dev/null || {
  echo "check_ir: tiny scaling campaign failed"
  rm -f "$scaling_out"
  exit 1
}
grep -q '"validated": true' "$scaling_out" || {
  echo "check_ir: BENCH_scaling.json missing the validated marker"
  rm -f "$scaling_out"
  exit 1
}
grep -q '"gpu_grid_8dev"' "$scaling_out" || {
  echo "check_ir: scaling campaign dropped the multi-device series"
  rm -f "$scaling_out"
  exit 1
}
rm -f "$scaling_out"

echo "== interpreted GPU (lane-group thread bodies vs the native kernel, every slice pattern) =="
# 7x5 cells x 20 components: the 256-thread blocks split cells.  --opt 0
# launches one kernel per band (a new slice per launch) and --overlap
# alternates two device mirror states by step parity.  Under each, the
# interpreter and the generated kernel must write the same temperature
# in every cell (--csv), and the interpreted run must report the host
# time its thread bodies took
gpu_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir" "$gpu_dir"' EXIT
for shape in "--opt 2" "--opt 0" "--overlap"; do
  ./_build/default/bin/bte_sim.exe run --nx 7 --ny 5 --dirs 4 --bands 4 \
    --steps 4 --backend gpu $shape --eval closure --metrics \
    --csv "$gpu_dir/closure.csv" > "$gpu_dir/closure.out" 2>&1
  ./_build/default/bin/bte_sim.exe run --nx 7 --ny 5 --dirs 4 --bands 4 \
    --steps 4 --backend gpu $shape --eval native --codegen-cache-dir "$cache_dir" \
    --csv "$gpu_dir/native.csv" > "$gpu_dir/native.out" 2>&1
  if grep -q 'finch-codegen: warning' "$gpu_dir/native.out"; then
    echo "check_ir: the native GPU run ($shape) fell back to the interpreter"
    cat "$gpu_dir/native.out"
    exit 1
  fi
  if ! cmp -s "$gpu_dir/closure.csv" "$gpu_dir/native.csv"; then
    echo "check_ir: interpreted and native GPU runs ($shape) write different temperatures"
    diff "$gpu_dir/closure.csv" "$gpu_dir/native.csv" | head -20
    exit 1
  fi
  grep -q 'gpu.host_exec_ns.*[1-9]' "$gpu_dir/closure.out" || {
    echo "check_ir: the interpreted GPU run ($shape) reported no gpu.host_exec_ns"
    cat "$gpu_dir/closure.out"
    exit 1
  }
done
rm -rf "$gpu_dir"

echo "== executor agreement (field digests of 100 runs: one digest per scenario, CPU and GPU targets alike) =="
dune build examples/field_digest.exe
digest_out=$(mktemp)
digest_err=$(mktemp)
digest_cache=$(mktemp -d)
trap 'rm -rf "$cache_dir" "$digest_cache"' EXIT
# run lines only: warnings go to stderr.  A fresh kernel cache, so no
# kernel built against an older Finch_ci interface can make a run fall
# back; a fallback would print the interpreter's digest
FINCH_CODEGEN_CACHE_DIR="$digest_cache" ./_build/default/examples/field_digest.exe \
  > "$digest_out" 2> "$digest_err" || {
  echo "check_ir: field_digest failed"
  cat "$digest_out" "$digest_err"
  rm -f "$digest_out" "$digest_err"
  exit 1
}
if grep 'finch-codegen: warning' "$digest_err"; then
  echo "check_ir: a native field_digest run fell back to the interpreter"
  rm -f "$digest_out" "$digest_err"
  exit 1
fi
rm -f "$digest_err"
if grep -q 'error:' "$digest_out"; then
  echo "check_ir: a field_digest run failed"
  grep 'error:' "$digest_out"
  rm -f "$digest_out"
  exit 1
fi
# runs are compared with each other, never with a recorded digest, so
# the stage holds on any libm: per scenario, all 50 runs (35 on CPU
# targets, 15 on GPU targets) share one digest
awk '
  NF >= 4 && $1 != "total" {
    key = $1
    runs[key]++
    if (!((key, $4) in seen)) { seen[key, $4] = 1; digests[key]++ }
  }
  END {
    bad = 0; groups = 0
    for (key in runs) {
      groups++
      if (runs[key] != 50 || digests[key] != 1) {
        printf "check_ir: %s: %d runs with %d distinct digests (want 50 runs, 1 digest)\n", key, runs[key], digests[key]
        bad = 1
      }
    }
    if (groups != 2) {
      printf "check_ir: field_digest printed %d scenario groups, want 2\n", groups
      bad = 1
    }
    exit bad
  }' "$digest_out" || {
  cat "$digest_out"
  rm -f "$digest_out"
  exit 1
}
rm -f "$digest_out"

echo "check_ir: selftest, full lint matrix (opt 0 and 2), comm-schedule verifier, JSON output, native codegen cache, face form, tuner, serve scheduler, scaling smoke, interpreted GPU vs native kernel clean under every slice pattern, one field digest per scenario on every CPU and GPU target, no native run fell back"
