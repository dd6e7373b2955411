#!/bin/sh
# Smoke test of the backend-selection CLI surface:
#   - `--backend SPEC` parses every canonical spec silently;
#   - malformed specs, including the removed legacy `hybrid:R:D`
#     spelling, are rejected with exit code 2 and a grammar hint;
#   - well-formed specs with more ranks than the problem holds are
#     rejected with exit code 2 and the spec in the message;
#   - `--backend auto` with a tuner cache directory that cannot be
#     created exits 2 naming the directory;
#   - the tuner's decision key is stable across processes: a second
#     `--backend auto` run hits the decision the first one wrote;
#   - `bte_serve --batch N` (request co-batching, removed) is an unknown
#     option, exit 124;
#   - the removed tape evaluator: `--eval tape` is an unknown value to
#     both `bte_sim run` and `bte_serve` (exit 124), and a request whose
#     JSON names `"eval":"tape"` exits 2 with a message naming tape.
# Runs a 1-step 4x4 solve per case, so it is cheap enough for CI.
set -eu
cd "$(dirname "$0")/.."

dune build bin/bte_sim.exe bin/bte_serve.exe 2>/dev/null
SIM=_build/default/bin/bte_sim.exe
SERVE=_build/default/bin/bte_serve.exe
RUN="$SIM run --nx 4 --ny 4 --dirs 2 --bands 2 --steps 1"

status=0
fail() {
  echo "FAIL: $1" >&2
  status=1
}

# canonical --backend specs: accepted, no deprecation warning
# (gpu:NAME:R = R band-parallel ranks; gpu:NAME:GxR = G devices per rank
#  tiling the cells x R ranks splitting the bands)
for spec in serial threads:2 bands:2 cells:2 hybrid:2x2 gpu gpu:a100 \
            gpu:a6000:2 gpu:a6000:2x2; do
  err=$($RUN --backend "$spec" 2>&1 >/dev/null) || fail "--backend $spec exited nonzero"
  case "$err" in
    *deprecated*) fail "--backend $spec warned: $err" ;;
  esac
done

# malformed specs: rejected with exit 2 and the grammar in the message
for spec in nonsense cells:0 hybrid:2 hybrid:2:2 gpu:v100 gpu:a6000:0x2 \
            gpu:a6000:2x; do
  if err=$($RUN --backend "$spec" 2>&1 >/dev/null); then
    fail "--backend $spec was accepted"
  else
    case "$err" in
      *"bad backend spec"*) : ;;
      *) fail "--backend $spec: unexpected error: $err" ;;
    esac
  fi
done

# well-formed specs the 4x4, 2-band problem cannot hold (more ranks,
# domains or devices than cells or bands): exit 2 naming the spec
for spec in cells:32 threads:32 bands:8 hybrid:8x2 gpu:a6000:32x1; do
  code=0
  err=$($RUN --backend "$spec" 2>&1 >/dev/null) || code=$?
  if [ "$code" -ne 2 ]; then
    fail "--backend $spec exited $code, expected 2: $err"
  else
    case "$err" in
      *"$spec"*) : ;;
      *) fail "--backend $spec: message does not name the spec: $err" ;;
    esac
  fi
done

# the facade request surface (`bte_sim request`): the same backend
# grammar arrives through JSON; canonical specs parse silently and bad
# specs are rejected with exit 2
REQ='{"scenario":"hotspot","nx":4,"ny":4,"ndirs":2,"nbands":2,"nsteps":1'
for spec in serial cells:2 hybrid:2x2 gpu:a6000:2x2; do
  err=$($SIM request --json "$REQ,\"backend\":\"$spec\"}" 2>&1 >/dev/null) \
    || fail "request backend $spec exited nonzero"
  case "$err" in
    *deprecated*) fail "request backend $spec warned: $err" ;;
  esac
done
if err=$($SIM request --json "$REQ,\"backend\":\"nonsense\"}" 2>&1 >/dev/null); then
  fail "request accepted a bad backend spec"
else
  case "$err" in
    *"bad backend spec"*) : ;;
    *) fail "request bad backend: unexpected error: $err" ;;
  esac
fi
if $SIM request --json '{"nx":4}' >/dev/null 2>&1; then
  fail "request accepted JSON without a scenario"
fi

# backend auto with a decision cache that cannot be created: exit 2
# naming the directory, not an uncaught exception
code=0
err=$($SIM run --nx 4 --ny 4 --dirs 4 --bands 2 --steps 2 --backend auto \
        --tune-cache-dir /dev/null/x 2>&1 >/dev/null) || code=$?
if [ "$code" -ne 2 ]; then
  fail "unusable --tune-cache-dir exited $code, expected 2: $err"
else
  case "$err" in
    *"/dev/null/x"*) : ;;
    *) fail "unusable --tune-cache-dir: message does not name it: $err" ;;
  esac
fi

# backend auto twice against one fresh decision cache: the first run
# computes and writes the decision, the second (a new process, so a new
# in-process memo) finds it on disk under the same key
TUNE_DIR=$(mktemp -d)
AUTO="$SIM run --nx 4 --ny 4 --dirs 2 --bands 2 --steps 2 --backend auto \
  --metrics --tune-cache-dir $TUNE_DIR"
counter() { printf '%s\n' "$1" | awk -v name="$2" '$1 == name { print $3 }'; }
first=$($AUTO 2>&1) || fail "first --backend auto run exited nonzero"
second=$($AUTO 2>&1) || fail "second --backend auto run exited nonzero"
if [ "$(counter "$first" tune.cache_misses)" != 1 ]; then
  fail "first --backend auto run: tune.cache_misses is not 1"
fi
if [ "$(counter "$second" tune.cache_hits)" != 1 ] \
   || [ "$(counter "$second" tune.cache_misses)" != 0 ]; then
  fail "second --backend auto run did not hit the first run's decision"
fi
rm -rf "$TUNE_DIR"

# the removed co-batching window: a cmdliner parse error, before any
# request runs
code=0
$SERVE --batch 8 >/dev/null 2>&1 || code=$?
if [ "$code" -ne 124 ]; then
  fail "bte_serve --batch 8 exited $code, expected 124"
fi

# the removed tape evaluator: an unknown --eval value on both CLIs (a
# cmdliner parse error), and a named error through the request JSON
code=0
$RUN --eval tape >/dev/null 2>&1 || code=$?
if [ "$code" -ne 124 ]; then
  fail "bte_sim run --eval tape exited $code, expected 124"
fi
code=0
$SERVE --eval tape >/dev/null 2>&1 || code=$?
if [ "$code" -ne 124 ]; then
  fail "bte_serve --eval tape exited $code, expected 124"
fi
code=0
err=$($SIM request --json "$REQ,\"eval\":\"tape\"}" 2>&1 >/dev/null) || code=$?
if [ "$code" -ne 2 ]; then
  fail "request with eval tape exited $code, expected 2: $err"
else
  case "$err" in
    *tape*) : ;;
    *) fail "request with eval tape: message does not name tape: $err" ;;
  esac
fi

if [ "$status" -eq 0 ]; then
  echo "check_deprecated_flags: OK"
fi
exit "$status"
