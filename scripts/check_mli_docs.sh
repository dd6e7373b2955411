#!/bin/sh
# Documentation-coverage lint for the library interfaces.
#
# odoc is not installed in this environment and every library is private,
# so `dune build @doc` succeeds without rendering anything; this script is
# the enforceable stand-in. It checks that every `val` declared in the
# covered interfaces is followed by an odoc comment (the repo's
# convention is docs-after: `val f : ...` then `(** ... *)`).
set -eu
cd "$(dirname "$0")/.."

status=0
for f in lib/prt/*.mli lib/gpu/*.mli lib/analysis/*.mli lib/fvm/*.mli \
         lib/opt/*.mli lib/codegen/*.mli lib/codegen/iface/*.mli \
         lib/serve/*.mli lib/tune/*.mli \
         lib/bte/temperature.mli lib/bte/scattering.mli \
         lib/bte/equilibrium.mli lib/bte/setup.mli lib/bte/setup3d.mli \
         lib/bte/film.mli lib/bte/bc.mli lib/bte/angles.mli \
         lib/core/dataflow.mli lib/core/ir.mli \
         lib/core/target_gpu.mli lib/core/target_cpu.mli lib/core/lower.mli \
         lib/core/solve.mli lib/core/config.mli lib/core/ranks.mli \
         lib/core/solve_request.mli lib/core/emit_source.mli \
         lib/core/json.mli lib/core/problem.mli lib/core/stage_cache.mli; do
  out=$(awk '
    function flush() {
      if (pending) {
        printf "%s:%d: undocumented val %s\n", FILENAME, vline, vname
        pending = 0
      }
    }
    /\(\*\*/ { pending = 0 }
    /^[[:space:]]*(type|exception|module)[[:space:]]/ { flush() }
    /^[[:space:]]*val[[:space:]]/ { flush(); pending = 1; vline = FNR; vname = $2 }
    END { flush() }
  ' "$f")
  if [ -n "$out" ]; then
    echo "$out"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_mli_docs: every val in lib/prt, lib/gpu, lib/analysis, lib/fvm, lib/opt, lib/codegen, lib/serve, lib/tune, lib/bte/{temperature,scattering,equilibrium,setup,setup3d,film,bc,angles} and lib/core/{dataflow,ir,target_gpu,target_cpu,lower,solve,config,ranks,solve_request,emit_source,json,problem,stage_cache} is documented"
fi
exit "$status"
