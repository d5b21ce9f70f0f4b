#!/usr/bin/env bash
# End-to-end pipeline benchmark.  Builds benchmark/ (which pulls in the
# repository as a subproject) into build-benchmark/, then runs each
# workload in its own process.
#
#   benchmark/run.sh [--workload=NAME] [--seed=S] [--seconds=N]
#                    [--trace[=0|1]] [--quick] [--out=DIR]
#
# Flags also take their value as the next argument (--seed 4004).  Without
# --workload every workload runs in turn.  The run length is set in one
# place, run_seconds in BENCHMARK.json: --seconds defaults to it, and a
# harness that runs BENCHMARK.json's command passes that same value as
# --seconds.  Each process prints its metrics
# as "workload metric value unit" lines, writes a results JSON under --out
# (default build-benchmark/out) and ends with one JSON line:
# {"correct", "attempted", "failed", "metrics"}.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build=build-benchmark
workloads=(paper-week sa-scalable catalog-1m sim-month edge-cache)

workload="" out="$build/out" args=()
while (($#)); do
  arg=$1
  shift
  case $arg in
    --*=*) name=${arg%%=*} value=${arg#*=} ;;
    --trace | --quick) name=$arg value="" ;;
    --*) name=$arg value=${1-}; (($#)) && shift ;;
    *) echo "error: unexpected argument '$arg'" >&2; exit 2 ;;
  esac
  case $name in
    --workload) workload=$value ;;
    --out) out=$value ;;
    --seed | --seconds) args+=("$name=$value") ;;
    --quick) args+=(--quick) ;;
    --trace)
      if [[ -z $value && ${1-} =~ ^[01]$ ]]; then value=$1; shift; fi
      args+=("--trace=${value:-1}") ;;
    *) echo "error: unknown flag '$name'" >&2; exit 2 ;;
  esac
done

if [[ ! -f CMakeLists.txt || ! -d src ]]; then
  echo "error: $root holds no vodrep sources to build" >&2
  exit 2
fi

mkdir -p "$build/tmp"
export TMPDIR="$root/$build/tmp"
jobs=$(nproc 2>/dev/null || echo 1)
((jobs > 4)) && jobs=4
if [[ ! -f $build/CMakeCache.txt ]]; then
  generator=()
  command -v ninja >/dev/null && generator=(-G Ninja)
  if ! cmake -S benchmark -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >"$build/configure.log" 2>&1; then
    tail -n 40 "$build/configure.log" >&2
    rm -f "$build/CMakeCache.txt"
    exit 1
  fi
fi
if ! cmake --build "$build" -j "$jobs" >"$build/build.log" 2>&1; then
  tail -n 40 "$build/build.log" >&2
  exit 1
fi

sha=unknown
if [[ -e .git ]]; then sha=$(git rev-parse HEAD 2>/dev/null || echo unknown); fi
run_workload() {
  "$build/vodrep_benchmark" --workload="$1" "${args[@]}" --out="$out" \
    --manifest=BENCHMARK.json --git-sha="$sha"
}

if [[ -n $workload ]]; then
  run_workload "$workload"
  exit
fi
status=0
for w in "${workloads[@]}"; do
  run_workload "$w" || status=1
done
exit "$status"
