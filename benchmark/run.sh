#!/usr/bin/env bash
# Builds condor_bench (Release; no -march=native, so the SIMD kernels are
# picked at run time) in benchmark/build and runs the host-time benchmark.
# Each workload runs in its own process under CONDOR_THREADS=2.
#
# One workload, the form BENCHMARK.json's command takes:
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#     The last line of stdout is the JSON result. --trace 1 reports the
#     per-layer metrics instead of the end-to-end ones and writes the spans
#     to benchmark/results/trace-W.json.
#
# Every workload:
#   benchmark/run.sh [--seed S] [--smoke] [--trace]
#     Prints `workload metric value unit` lines and writes
#     benchmark/results/results.json with the context of the run. --smoke
#     runs each workload for 2 s as a crash and correctness check. --trace
#     adds a traced run of each workload and reports the tracing overhead
#     (traced minus untraced value of each end-to-end metric).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"
results="$here/results"
spec="$root/BENCHMARK.json"
export CONDOR_THREADS=2

workload="" seed=1 seconds="" trace=0 smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done

# Build output goes to stderr: stdout carries only the results.
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target condor_bench -j "$(nproc)" >&2
mkdir -p "$results"

bench() { "$build/condor_bench" --spec "$spec" --seed "$seed" "$@"; }

if [[ -n "$workload" ]]; then
  args=(--workload "$workload" --seconds "${seconds:-10}")
  if [[ "$trace" == 1 ]]; then
    args+=(--trace "$results/trace-$workload.json")
  fi
  bench "${args[@]}"
  exit
fi

read -r run_seconds names < <(python3 -c '
import json, sys
spec = json.load(open(sys.argv[1]))
print(spec["run_seconds"], " ".join(w["name"] for w in spec["workloads"]))
' "$spec")
if [[ "$smoke" == 1 ]]; then
  run_seconds=2
fi
status=0
for w in $names; do
  bench --workload "$w" --seconds "${seconds:-$run_seconds}" \
    --out "$results/$w.json" || status=1
  if [[ "$trace" == 1 ]]; then
    bench --workload "$w" --seconds "${seconds:-$run_seconds}" \
      --trace "$results/trace-$w.json" --out "$results/$w-traced.json" ||
      status=1
  fi
done

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
python3 - "$results" "$commit" $names <<'EOF'
import json, os, sys

results, commit, names = sys.argv[1], sys.argv[2], sys.argv[3:]
merged = {"commit": commit, "context": None, "workloads": {}, "info": {},
          "tracing_overhead": {}}
for name in names:
    path = os.path.join(results, name + ".json")
    if not os.path.exists(path):
        continue
    run = json.load(open(path))
    merged["context"] = merged["context"] or run["context"]
    merged["workloads"][name] = run["result"]
    merged["info"][name] = run["info"]
    traced_path = os.path.join(results, name + "-traced.json")
    if os.path.exists(traced_path):
        traced = json.load(open(traced_path))["info"]
        overhead = {}
        for metric, entry in run["result"]["metrics"].items():
            value = traced["traced." + metric]["value"]
            overhead[metric] = {"untraced": entry["value"], "traced": value,
                                "delta": value - entry["value"],
                                "unit": entry["unit"]}
            print(f"{name} tracing_overhead.{metric} "
                  f"{value - entry['value']:.6g} {entry['unit']}")
        merged["tracing_overhead"][name] = overhead
with open(os.path.join(results, "results.json"), "w") as out:
    json.dump(merged, out, indent=2)
    out.write("\n")
EOF
exit "$status"
