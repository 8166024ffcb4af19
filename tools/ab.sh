#!/usr/bin/env bash
# Layout-controlled host-time A/B of two revisions on benchmark/run.sh.
#
#   tools/ab.sh PARENT CHANGE --workload W [--workload W2 ...] --pairs N
#               [--seed S] [--dir DIR]
#
# PARENT and CHANGE are git revisions. For work that is not committed yet,
# stage it (`git add -A`) and pass `$(git stash create)`, a commit of the
# index and working tree that no branch or stash entry points at.
#
# Code layout alone moves the end-to-end metrics by more than a real change
# does (ROADMAP item 12), so every revision is built in two layout
# variants: `default` (the benchmark's own Release flags) and `aligned`
# (-falign-functions=64 -falign-loops=64 on every Condor object). Each
# (revision, variant) is a `git archive` of the revision in DIR, whose
# benchmark/build is configured here with the variant's CMAKE_CXX_FLAGS
# before benchmark/run.sh first runs; run.sh then reuses that cache.
#
# Pair i (i = 0..N-1) runs seed S+i once per side in every variant and
# workload; the side that runs first alternates from pair to pair. Each run
# is `benchmark/run.sh --workload W --seed S+i` (run.sh sets the run
# length, the same on both sides), stored as a
# results.json-shaped file under DIR/results/VARIANT/SIDE/. At the end the
# script prints benchmark/compare.py's verdicts per variant, and exits 1 if
# any verdict is a regression or any run failed. DIR (default: a new
# temporary directory) is kept; a second call with the same DIR reuses its
# builds and overwrites the runs of the seeds it repeats.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
usage() { sed -n '2,5p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2; exit 2; }

revs=() workloads=() pairs="" seed=1 dir=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --pairs) pairs="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --dir) dir="$2"; shift 2 ;;
    -h|--help) usage ;;
    -*) echo "ab.sh: unknown option '$1'" >&2; usage ;;
    *) revs+=("$1"); shift ;;
  esac
done
if [[ ${#revs[@]} -ne 2 || ${#workloads[@]} -eq 0 || -z "$pairs" ]]; then
  usage
fi
for n in "$pairs" "$seed"; do
  [[ "$n" =~ ^[0-9]+$ ]] || { echo "ab.sh: '$n' is not a count" >&2; exit 2; }
done
variant_list=(default aligned)

flags_of() {
  case "$1" in
    default) echo "" ;;
    aligned) echo "-falign-functions=64 -falign-loops=64" ;;
  esac
}

declare -A commit
for side in parent change; do
  rev="${revs[0]}"
  [[ "$side" == change ]] && rev="${revs[1]}"
  commit[$side]="$(git -C "$root" rev-parse --verify "$rev^{commit}")"
done
dir="${dir:-$(mktemp -d "${TMPDIR:-/tmp}/condor-ab.XXXXXX")}"
mkdir -p "$dir"
echo "ab.sh: parent ${commit[parent]}, change ${commit[change]}, in $dir" >&2

# One source tree and one condor_bench per (side, variant).
tree_of() { echo "$dir/$1-${commit[$1]:0:12}-$2"; }
for side in parent change; do
  for variant in "${variant_list[@]}"; do
    tree="$(tree_of "$side" "$variant")"
    if [[ ! -d "$tree" ]]; then
      mkdir -p "$tree"
      git -C "$root" archive "${commit[$side]}" | tar -x -C "$tree"
    fi
    echo "ab.sh: building $side/$variant" >&2
    if [[ ! -f "$tree/benchmark/build/CMakeCache.txt" ]]; then
      cmake -S "$tree/benchmark" -B "$tree/benchmark/build" \
        -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS="$(flags_of "$variant")" >/dev/null
    fi
    cmake --build "$tree/benchmark/build" --target condor_bench \
      -j "$(nproc)" >/dev/null
  done
done

# One run: its JSON line wrapped as results.json's "workloads" entry.
status=0
run_one() {
  local side="$1" variant="$2" workload="$3" s="$4"
  local out="$dir/results/$variant/$side/$workload-$s.json" line
  mkdir -p "$(dirname "$out")"
  if ! line="$(cd "$(tree_of "$side" "$variant")" &&
               bash benchmark/run.sh --workload "$workload" --seed "$s" \
                 --trace 0 2>/dev/null | tail -n 1)"; then
    echo "ab.sh: $side/$variant $workload seed $s failed" >&2
    status=1
  fi
  printf '{"workloads": {"%s": %s}}\n' "$workload" "${line:-null}" >"$out"
}

for ((i = 0; i < pairs; ++i)); do
  s=$((seed + i))
  order=(parent change)
  ((i % 2 == 1)) && order=(change parent)
  for variant in "${variant_list[@]}"; do
    for workload in "${workloads[@]}"; do
      for side in "${order[@]}"; do
        run_one "$side" "$variant" "$workload" "$s"
      done
    done
  done
  echo "ab.sh: pair $((i + 1))/$pairs done (seed $s)" >&2
done

for variant in "${variant_list[@]}"; do
  echo "== variant $variant: $(flags_of "$variant" | sed 's/^$/default flags/')"
  base=() change=()
  for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; ++i)); do
      base+=("$dir/results/$variant/parent/$workload-$((seed + i)).json")
      change+=("$dir/results/$variant/change/$workload-$((seed + i)).json")
    done
  done
  python3 "$root/benchmark/compare.py" "${base[@]}" -- "${change[@]}" ||
    status=1
done
exit "$status"
