#!/usr/bin/env bash
# One-worker counter gate: the scheduler work of `condor validate` and the
# modeled device numbers must not change unless a change means them to.
#
#   tools/check_counters.sh [--update] [path/to/condor]
#
# Runs `CONDOR_THREADS=1 condor validate --batch 8` over lenet, lenet_skip,
# tiny_resnet and tc1 on the float32, fixed16 and fixed8 datapaths, keeps
# the deterministic counter lines (the KPN census with its ring size, the
# scheduler's fires and suspensions, the FIFO writes, the resident weight
# bytes, the modeled `unroll:` DSPs and GFLOPS), adds the `condor fig5`
# batch sweep of each model (modeled cycles as mean ms per image) and diffs
# them against the checked-in BENCH_counters.txt. At one worker every
# counter is a pure function of the plan and the batch. --update rewrites
# the baseline instead. The binary defaults to build/tools/condor.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
baseline="$root/BENCH_counters.txt"
update=0
condor="$root/build/tools/condor"
for arg in "$@"; do
  case "$arg" in
    --update) update=1 ;;
    -*) echo "check_counters.sh: unknown option '$arg'" >&2; exit 2 ;;
    *) condor="$arg" ;;
  esac
done
if [[ ! -x "$condor" ]]; then
  echo "check_counters.sh: no condor binary at '$condor'" >&2
  exit 2
fi

counters() {
  for model in lenet lenet_skip tiny_resnet tc1; do
    for type in float32 fixed16 fixed8; do
      local out
      if ! out="$(CONDOR_THREADS=1 "$condor" validate --model "$model" \
                  --batch 8 --data-type "$type" 2>&1)"; then
        echo "check_counters.sh: validate failed on $model $type:" >&2
        echo "$out" >&2
        return 1
      fi
      grep -E '^(KPN|scheduler|FIFO writes|resident weights|unroll):' <<<"$out" |
        sed "s/^/$model $type: /"
    done
  done
  for model in lenet lenet_skip tiny_resnet tc1; do
    local out
    # stdout only: stderr carries the planner's log lines.
    if ! out="$("$condor" fig5 --model "$model" 2>/dev/null)"; then
      echo "check_counters.sh: fig5 failed on $model" >&2
      return 1
    fi
    sed "s/^/$model fig5: /" <<<"$out"
  done
}

current="$(counters)"
if [[ "$update" == 1 ]]; then
  printf '%s\n' "$current" >"$baseline"
  echo "check_counters.sh: wrote $baseline"
  exit 0
fi
if ! diff -u "$baseline" <(printf '%s\n' "$current"); then
  echo "check_counters.sh: counters differ from $baseline" >&2
  exit 1
fi
echo "check_counters.sh: counters match $baseline"
