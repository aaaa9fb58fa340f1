#!/usr/bin/env bash
# Exactness gate for the simulated-clock benchmark cells.
#
#   scripts/churn_exact.sh            # diff against BENCH_churn_exact.txt
#   scripts/churn_exact.sh --write    # regenerate BENCH_churn_exact.txt
#
# Runs the four `churn.*` workloads of the benchmark (the BENCHMARK.json
# command) at `--seed 7 --seconds 1 --trace 0` and records, at full
# precision, every cell that is a pure function of (seed, seconds):
# `correct`, `attempted`, `failed`, and the sim-clock metrics `ops_per_s`,
# `get_mean_us`, `get_slow1pct_us`, `hit_ratio` and `write_amp`. The diff
# has zero tolerance: a change that claims to move no simulated time must
# leave every line as it is. Rewrite the file only in a change that means
# to move the simulated clock, and say so.
#
# Run from anywhere; the script cd's to the repository root.

set -euo pipefail
cd "$(dirname "$0")/.."

expected=BENCH_churn_exact.txt
workloads=(churn.zone churn.region churn.file churn.block)
metrics=(ops_per_s get_mean_us get_slow1pct_us hit_ratio write_amp)

write=0
case "${1:-}" in
  --write) write=1 ;;
  "") ;;
  *) echo "usage: $0 [--write]" >&2; exit 2 ;;
esac

actual=$(mktemp)
trap 'rm -f "$actual"' EXIT

{
  echo "# scripts/churn_exact.sh: churn.* sim-clock cells at --seed 7 --seconds 1"
  for w in "${workloads[@]}"; do
    out=$(cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
      --workload "$w" --seed 7 --seconds 1 --trace 0) || {
      echo "churn_exact: $w exited non-zero:" >&2
      echo "$out" >&2
      exit 1
    }
    line=$(tail -n 1 <<<"$out")
    for key in correct attempted failed; do
      value=$(grep -o "\"$key\": [a-z0-9]*" <<<"$line" | head -n 1 | cut -d' ' -f2)
      echo "$w $key ${value:?missing $key in $w result}"
    done
    for m in "${metrics[@]}"; do
      value=$(grep -o "\"$m\": {\"value\": [^,}]*" <<<"$line" | cut -d' ' -f3)
      echo "$w $m ${value:?missing $m in $w result}"
    done
  done
} >"$actual"

if [ "$write" = 1 ]; then
  cp "$actual" "$expected"
  echo "churn_exact: wrote $expected"
  exit 0
fi

if diff -u "$expected" "$actual"; then
  echo "churn_exact: OK (every churn.* sim cell identical)"
else
  echo "churn_exact: FAILED, a sim-clock cell moved (diff above: - expected, + now)" >&2
  exit 1
fi
