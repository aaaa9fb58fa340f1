#!/usr/bin/env bash
# Tier-1 gate: everything a change must pass before merging.
#
#   scripts/tier1.sh            # build + workspace tests + clippy
#
# Run from anywhere; the script cd's to the repository root.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: release build =="
cargo build --release

echo "== tier1: test suite (every workspace member) =="
# --workspace, not the root package alone: the unit tests of sim
# (checksum equivalence), server (dispatch/shedding) and lsm live in the
# member crates, and a root-only run let an lsm test rot unnoticed.
# Under `timeout`: a hung test must fail the gate, not stall it (the
# whole step takes under a minute warm; the limit leaves room for a
# cold build).
timeout 30m cargo test -q --workspace

echo "== tier1: clippy (warnings are errors, pinned allow-list in Cargo.toml) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier1: workspace static analysis (cargo xtask analyze) =="
# Lock-order graphs, I/O-ticket obligations, the atomic-ordering
# inventory, and the unsafe inventory — plus a freshness check that the
# checked-in ANALYSIS.md matches the sources (regenerate with
# `cargo xtask analyze --write`).
cargo xtask analyze

echo "== tier1: loom model checks (exhaustive interleavings) =="
# The vendored checker's own self-tests, then the engine protocol models.
cargo test -q -p loom
RUSTFLAGS="--cfg loom" cargo test -q -p zns-cache --test loom

echo "== tier1: fault matrix (${FAULT_MATRIX_SEEDS:-1} seed stream(s), release) =="
# Failure-path suite (fault injection, zone-death torture, crash-point
# recovery sweep) under distinct fault-RNG streams. The default runs one
# stream for speed; CI's fault-matrix job — or FAULT_MATRIX_SEEDS=8 here —
# sweeps all eight.
for s in $(seq 0 $(( ${FAULT_MATRIX_SEEDS:-1} - 1 ))); do
  FAULT_MATRIX_SEED=$s cargo test --release -q \
    --test fault_injection --test zone_death --test recovery
done

echo "== tier1: churn.* sim cells exact (benchmark, seed 7, 1 s) =="
# The four sim-clock benchmark rows against BENCH_churn_exact.txt with
# zero tolerance: a host-cost change must not move one simulated digit.
scripts/churn_exact.sh

echo "== tier1: multi-thread smoke (all schemes, 8 workers, shared engine) =="
# Short mixed get/set run on every scheme at 1 and 8 threads. Asserts op
# conservation, hit/get self-consistency, a thread-count-invariant offered
# workload (hit ratios must match across thread counts), and a throughput
# floor: 8-thread ops/s >= 0.5x single-thread — the gate that catches a
# multi-thread collapse (File-Cache once fell 108.6k -> 4.7k ops/s). The
# full sweep (writes BENCH_throughput.json) is
# `cargo run --release -p zns-cache-bench --bin bench_threads`.
cargo run --release -p zns-cache-bench --bin bench_threads -- --smoke 1 --threads 8

echo "== tier1: loopback server latency gate (open-loop, fixed rate) =="
# Two Zone-Cache points through the real server stack (TCP loopback,
# sharded command loops, bounded queues). A mid-rate point: request
# accounting must close (served + busy + errors == scheduled), no typed
# errors, near-zero shed at a rate far under capacity, and p99 under a
# deliberately loose wall-clock ceiling. Then a capacity probe offered
# past the knee: achieved rate must hold >= 92k/s (1.5x the pre-batching
# knee), with real read/flush batching (means > 1) and a bounded
# reply_allocs count (no per-request allocation on the reply path).
# Catches lost replies, unshed overload, order-of-magnitude latency
# regressions, and any regression to per-request syscalls. The full
# sweep (writes BENCH_latency.json) is the bare bench_latency invocation.
cargo run --release -p zns-cache-bench --bin bench_latency -- --gate 1

echo "== tier1: perf floor (flash Zone-Cache, 8 threads) =="
# The async I/O core's acceptance bar: flash-profile Zone-Cache at 8
# threads must sustain >= 110k sim ops/s with a get p99 under 100us.
# One sweep point, not the full matrix; the full sweep (which also
# rewrites BENCH_throughput.json) is the bare bench_threads invocation.
cargo run --release -p zns-cache-bench --bin bench_threads -- --floor 1

echo "== tier1: OK =="
