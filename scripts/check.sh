#!/usr/bin/env bash
# Full local gate: formatting, lints, build, tests.
#
#   scripts/check.sh          # everything
#   scripts/check.sh --fast   # skip the release build
#
# Mirrors what reviewers run; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[[ "${1:-}" == "--fast" ]] && fast=1

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
# Token-level domain rules first (D1/D2/P1/N1/O1/S1/R1, see DESIGN.md
# §11 and §16): fails on any unwaived violation or stale entry in
# lint-waivers.toml.
run cargo run -p peercache-lint --quiet
if [[ $fast -eq 0 ]]; then
    # Deep semantic pass (T1/C1/A1, see DESIGN.md §16): item parser +
    # call graph + dataflow over the whole workspace, machine-readable
    # report for `repro lint`, hard wall-time budget so the stage can
    # never quietly grow past interactive use.
    run cargo run -p peercache-lint --quiet -- --deep \
        --json target/lint-report.json --budget-ms 5000
fi
run cargo clippy --workspace --all-targets -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
if [[ $fast -eq 0 ]]; then
    run cargo build --workspace --release
fi
run cargo test --workspace -q
# Second pass with the runtime invariant oracles armed: reference
# dual-ascent re-verification, bitwise contention-matrix checks, and
# Steiner connectivity after every world event (crates/core/src/strict.rs).
run cargo test --workspace --features strict-invariants -q
# The chaos acceptance trace (500+ injected faults, two partition
# windows, lease-based ADMIN deposition, byte-identical replay) must
# hold with the oracles armed.
run cargo test --test chaos_trace --features strict-invariants -q
# The sharded-world determinism suite (200+ churn events per topology,
# byte-identical digests across every Parallelism setting) must hold
# with the per-tick shard oracles armed.
run cargo test --test shard_world --features strict-invariants -q
# The replication robustness suite: SWIM membership edge cases and the
# R = 3 chaos trace (500+ faults, durability / convergence / recovery
# oracles, byte-identical replay) with the oracles armed.
run cargo test --test swim_membership --features strict-invariants -q
run cargo test --test replication_chaos --features strict-invariants -q
if [[ $fast -eq 0 ]]; then
    # Release-mode smoke runs of the hot-path benches: quick variants,
    # do not overwrite the committed BENCH_*.json files.
    run env PEERCACHE_BENCH_QUICK=1 cargo bench -p peercache-bench --bench planning_hot_path
    run env PEERCACHE_BENCH_QUICK=1 cargo bench -p peercache-bench --bench churn_trace
    run env PEERCACHE_BENCH_QUICK=1 cargo bench -p peercache-bench --bench chaos_matrix
    # Scale smoke: the hierarchical planner on shrunken topologies
    # (full grid100/rgg100k rows are re-measured by the perf gate).
    run env PEERCACHE_BENCH_QUICK=1 cargo bench -p peercache-bench --bench scale
    # Shard smoke: the thread sweep on a shrunken grid asserts digest
    # equality across thread counts (full grid50 sweep is re-measured
    # by the perf gate against BENCH_shard.json).
    run env PEERCACHE_BENCH_QUICK=1 cargo bench -p peercache-bench --bench shard
    # Replication smoke: one R=1 trace cell with its structural oracles
    # (full 3x3 matrix is re-measured by the perf gate against
    # BENCH_replication.json).
    run env PEERCACHE_BENCH_QUICK=1 cargo bench -p peercache-bench --bench replication
    # Perf-regression gate: re-runs the benches fresh and diffs the
    # structural counters (exact) and wall-clock numbers (tolerance
    # band, see PEERCACHE_PERF_TOL) against the committed BENCH_*.json.
    run cargo run --release --bin repro -- perf --check
    # The online-arrival example drives CacheWorld end to end (arrivals
    # under a retention window); run it, not only compile it.
    run cargo run -q --release --example online_sharing
    # Trace-analyzer smoke on the committed chaos capture: span forest,
    # latency table, and critical path must all render without orphans.
    run cargo run -q --release --bin repro -- trace tests/fixtures/chaos_fixture.jsonl
    # Static-analysis summary from the deep pass's JSON report.
    run cargo run -q --release --bin repro -- lint target/lint-report.json
    # The repo benchmark (perfbench/, BENCHMARK.json): its own test
    # suite, then a one-second run of each workload. Every run replays
    # its seed and compares the end state against the committed digests,
    # so a change that moves a placement fails here ("correct": false,
    # nonzero exit).
    run cargo test --release --offline --manifest-path perfbench/Cargo.toml
    for workload in shard-arrivals shard-churn paper-grid20; do
        run cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seconds 1 --trace 0
    done
fi
echo "==> all checks passed"
