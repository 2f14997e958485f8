#!/usr/bin/env bash
# Offline CI gate for the nest reproduction workspace.
#
# Runs the same checks as .github/workflows/ci.yml, in order of
# increasing cost, stopping at the first failure. No step needs network
# access: the workspace has no external dependencies (property tests are
# gated behind an off-by-default feature).
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

step() {
    echo
    echo "==> $*"
    "$@"
}

step cargo fmt --all -- --check
step cargo clippy --workspace --all-targets --release -- -D warnings
step cargo build --workspace --release
step cargo test --workspace --release -q
# rustdoc is the only checker for doc syntax and intra-doc links, and
# nest-simcore/nest-sched/nest-scenario carry #![deny(missing_docs)].
RUSTDOCFLAGS="-D warnings" step cargo doc --workspace --no-deps --release

# The scenario CLI: the registries list cleanly and an arbitrary
# non-figure combination runs end to end.
step cargo run --release -q -p nest-bench --bin nest-sim -- list
NEST_CACHE=off NEST_PROGRESS=0 NEST_RESULTS_DIR="$(mktemp -d)" \
    step cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5220 --policy smove --governor performance \
    --workload schbench:mt=2,w=2,requests=5 --runs 2

# Robustness: the chaos soak runs randomized fault plans under every
# policy with the invariant checker in fail-fast mode, and a faulted
# scenario runs end to end through the CLI (exiting non-zero on any
# cell failure or invariant violation).
step cargo test --release -q --test chaos_soak
NEST_CACHE=off NEST_PROGRESS=0 NEST_RESULTS_DIR="$(mktemp -d)" \
    step cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 6130-4 --policy cfs --policy nest --governor schedutil \
    --workload configure:gdb,tests=40 --runs 2 \
    --faults "hotplug=8@50ms:200ms,throttle=s0:0.8"

# Decision observability: `trace` exports Chrome trace-event JSON and
# re-parses it with the in-tree codec before writing (a failing parse
# exits non-zero), `stats` prints the decision-metrics table.
obsdir="$(mktemp -d)"
step cargo run --release -q -p nest-bench --bin nest-sim -- \
    trace --machine 5218 --policy nest --governor schedutil \
    --workload configure:gdb,tests=40 --out "$obsdir/trace.json" \
    --window 0:2 --events run,placement,nest
step test -s "$obsdir/trace.json"
step cargo run --release -q -p nest-bench --bin nest-sim -- \
    stats --machine 5218 --policy nest --governor schedutil \
    --workload configure:gdb,tests=40

# The serving lens: an open-loop `serve:` stream runs end to end through
# the CLI and reports its tail-latency/SLO metrics.
NEST_CACHE=off NEST_PROGRESS=0 NEST_RESULTS_DIR="$(mktemp -d)" \
    step cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5218 --policy cfs --policy nest --governor schedutil \
    --workload serve:rate=400,requests=200,dist=lognorm,slo=2ms --runs 2
step cargo run --release -q -p nest-bench --bin nest-sim -- \
    stats --machine 5218 --policy nest --governor schedutil \
    --workload serve:rate=400,requests=200,dist=lognorm

# Latency attribution + telemetry diff: `stats --json` carries the
# phase-breakdown block, two identical runs' telemetry self-compare
# with zero deltas (exit 0), and a perturbed run must trip the
# regression threshold (non-zero exit).
diffdir="$(mktemp -d)"
diffenv=(NEST_CACHE=off NEST_PROGRESS=0)
step env "${diffenv[@]}" NEST_RESULTS_DIR="$diffdir/a" \
    cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5218 --policy nest --governor schedutil \
    --workload serve:rate=400,requests=200,dist=lognorm,slo=2ms --out d
step env "${diffenv[@]}" NEST_RESULTS_DIR="$diffdir/b" \
    cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5218 --policy nest --governor schedutil \
    --workload serve:rate=400,requests=200,dist=lognorm,slo=2ms --out d
step env "${diffenv[@]}" NEST_RESULTS_DIR="$diffdir/c" \
    cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine 5218 --policy cfs --governor schedutil \
    --workload serve:rate=1600,requests=200,dist=lognorm,slo=2ms --out d
echo
echo "==> nest-sim stats --json carries the phase-breakdown block"
cargo run --release -q -p nest-bench --bin nest-sim -- \
    stats --machine 5218 --policy nest --governor schedutil \
    --workload serve:rate=400,requests=200,dist=lognorm --json \
    > "$diffdir/stats.json"
step grep -q '"phase_metrics"' "$diffdir/stats.json"
step cargo run --release -q -p nest-bench --bin nest-sim -- \
    diff "$diffdir/a/d.telemetry.json" "$diffdir/b/d.telemetry.json"
if cargo run --release -q -p nest-bench --bin nest-sim -- \
    diff "$diffdir/a/d.telemetry.json" "$diffdir/c/d.telemetry.json" \
    --threshold 5 >/dev/null; then
    echo "ERROR: perturbed telemetry diff reported no regression" >&2
    exit 1
fi
echo "==> telemetry self-compare clean; perturbed diff trips the gate"

# Snapshot/replay equivalence: running from the scenario while
# snapshotting at a midpoint (mode A) and restoring that snapshot and
# continuing (mode B) must write byte-identical artifacts, and a
# corrupted snapshot must be refused with exit 2.
snapdir="$(mktemp -d)"
NEST_CACHE=off NEST_PROGRESS=0 NEST_RESULTS_DIR="$snapdir/a" \
    step cargo run --release -q -p nest-bench --bin nest-sim -- \
    replay --at 0.05 --snap "$snapdir/warm.snap" \
    --machine 5218 --policy nest --governor schedutil \
    --workload configure:gdb --seed 42
NEST_CACHE=off NEST_PROGRESS=0 NEST_RESULTS_DIR="$snapdir/b" \
    step cargo run --release -q -p nest-bench --bin nest-sim -- \
    replay --from "$snapdir/warm.snap"
step cmp "$snapdir/a/replay.json" "$snapdir/b/replay.json"
sed 's/"kernel"/"kernell"/' "$snapdir/warm.snap" > "$snapdir/corrupt.snap"
if NEST_PROGRESS=0 NEST_RESULTS_DIR="$snapdir/c" \
    cargo run --release -q -p nest-bench --bin nest-sim -- \
    replay --from "$snapdir/corrupt.snap" 2>/dev/null; then
    echo "ERROR: corrupted snapshot was accepted" >&2
    exit 1
fi
echo "==> corrupted snapshot refused, as it must be"

# Harness warm-start: a figure run with NEST_WARM_START (first pass
# snapshots, second pass restores) must write the same artifact bytes
# as a cold run, while its telemetry records the warm hits.
warmdir="$(mktemp -d)"
warmenv=(NEST_QUICK=1 NEST_SEED=42 NEST_RUNS=1 NEST_CACHE=off NEST_PROGRESS=0)
step env "${warmenv[@]}" NEST_RESULTS_DIR="$warmdir/cold" \
    cargo run --release -q -p nest-bench --bin fig04_underload
step env "${warmenv[@]}" NEST_RESULTS_DIR="$warmdir/warm1" \
    NEST_WARM_START=0.05 NEST_CACHE_DIR="$warmdir/cache" \
    cargo run --release -q -p nest-bench --bin fig04_underload
step env "${warmenv[@]}" NEST_RESULTS_DIR="$warmdir/warm2" \
    NEST_WARM_START=0.05 NEST_CACHE_DIR="$warmdir/cache" \
    cargo run --release -q -p nest-bench --bin fig04_underload
step cmp "$warmdir/cold/fig04_underload.json" "$warmdir/warm1/fig04_underload.json"
step cmp "$warmdir/cold/fig04_underload.json" "$warmdir/warm2/fig04_underload.json"
step grep -q '"warm_start": true' "$warmdir/warm2/fig04_underload.telemetry.json"
if grep -q '"cells_warm": 0,' "$warmdir/warm2/fig04_underload.telemetry.json"; then
    echo "ERROR: second warm-start pass restored no snapshots" >&2
    exit 1
fi
echo "==> warm-start artifacts byte-identical; second pass restored snapshots"

# Hierarchical domains (PR 8): a 512-core synthetic multi-CCX machine
# runs end to end under every policy including the domain-local Nest,
# and the quick-mode scaling sweep stays within the committed
# BENCH_pr8.json envelope (exact event counts; generous wall-clock
# ratio).
NEST_CACHE=off NEST_PROGRESS=0 NEST_RESULTS_DIR="$(mktemp -d)" \
    step cargo run --release -q -p nest-bench --bin nest-sim -- \
    run --machine "synth:sockets=4,ccx=8,cores=16,numa=ring" \
    --policy cfs --policy nest --policy "nest:domain=ccx" --policy smove \
    --governor schedutil --workload "schbench:mt=32,w=15,requests=20" --runs 1
step ./scripts/check_scale_regression.sh

# The simulator benchmark (BENCHMARK.json, simbench/): every workload
# builds and runs a minimal pass through simbench/run.py, untraced and
# traced, with well-formed metrics, nothing failed, and traced counts
# that repeat exactly.
step python3 simbench/test_smoke.py

# Byte-identity guard: fig02/fig04/fig10/table4/fig_serve_tail/
# fig_attribution/faulted/synth/replay artifacts vs committed golden
# hashes.
step ./scripts/verify_artifacts.sh

echo
echo "==> CI gate passed"
