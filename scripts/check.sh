#!/usr/bin/env bash
# Pre-PR gate: everything CI would complain about, in one command.
#
#   ./scripts/check.sh          # build + tests + clippy + fmt + rustdoc + golden digest + perfbench
#
# Run from anywhere; the script cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test (oovr + oovr-serve lib tests at 16 threads)"
# Tests that share process-wide state (the memo tables and their counters)
# only interfere when they run concurrently, so run the two crates that own
# such state at a fixed high parallelism: a shared-counter race shows up
# here on any core count, not only on many-core hosts.
cargo test -q --release -p oovr -p oovr-serve --lib -- --test-threads 16

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo clippy --lib -W clippy::unwrap_used (library crates)"
# unwrap() on user-reachable library paths should go through OovrError
# instead; warn-level so legitimate internal invariants (with expect
# messages) don't block the gate, but new unwraps show up in review.
cargo clippy --lib -p oovr-scene -p oovr-mem -p oovr-gpu -p oovr-frameworks -p oovr \
    -- -W clippy::unwrap_used

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc (rustdoc warnings are errors)"
# A deletion that leaves an intra-doc link dangling, or a public doc that
# links to a private item, fails here instead of rotting silently.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> figures verify (golden digest of fault-free tables)"
cargo run -q --release -p oovr-bench --bin figures -- verify

echo "==> figures smoke run (reduced scale: fig15 + resilience + cluster + chaos + temporal + metrics + health + edge)"
# Exercises the full table pipeline — scene cache, render memo, CSV
# emission — plus the fleet tier (capacity-vs-N and placement gates, the
# full chaos strictness sweep), the temporal-reuse sweep (reuse
# monotonicity and the OOVR+temporal capacity frontier gates), the
# metered serve table (which also refreshes results/metrics.prom, the
# source of the committed Prometheus golden), and the fleet health gate
# (SLO error budgets nominal and under link-down; run_health errors on
# any exhausted aggregate budget — including the edge tier's), and the
# split client-edge gates (degenerate-link identity, motion-to-photon
# ladder monotonicity, ATW strictly beating the bare client in every
# link-down chaos cell) at a scale small enough for a
# pre-commit hook. The run is timed against
# scripts/perf_baseline.txt (committed seconds for this smoke): a
# wall-clock blow-up past ~2x the baseline fails the gate loudly, so
# substrate regressions (a cache probe that loses its MRU fast path, a
# cluster-scheduler rescan creeping back in, an unbounded per-session pose
# cache) surface here instead of in a multi-minute figures run.
SMOKE_START=$(date +%s.%N)
cargo run -q --release -p oovr-bench --bin figures -- --scale 0.05 fig15 resilience cluster chaos temporal metrics health edge
SMOKE_SECS=$(awk -v a="$SMOKE_START" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')
BASELINE=$(cat scripts/perf_baseline.txt)
awk -v t="$SMOKE_SECS" -v base="$BASELINE" 'BEGIN {
    limit = base * 2.0 + 1.0;  # 2x + 1s absolute slack for cold caches / load spikes
    printf "    smoke wall-clock %.2fs (baseline %.2fs, limit %.2fs)\n", t, base, limit;
    if (t > limit) {
        printf "PERF REGRESSION: fig15+resilience+cluster+chaos+temporal+metrics+health+edge smoke took %.2fs, over %.2fs (2x baseline %.2fs + 1s)\n", t, limit, base > "/dev/stderr";
        printf "If the slowdown is intentional, re-baseline scripts/perf_baseline.txt.\n" > "/dev/stderr";
        exit 1;
    }
}'

echo "==> figures serve (FULL scale: capacity table + QoS demo)"
# Runs the serving layer end to end — stream memoization, Eq. 3 admission,
# EDF scheduling, capacity search — and asserts OO-VR's capacity strictly
# exceeds the baseline's on every workload (run_serve errors otherwise).
# Full scale since the batched substrate made it affordable (~1 min on one
# core); this also regenerates results/serve.csv, which only happens at
# scale >= 1. serve.csv determinism and scheme ordering are pinned by
# tests/prop_serve.rs.
cargo run -q --release -p oovr-bench --bin figures -- serve

echo "==> figures trace-check (flight-recorder smoke: determinism + JSON validation)"
# Renders the demo frame traced twice: artifacts must be byte-identical,
# the Chrome JSON must parse and validate (monotone per-track timestamps,
# batch spans on every GPM, PA + steal instants), and the traced report
# must equal the untraced one.
cargo run -q --release -p oovr-bench --bin figures -- trace-check

echo "==> figures trace cluster (fleet failover smoke: link-down timeline)"
# Runs a small traced fleet under a seed-scanned link-down fault and
# fails unless the timeline actually shows server downs AND failovers —
# the cluster event vocabulary stays exercised end to end.
cargo run -q --release -p oovr-bench --bin figures -- --scale 0.05 trace cluster hl2-640

echo "==> figures trace temporal (reuse smoke: per-frame reuse events fire)"
# Serves a small OOVR+temporal run traced end to end and fails unless the
# timeline carries temporal_reuse events with at least one reused object
# — the pose-delta pricing stays wired through the scheduler and all
# three exporters.
cargo run -q --release -p oovr-bench --bin figures -- --scale 0.05 trace temporal hl2-640

echo "==> figures trace edge (split-rendering smoke: loss + reprojection events fire)"
# Runs a small traced client-edge session under a seed-scanned link-down
# fault and fails unless the timeline shows at least one FrameLost AND
# one FrameReprojected — the edge event vocabulary (sent / delivered /
# lost / reprojected / stale) stays exercised through all three
# exporters.
cargo run -q --release -p oovr-bench --bin figures -- --scale 0.05 trace edge hl2-640

echo "==> cargo bench --no-run (criterion benches stay compilable)"
cargo bench --no-run

echo "==> perfbench self-tests (the repository benchmark builds and passes)"
# perfbench/ is its own Cargo package, so the workspace build and tests
# above never compile it: a serve/edge API change that breaks the
# benchmark would otherwise pass this gate.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> perfbench serve-fleet (1 s at the default seed: recorded digest)"
# Exits non-zero when the simulated-statistics digest differs from the
# one recorded in perfbench (RECORDED_DIGESTS) or any check fails, so a
# refactor that perturbs the scheduler, admission, router or link
# outputs fails here.
cargo run -q --release --manifest-path perfbench/Cargo.toml -- --workload serve-fleet --seconds 1

echo "==> perfbench render-cold + paper-grid (one pass each: recorded digests)"
# --seconds 0 runs the single first pass every run makes (~10 s each on
# two cores) and checks its digest, so a change that perturbs the render
# substrate, the memo or the fault/resilient path fails here too.
cargo run -q --release --manifest-path perfbench/Cargo.toml -- --workload render-cold --seconds 0
cargo run -q --release --manifest-path perfbench/Cargo.toml -- --workload paper-grid --seconds 0

echo "==> all checks passed"
