#!/usr/bin/env bash
# Full local gate: release build, tier-1 tests, warning-free clippy and
# rustdoc passes over the whole workspace, the numlint rules, the
# observability golden tests, the chaos/variants/greedy benches, and
# the doc-consistency pass. CI and pre-merge runs should both call
# this script so the two can never drift apart.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

# numlint runs twice: the first pass populates/refreshes the per-file
# analysis cache (target/numlint-cache, keyed on content hash and
# rule-set version), the second proves warm runs stay sub-second — the
# cache hit/miss counts numlint prints on stderr belong to each pass.
echo "==> numlint check"
numlint_t0=$(date +%s%N)
cargo run -q -p numlint -- check --baseline numlint.baseline
numlint_t1=$(date +%s%N)
cargo run -q -p numlint -- check --baseline numlint.baseline >/dev/null
numlint_t2=$(date +%s%N)
numlint_cold_ms=$(( (numlint_t1 - numlint_t0) / 1000000 ))
numlint_warm_ms=$(( (numlint_t2 - numlint_t1) / 1000000 ))
echo "numlint wall time: ${numlint_cold_ms}ms first pass, ${numlint_warm_ms}ms warm"
if [ "${numlint_warm_ms}" -ge 1000 ]; then
    echo "check.sh: FAIL — warm numlint run took ${numlint_warm_ms}ms (budget: <1000ms)" >&2
    exit 1
fi

# The obs golden tests run as part of `cargo test -q` above; rerun them
# by name so a trace-schema or counter-accounting regression is called
# out explicitly rather than buried in the full-suite output.
echo "==> obs golden tests (trace determinism + counter accounting)"
cargo test -q -p pmtbr-cli --test trace_golden
cargo test -q --test obs_counters

# Quick chaos gate: the CLI binary under a 25% deterministic fault rate
# across every registry method, every injectable stage, and 1/2/8
# worker threads. Asserts containment (exit codes within the documented
# set, no escaped panics, finite output) and bit-identical stdout per
# thread count at a fixed fault seed, plus budget-exhaustion exit codes.
# Runs as part of `cargo test -q` too; named here so a containment
# regression is called out explicitly.
echo "==> chaos gate (PMTBR_FAULT matrix: methods x stages x 1/2/8 threads)"
cargo test -q -p pmtbr-cli --test chaos

# Load-stress gate: the same chaos binary as two concurrent processes,
# each running 8 tests at once, so every child `pmtbr-cli` reads its
# netlist while sibling tests and the other process spawn theirs. Both
# processes must pass; the wall time is printed for the record.
echo "==> chaos load-stress (2 concurrent processes x --test-threads 8)"
chaos_bin=$(cargo test -p pmtbr-cli --test chaos --no-run 2>&1 \
    | sed -n 's/.*Executable tests\/chaos\.rs (\(.*\))$/\1/p')
test -x "${chaos_bin}"
stress_t0=$(date +%s)
"${chaos_bin}" -q --test-threads 8 > target/chaos-stress-1.log 2>&1 &
stress_pid1=$!
"${chaos_bin}" -q --test-threads 8 > target/chaos-stress-2.log 2>&1 &
stress_pid2=$!
stress_failed=0
wait "${stress_pid1}" || stress_failed=1
wait "${stress_pid2}" || stress_failed=1
echo "chaos load-stress wall time: $(( $(date +%s) - stress_t0 ))s"
if [ "${stress_failed}" -ne 0 ]; then
    cat target/chaos-stress-1.log target/chaos-stress-2.log >&2
    echo "check.sh: FAIL — chaos tests failed under load" >&2
    exit 1
fi

# Service gate: serve/submit round-trips over real sockets — byte-level
# parity with local `reduce` (stdout and exit codes), the chaos matrix
# through the server's environment, protocol failures as exit 5, and
# served traces riding back. Runs as part of `cargo test -q` too; named
# here so a wire-contract regression is called out explicitly.
echo "==> service gate (serve/submit parity + chaos through the wire)"
cargo test -q -p pmtbr-cli --test serve

# Variant-coverage + perf trend gate: every `reduce` method registry
# entry must reduce the headline 1024-state mesh, and no sampling-based
# method may regress its wall time more than 1.5x against the committed
# baseline (crates/bench/baselines/variants_wall.txt; dense-Gramian
# baselines are exempt, VARIANTS_NO_PERF_GATE=1 skips the trend check
# on machines with different absolute speed). Writes BENCH_variants.json
# (order, in-band error, wall time, and per-stage seconds per method).
echo "==> variant coverage + perf trend (every registry method on the 1024-state mesh)"
cargo run --release -q -p bench --bin variants
test -s BENCH_variants.json

# Greedy accuracy-vs-solves gate: adaptive selection at the default
# convergence tolerance must match the fixed 8-node grid's in-band
# accuracy on the 1024-state mesh with strictly fewer LU
# factorizations (counter-delta-exact). Writes BENCH_greedy.json with
# the full tol=0 accuracy-vs-solves curve; the binary exits non-zero
# if the gate fails. See docs/SAMPLING.md section 9.
echo "==> greedy accuracy-vs-solves gate (BENCH_greedy.json)"
cargo run --release -q -p bench --bin greedy
test -s BENCH_greedy.json

# Service perf gate: the 1024-state mesh submitted to a live `serve`
# scheduler over loopback TCP, cold (empty artifact cache) then warm
# (model-cache hit). The warm median must be at least 5x faster than
# the cold run and byte-identical to it; the binary exits non-zero
# otherwise (SERVE_NO_PERF_GATE=1 skips the speedup check on unusual
# machines). Writes BENCH_serve.json.
echo "==> service warm-vs-cold gate (BENCH_serve.json)"
cargo run --release -q -p bench --bin serve_bench
test -s BENCH_serve.json

# Doc-consistency gate: every relative link in README.md / DESIGN.md /
# EXPERIMENTS.md / docs/*.md must resolve, and every method in
# pmtbr_cli::METHODS must be documented in the README (numlint's DOC01
# / DOC02 — zero-dependency, parses the registry source directly).
echo "==> numlint doccheck (links + method-registry drift)"
cargo run -q -p numlint -- doccheck

echo "check.sh: all gates passed"
