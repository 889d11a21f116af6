#!/usr/bin/env bash
# Pre-merge gate: every change must pass this before merging.
#
#   ./scripts/verify.sh
#
# Runs the tier-1 check from ROADMAP.md (release build + full test
# suite, which also drives the binaries as processes: the crash drill,
# the server under SIGKILL and SIGTERM, a fault trace capture), a
# byte-for-byte regeneration of all ten results files (every figure and
# table), the benchmark's self-test, the oracle differential fuzzer, and
# the environment, formatting, lint and rustdoc gates (formatting and
# lint cover perfbench too). Fails fast on the first broken step. Every
# step writes under target/ (perfbench's under perfbench/target/) or a
# temp dir: the run must leave the tracked files as it found them.

set -euo pipefail
cd "$(dirname "$0")/.."

status_before=$(git status --porcelain --untracked-files=no)

echo "==> cargo build --release"
cargo build --release

echo "==> perfbench build (fails fast when a library item the benchmark calls changes)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> results files regenerate byte-identically (one deduplicated matrix: fig4_naive, fig12, fig13_14: 8 schemes x 34 apps, fig16, fig17: WCDL sweep, fig18: all four schedulers, fig19: 32- to 64-slot SMs, table1, table2, region_stats)"
./target/release/figures target/figures
for fig in fig4_naive fig12 fig13_14 fig16 fig17 fig18 fig19 table1 table2 region_stats; do
    if ! cmp "target/figures/$fig.txt" "results/$fig.txt"; then
        echo "verify: target/figures/$fig.txt differs from results/$fig.txt" >&2
        exit 1
    fi
done

echo "==> cargo test -q"
cargo test -q

echo "==> perfbench self-test (the benchmark still builds and runs against the libraries)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> library crates read no environment"
if grep -rnE 'env::(var|var_os|vars|set_var|remove_var)' \
    crates/{flame,gpu-sim,core,trace,serve,compiler,workloads,oracle,sensors}/src; then
    echo "verify: a library crate reads the process environment (parse it in the binary)" >&2
    exit 1
fi

echo "==> oracle differential fuzz (FLAME_FUZZ_RUNS=${FLAME_FUZZ_RUNS:-200} seeds)"
cargo run --release -q -p flame-bench --bin fuzz_oracle

echo "==> oracle fuzz forced mismatch (reproducer line must surface)"
if out=$(cargo run --release -q -p flame-bench --bin fuzz_oracle -- --force-mismatch 2>&1); then
    echo "$out"
    echo "verify: forced mismatch was NOT detected" >&2
    exit 1
fi
if ! grep -q "FLAME_FUZZ_SEED=" <<<"$out"; then
    echo "$out"
    echo "verify: mismatch report lacks a FLAME_FUZZ_SEED= reproducer" >&2
    exit 1
fi

echo "==> cargo fmt --check (the workspace, then perfbench, a workspace of its own)"
cargo fmt --all -- --check
cargo fmt --manifest-path perfbench/Cargo.toml --all -- --check

echo "==> cargo clippy -- -D warnings (the workspace, then perfbench)"
cargo clippy --workspace --all-targets -- -D warnings
cargo clippy --offline --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc -D warnings (intra-doc links resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tracked files unchanged"
status_after=$(git status --porcelain --untracked-files=no)
if [[ "$status_before" != "$status_after" ]]; then
    diff <(echo "$status_before") <(echo "$status_after") || true
    echo "verify: the run modified tracked files" >&2
    exit 1
fi

echo "verify: all gates passed"
