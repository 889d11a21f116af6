#!/usr/bin/env bash
# Pre-merge gate: every change must pass this before merging.
#
#   ./scripts/verify.sh
#
# Runs the tier-1 check from ROADMAP.md (release build + full test
# suite), the benchmark's self-test, the end-to-end smokes, and the
# environment, formatting and lint gates. Fails fast on the first broken
# step. Every step writes under target/ or a temp dir: the run must
# leave the tracked files as it found them.

set -euo pipefail
cd "$(dirname "$0")/.."

status_before=$(git status --porcelain --untracked-files=no)

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> perfbench self-test (the benchmark still builds and runs against the libraries)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> library crates read no environment"
if grep -rnE 'env::(var|var_os|vars|set_var|remove_var)' \
    crates/{gpu-sim,core,trace,serve,compiler,workloads,oracle,sensors}/src; then
    echo "verify: a library crate reads the process environment (parse it in the binary)" >&2
    exit 1
fi

echo "==> fault-campaign smoke (golden report + journal resume)"
cargo run --release -q -p flame-bench --bin fault_campaign -- smoke

echo "==> fault-campaign fork-smoke (fork on/off histograms must match)"
cargo run --release -q -p flame-bench --bin fault_campaign -- fork-smoke

echo "==> fault-campaign crash-drill (SIGKILL/abort shard workers, resume, diff vs serial)"
cargo run --release -q -p flame-bench --bin fault_campaign -- --shards 4 --kill-after 2

echo "==> serve smoke (HTTP campaign vs serial diff, SIGKILL+restart resume, SIGTERM drain)"
cargo run --release -q -p flame-bench --bin serve -- smoke

echo "==> oracle fuzz smoke (FLAME_FUZZ_RUNS=${FLAME_FUZZ_RUNS:-200} differential seeds)"
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

echo "==> trace smoke (capture + validate Chrome JSON + stall attribution)"
cargo run --release -q -p flame-bench --bin trace -- smoke

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tracked files unchanged"
status_after=$(git status --porcelain --untracked-files=no)
if [[ "$status_before" != "$status_after" ]]; then
    diff <(echo "$status_before") <(echo "$status_after") || true
    echo "verify: the run modified tracked files" >&2
    exit 1
fi

echo "verify: all gates passed"
