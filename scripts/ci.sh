#!/usr/bin/env bash
# Offline-friendly CI gate: format, lint, build, test.
#
# Every step works without network access — all dependencies resolve to
# path crates inside the workspace (see compat/).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo check --benches (bench bins must not rot)"
cargo check --workspace --benches --release

echo "==> cargo test -q (tier-1: facade calibration/properties/takeaways)"
cargo test --release -q

echo "==> cargo test -q --workspace"
cargo test --release -q --workspace

# Every study smoke runs twice: the CSV must be non-empty, byte-identical
# across the two runs (determinism) and byte-identical to the committed
# outputs/<study>_smoke.csv (no silent decision drift).
for study in resilience serving fleet traffic session thermal overload; do
    bin="${study}_study"
    csv="outputs/${bin}_smoke.csv"
    echo "==> $bin --smoke (deterministic, matches the committed CSV)"
    cargo run --release -q -p edgereasoning-bench --bin "$bin" -- --smoke
    [ -s "$csv" ] || { echo "FAIL: $csv empty or missing"; exit 1; }
    [ "$(wc -l < "$csv")" -gt 1 ] || { echo "FAIL: $csv has no data rows"; exit 1; }
    cp "$csv" "$csv.first"
    cargo run --release -q -p edgereasoning-bench --bin "$bin" -- --smoke
    cmp "$csv" "$csv.first" || { echo "FAIL: $bin smoke not deterministic"; exit 1; }
    rm -f "$csv.first"
    git diff --exit-code HEAD -- "$csv" || { echo "FAIL: $csv differs from the committed file"; exit 1; }
done

echo "==> conservation auditor re-check over study-smoke configurations"
cargo test --release -q --test properties auditor_passes_on_study_smoke_configs

echo "CI OK"
