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

echo "==> cargo doc (rustdoc warnings, e.g. broken intra-doc links, fail CI)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo check --benches (bench bins must not rot)"
cargo check --workspace --benches --release

echo "==> cargo test -q (tier-1: facade calibration/properties/takeaways)"
cargo test --release -q

echo "==> cargo test -q --workspace"
cargo test --release -q --workspace

# The engine's unit tests and crates/engine/tests run only here with
# debug_assert! on (tier-1 covers the root package alone); one of those
# assertions is the stepper's FailFast-never-queues placement invariant.
echo "==> cargo test -q --workspace (debug: debug_assert! invariants on)"
cargo test -q --workspace

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

# Every paper table, figure and full-size study regenerates and must match
# its committed CSV: smoke cells stay inside the exact-sample window, so
# only the full-size cells reach the sketch-percentile path.
echo "==> reproduce_all.sh (every committed CSV regenerates byte-identically)"
bash scripts/reproduce_all.sh > /dev/null
git diff --exit-code HEAD -- outputs/ || { echo "FAIL: outputs/ differs from the committed CSVs"; exit 1; }

echo "==> conservation auditor re-check over study-smoke configurations"
cargo test --release -q --test properties auditor_passes_on_study_smoke_configs

# Every edgebench workload prints an output fingerprint per seed; it must
# match the benchmark pin table in ROADMAP.md (columns: seed 0, seed 7919).
# A change that moves one updates the table and explains why. The
# fingerprint does not depend on run length, so one second per run does.
echo "==> edgebench output fingerprints match the ROADMAP pins"
cargo build --release --quiet --offline --manifest-path edgebench/Cargo.toml
for workload in characterize fleet_storm agent_sessions; do
    row=$(grep -F "| \`$workload\` |" ROADMAP.md || true)
    read -r -a pins <<< "$(grep -oE '`[0-9a-f]{16}`' <<< "$row" | tr -d '`' | tr '\n' ' ')"
    [ "${#pins[@]}" -eq 2 ] || { echo "FAIL: ROADMAP.md has no seed 0 / 7919 pin row for $workload"; exit 1; }
    for i in 0 1; do
        seed=$([ "$i" -eq 0 ] && echo 0 || echo 7919)
        got=$(edgebench/target/release/edgebench --workload "$workload" --seed "$seed" \
            --seconds 1 --trace 0 2>&1 | grep -oE 'output fingerprint [0-9a-f]{16}' | cut -d' ' -f3 || true)
        [ "$got" = "${pins[$i]}" ] || {
            echo "FAIL: $workload seed $seed fingerprint '${got}' != ROADMAP pin ${pins[$i]}"
            exit 1
        }
        echo "    $workload seed $seed: $got"
    done
done

echo "CI OK"
