#!/usr/bin/env bash
# Same-window A/B of the repository benchmark: a base revision against the
# working tree.
#
# Usage: scripts/bench_ab.sh WORKLOAD SEED PAIRS [REV]
#
# REV (default HEAD) is built in a detached git worktree under
# .bench_build/, which is removed on exit; the working tree, uncommitted
# edits included, is the change. Each pair runs edgebench once per side
# with BENCHMARK.json's run_seconds and --trace 0, alternating which side
# runs first. For every end-to-end metric of BENCHMARK.json the script
# prints the per-pair values and change/base ratios, each side's median
# and quartiles, the pairs the change won (ties count for neither side),
# whether the medians differ by more than the base's interquartile range,
# a seeded bootstrap 95% confidence interval of the median ratio
# (median(change) / median(base), resampling whole pairs), and whether the
# change's median stays inside the metric's bound. It then prints both
# sides' output fingerprints and whether they match.
#
# Exits non-zero when any run reports "correct": false.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -lt 3 || $# -gt 4 ]]; then
  echo "usage: $0 WORKLOAD SEED PAIRS [REV]" >&2
  exit 2
fi
workload="$1"
seed="$2"
pairs="$3"
rev="$(git rev-parse --verify "${4:-HEAD}^{commit}")"
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || { echo "PAIRS must be a positive integer" >&2; exit 2; }

seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
base_tree=".bench_build/base"
remove_base() {
  git worktree remove --force "$base_tree" 2>/dev/null || true
  rm -rf "$base_tree"
  git worktree prune
}
# A worktree left behind by an interrupted run would block `add`.
remove_base
results="$(mktemp -d)"
trap 'remove_base; rm -rf "$results"' EXIT

mkdir -p .bench_build
echo "==> building base ${rev:0:12} in $base_tree"
git worktree add --quiet --detach "$base_tree" "$rev"
cargo build --release --quiet --offline --manifest-path "$base_tree/edgebench/Cargo.toml"
echo "==> building change (working tree)"
cargo build --release --quiet --offline --manifest-path edgebench/Cargo.toml
base_bin="$base_tree/edgebench/target/release/edgebench"
change_bin="edgebench/target/release/edgebench"

run() { # SIDE PAIR
  local bin="$base_bin"
  [[ "$1" == change ]] && bin="$change_bin"
  "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
    > "$results/$1.$2.out" 2> "$results/$1.$2.err" || true
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order=(base change); else order=(change base); fi
  echo "==> pair $i/$pairs: ${order[0]} first (${seconds} s per run)"
  for side in "${order[@]}"; do
    run "$side" "$i"
  done
done

python3 - "$results" "$pairs" "$workload" "$seed" "${rev:0:12}" <<'EOF'
import json
import random
import re
import statistics
import sys

results, pairs, workload, seed, rev = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
declared = json.load(open("BENCHMARK.json"))["end_to_end"]
sides = ("base", "change")

runs = {side: [] for side in sides}
prints = {side: set() for side in sides}
incorrect = []
for side in sides:
    for i in range(1, pairs + 1):
        text = open(f"{results}/{side}.{i}.out").read()
        prints[side].update(re.findall(r"output fingerprint ([0-9a-f]{16})", text))
        lines = [l for l in text.splitlines() if l.startswith("{")]
        result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
        if not result.get("correct", False):
            incorrect.append(f"{side} pair {i}")
        runs[side].append({k: v["value"] for k, v in result["metrics"].items()})


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q3


def bootstrap_ci(base, change, resamples=10_000, seed=0x5EED):
    """Percentile 95% CI of median(change) / median(base) over resampled pairs."""
    rng = random.Random(seed)
    n = len(base)
    ratios = []
    for _ in range(resamples):
        idx = [rng.randrange(n) for _ in range(n)]
        b = statistics.median(base[i] for i in idx)
        if b:
            ratios.append(statistics.median(change[i] for i in idx) / b)
    if not ratios:
        return float("nan"), float("nan")
    ratios.sort()
    return ratios[int(0.025 * (len(ratios) - 1))], ratios[int(0.975 * (len(ratios) - 1))]


print(f"\nworkload {workload} seed {seed}: base {rev} vs working tree, {pairs} pairs")
for metric in declared:
    name, higher = metric["name"], metric["better"] == "higher"
    values = {s: [r.get(name) for r in runs[s]] for s in sides}
    if any(v is None for s in sides for v in values[s]):
        print(f"\n{name}: missing from some runs")
        continue
    print(f"\n{name} ({metric['unit']}, {metric['better']} is better, bound {metric['bound']:.0%})")
    print(f"  {'pair':>4}  {'base':>14}  {'change':>14}  {'ratio':>7}")
    won = lost = 0
    for i, (b, c) in enumerate(zip(values["base"], values["change"]), 1):
        ratio = c / b if b else float("nan")
        print(f"  {i:>4}  {b:>14.6g}  {c:>14.6g}  {ratio:>7.4f}")
        if c != b:
            if (c > b) == higher:
                won += 1
            else:
                lost += 1
    med = {s: statistics.median(values[s]) for s in sides}
    for s in sides:
        q1, q3 = quartiles(values[s])
        print(f"  {s:>6} median {med[s]:.6g}  quartiles {q1:.6g} .. {q3:.6g}")
    q1, q3 = quartiles(values["base"])
    iqr = q3 - q1
    worse = (med["base"] - med["change"]) if higher else (med["change"] - med["base"])
    within = worse <= metric["bound"] * abs(med["base"])
    ratio = med["change"] / med["base"] if med["base"] else float("nan")
    lo, hi = bootstrap_ci(values["base"], values["change"])
    print(
        f"  median ratio {ratio:.4f} (bootstrap 95% CI {lo:.4f} .. {hi:.4f}); "
        f"change won {won} of {pairs} pairs (lost {lost}); "
        f"|median difference| > base IQR ({iqr:.6g}): "
        f"{'yes' if abs(med['change'] - med['base']) > iqr else 'no'}; "
        f"within bound: {'yes' if within else 'NO'}"
    )

print()
for s in sides:
    print(f"{s:>6} output fingerprint(s): {' '.join(sorted(prints[s])) or 'none'}")
same = len(prints["base"]) == 1 and prints["base"] == prints["change"]
print(f"fingerprints match: {'yes' if same else 'NO'}")
if incorrect:
    print(f"runs reporting \"correct\": false: {', '.join(incorrect)}")
    sys.exit(1)
EOF
