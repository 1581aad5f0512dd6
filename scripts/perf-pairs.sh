#!/usr/bin/env bash
# Alternating parent/change pairs of one perf workload — the procedure
# perf/README.md describes in prose ("To compare two commits ...").
#
#   scripts/perf-pairs.sh BASE_REF WORKLOAD [PAIRS=10] [SECONDS=10]
#
# Builds the `perf` harness twice — at BASE_REF (a `git archive` of it
# unpacked under target/perf-pairs/, with its own --target-dir) and at
# the working tree — then runs the two binaries PAIRS times each on the
# same fresh seeds, flipping which one goes first every pair so neither
# side always gets the warmer (or the noisier) half of a pair. For every
# end-to-end metric of BENCHMARK.json it prints both medians and
# quartiles, change / parent, and how many pairs the change won.
#
# No tracked file under perf/ changes: the working tree builds into
# perf/target as `cargo run --manifest-path perf/Cargo.toml` does, and
# the binaries run from target/perf-pairs/run, which holds a copy of
# BENCHMARK.json (the harness walks up to find it and puts its result
# files next to it).
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
  sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
  exit 2
fi
base_ref=$1
workload=$2
pairs=${3:-10}
seconds=${4:-10}

cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
root=$PWD
work=$root/target/perf-pairs
base_src=$work/base-src
mkdir -p "$work/bin" "$work/run"

base_rev=$(git rev-parse --verify "$base_ref^{commit}")
rm -rf "$base_src"
mkdir -p "$base_src"
git archive "$base_rev" | tar -x -C "$base_src"

echo "== building perf at $base_ref (${base_rev:0:7})" >&2
cargo build --release --quiet --offline \
  --manifest-path "$base_src/perf/Cargo.toml" --target-dir "$work/base-target"
cp "$work/base-target/release/perf" "$work/bin/perf-parent"

echo "== building perf at the working tree" >&2
cargo build --release --quiet --offline --manifest-path "$root/perf/Cargo.toml"
cp "$root/perf/target/release/perf" "$work/bin/perf-change"

cp "$root/BENCHMARK.json" "$work/run/BENCHMARK.json"
cd "$work/run"

# Seeds nobody tuned against: fresh per invocation, shared by both sides.
seed0=$(( $(date +%s) % 1000000 ))
out=$work/run/pairs-$workload-$seed0.jsonl
: > "$out"
echo "== $workload: $pairs pairs, --seconds $seconds, seeds $((seed0 + 1))..$((seed0 + pairs))" >&2

one() { # side seed
  local line
  line=$("$work/bin/perf-$1" --workload "$workload" --seed "$2" \
    --seconds "$seconds" --trace 0 | tail -n 1)
  printf '{"side":"%s","seed":%s,"result":%s}\n' "$1" "$2" "$line" >> "$out"
}

for ((i = 1; i <= pairs; i++)); do
  seed=$((seed0 + i))
  if ((i % 2)); then order="parent change"; else order="change parent"; fi
  for side in $order; do one "$side" "$seed"; done
  echo "   pair $i/$pairs (seed $seed, $order)" >&2
done

python3 - "$out" "$root/BENCHMARK.json" <<'PY'
import json, statistics, sys

rows = [json.loads(line) for line in open(sys.argv[1])]
contract = json.load(open(sys.argv[2]))
sides = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for row in rows:
    result = row["result"]
    sides[row["side"]][row["seed"]] = result["metrics"]
    failed[row["side"]] += result["failed"] + (0 if result["correct"] else 1)

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

seeds = sorted(sides["parent"])
print(f"{'metric':<14}{'side':<8}{'q1':>12}{'median':>12}{'q3':>12}   change/parent   pairs won")
for metric in contract["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    parent = [sides["parent"][s][name]["value"] for s in seeds]
    change = [sides["change"][s][name]["value"] for s in seeds]
    won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    pq, cq = quartiles(parent), quartiles(change)
    ratio = cq[1] / pq[1] if pq[1] else float("nan")
    print(f"{name:<14}{'parent':<8}{pq[0]:>12.5g}{pq[1]:>12.5g}{pq[2]:>12.5g}")
    print(f"{'':<14}{'change':<8}{cq[0]:>12.5g}{cq[1]:>12.5g}{cq[2]:>12.5g}"
          f"   {ratio:>13.3f}   {won}/{len(seeds)} ({'higher' if higher else 'lower'} wins)")
    shift, spread = abs(cq[1] - pq[1]), pq[2] - pq[0]
    verdict = "beyond" if shift > spread else "inside"
    print(f"{'':<22}median shift {shift:.5g} is {verdict} the parent's inter-quartile spread {spread:.5g}")
print(f"failed: parent {failed['parent']}, change {failed['change']}")
PY
echo "raw results: $out" >&2
