#!/usr/bin/env bash
# Alternating pairs of two e2e_bench builds on one workload.
#
#   bench/pairs.sh PARENT_EXE CHANGE_EXE WORKLOAD SEED N
#
# Runs N pairs of `EXE --workload WORKLOAD --seed SEED --seconds 20`, one
# with each executable, the parent first in odd pairs and the change first
# in even ones, so that a drift in the host's load falls on both sides.
# Then prints, for every end-to-end metric of the run's JSON line, each
# side's median and quartiles, how many pairs the change won (ties count
# for neither side) and a verdict, with the metric's direction and bound
# from BENCHMARK.json ("lower" and no bound when it is not listed).  The
# verdict is "gain" when the change wins at least 9 of every 10 pairs and
# the medians differ by more than the parent's interquartile range,
# "WORSE" when the change's median is worse than the parent's by more than
# the metric's bound (a fraction of the parent's median), and "-"
# otherwise.
#
# Build the two executables from two checkouts, e.g.
#   (cd parent && dune build bench/e2e/e2e_bench.exe)
#   bench/pairs.sh parent/_build/default/bench/e2e/e2e_bench.exe \
#     _build/default/bench/e2e/e2e_bench.exe pbft32-steady 42 10
set -euo pipefail

if [ $# -ne 5 ]; then
  echo "usage: $0 PARENT_EXE CHANGE_EXE WORKLOAD SEED N" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 n=$5
root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

run() { # side exe pair
  "$2" --workload "$workload" --seed "$seed" --seconds 20 > "$out/$1-$3.txt"
  grep '^{' "$out/$1-$3.txt" | tail -n 1 > "$out/$1-$3.json"
  echo "pair $3 $1: $(cat "$out/$1-$3.json")" >&2
}

for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$i"
    run change "$change" "$i"
  else
    run change "$change" "$i"
    run parent "$parent" "$i"
  fi
done

python3 - "$out" "$n" "$root/BENCHMARK.json" "$workload" "$seed" <<'PY'
import json, os, sys

out, n, bench, workload, seed = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4], sys.argv[5]
better, bound = {}, {}
if os.path.exists(bench):
    for m in json.load(open(bench)).get("end_to_end", []):
        better[m["name"]] = m["better"]
        bound[m["name"]] = m.get("bound")

def load(side, i):
    r = json.load(open(os.path.join(out, f"{side}-{i}.json")))
    assert r["correct"] and r["failed"] == 0, f"{side} pair {i}: incorrect run"
    return {k: v["value"] for k, v in r["metrics"].items()}

runs = {s: [load(s, i) for i in range(1, n + 1)] for s in ("parent", "change")}

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

def verdict(sign, limit, p, c, wins):
    pm, cm = quantile(p, 0.5), quantile(c, 0.5)
    if limit is not None and sign * (cm - pm) > limit * abs(pm):
        return "WORSE"
    if 10 * wins >= 9 * n and sign * (pm - cm) > quantile(p, 0.75) - quantile(p, 0.25):
        return "gain"
    return "-"

print(f"# {workload} seed {seed}: {n} alternating pair(s), --seconds 20")
print(f"{'metric':<22} {'parent q1/median/q3':>36} {'change q1/median/q3':>36}  wins  verdict")
for name in runs["parent"][0]:
    sign = -1 if better.get(name, "lower") == "higher" else 1
    p = [r[name] for r in runs["parent"]]
    c = [r[name] for r in runs["change"]]
    wins = sum(1 for a, b in zip(p, c) if sign * (b - a) < 0)
    fmt = lambda xs: "/".join(f"{quantile(xs, q):.6g}" for q in (0.25, 0.5, 0.75))
    print(f"{name:<22} {fmt(p):>36} {fmt(c):>36}  {wins}/{n}  {verdict(sign, bound.get(name), p, c, wins)}")
PY
