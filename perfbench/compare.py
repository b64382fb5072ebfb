"""Compare two perfbench result sets.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the records ``run.py --out FILE`` appends, one run per
line.  For every workload and metric in both sets this prints each side's
median and quartiles in the metric's own unit, the change of the median,
and NEW's pairwise win share: the i-th NEW run against the i-th BASE run of
that workload, ties counting for neither side.  Direction and bound come
from ``BENCHMARK.json``.

The verdict applies the benchmark's rules: ``regression`` when NEW's median
is worse than BASE's by more than the bound; ``unresolved`` when BASE's own
spread (distance between its quartiles) is wider than the bound, unless
every NEW run beats every BASE run; ``gain`` when NEW wins at least nine
tenths of the pairs and the medians differ by more than BASE's spread;
``same`` otherwise.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _load(path):
    groups = {}
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def _verdict(base, new, lower_is_better, bound):
    """(NEW's pair wins, pairs, verdict) for one metric of one workload."""
    sign = 1.0 if lower_is_better else -1.0
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    pairs = min(len(base), len(new))
    mb, mn = statistics.median(base), statistics.median(new)
    q1, q3 = _quartiles(base)
    spread = q3 - q1
    worse = sign * (mn - mb)
    every_run_better = max(new) < min(base) if lower_is_better else min(new) > max(base)
    if bound is not None and worse > bound * abs(mb):
        verdict = "regression"
    elif bound is not None and spread > bound * abs(mb) and not every_run_better:
        verdict = "unresolved"
    elif pairs and wins >= 0.9 * pairs and -worse > spread:
        verdict = "gain"
    else:
        verdict = "same"
    return wins, pairs, verdict


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    base, new = _load(argv[0]), _load(argv[1])
    hosts = {json.dumps(r["fingerprint"], sort_keys=True) for g in (base, new) for rs in g.values() for r in rs}
    if len(hosts) > 1:
        print("WARNING: the two sets were measured on different hosts or BLAS settings:")
        for host in sorted(hosts):
            print("  " + host)
    header = f"{'workload':<18} {'metric':<36} {'unit':<6} {'base median [q1, q3] n':<36} {'new median [q1, q3] n':<36} {'change':>12} {'wins':>6}  verdict"
    print(header)
    for key in sorted(set(base) & set(new)):
        workload, _ = key
        present = base[key][0]["metrics"]
        names = [name for name in specs if name in present] + [name for name in present if name not in specs]
        for name in names:
            b = [r["metrics"][name]["value"] for r in base[key] if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new[key] if name in r["metrics"]]
            if not b or not n:
                continue
            spec = specs.get(name)
            lower = spec["better"] == "lower" if spec else True
            wins, pairs, verdict = _verdict(b, n, lower, spec.get("bound") if spec else None)
            unit = base[key][0]["metrics"][name]["unit"]
            cells = []
            for values in (b, n):
                q1, q3 = _quartiles(values)
                cells.append(f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}] {len(values)}")
            change = statistics.median(n) - statistics.median(b)
            print(
                f"{workload:<18} {name:<36} {unit:<6} {cells[0]:<36} {cells[1]:<36}"
                f" {change:>+12.6g} {wins:>3}/{pairs:<2}  {verdict}"
            )
        fails = [(r["failed"], r["attempted"]) for side in (base, new) for r in side[key]]
        if any(f for f, _ in fails):
            print(f"{workload:<18} failed operations in some runs: {fails}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
