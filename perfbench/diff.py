"""Compare benchmark results of two versions of the code.

    python3 perfbench/diff.py --base A1.json [A2.json ...] \\
        --new B1.json [B2.json ...]

Each file is the ``--out`` of ``run.py``. For every (workload, metric) the
samples (one per repetition) of all files on a side are pooled; the printer shows each
side's median, quartiles and sample count, the change of the median, and
the bound from BENCHMARK.json. A row is ``unresolved`` when either side's
spread (q3 - q1, as a share of its median) exceeds the bound; ``WORSE``
when the new median is worse than the base by more than the bound.

Work counters from traced runs are compared exactly. A changed counter is
printed with the end-to-end metrics layer_map.json says it should move; it
is not a failure, since perf changes exist to move counters.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
from collections import defaultdict

from run import BENCH, HERE, layer_unit, quartiles


def load(paths):
    """(workload, metric) -> pooled samples; (workload, counter) -> values."""
    samples, counters = defaultdict(list), defaultdict(set)
    for path in paths:
        with open(path) as f:
            for res in json.load(f):
                w = res["workload"]
                for name, values in res["samples"].items():
                    samples[w, name] += values
                for name, m in res["per_layer"].items():
                    if layer_unit(name) in ("count", "bytes"):
                        counters[w, name].add(m["value"])
    return samples, counters


def layer_moves(name):
    with open(os.path.join(HERE, "layer_map.json")) as f:
        layers = json.load(f)["layers"]
    best = max((k for k in layers if name.startswith(k)), key=len,
               default=None)
    if best is None:
        return ""
    entry = layers[best]
    return f"should move {'/'.join(entry['moves'])} on {', '.join(entry['on'])}"


def verdict(base, new, spec):
    if spec is None:
        return "-"
    bound = spec["bound"]
    for side in (base, new):
        q1, q3 = quartiles(side)
        med = statistics.median(side)
        if med and (q3 - q1) / abs(med) > bound:
            return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    change = (n - b) / b if b else 0.0
    if spec["better"] == "higher":
        change = -change
    if change > bound:
        return "WORSE"
    if change < -bound:
        return "better"
    return "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    base, base_counts = load(args.base)
    new, new_counts = load(args.new)
    specs = {m["name"]: m for m in BENCH["end_to_end"]}

    print(f"{'workload':16s} {'metric':14s} {'base median':>12s} "
          f"{'[q1, q3]':>22s} {'n':>3s} {'new median':>12s} {'[q1, q3]':>22s} "
          f"{'n':>3s} {'change':>8s} {'bound':>6s}  verdict")
    for key in sorted(set(base) & set(new)):
        w, name = key
        b, n = base[key], new[key]
        spec = specs.get(name)
        bm, nm = statistics.median(b), statistics.median(n)
        bq, nq = quartiles(b), quartiles(n)
        change = f"{(nm - bm) / bm:+.1%}" if bm else "-"
        bound = f"{spec['bound']:.2f}" if spec else "-"
        print(f"{w:16s} {name:14s} {bm:12.5g} [{bq[0]:9.5g}, {bq[1]:9.5g}] "
              f"{len(b):3d} {nm:12.5g} [{nq[0]:9.5g}, {nq[1]:9.5g}] "
              f"{len(n):3d} {change:>8s} {bound:>6s}  {verdict(b, n, spec)}")

    changed = [(k, base_counts[k], new_counts[k])
               for k in sorted(set(base_counts) & set(new_counts))
               if base_counts[k] != new_counts[k]]
    print(f"\nwork counters: {len(changed)} changed")
    for (w, name), b, n in changed:
        print(f"  {w:16s} {name:44s} {sorted(b)} -> {sorted(n)}  "
              f"{layer_moves(name)}")


if __name__ == "__main__":
    main()
