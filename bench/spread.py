"""Run-to-run spread of result records, against the bounds in BENCHMARK.json.

    python3 bench/spread.py .bench_work/results/certify-seed*-trace0-full.json

Groups the records by workload and, for every metric, prints the median,
the quartiles (``statistics.quantiles(values, n=4)``), the spread
(q3 - q1) / median and the metric's bound.  A spread above a third of
the bound is flagged; the benchmark aims to stay below that.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(paths) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    groups = defaultdict(lambda: defaultdict(list))
    seeds = defaultdict(list)
    for path in paths:
        record = json.loads(Path(path).read_text())
        workload = record["environment"]["workload"]
        seeds[workload].append(record["environment"]["seed"])
        for name, metric in record["result"]["metrics"].items():
            groups[workload][name].append(metric["value"])
    for workload, metrics in sorted(groups.items()):
        print(f"{workload}: {len(seeds[workload])} runs, seeds {sorted(seeds[workload])}")
        for name, values in sorted(metrics.items()):
            if len(values) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            flag = " <-- above bound/3" if bound is not None and spread > bound / 3 else ""
            print(f"  {name:40s} median {q2:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {spread:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
