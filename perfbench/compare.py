"""Compare saved benchmark outputs of two commits, metric by metric.

    for s in 1 2 3 4 5 6 7 8 9 10; do
        python3 perfbench/run.py --workload rep_groups --seed $s >> base.txt
    done
    ... the same on the other commit into change.txt ...
    python3 perfbench/compare.py base.txt change.txt

Each file holds the standard output of any number of runs; the report
lines in it are grouped by workload and trace mode.  For every metric
the script prints both medians, the relative change and each side's
quartile spread, and flags a change worse than the bound BENCHMARK.json
gives it.  A metric whose spread exceeds its bound is unresolved.  Any
rise in the median fail_ratio is flagged too, since a gain does not
count when more operations fail.  Exit code 1 when anything is flagged.
Runs made on different backends are never compared: exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def load(path: str) -> tuple[set[str], dict]:
    """Backends seen, and metric values by (workload, trace, metric)."""
    backends = set()
    values: dict = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        if not line.startswith('{"report"'):
            continue
        report = json.loads(line)["report"]
        backends.add(report["env"]["backend"])
        for key, value in report["metrics"].items():
            if value is not None:
                values[report["workload"], report["trace"], key].append(value)
    return backends, values


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("nan")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    (old_backends, old), (new_backends, new) = load(argv[0]), load(argv[1])
    if len(old_backends | new_backends) > 1:
        print(f"refusing to compare across backends: {sorted(old_backends)} "
              f"vs {sorted(new_backends)}")
        return 2
    status = 0
    print(f"{'workload':15} {'metric':42} {'old':>12} {'new':>12} {'change':>8} "
          f"{'spread':>13}  verdict")
    for key in sorted(old.keys() & new.keys()):
        workload, _, metric = key
        a, b = statistics.median(old[key]), statistics.median(new[key])
        change = (b - a) / a if a else float("nan")
        worse = -change if BETTER.get(metric, "lower") == "higher" else change
        bound = BOUND.get(metric)
        spreads = (spread(old[key]), spread(new[key]))
        verdict = ""
        if metric == "fail_ratio":
            if b > a:
                verdict, status = "WORSE", 1
            else:
                verdict = "ok"
        elif bound is not None:
            if max(spreads) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict, status = "WORSE", 1
            else:
                verdict = "ok"
        print(f"{workload:15} {metric:42} {a:12.5g} {b:12.5g} {change:+8.1%} "
              f"{spreads[0]:6.1%} {spreads[1]:6.1%}  {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
