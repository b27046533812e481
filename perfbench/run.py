"""Benchmark of homrep: three workloads, end-to-end and per-layer metrics.

Run from the root of a homrep checkout; the package is imported from
its src/ directory:

    python3 perfbench/run.py --workload classify_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all      # each workload in its own process

Workloads (see workloads.py): verify_corpus, classify_large, rep_groups.
With --trace 0 a run makes one pass over the workload and runs its
cheap operations again, in rounds spread through the run, for --seconds
of rounds (workloads.measure); it checks every output and reports the
end-to-end metrics from each operation's fastest attempt.  With --trace 1 it times an untraced reference, then
one pass with every homrep function wrapped in a span (spans.py), and
reports the per-layer metrics.

The last line of output is one JSON object with the keys correct,
attempted, failed and metrics.  The line before it is a fuller report:
the environment (backend, Python version, nproc), every metric of the
issue's table including those that apply to one workload only, and the
exception type of each failed operation.  compare.py compares saved
outputs of two commits.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from spans import Tracer, layer_metrics
from workloads import WORKLOADS, OpResult, fastest, measure, nearest_rank

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
# set-up is timed this many times before the workload and as many after,
# and once every SETUP_EVERY seconds of it; setup_s is the median of all
SETUP_RUNS = 4
SETUP_EVERY = 2.0

UNITS = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "graph_ms_p99": "ms",
    "ms_per_kvertex_p50": "ms/kvertex",
    "us_per_element_p50": "us/element",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# The result line carries the metrics that every workload has, that are
# never 0 and that fixing a failure cannot make worse: the times are
# quantiles that rank a failed operation after every success.
# graph_ms_p99 and us_per_element_p50 exist for one workload each,
# fail_ratio is 0 once nothing fails, and peak_rss_mb rises when a failing
# operation starts to succeed, so those four appear in the report line
# only; the result line's attempted and failed give the failure ratio.
END_TO_END = ("setup_s", "graphs_per_s", "ms_per_kvertex_p50")


def load_homrep():
    """Import homrep from this checkout's src/, and nowhere else."""
    init = SRC / "homrep" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run the benchmark inside a homrep checkout")
    sys.path.insert(0, str(SRC))
    import homrep
    import homrep.cli  # noqa: F401  (the workloads call homrep.cli.main)
    if Path(homrep.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported homrep from {homrep.__file__}, not {init}")
    return homrep


def environment(homrep) -> dict:
    # a homrep without BACKEND has only the pure-Python search kernel
    return {"backend": getattr(homrep, "BACKEND", "python"),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


class SetupTimes:
    """Times for a fresh interpreter to import homrep.cli and exit.

    A shared host runs slower for stretches of seconds, so set-up is
    timed throughout the run, not in one burst: call the object between
    operations and it times one set-up when SETUP_EVERY seconds have
    passed since the last.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.cmd = [sys.executable, "-c", "import homrep.cli"]
        subprocess.run(self.cmd, env=self.env, check=True)  # writes the bytecode caches
        self.times: list[float] = []
        self.last = 0.0
        self.burst(SETUP_RUNS)

    def burst(self, runs: int) -> None:
        for _ in range(runs):
            t0 = time.perf_counter()
            subprocess.run(self.cmd, env=self.env, check=True)
            self.last = time.perf_counter()
            self.times.append(self.last - t0)

    def __call__(self) -> None:
        if time.perf_counter() - self.last >= SETUP_EVERY:
            self.burst(1)


def end_to_end(results: list[OpResult], setup_s: float) -> dict:
    """Every metric of the issue's table; None where one does not apply.

    Failed operations rank after every success in the percentiles.
    """
    ok = [r for r in results if r.error is None]
    failed = len(results) - len(ok)
    per_graph_ms = [s * 1e3 for r in ok for s, _ in r.samples]
    per_kvertex = [s * 1e3 / (n / 1e3) for r in ok for s, n in r.samples]
    with_elements = [r for r in results if r.elements]
    per_element = [r.seconds * 1e6 / r.elements for r in with_elements if r.error is None]
    return {
        "setup_s": setup_s,
        # graphs per second at the median graph
        "graphs_per_s": 1e3 / nearest_rank(per_graph_ms, failed, 0.5),
        # a p99 needs at least ten samples beyond it
        "graph_ms_p99": (nearest_rank(per_graph_ms, failed, 0.99)
                         if len(per_graph_ms) + failed >= 1000 else None),
        "ms_per_kvertex_p50": nearest_rank(per_kvertex, failed, 0.5),
        "us_per_element_p50": (
            nearest_rank(per_element, len(with_elements) - len(per_element), 0.5)
            if with_elements else None),
        "fail_ratio": failed / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def overhead_ratio(reference: list[OpResult], traced: list[OpResult]) -> float:
    """Traced over untraced seconds, over the graphs the reference covered."""
    ref = [s for r in reference for s, _ in r.samples]
    tr = [s for r in traced for s, _ in r.samples][:len(ref)]
    return sum(tr) / sum(ref)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> None:
    homrep = load_homrep()
    env = environment(homrep)
    WORKDIR.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
            workload = WORKLOADS[name](homrep, seed, workdir)
            # what exists now lives through the run: keep it out of every
            # collection, so the one before each attempt takes microseconds
            gc.freeze()
            if trace:
                reference = measure(workload.reference_ops(), 0)
                tracer = Tracer()
                with tracer:
                    results = measure(workload.ops(), 0)
                checked = reference + results
                graphs = sum(len(r.samples) for r in results)
                layers = layer_metrics(tracer, graphs, sum(r.output_bytes for r in results),
                                       overhead_ratio(reference, results))
                metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
                report = {k: v for k, (v, _) in layers.items()}
            else:
                setup = SetupTimes()
                checked = measure(workload.ops(setup), seconds, setup)
                setup.burst(SETUP_RUNS)
                results = fastest(checked)
                report = end_to_end(results, statistics.median(setup.times))
                metrics = {k: {"value": report[k], "unit": UNITS[k]} for k in END_TO_END}
    finally:
        try:
            WORKDIR.rmdir()
        except OSError:  # another run still uses it
            pass

    problems = [p for r in checked for p in r.problems]
    # attempted and failed count operations, not attempts: how many
    # rounds of the cheap ones fit in the run varies from run to run
    failures = Counter(f"{r.label}: {r.error}" for r in results if r.error)
    print(f"workload {name}, seed {seed}, trace {int(trace)}: {len(results)} operations, "
          f"{len(checked)} attempts, {sum(r.seconds for r in checked):.2f} s timed; "
          + ", ".join(f"{k}={v}" for k, v in env.items()))
    for key, value in report.items():
        unit = UNITS.get(key) or metrics[key]["unit"]
        print(f"  {key:42} {'n/a' if value is None else format(value, '.6g'):>12} {unit}")
    for failure, count in sorted(failures.items()):
        print(f"  failed x{count}: {failure}")
    for p in problems:
        print(f"  WRONG: {p}", file=sys.stderr)
    print(json.dumps({"report": {"workload": name, "seed": seed, "trace": int(trace),
                                 "env": env, "metrics": report,
                                 "failures": dict(failures)}}))
    print(json.dumps({"correct": not problems, "attempted": len(results),
                      "failed": sum(1 for r in results if r.error), "metrics": metrics}))


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, then one table of the metrics."""
    reports = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        reports[name] = json.loads(lines[-2])["report"]
        if not json.loads(lines[-1])["correct"]:
            status = 1
    keys = list(next(iter(reports.values()))["metrics"]) if reports else []
    print(f"{'metric':42} {'unit':>10}" + "".join(f"{n:>16}" for n in reports))
    for key in keys:
        cells = "".join(
            f"{'n/a' if r['metrics'][key] is None else format(r['metrics'][key], '.5g'):>16}"
            for r in reports.values())
        print(f"{key:42} {UNITS.get(key, ''):>10}{cells}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
