"""The benchmark workloads: timed operations and the checks on their output.

Every workload is a closed loop with a single client: the next operation
starts only when the previous one has returned, with no threads and no
worker processes.  Every run covers the same inputs: each operation runs
once, and the cheap ones run again in rounds for the run length; each
operation's fastest attempt counts.  A shared host runs slower for
stretches of milliseconds to minutes, and an operation of a few
milliseconds, tried a hundred times, finds a calm stretch in every run,
where one of a tenth of a second does not.

A failed operation (an exception, or an exit code the program uses for
refusal) is counted and kept, with its exception type; it never stops
the run.  Outputs of the operations that completed are checked after
their timed region against answers the benchmark derives itself; a
wrong answer makes the run incorrect, not slow.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction

import generators as gen

# labeled connected graphs on n vertices, n = 2..6
CORPUS_PER_N = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}
# measure(): which operations run again in rounds, and how often a round
# may interrupt the first pass
CHEAP_FACTOR = 3
ROUND_GAP_S = 2.0


@dataclass
class OpResult:
    label: str
    n: int
    seconds: float
    error: str | None = None
    elements: int | None = None  # group elements the operation enumerates
    # per-graph (seconds, vertices) samples; one per operation unless the
    # operation reports progress graph by graph.  A failed operation has
    # one sample, the time it took to fail.
    samples: list[tuple[float, int]] = field(default_factory=list)
    output_bytes: int = 0
    problems: list[str] = field(default_factory=list)


class OpFailed(Exception):
    """The program refused an operation through its exit code."""


class Op:
    """One operation: `call` is timed, `check` inspects its result later."""

    label = ""
    n = 0
    elements: int | None = None

    def call(self):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def samples(self, t0: float, t1: float) -> list[tuple[float, int]]:
        return [(t1 - t0, self.n)]

    def output_bytes(self, out) -> int:
        return 0


def run_cli(homrep, argv: list[str], allowed: tuple[int, ...]) -> tuple[int, str]:
    """Run `homrep <argv>` in-process; its exit code and what it printed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        rc = homrep.cli.main(argv)
    if rc not in allowed:
        raise OpFailed(f"exit {rc}")
    return rc, sink.getvalue()


def idle() -> None:
    """The default work between operations: none."""


def run_op(op: Op) -> OpResult:
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # the program failed; count it and go on
        t1 = time.perf_counter()
        error = str(exc) if isinstance(exc, OpFailed) else type(exc).__name__
        return OpResult(op.label, op.n, t1 - t0, error=error, elements=op.elements,
                        samples=[(t1 - t0, op.n)])
    t1 = time.perf_counter()
    try:
        problems = op.check(out)
    except (LookupError, TypeError, ValueError) as exc:  # malformed output
        problems = [f"{op.label}: unreadable output ({type(exc).__name__}: {exc})"]
    return OpResult(op.label, op.n, t1 - t0, elements=op.elements,
                    samples=op.samples(t0, t1), output_bytes=op.output_bytes(out),
                    problems=problems)


def measure(ops: list[Op], seconds: float, between=idle) -> list[OpResult]:
    """Every attempt, in order.  Each operation runs once.  The cheap ones
    run again in rounds until the rounds have timed `seconds`: a round
    follows any attempt that ends ROUND_GAP_S after the last round, and
    the rest run after the pass, so the attempts spread over the whole
    run.  `between` runs after every attempt, outside its timed region.

    An operation is cheap when it succeeded, its first attempt took at
    most CHEAP_FACTOR times the median first attempt so far, and ten
    attempts fit in `seconds`.  The operations near the median are then
    never a single attempt, however slow the host was when they first ran.
    """
    out: list[OpResult] = []
    first: list[OpResult] = []
    timed = 0.0
    last = time.perf_counter()

    def attempt(op: Op) -> OpResult:
        r = run_op(op)
        out.append(r)
        between()
        return r

    def one_round() -> None:
        nonlocal timed, last
        limit = min(CHEAP_FACTOR * statistics.median(r.seconds for r in first), seconds / 10)
        for op, r in zip(ops, first):
            if r.error is None and r.seconds <= limit:
                timed += attempt(op).seconds
        last = time.perf_counter()

    for op in ops:
        first.append(attempt(op))
        if timed < seconds and time.perf_counter() - last >= ROUND_GAP_S:
            one_round()
    while timed < seconds:
        before = timed
        one_round()
        if timed == before:  # nothing is cheap
            break
    return out


def fastest(results: list[OpResult]) -> list[OpResult]:
    """Each operation's fastest attempt, which filters out the bursts of
    contention a shared host adds for a few seconds at a time.  An
    operation that failed in any attempt counts as failed."""
    by_op: dict[str, list[OpResult]] = {}
    for r in results:
        by_op.setdefault(r.label, []).append(r)
    out = []
    for runs in by_op.values():
        failed = [r for r in runs if r.error]
        out.append(failed[0] if failed else min(runs, key=lambda r: r.seconds))
    return out


# ---------------------------------------------------------------- checks

def automorphism_problem(n: int, edges, perm) -> str | None:
    """Why perm is not an edge-preserving permutation of 0..n-1, or None."""
    if len(perm) != n or sorted(perm) != list(range(n)):
        return "not a permutation of the vertices"
    present = set(edges)
    for u, v in edges:
        a, b = perm[u], perm[v]
        if ((a, b) if a < b else (b, a)) not in present:
            return f"edge ({u}, {v}) is not preserved"
    return None


def determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((r for r in range(k, len(a)) if a[r][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for r in range(k + 1, len(a)):
            f = a[r][k] / a[k][k]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[k])]
    return det


# ---------------------------------------------------------------- verify_corpus

class VerifyOp(Op):
    """verify_corpus(6) over all 27,475 labeled connected graphs."""

    label = "verify_corpus(6)"
    n = 6

    def __init__(self, homrep, seed: int, shapes: list, limit: int | None = None,
                 between=idle):
        self.homrep = homrep
        self.seed = seed
        self.shapes = shapes
        self.limit = limit
        self.between = between  # runs after every graph, outside its time
        self.stamps: list[tuple[float, float]] = []  # each graph's start and end

    def call(self):
        stamps = self.stamps = []
        limit, between = self.limit, self.between
        start = time.perf_counter()

        def progress(n, count):
            nonlocal start
            stamps.append((start, time.perf_counter()))
            if limit is not None and len(stamps) >= limit:
                raise _Enough
            between()
            start = time.perf_counter()

        try:
            return self.homrep.verify_corpus(6, sample_seed=self.seed, progress=progress)
        except _Enough:
            return None

    def samples(self, t0, t1):
        """Each graph at the fastest time a graph of its shape took.

        One pass checks each graph once, so a graph has no second attempt
        to take the fastest of; the graphs of one shape, hundreds at
        n = 6 and spread over the whole pass, stand in for attempts.  A
        shared host runs slower for stretches of milliseconds to seconds,
        which moves the median of the raw times by a quarter between runs.
        """
        raw = [end - start for start, end in self.stamps]
        fastest: dict[tuple, float] = {}
        for shape, s in zip(self.shapes, raw):
            fastest[shape] = min(s, fastest.get(shape, s))
        return [(fastest[shape], shape[0]) for shape in self.shapes[:len(raw)]]

    def check(self, summary) -> list[str]:
        if summary is None:  # stopped early on purpose
            return []
        problems = []
        if not summary.ok:
            problems.append(f"verifier reports a failure: {summary.failure}")
        if summary.per_n != CORPUS_PER_N:
            problems.append(f"graph counts {summary.per_n} != {CORPUS_PER_N}")
        return problems


class _Enough(Exception):
    """Stops a verifier run once it has checked enough graphs."""


class Workload:
    """A fixed list of operations built from the seed."""

    name = ""

    def __init__(self, ops: list[Op]):
        self._ops = ops

    def ops(self, between=idle) -> list[Op]:
        """The operations; those that run long call `between` now and then
        from inside, as measure() does between operations."""
        return self._ops

    def reference_ops(self) -> list[Op]:
        """The untraced operations the trace overhead is measured against."""
        return self._ops


class VerifyCorpus(Workload):
    """ROADMAP workload (a): most of tier-1's wall time.  Tens of
    thousands of tiny graphs, so per-call overheads dominate; every layer
    except the CLI runs."""

    name = "verify_corpus"
    # one pass is 30-45 s on a 2-CPU host, so it is not repeated
    # The untraced reference for the trace overhead stops after this many
    # graphs (all of n <= 5, then the first of n = 6), which keeps a trace
    # run well inside its time limit.
    REFERENCE_GRAPHS = 3000

    def __init__(self, homrep, seed: int, workdir: str):
        self.homrep = homrep
        self.seed = seed
        self.shapes = gen.corpus_shapes(6)
        super().__init__([])

    def ops(self, between=idle) -> list[Op]:
        return [VerifyOp(self.homrep, self.seed, self.shapes, between=between)]

    def reference_ops(self) -> list[Op]:
        return [VerifyOp(self.homrep, self.seed, self.shapes, limit=self.REFERENCE_GRAPHS)]


# ---------------------------------------------------------------- classify_large

class ClassifyOp(Op):
    """`homrep classify --json` and `homrep info --json` on one edge-list
    file, then witness_kernel_element when the verdict is not faithful."""

    def __init__(self, homrep, case: gen.Case, path: str):
        self.homrep = homrep
        self.case = case
        self.path = path
        self.graph = homrep.Graph(case.n, case.edges)
        self.label = f"{case.family}-{case.n}"
        self.n = case.n

    def call(self):
        rc, verdict = run_cli(self.homrep, ["classify", "--input", self.path, "--json"], (0, 3))
        _, info = run_cli(self.homrep, ["info", "--input", self.path, "--json"], (0,))
        witness = self.homrep.witness_kernel_element(self.graph) if rc == 3 else None
        return rc, verdict, info, witness

    def output_bytes(self, out) -> int:
        return len(out[1]) + len(out[2])

    def check(self, out) -> list[str]:
        rc, verdict_text, info_text, witness = out
        case = self.case
        problems = []
        if rc != (0 if case.faithful else 3):
            problems.append(f"exit code {rc} does not match faithful={case.faithful}")
        want_witness = None
        if case.reason == gen.SYMMETRIC_PENDANT_TREE:
            want_witness = {"root": case.root}
        elif case.reason == gen.PERIODIC_UNICYCLIC:
            want_witness = {"period": case.period}
        want = {"faithful": case.faithful, "reason": case.reason, "witness": want_witness}
        got = json.loads(verdict_text)
        if got != want:
            problems.append(f"verdict {got} != {want}")
        info = json.loads(info_text)
        want_info = {"n": case.n, "betti": case.betti, "bridges": case.bridges,
                     "unicyclic": case.betti == 1,
                     "periodic": case.reason == gen.PERIODIC_UNICYCLIC,
                     "period": case.period}
        got_info = {k: info[k] for k in want_info}
        got_info["bridges"] = len(info["bridges"])
        if got_info != want_info:
            problems.append(f"info {got_info} != {want_info}")
        if not case.faithful:
            why = ("no witness" if witness is None
                   else automorphism_problem(case.n, case.edges, witness.perm))
            if why is None and list(witness.perm) == list(range(case.n)):
                why = "the identity"
            if why:
                problems.append(f"witness: {why}")
        return [f"{self.label}: {p}" for p in problems]


class ClassifyLarge(Workload):
    """ROADMAP workload (b): classify and info on sparse graphs of 128 to
    4096 vertices, eight families.  Block structure and the classifier
    do the work; trees of 1000 or more vertices expose the recursive
    search, unicyclic graphs the hanging-tree scan."""

    name = "classify_large"
    # One pass is 15-25 s on a 2-CPU host, mostly the graphs of 2048 and
    # 4096 vertices.  The median operations, by time and by ms per
    # kilovertex, take 50-300 ms; their fastest of a dozen attempts still
    # moves by 10-30% between runs on such a host, which is why
    # BENCHMARK.json leaves this workload out of the gated set.

    def __init__(self, homrep, seed: int, workdir: str):
        ops = []
        for case in gen.classify_cases(seed):
            path = os.path.join(workdir, f"{case.family}-{case.n}.txt")
            with open(path, "w") as fh:
                fh.write(gen.edge_list_text(case.n, case.edges))
            ops.append(ClassifyOp(homrep, case, path))
        super().__init__(ops)


# ---------------------------------------------------------------- rep_groups

class RepOp(Op):
    """`homrep rep --tree rand --seed S --json` on one graph."""

    MATRIX_SAMPLE = 12

    def __init__(self, homrep, case: gen.GroupCase, seed: int, workdir: str):
        self.homrep = homrep
        self.case = case
        self.seed = seed
        self.label = case.name
        self.n = case.n
        self.elements = case.group_order
        if case.n < 63:
            source = ["--g6", gen.graph6(case.n, case.edges)]
        else:  # graph6 input covers fewer than 63 vertices
            path = os.path.join(workdir, f"{case.name}.txt")
            with open(path, "w") as fh:
                fh.write(gen.edge_list_text(case.n, case.edges))
            source = ["--input", path]
        self.argv = ["rep", *source, "--tree", "rand", "--seed", str(seed),
                     "--json", *case.flags]

    def call(self):
        return run_cli(self.homrep, self.argv, (0,))[1]

    def output_bytes(self, out) -> int:
        return len(out)

    def check(self, text) -> list[str]:
        case = self.case
        out = json.loads(text)
        problems = []
        got = (out["group_order"], len(out["kernel"]), out["faithful"], out["betti"])
        want = (case.group_order, case.kernel_size, case.faithful, case.betti)
        if got != want:
            problems.append(f"(order, kernel, faithful, betti) {got} != {want}")
        shown = out["matrices"]
        want_shown = case.kernel_size if "--kernel-only" in case.flags else case.group_order
        if len(shown) != want_shown:
            problems.append(f"{len(shown)} matrices printed, expected {want_shown}")
        rng = random.Random(f"{self.seed}:{case.name}")
        picks = rng.sample(range(len(shown)), min(self.MATRIX_SAMPLE, len(shown)))
        for i in picks:
            entry = shown[i]
            why = automorphism_problem(case.n, case.edges, entry["perm"])
            rows = entry["matrix"]["rows"]
            if why:
                problems.append(f"perm {entry['perm']}: {why}")
            elif len(rows) != case.betti or abs(determinant(rows)) != 1:
                problems.append(f"matrix of {entry['perm']} is not a unimodular "
                                f"{case.betti}x{case.betti} matrix")
            if "mod_p" in out:
                p = out["mod_p"]["p"]
                reduced = out["mod_p"]["matrices"][i]["matrix"]["rows"]
                if reduced != [[x % p for x in row] for row in rows]:
                    problems.append(f"mod-{p} matrix of {entry['perm']} is wrong")
        return [f"{self.label}: {p}" for p in problems]


class RepGroups(Workload):
    """ROADMAP workload (c): the matrix of every automorphism for groups
    of 12 to 40,320 elements, printed as JSON.  Matrix building,
    automorphism construction and JSON formatting do the work; block
    structure and the classifier do none.  C1500 exposes the recursive
    search.  The groups of up to 120 elements are the lower half, so the
    median operation takes milliseconds and its fastest attempt is
    steady; with the median on a call of 150 ms, it moved by 30%
    between runs."""

    name = "rep_groups"
    # One pass is 8-12 s on a 2-CPU host, K7 and K8 most of it.

    def __init__(self, homrep, seed: int, workdir: str):
        super().__init__([RepOp(homrep, case, seed, workdir) for case in gen.group_cases()])


WORKLOADS = {w.name: w for w in (VerifyCorpus, ClassifyLarge, RepGroups)}


# ---------------------------------------------------------------- statistics

def nearest_rank(values: list[float], failures: int, q: float) -> float:
    """The q-quantile by nearest rank, failures ranked after every value.

    Raises ValueError when the rank falls on a failure, since no number
    describes it.
    """
    total = len(values) + failures
    rank = max(1, math.ceil(q * total))
    if rank > len(values):
        raise ValueError(f"the {q:.0%} rank falls on a failed operation")
    return sorted(values)[rank - 1]
