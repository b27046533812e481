"""Tests of the benchmark itself: inputs, answers, checks and tracing.

Run with: python -m pytest perfbench/tests
"""

import json
import time
from pathlib import Path

import pytest

import generators as gen
import homrep
import homrep.cli  # noqa: F401  (ClassifyOp calls homrep.cli.main)
from run import END_TO_END, UNITS
from spans import Tracer, layer_metrics
from workloads import (CORPUS_PER_N, ClassifyOp, Op, OpResult, VerifyOp,
                       automorphism_problem, determinant, fastest, measure, nearest_rank)

SMALL = {"cycle": 12, "path": 9, "star": 6, "tree_cherry": 9,
         "decorated_periodic": 64, "decorated_aperiodic": 32,
         "cycle_chords": 20, "k4_tree": 10}
RANDOM_FAMILIES = ("tree_cherry", "decorated_periodic", "decorated_aperiodic",
                   "cycle_chords", "k4_tree")


def test_small_sizes_cover_every_family():
    assert set(SMALL) == set(gen.CLASSIFY_FAMILIES)


@pytest.mark.parametrize("family", gen.CLASSIFY_FAMILIES)
def test_generators_are_deterministic(family):
    for n in gen.CLASSIFY_SIZES:
        assert gen.classify_case(7, family, n) == gen.classify_case(7, family, n)
    if family in RANDOM_FAMILIES:
        assert (gen.classify_case(1, family, 256).edges
                != gen.classify_case(2, family, 256).edges)


def test_classify_cases_are_every_family_at_every_size():
    cases = gen.classify_cases(3)
    assert [(c.family, c.n) for c in cases if c.family != "decorated_aperiodic"] == [
        (f, n) for f in gen.CLASSIFY_FAMILIES if f != "decorated_aperiodic"
        for n in gen.CLASSIFY_SIZES]
    assert [c.n for c in cases if c.family == "decorated_aperiodic"] == [
        n + 1 for n in gen.CLASSIFY_SIZES]


@pytest.mark.parametrize("family", gen.CLASSIFY_FAMILIES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_family_verdicts_agree_with_brute_force(family, seed):
    case = gen.classify_case(seed, family, SMALL[family])
    g = homrep.Graph(case.n, case.edges)
    assert homrep.representation(g).faithful == case.faithful
    v = homrep.classify(g)
    assert (v.faithful, v.reason, v.root, v.period) == (
        case.faithful, case.reason, case.root, case.period)
    assert homrep.betti(g) == case.betti
    assert len(homrep.block_decomposition(g).bridges) == case.bridges


@pytest.mark.parametrize("case", [c for c in gen.group_cases()
                                  if c.n < 63 and c.group_order <= 5040],
                         ids=lambda c: c.name)
def test_group_closed_forms_agree_with_brute_force(case):
    rep = homrep.representation(homrep.Graph(case.n, case.edges))
    assert (rep.group_order, len(rep.kernel), rep.faithful) == (
        case.group_order, case.kernel_size, case.faithful)


@pytest.mark.parametrize("case", [c for c in gen.group_cases() if c.n < 63],
                         ids=lambda c: c.name)
def test_graph6_round_trips_through_homrep(case):
    g = homrep.parse_graph6(gen.graph6(case.n, case.edges))
    assert (g.n, g.edges) == (case.n, case.edges)


def test_edge_list_text_parses_to_the_same_graph():
    case = gen.classify_case(1, "k4_tree", 128)
    g = homrep.parse_edge_list(gen.edge_list_text(case.n, case.edges))
    assert (g.n, g.edges) == (case.n, case.edges)


def test_automorphism_check():
    edges = [(0, 1), (1, 2)]
    assert automorphism_problem(3, edges, (2, 1, 0)) is None
    assert automorphism_problem(3, edges, (1, 0, 2)) == "edge (1, 2) is not preserved"
    assert automorphism_problem(3, edges, (0, 0, 2)) == "not a permutation of the vertices"


def test_determinant():
    assert determinant([]) == 1
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4
    assert determinant([[1, 2], [2, 4]]) == 0


def test_classify_op_passes_and_catches_a_wrong_verdict(tmp_path):
    case = gen.classify_case(1, "decorated_periodic", 128)
    path = tmp_path / "g.txt"
    path.write_text(gen.edge_list_text(case.n, case.edges))
    op = ClassifyOp(homrep, case, str(path))
    [result] = measure([op], 0)
    assert result.error is None and result.problems == []
    rc, verdict, info, witness = op.call()
    wrong = json.dumps({**json.loads(verdict), "witness": {"period": case.period + 1}})
    assert op.check((rc, wrong, info, witness))
    identity = homrep.identity_automorphism(op.graph)
    assert any("identity" in p for p in op.check((rc, verdict, info, identity)))


class _Failing(Op):
    label = "deep"
    n = 1000

    def call(self):
        raise RecursionError

    def check(self, out):
        raise AssertionError("a failed operation has no output to check")


class _Garbled(Op):
    label = "garbled"

    def call(self):
        return "{}"

    def check(self, out):
        return json.loads(out)["verdict"]


def test_malformed_output_is_wrong_not_a_crash():
    [result] = measure([_Garbled()], 0)
    assert result.error is None
    assert result.problems == ["garbled: unreadable output (KeyError: 'verdict')"]


def test_failures_are_counted_and_the_run_goes_on():
    results = measure([_Failing(), _Failing()], 1.0)  # quick, but never repeated
    assert [r.error for r in results] == ["RecursionError"] * 2
    assert all(r.error and len(r.samples) == 1 for r in fastest(results))


class _Timed(Op):
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds


def test_measure_repeats_the_operations_near_the_median(monkeypatch):
    import workloads
    monkeypatch.setattr(workloads, "run_op", lambda op: OpResult(op.label, 1, op.seconds))
    ops = [_Timed("a", 0.05), _Timed("slow", 2.0), _Timed("b", 0.075)]
    labels = [r.label for r in measure(ops, 1.0)]
    # the median first attempt is 0.075 s, so a and b are cheap; a round
    # takes 0.125 s, so eight rounds fill the second
    assert labels == ["a", "slow", "b"] + ["a", "b"] * 8
    assert [r.label for r in measure(ops, 0)] == ["a", "slow", "b"]


def test_measure_spreads_the_rounds_over_the_pass(monkeypatch):
    import workloads
    clock = [0.0]

    def run_op(op):
        clock[0] += op.seconds
        return OpResult(op.label, 1, op.seconds)

    monkeypatch.setattr(workloads, "run_op", run_op)
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: clock[0])
    ops = [_Timed("a", 0.05), _Timed("b", 0.075), _Timed("slow1", 3.0), _Timed("c", 0.05),
           _Timed("slow2", 3.0)]
    labels = [r.label for r in measure(ops, 1.0)]
    # a round follows each slow operation, with the cheap ones run so far;
    # the median first attempt is then 0.075 s, then 0.075 s again
    assert labels == (["a", "b", "slow1", "a", "b", "c", "slow2", "a", "b", "c"]
                      + ["a", "b", "c"] * 4)


def test_measure_calls_between_after_every_attempt(monkeypatch):
    import workloads
    monkeypatch.setattr(workloads, "run_op", lambda op: OpResult(op.label, 1, op.seconds))
    calls = []
    ops = [_Timed("slow", 2.0), _Timed("a", 0.05), _Timed("b", 0.05)]
    results = measure(ops, 1.0, between=lambda: calls.append(len(calls)))
    assert len(calls) == len(results) == 3 + 2 * 10


def test_corpus_shapes_follow_homreps_enumeration():
    def shape(g):
        adj = [set() for _ in range(g.n)]
        for u, v in g.edges:
            adj[u].add(v)
            adj[v].add(u)
        return (g.n, len(g.edges), tuple(sorted(
            (len(a), tuple(sorted(len(adj[u]) for u in a))) for a in adj)))

    shapes = gen.corpus_shapes(5)
    assert shapes == [shape(g) for n in range(2, 6) for g in homrep.enumerate_connected_graphs(n)]
    assert len(shapes) == sum(CORPUS_PER_N[n] for n in range(2, 6))


class _FakeVerifier:
    """verify_corpus over three graphs, 10 ms each."""

    def verify_corpus(self, n_max, *, sample_seed, progress):
        for count in (1, 2, 3):
            time.sleep(0.01)
            progress(6, count)


def test_verify_op_times_each_graph_at_its_shapes_fastest_and_skips_between():
    op = VerifyOp(_FakeVerifier(), seed=1, shapes=["x", "y", "x"],
                  between=lambda: time.sleep(0.05))
    result = measure([op], 0)[0]
    times = [s for s, _ in result.samples]
    assert 0.01 <= min(times) and max(times) < 0.04
    assert times[0] == times[2] == min(op.stamps[0][1] - op.stamps[0][0],
                                       op.stamps[2][1] - op.stamps[2][0])


def test_end_to_end_times_rank_failures_last():
    from run import end_to_end
    results = [OpResult("a", 500, 0.1, samples=[(0.1, 500)]),
               OpResult("b", 1000, 0.3, samples=[(0.3, 1000)]),
               OpResult("c", 2000, 0.01, error="RecursionError", samples=[(0.01, 2000)])]
    report = end_to_end(results, setup_s=0.1)
    assert report["graphs_per_s"] == pytest.approx(1 / 0.3)
    assert report["ms_per_kvertex_p50"] == pytest.approx(300)
    assert report["fail_ratio"] == pytest.approx(1 / 3)


def test_fastest_keeps_each_operations_best_pass_and_any_failure():
    attempts = [OpResult("a", 1, 2.0), OpResult("b", 1, 1.0),
                OpResult("a", 1, 1.5), OpResult("b", 1, 0.5, error="RecursionError")]
    assert [(r.label, r.seconds, r.error) for r in fastest(attempts)] == [
        ("a", 1.5, None), ("b", 0.5, "RecursionError")]


def test_nearest_rank_ranks_failures_last():
    assert nearest_rank([3.0, 1.0, 2.0], 0, 0.5) == 2.0
    assert nearest_rank([3.0, 1.0, 2.0], 1, 0.5) == 2.0
    assert nearest_rank([3.0, 1.0, 2.0], 1, 0.75) == 3.0
    with pytest.raises(ValueError):
        nearest_rank([1.0], 2, 0.5)


def test_self_time_on_a_synthetic_call_tree():
    # a spans [0, 10] and calls b twice: [1, 4] (which calls c over [2, 3])
    # and [5, 9]
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    c = tracer.wrap(lambda: None, "c")

    def b_body(inner):
        if inner:
            c()
    b = tracer.wrap(b_body, "b")
    a = tracer.wrap(lambda: (b(True), b(False)), "a")
    a()
    calls, self_s = tracer.totals()
    assert dict(calls) == {"a": 1, "b": 2, "c": 1}
    assert dict(self_s) == {"a": 3.0, "b": 6.0, "c": 1.0}


def test_generator_items_are_spans():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))

    def gen3():
        yield from range(3)
    assert list(tracer.wrap(gen3, "g")()) == [0, 1, 2]
    calls, _ = tracer.totals()
    assert calls["g"] == 4  # three items and the final StopIteration


def test_tracer_patches_every_namespace_and_restores_them():
    original = homrep.rep._is_kernel_perm
    post_init = homrep.Automorphism.__post_init__
    tracer = Tracer()
    with tracer:
        wrapped = homrep.rep._is_kernel_perm
        assert wrapped is not original
        assert homrep.verify._is_kernel_perm is wrapped
        homrep.verify_corpus(3)
    assert homrep.rep._is_kernel_perm is original
    assert homrep.verify._is_kernel_perm is original
    assert homrep.Automorphism.__post_init__ is post_init
    calls, _ = tracer.totals()
    assert calls["verify.verify_corpus"] == 1
    # one span per graph and one per exhausted generator: n=2, then n=3
    assert calls["graphs.enumerate_connected_graphs"] == (1 + 1) + (4 + 1)
    metrics = layer_metrics(tracer, graphs=5, output_bytes=0, overhead_ratio=1.0)
    assert metrics["rep.kernel_scan.calls"][0] == calls["rep._is_kernel_perm"] > 0
    assert 0 < metrics["rep.kernel_scan.hit_ratio"][0] <= 1
    assert metrics["autgroup.search.perms"][0] >= metrics["autgroup.search.calls"][0] > 0


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, UNITS[k]) for k in END_TO_END]
    layers = layer_metrics(Tracer(), graphs=1, output_bytes=0, overhead_ratio=1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (k, u) for k, (_, u) in layers.items()]


def _report_file(path, backend, values):
    lines = [json.dumps({"report": {"workload": "w", "seed": s, "trace": 0,
                                    "env": {"backend": backend, "python": "3", "nproc": 2},
                                    "metrics": {"graphs_per_s": v, "graph_ms_p99": None}}})
             for s, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_compare_flags_regressions_and_refuses_mixed_backends(tmp_path, capsys):
    import compare
    base = _report_file(tmp_path / "a", "python", [10.0, 10.1, 9.9, 10.0])
    same = _report_file(tmp_path / "b", "python", [10.0, 10.2, 9.8, 10.1])
    slower = _report_file(tmp_path / "c", "python", [5.0, 5.1, 4.9, 5.0])
    other = _report_file(tmp_path / "d", "cython", [10.0, 10.1, 9.9, 10.0])
    assert compare.main([base, same]) == 0
    assert compare.main([base, slower]) == 1
    assert "WORSE" in capsys.readouterr().out
    assert compare.main([base, other]) == 2
    assert "refusing" in capsys.readouterr().out


def test_compare_flags_more_failures(tmp_path, capsys):
    import compare

    def failing(path, ratios):
        lines = [json.dumps({"report": {"workload": "w", "seed": s, "trace": 0,
                                        "env": {"backend": "python"},
                                        "metrics": {"fail_ratio": r}}})
                 for s, r in enumerate(ratios)]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    base = failing(tmp_path / "a", [0.125] * 4)
    assert compare.main([base, failing(tmp_path / "b", [0.0] * 4)]) == 0
    assert compare.main([base, failing(tmp_path / "c", [0.25] * 4)]) == 1
    assert "WORSE" in capsys.readouterr().out
