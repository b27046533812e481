"""Span tracing of homrep from outside, and the per-layer metrics.

The tracer replaces homrep's functions with wrappers that record one
span per call: name, parent span, start and end.  It patches every
namespace that binds a function, so calls between modules, calls inside
a module and the names re-exported by the package all go through the
wrapper.  No file under src/ changes.

Wrapped: every function defined at module level in a homrep module,
private helpers included (generator functions get one span per item
produced), Automorphism.__post_init__ and IntMatrix's methods.  Spans
are kept in memory as parallel arrays and turned into metrics when the
run ends.  A span's self time is its duration minus the durations of
its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

# methods traced besides module-level functions
METHODS = {
    "autgroup": {"Automorphism": ("__post_init__",)},
    "matrices": {"IntMatrix": ("__post_init__", "__matmul__", "transpose",
                               "is_identity", "to_json")},
}

# the automorphism search backend counts as the `autgroup.search` layer
SEARCH_MODULES = ("_kernels", "_kernels_py")
# search entry points, outermost first: the backend dispatcher, else the
# pure kernel itself
SEARCH_ENTRIES = ("_kernels.search_automorphisms", "_kernels_py.search_automorphisms")
KERNEL_SCAN = "rep._is_kernel_perm"

# return value -> amount added to the counter of the same name
RESULT_COUNTERS = {**{name: len for name in SEARCH_ENTRIES}, KERNEL_SCAN: int}


class Tracer:
    """Records spans of wrapped calls; `install` patches, `uninstall` undoes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.span_name = array("I")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._ids: dict[str, int] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        """A wrapper of fn that records a span named `name` per call."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, clock = self.span_start, self.span_end, self._stack, self.clock

        def open_span() -> int:
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            return idx

        def close_span(idx: int) -> None:
            ends[idx] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    yield item
            return gen_wrapper

        count = RESULT_COUNTERS.get(name)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if count is not None:
                counters[name] += count(result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every traced homrep function in every namespace binding it."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if (name == "homrep" or name.startswith("homrep.")) and mod is not None}
        wrappers = {}
        for modname, mod in modules.items():
            short = modname.rpartition(".")[2]
            for attr, value in vars(mod).items():
                if inspect.isfunction(value) and value.__module__ == modname:
                    wrappers[value] = self.wrap(value, f"{short}.{attr}")
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if fn is not None:  # a method the code no longer has reads 0
                        self._patch(cls, meth, self.wrap(fn, f"{short}.{cls_name}.{meth}"))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, wrappers[value])

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        child = array("d", bytes(8 * len(self.span_start)))
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        # a child is always recorded after its parent, so walking backwards
        # finishes every child before its parent is reached
        for i in range(len(starts) - 1, -1, -1):
            dur = ends[i] - starts[i]
            name = self.names[names[i]]
            calls[name] += 1
            self_s[name] += dur - child[i]
            if parents[i] >= 0:
                child[parents[i]] += dur
        return calls, self_s


def layer_of(name: str) -> str:
    module = name.partition(".")[0]
    return "autgroup.search" if module in SEARCH_MODULES else module


def layer_metrics(tracer: Tracer, graphs: int, output_bytes: int,
                  overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, as (value, unit)."""
    calls, self_s = tracer.totals()
    layer_self: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    for name, s in self_s.items():
        layer_self[layer_of(name)] += s
        layer_calls[layer_of(name)] += calls[name]

    def per_graph(*names: str) -> float:
        return sum(calls[n] for n in names) / graphs if graphs else 0.0

    search = next((name for name in SEARCH_ENTRIES if calls[name]), SEARCH_ENTRIES[0])
    scans = calls[KERNEL_SCAN]
    return {
        "graphs.self_s": (layer_self["graphs"], "s"),
        "graphs.require_connected.calls_per_graph":
            (per_graph("graphs.require_connected"), "count/graph"),
        "graphs.parse.self_s":
            (self_s["graphs.parse_edge_list"] + self_s["graphs.parse_graph6"], "s"),
        "cycles.self_s": (layer_self["cycles"], "s"),
        "cycles.bases_per_graph": (per_graph(
            "cycles.spanning_tree_basis", "cycles.random_spanning_tree_basis",
            "cycles.basis_from_tree"), "count/graph"),
        "autgroup.search.self_s": (layer_self["autgroup.search"], "s"),
        "autgroup.search.calls": (calls[search], "count"),
        "autgroup.search.perms": (tracer.counters[search], "count"),
        "autgroup.automorphism.self_s": (self_s["autgroup.Automorphism.__post_init__"], "s"),
        "rep.matrix.self_s": (self_s["rep._matrix_columns"], "s"),
        "rep.matrix.calls": (calls["rep._matrix_columns"], "count"),
        "rep.kernel_scan.self_s": (self_s[KERNEL_SCAN], "s"),
        "rep.kernel_scan.calls": (scans, "count"),
        "rep.kernel_scan.hit_ratio":
            (tracer.counters[KERNEL_SCAN] / scans if scans else 0.0, "ratio"),
        "matrices.self_s": (layer_self["matrices"], "s"),
        "matrices.calls": (layer_calls["matrices"], "count"),
        "blocks.self_s": (layer_self["blocks"], "s"),
        "blocks.decomposition.calls_per_graph":
            (per_graph("blocks.block_decomposition"), "count/graph"),
        "blocks.hanging_codes.self_s": (self_s["blocks._hanging_tree_codes"], "s"),
        "classify.self_s": (layer_self["classify"], "s"),
        "classify.witness.self_s": (self_s["classify.witness_kernel_element"], "s"),
        "verify.self_s": (layer_self["verify"], "s"),
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
