import importlib
import random

import pytest

from helpers import colour_refinement_classes, two_core
from homrep import (
    Automorphism,
    CapacityError,
    DisconnectedGraphError,
    Graph,
    OrientedCycle,
    RootedTreeSpec,
    Verdict,
    _kernels,
    blocks,
    build_periodic_unicyclic,
    block_decomposition,
    classify,
    classify_fast_2edge,
    has_nontrivial_automorphism,
    is_periodic_unicyclic,
    named_family,
    pendant_trees,
    representation,
    two_edge_connected_components,
    unique_cycle,
    witness_kernel_element,
)

TRIANGLE_WITH_CHERRY = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5)])

# trees hanging from 2-core vertices that lie in no nontrivial block:
# a cherry on the cutvertex 6 between two triangles, and two equal paths
# on vertex 1 of the bridge path from a triangle to a square
BRIDGE_PATH_TREES = [
    (9, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 6), (6, 3), (6, 7), (6, 8)], 6),
    (13, [(0, 1), (0, 4), (0, 7), (1, 2), (1, 8), (1, 11), (2, 3), (2, 6), (3, 5),
          (4, 7), (4, 9), (5, 6), (8, 10), (11, 12)], 1),
]


def decorated_square():
    g, _ = build_periodic_unicyclic(
        4, 2, [RootedTreeSpec((-1, 0)), RootedTreeSpec((-1, 0, 1))])
    return g


def rigid_binary_tree(depth):
    """The complete binary tree of the given depth in BFS labels, with a
    pendant path of i more vertices at leaf i (left to right): rigid, and
    the permutation search backtracks for minutes on it at depth 5."""
    n = 2 ** (depth + 1) - 1
    edges = [((v - 1) // 2, v) for v in range(1, n)]
    for i, leaf in enumerate(range(2 ** depth - 1, 2 ** (depth + 1) - 1)):
        prev = leaf
        for _ in range(i):
            edges.append((prev, n))
            prev, n = n, n + 1
    return Graph(n, edges)


def random_tree(rng, n, near_path):
    """A uniformly grown random tree, or a path with one to three extra
    vertices hung off random earlier vertices, which is often rigid."""
    spine = n - rng.randrange(1, 4) if near_path else 1
    parents = [v - 1 for v in range(1, spine)] + [rng.randrange(v) for v in range(spine, n)]
    return Graph(n, [(p, v) for v, p in enumerate(parents, start=1)])


class TestClassify:
    def test_symmetric_path(self):
        v = classify(named_family("path", 3))
        assert not v.faithful and v.reason == "TreeWithSymmetry"

    def test_rigid_tree_is_faithful(self):
        rigid = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
        v = classify(rigid)
        assert v.faithful and v.reason == "Faithful"

    def test_k4_faithful(self, k4):
        assert classify(k4).faithful

    def test_decorated_square_is_periodic(self):
        v = classify(decorated_square())
        assert not v.faithful
        assert v.reason == "PeriodicUnicyclic" and v.period == 2

    def test_cherry_reports_pendant_root(self):
        v = classify(TRIANGLE_WITH_CHERRY)
        assert not v.faithful
        assert v.reason == "SymmetricPendantTree" and v.root == 0
        # the brute-force kernel indeed contains the leaf swap (4 5)
        kernel_perms = {f.perm for f in representation(TRIANGLE_WITH_CHERRY).kernel}
        assert (0, 1, 2, 3, 5, 4) in kernel_perms

    def test_bare_cycle(self):
        v = classify(named_family("cycle", 7))
        assert not v.faithful and v.period == 1

    def test_bowtie_faithful(self, bowtie):
        assert classify(bowtie).faithful

    def test_disconnected_rejected(self):
        # the structure accessors reject it too; nothing is memoised for
        # a disconnected graph, so asking twice raises twice
        # the peel leaves every vertex of two disjoint triangles, so a
        # search from what it leaves would reach all of them
        for g in (Graph(4, [(0, 1), (2, 3)]), Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4)]),
                  Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])):
            for fn in (classify, witness_kernel_element, block_decomposition,
                       two_edge_connected_components, pendant_trees,
                       unique_cycle, is_periodic_unicyclic, classify):
                with pytest.raises(DisconnectedGraphError):
                    fn(g)

    def test_one_leaf_per_vertex_is_periodic(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)])
        v = classify(g)
        assert v.reason == "PeriodicUnicyclic" and v.period == 1

    def test_pendant_precedes_periodic(self):
        # 4-cycle with leaf pairs on opposite corners: the pendant trees
        # at 0 and 2 are symmetric AND the cycle rotates with period 2,
        # so both conditions hold; the pendant one is reported
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (0, 3),
                      (0, 4), (0, 5), (2, 6), (2, 7)])
        from homrep import is_periodic_unicyclic
        assert is_periodic_unicyclic(g) == (True, 2)
        v = classify(g)
        assert v.reason == "SymmetricPendantTree" and v.root == 0

    def test_json_shape(self):
        data = classify(TRIANGLE_WITH_CHERRY).to_json()
        assert data == {"faithful": False, "reason": "SymmetricPendantTree",
                        "witness": {"root": 0}}


class TestFastPath:
    def test_k4(self, k4):
        v = classify_fast_2edge(k4)
        assert v is not None and v.faithful

    def test_c7_is_periodic(self):
        v = classify_fast_2edge(named_family("cycle", 7))
        assert v is not None and not v.faithful and v.period == 1

    def test_path_defers(self):
        assert classify_fast_2edge(named_family("path", 3)) is None

    def test_agrees_with_classify(self, corpus5):
        for g in corpus5:
            fast = classify_fast_2edge(g)
            if fast is not None:
                assert fast.faithful == classify(g).faithful


class TestWitness:
    def test_faithful_has_no_witness(self, k4):
        assert witness_kernel_element(k4) is None

    def test_tree_witness(self):
        w = witness_kernel_element(named_family("path", 3))
        assert w is not None and w.perm == (2, 1, 0)

    @pytest.mark.parametrize("name, size", [("path", 1500), ("star", 2000)])
    def test_deep_tree_witness(self, name, size):
        # the search goes one level deeper per vertex, past the
        # interpreter's default recursion limit of 1000
        g = named_family(name, size)
        v = classify(g)
        assert v.reason == "TreeWithSymmetry"
        w = witness_kernel_element(g, v)
        assert isinstance(w, Automorphism) and not w.is_identity()

    def test_pendant_witness_is_kernel_element(self):
        w = witness_kernel_element(TRIANGLE_WITH_CHERRY)
        assert w is not None and not w.is_identity()
        kernel = {f.perm for f in representation(TRIANGLE_WITH_CHERRY).kernel}
        assert w.perm in kernel

    def test_rotation_witness_order(self):
        g = decorated_square()
        w = witness_kernel_element(g)
        assert w is not None and w.order() == 2
        kernel = {f.perm for f in representation(g).kernel}
        assert w.perm in kernel

    def test_deep_pendant_witness(self):
        # triangle with a pendant tree whose symmetric pair sits two
        # levels down and whose subtrees have inner structure; the swap
        # must stay inside the two hanging subtrees
        g = Graph(12, [(0, 1), (0, 2), (1, 2),          # triangle
                       (0, 3), (3, 4), (3, 5),          # fork at 3
                       (4, 6), (6, 7), (4, 8),          # subtree under 4
                       (5, 9), (9, 10), (5, 11)])       # mirror under 5
        v = classify(g)
        assert v.reason == "SymmetricPendantTree" and v.root == 0
        w = witness_kernel_element(g, v)
        assert w is not None and not w.is_identity()
        assert {w.perm[x] for x in (4, 6, 7, 8)} == {5, 9, 10, 11}
        assert all(w.perm[x] == x for x in (0, 1, 2, 3))
        kernel = {f.perm for f in representation(g).kernel}
        assert w.perm in kernel


class TestNoSearch:
    def test_classify_and_witness_never_search(self, monkeypatch, corpus5):
        def refuse(*args):
            raise AssertionError("automorphism search called")
        monkeypatch.setattr(_kernels, "search_automorphisms", refuse)
        monkeypatch.setattr(_kernels, "stabiliser_chain", refuse)
        rigid = rigid_binary_tree(5)
        cycle, _ = build_periodic_unicyclic(
            12, 3, [RootedTreeSpec((-1, 0)), RootedTreeSpec((-1,)),
                    RootedTreeSpec((-1, 0, 1))])
        graphs = corpus5 + [named_family("path", 1500), named_family("star", 2000),
                            rigid, cycle]
        for g in graphs:
            v = classify(g)
            w = witness_kernel_element(g, v)
            assert (w is None) == v.faithful
        assert rigid.n == 559 and classify(rigid).faithful
        assert colour_refinement_classes(rigid) == rigid.n
        assert classify(cycle).period == 3


class TestHangingTreesLabelledOnce:
    @pytest.mark.parametrize("build, reason", [
        (lambda: named_family("star", 5), "TreeWithSymmetry"),
        (lambda: Graph(*BRIDGE_PATH_TREES[0][:2]), "SymmetricPendantTree"),
        (decorated_square, "PeriodicUnicyclic"),
        (lambda: Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 5)]),
         "Faithful"),
        (lambda: Graph(6, TRIANGLE_WITH_CHERRY.edges), "SymmetricPendantTree"),
        (lambda: Graph(6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (1, 5)]), "Faithful"),
        (lambda: Graph(2003, [(0, 1), (1, 2), (2, 0)] + [(i, i + 1) for i in range(2, 2002)]),
         "Faithful"),
    ], ids=["tree", "bridge-path", "periodic", "faithful-core", "cherry-on-cycle",
            "faithful-unicyclic", "long-tail"])
    def test_one_labelling_per_graph(self, monkeypatch, build, reason):
        # and no blocks and no OrientedCycle: the verdict and its witness need neither
        calls = []
        label = blocks._subtree_labels

        def counting(*args):
            calls.append(args[1])
            return label(*args)
        monkeypatch.setattr(blocks, "_subtree_labels", counting)
        lowpoint = []
        real = blocks._lowpoint_blocks
        monkeypatch.setattr(blocks, "_lowpoint_blocks",
                            lambda adj: lowpoint.append(adj) or real(adj))
        cycles = []
        init = OrientedCycle.__init__
        monkeypatch.setattr(OrientedCycle, "__init__",
                            lambda self, darts: cycles.append(darts) or init(self, darts))
        # the package's `classify` attribute is the function, not the module;
        # the patch there also counts a labelling imported into it
        monkeypatch.setattr(importlib.import_module("homrep.classify"),
                            "_subtree_labels", counting, raising=False)
        g = build()
        v = classify(g)
        assert v.reason == reason
        assert (witness_kernel_element(g, v) is None) == v.faithful
        is_periodic_unicyclic(g)
        pendant_trees(g)
        assert len(calls) == 1 and lowpoint == [] and cycles == []

    def test_smallest_symmetric_root_wins(self):
        # cherries hang from cycle vertices 3 and 1 of a square
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4), (4, 5), (4, 6), (1, 7)])
        h = Graph(11, list(g.edges) + [(7, 8), (7, 9), (2, 10)])
        assert classify(g) == Verdict(False, "SymmetricPendantTree", root=3)
        assert classify(h) == Verdict(False, "SymmetricPendantTree", root=1)


class TestTreesOnBridgePaths:
    @pytest.mark.parametrize("n, edges, root", BRIDGE_PATH_TREES, ids=["n9", "n13"])
    def test_verdict_and_witness(self, n, edges, root):
        g = Graph(n, edges)
        v = classify(g)
        assert v == Verdict(False, "SymmetricPendantTree", root=root)
        assert root in [t.root for t in pendant_trees(g)]
        w = witness_kernel_element(g, v)
        assert not w.is_identity()
        assert w.perm in {f.perm for f in representation(g).kernel}
        assert all(w.perm[x] == x for x in two_core(g))


def bridged_cycles(rng):
    """A random graph of 8-16 vertices: one to three cycles of length 3 or
    4 joined in a tree by bridge paths of one to three edges, with small
    random trees hung from random 2-core vertices until the size is met.

    Also returns the number of 2-core vertices, which are 0..core-1, the
    inner vertices of the bridge paths, which lie on the 2-core but in no
    nontrivial block, and the parent of every hung vertex.
    """
    edges, cycles, on_paths = [], [], []
    n = 0
    for _ in range(rng.randint(1, 3)):
        m = rng.randint(3, 4)
        cycle = list(range(n, n + m))
        n += m
        edges += [(cycle[j], cycle[(j + 1) % m]) for j in range(m)]
        if cycles:
            inner = list(range(n, n + rng.randint(0, 2)))
            n += len(inner)
            path = [rng.choice(rng.choice(cycles))] + inner + [rng.choice(cycle)]
            edges += list(zip(path, path[1:]))
            on_paths += inner
        cycles.append(cycle)
    core = n
    parent = {}
    size = rng.randint(max(8, core), 16)
    while n < size:
        root = rng.choice(on_paths) if on_paths and rng.random() < 0.5 else rng.randrange(core)
        new = list(range(n, n + rng.randint(1, min(3, size - n))))
        n += len(new)
        for j, v in enumerate(new):
            parent[v] = rng.choice([root] + new[:j])
            edges.append((parent[v], v))
    return Graph(n, edges), core, set(on_paths), parent


def symmetric_hanging_roots(core, parent):
    """The 2-core vertices whose hung tree has a vertex with two
    isomorphic child subtrees, by nested-string codes."""
    children: dict[int, list[int]] = {}
    for v, p in parent.items():
        children.setdefault(p, []).append(v)

    def code(v):
        return "(" + "".join(sorted(code(c) for c in children.get(v, []))) + ")"

    def symmetric(v):
        kids = children.get(v, [])
        return (len({code(c) for c in kids}) < len(kids)
                or any(symmetric(c) for c in kids))
    return {v for v in range(core) if symmetric(v)}


class TestBridgedCycles:
    def test_agree_with_bruteforce_kernel(self):
        # beyond the n <= 6 corpus: seeded graphs of 8-16 vertices whose
        # groups fit under a low cap; the rest are skipped, not checked
        rng = random.Random(8)
        checked = bridge_path_only = 0
        for _ in range(2200):
            g, core, on_paths, parent = bridged_cycles(rng)
            try:
                kernel = {f.perm for f in representation(g, cap=500).kernel}
            except CapacityError:
                continue
            checked += 1
            v = classify(g)
            assert v.faithful == (len(kernel) == 1), g
            if not v.faithful:
                assert witness_kernel_element(g, v).perm in kernel, g
            roots = symmetric_hanging_roots(core, parent)
            bridge_path_only += bool(roots) and roots <= on_paths
        assert checked >= 2000
        assert bridge_path_only > 0

    def test_stabiliser_chain_equals_the_search(self):
        # the same graphs; a group over the cap is refused by both routes
        rng = random.Random(8)
        for _ in range(2200):
            g = bridged_cycles(rng)[0]
            masks = g.adjacency_masks()
            chain = _kernels.stabiliser_chain(g.n, masks, 500)
            searched = _kernels.search_automorphisms(g.n, masks, 501)
            assert (isinstance(chain, int) and chain > 500 if len(searched) > 500
                    else chain[1] == searched), g


class TestRandomTrees:
    def test_agree_with_search(self):
        # beyond the n <= 6 corpus: 200 seeded trees of 20-200 vertices
        rng = random.Random(20240)
        rigid = 0
        for i in range(200):
            t = random_tree(rng, rng.randrange(20, 201), near_path=i % 2 == 0)
            v = classify(t)
            assert v.faithful == (not has_nontrivial_automorphism(t))
            rigid += v.faithful
            if not v.faithful:
                w = witness_kernel_element(t, v)
                assert isinstance(w, Automorphism) and not w.is_identity()
        assert rigid > 0


class TestWitnessRejectsFalseVerdicts:
    @pytest.mark.parametrize("g, verdict", [
        (Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)]),
         Verdict(False, "TreeWithSymmetry")),                   # rigid tree
        (named_family("cycle", 4), Verdict(False, "TreeWithSymmetry")),
        (TRIANGLE_WITH_CHERRY, Verdict(False, "SymmetricPendantTree", root=1)),
        (Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)]),
         Verdict(False, "SymmetricPendantTree", root=0)),      # rigid pendant
        (decorated_square(), Verdict(False, "PeriodicUnicyclic", period=1)),
        (decorated_square(), Verdict(False, "PeriodicUnicyclic", period=4)),
        (decorated_square(), Verdict(False, "PeriodicUnicyclic", period=0)),
        (named_family("complete", 4), Verdict(False, "PeriodicUnicyclic", period=1)),
    ], ids=["rigid-tree", "cycle-as-tree", "no-pendant-tree", "rigid-pendant-tree",
            "wrong-period", "full-turn", "period-0", "not-unicyclic"])
    def test_value_error(self, g, verdict):
        with pytest.raises(ValueError):
            witness_kernel_element(g, verdict)
