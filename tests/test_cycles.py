import random
import sys
import threading
from itertools import combinations

import pytest

import homrep.cycles
from helpers import reference_random_tree, reversed_cycle
from homrep import (
    Dart,
    DisconnectedGraphError,
    Graph,
    OrientedCycle,
    SpanningTreeBasis,
    basis_from_tree,
    betti,
    cycle_coordinates,
    named_family,
    random_spanning_tree_basis,
    spanning_tree_basis,
)


class TestBetti:
    def test_k4(self, k4):
        # (n-1)(n-2)/2 with n=4
        assert betti(k4) == 3

    def test_c5(self):
        assert betti(named_family("cycle", 5)) == 1

    def test_tree_is_zero(self):
        assert betti(named_family("path", 6)) == 0
        assert betti(named_family("star", 3)) == 0

    def test_disconnected_rejected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            betti(g)
        with pytest.raises(DisconnectedGraphError):
            spanning_tree_basis(g)
        # the random root lands in either component, or on the isolated vertex
        for h in (g, Graph(5, [(0, 1), (1, 2), (2, 0), (3, 4)]), Graph(3, [(0, 1)])):
            for seed in range(6):
                with pytest.raises(DisconnectedGraphError):
                    random_spanning_tree_basis(h, seed)


class TestDeterministicBasis:
    def test_triangle_by_hand(self, triangle):
        # BFS from 0 in label order picks tree {01, 02}, leaving (1,2)
        b = spanning_tree_basis(triangle)
        assert b.tree_edges == frozenset({(0, 1), (0, 2)})
        assert b.cotree == (Dart(1, 2),)
        assert b.beta == 1

    def test_tree_has_empty_cotree(self):
        b = spanning_tree_basis(named_family("path", 5))
        assert b.cotree == () and b.beta == 0

    def test_k4_beta_three(self, k4):
        b = spanning_tree_basis(k4)
        assert b.beta == 3
        assert b.cotree == (Dart(1, 2), Dart(1, 3), Dart(2, 3))

    def test_reproducible(self, k4):
        b1, b2 = spanning_tree_basis(k4), spanning_tree_basis(k4)
        assert b1.tree_edges == b2.tree_edges and b1.cotree == b2.cotree

    def test_partition_of_edges(self, bowtie):
        b = spanning_tree_basis(bowtie)
        cotree_edges = set(b.cotree)  # co-tree darts run (u, v) with u < v
        assert b.tree_edges | cotree_edges == set(bowtie.edges)
        assert not b.tree_edges & cotree_edges

    def test_cotree_darts_point_upward(self, k4):
        assert all(d.tail < d.head for d in spanning_tree_basis(k4).cotree)


class TestRandomBasis:
    def test_triangle_any_seed_valid(self, triangle):
        b = random_spanning_tree_basis(triangle, 1)
        assert len(b.tree_edges) == 2 and b.beta == 1

    def test_k2_tree_is_the_edge(self):
        b = random_spanning_tree_basis(Graph(2, [(0, 1)]), 99)
        assert b.tree_edges == frozenset({(0, 1)}) and b.beta == 0

    def test_same_seed_same_basis(self, k4):
        a = random_spanning_tree_basis(k4, 5)
        b = random_spanning_tree_basis(k4, 5)
        assert a.tree_edges == b.tree_edges and a.root == b.root

    def test_k4_seeds_vary(self, k4):
        # oracle: K4 has exactly 16 spanning trees (check by brute force
        # over all 3-edge subsets), so ten seeds should hit at least two
        count = 0
        for sub in combinations(k4.edges, 3):
            try:
                basis_from_tree(k4, sub)
                count += 1
            except ValueError:
                pass
        assert count == 16
        trees = {random_spanning_tree_basis(k4, s).tree_edges for s in range(1, 11)}
        assert len(trees) >= 2


def _random_connected_graph(rng: random.Random, n: int) -> Graph:
    """A random tree on n vertices plus up to n random extra edges."""
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(n + 1))]
    return Graph(n, edges)


def _tree(b):
    return b.root, b.parent, b.depth


class TestRandomTreeStream:
    """The builder replays random.Random(seed)'s words; the oracle draws
    them from the generator itself (helpers.reference_random_tree)."""

    def test_every_small_graph_under_the_verifier_seeds(self, corpus5):
        for g in corpus5:
            for seed in range(1, 6):
                assert _tree(random_spanning_tree_basis(g, seed)) == reference_random_tree(g, seed)

    def test_random_graphs_up_to_300_vertices(self):
        rng = random.Random(2024)
        graphs = [_random_connected_graph(rng, rng.randrange(2, 301)) for _ in range(100)]
        # a shuffle bound above 256 takes 9 bits of a word
        graphs.append(named_family("star", 300))
        assert graphs[-1].degree(0) > 256
        for g in graphs:
            seed = rng.randrange(10 ** 6)
            assert _tree(random_spanning_tree_basis(g, seed)) == reference_random_tree(g, seed)

    @pytest.mark.parametrize("seed", [0, -7, 2 ** 70])
    def test_zero_negative_and_wide_seeds(self, seed):
        for g in (named_family("complete", 5), _petersen(), named_family("cycle", 12)):
            assert _tree(random_spanning_tree_basis(g, seed)) == reference_random_tree(g, seed)

    def test_cycle_after_a_larger_graph_grew_the_words(self):
        slot = homrep.cycles._seed_slot
        slot.cache_clear()
        big = named_family("cycle", 4000)
        assert _tree(random_spanning_tree_basis(big, 3)) == reference_random_tree(big, 3)
        words = slot(3)[0]
        assert len(words) >= 4000 and slot.cache_info().currsize == 1  # one tuple per seed
        c1500 = named_family("cycle", 1500)
        assert _tree(random_spanning_tree_basis(c1500, 3)) == reference_random_tree(c1500, 3)
        assert slot(3)[0] is words  # C1500 read only cached words

    def test_words_are_the_generators_words(self):
        homrep.cycles._seed_slot.cache_clear()
        for seed in (1, 0, -7, 2 ** 70):
            rng = random.Random(seed)
            want = tuple(rng.getrandbits(32) for _ in range(300))
            assert homrep.cycles._seed_words(seed, 100)[:100] == want[:100]
            assert homrep.cycles._seed_words(seed, 300)[:300] == want  # grown, same prefix

    def test_cache_is_bounded_and_holds_no_generator(self):
        slot, words = homrep.cycles._seed_slot, homrep.cycles._seed_words
        slot.cache_clear()
        kept = words(0, 64)
        for seed in range(1, 100):  # a seed in use stays cached while others pass
            words(seed, 64)
            assert words(0, 64) is kept
        assert slot.cache_info().currsize == slot.cache_info().maxsize == 32
        assert not any(isinstance(v, random.Random) for v in vars(homrep.cycles).values())
        assert type(slot(5)[0]) is tuple

    def test_concurrent_builders_draw_their_own_words(self):
        graphs = [named_family("complete", 6), _petersen(), named_family("cycle", 300)]
        want = {(i, s): reference_random_tree(g, s) for i, g in enumerate(graphs)
                for s in range(40)}
        wrong = []

        def build(offset):
            for s in range(40):
                s = (s + offset) % 40
                for i, g in enumerate(graphs):
                    if _tree(random_spanning_tree_basis(g, s)) != want[i, s]:
                        wrong.append((i, s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            homrep.cycles._seed_slot.cache_clear()
            threads = [threading.Thread(target=build, args=(7 * k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestFundamentalCycle:
    def test_triangle_exact_darts(self, triangle):
        b = spanning_tree_basis(triangle)
        c = b.fundamental_cycles()[0]
        assert c.darts == (Dart(1, 2), Dart(2, 0), Dart(0, 1))

    def test_c4_custom_path_tree(self):
        c4 = named_family("cycle", 4)
        b = basis_from_tree(c4, [(0, 1), (1, 2), (2, 3)])
        assert b.cotree == (Dart(0, 3),)
        c = b.fundamental_cycles()[0]
        assert c.darts[0] == Dart(0, 3)
        assert c.darts == (Dart(0, 3), Dart(3, 2), Dart(2, 1), Dart(1, 0))

    def test_first_dart_is_cotree_dart(self, k4):
        b = spanning_tree_basis(k4)
        for i in range(1, b.beta + 1):
            assert b.fundamental_cycles()[i - 1].darts[0] == b.cotree[i - 1]


class TestOrientedCycle:
    def test_requires_closure(self):
        with pytest.raises(ValueError):
            OrientedCycle([Dart(0, 1), Dart(1, 2), Dart(2, 3)])

    def test_requires_simplicity(self):
        with pytest.raises(ValueError):
            OrientedCycle([Dart(0, 1), Dart(1, 2), Dart(2, 0),
                           Dart(0, 3), Dart(3, 2), Dart(2, 0)])

    def test_rotation_invariant_equality(self):
        a = OrientedCycle([Dart(0, 1), Dart(1, 2), Dart(2, 0)])
        b = OrientedCycle([Dart(1, 2), Dart(2, 0), Dart(0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != reversed_cycle(a)


class TestCycleCoordinates:
    def test_own_basis_gives_unit_vectors(self, k4):
        b = spanning_tree_basis(k4)
        for i in range(1, b.beta + 1):
            coords = cycle_coordinates(b.fundamental_cycles()[i - 1], b)
            assert coords == tuple(1 if j == i - 1 else 0 for j in range(b.beta))

    def test_reversal_negates(self, k4):
        b = spanning_tree_basis(k4)
        for i in range(1, b.beta + 1):
            c = b.fundamental_cycles()[i - 1]
            assert cycle_coordinates(reversed_cycle(c), b) == tuple(
                -x for x in cycle_coordinates(c, b))

    def test_k4_facial_triangle_signed_count(self, k4):
        # oracle: count forward minus backward traversals of each co-tree
        # dart along the cycle, computed by hand for the triangle {1,2,3}
        # against cotree [(1,2), (1,3), (2,3)]
        b = spanning_tree_basis(k4)
        tri = OrientedCycle([Dart(1, 2), Dart(2, 3), Dart(3, 1)])
        assert cycle_coordinates(tri, b) == (1, -1, 1)
        assert cycle_coordinates(reversed_cycle(tri), b) == (-1, 1, -1)

    def test_entries_in_signed_unit_range(self, corpus5):
        for g in corpus5[:120]:
            b = spanning_tree_basis(g)
            for c in b.fundamental_cycles():
                assert all(x in (-1, 0, 1) for x in cycle_coordinates(c, b))

    def test_foreign_dart_rejected(self, triangle):
        b = spanning_tree_basis(triangle)
        foreign = OrientedCycle([Dart(0, 1), Dart(1, 3), Dart(3, 0)])
        with pytest.raises(ValueError):
            cycle_coordinates(foreign, b)


class TestCorpusInvariants:
    def test_cotree_size_matches_betti(self, corpus5):
        for g in corpus5:
            assert spanning_tree_basis(g).beta == betti(g)

    def test_fundamental_cycles_close_and_are_simple(self, corpus5):
        # OrientedCycle's constructor enforces closure and simplicity
        for g in corpus5:
            b = spanning_tree_basis(g)
            for i in range(1, b.beta + 1):
                c = b.fundamental_cycles()[i - 1]
                assert len(c) >= 3


def _petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


def _all_bases(g):
    """The canonical basis and the verifier's five seeded random ones."""
    return [spanning_tree_basis(g)] + [random_spanning_tree_basis(g, s) for s in range(1, 6)]


class TestRootValidation:
    @pytest.mark.parametrize("root", [-1, 4, 2.0])
    def test_rejects_a_root_outside_the_vertices(self, root):
        c4 = named_family("cycle", 4)
        with pytest.raises(ValueError, match="root"):
            basis_from_tree(c4, [(0, 1), (1, 2), (2, 3)], root=root)
        with pytest.raises(ValueError, match="root"):
            SpanningTreeBasis(c4, [(0, 1), (1, 2), (2, 3)], root)

    def test_accepts_every_vertex(self):
        c4 = named_family("cycle", 4)
        for root in range(4):
            b = basis_from_tree(c4, [(0, 1), (1, 2), (2, 3)], root=root)
            assert b.root == root and b.parent.count(-1) == 1


class TestTrustedConstruction:
    def test_builders_agree_with_the_validating_constructor(self, corpus5):
        for g in corpus5:
            for b in _all_bases(g):
                v = SpanningTreeBasis(g, b.tree_edges, b.root)
                assert (b.root, b.parent, b.depth, b.tree_edges, b.cotree) == \
                    (v.root, v.parent, v.depth, v.tree_edges, v.cotree)
                assert b.cycle_dart_table() == v.cycle_dart_table()

    def test_table_is_the_signed_dart_count_of_the_fundamental_cycles(self, corpus5):
        # oracle: the OrientedCycle route, independent of the parent walk
        for g in corpus5:
            n = g.n
            for b in _all_bases(g):
                want = {t * n + h: [0] * b.beta for u, v in g.edges
                        for t, h in ((u, v), (v, u))}
                for j, c in enumerate(b.fundamental_cycles()):
                    for t, h in c.darts:
                        want[t * n + h][j] += 1
                        want[h * n + t][j] -= 1
                assert b.cycle_dart_table() == {d: tuple(r) for d, r in want.items()}

    @pytest.mark.parametrize("name, graph, trees", [
        ("K4", named_family("complete", 4), [
            (1, [(0, 2), (0, 3), (1, 3)]),
            (0, [(0, 1), (1, 2), (2, 3)]),
            (1, [(0, 2), (1, 3), (2, 3)]),
            (1, [(0, 3), (1, 2), (2, 3)]),
            (2, [(0, 1), (0, 3), (2, 3)])]),
        ("K5", named_family("complete", 5), [
            (1, [(0, 1), (0, 4), (2, 3), (3, 4)]),
            (0, [(0, 1), (1, 2), (2, 3), (3, 4)]),
            (1, [(0, 2), (0, 4), (1, 2), (3, 4)]),
            (1, [(0, 2), (0, 4), (1, 3), (3, 4)]),
            (4, [(0, 1), (0, 2), (1, 3), (2, 4)])]),
        ("petersen", _petersen(), [
            (2, [(0, 1), (0, 4), (1, 6), (2, 7), (3, 4), (4, 9), (5, 7), (5, 8), (6, 8)]),
            (0, [(0, 1), (1, 2), (2, 7), (3, 4), (4, 9), (5, 7), (5, 8), (6, 8), (6, 9)]),
            (3, [(0, 1), (0, 5), (1, 2), (2, 7), (3, 8), (4, 9), (5, 8), (6, 9), (7, 9)]),
            (3, [(0, 1), (0, 5), (1, 6), (2, 7), (3, 4), (4, 9), (5, 7), (5, 8), (6, 9)]),
            (9, [(0, 4), (1, 2), (1, 6), (2, 7), (3, 4), (3, 8), (5, 7), (5, 8), (6, 9)])]),
    ])
    def test_random_trees_are_pinned(self, name, graph, trees):
        # `rep --tree rand --seed S` prints matrices in these bases
        for seed, (root, edges) in enumerate(trees, start=1):
            b = random_spanning_tree_basis(graph, seed)
            assert (b.root, sorted(b.tree_edges)) == (root, edges)
