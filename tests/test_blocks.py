import random
from itertools import permutations

import pytest

from helpers import reference_pendant_trees, reference_periodicity
from homrep import (
    Graph,
    ahu_code,
    block_decomposition,
    block_tree,
    blocks,
    build_periodic_unicyclic,
    classify,
    is_periodic_unicyclic,
    named_family,
    pendant_trees,
    two_edge_connected_components,
    unique_cycle,
    verify_corpus,
    witness_kernel_element,
    RootedTreeSpec,
)
from homrep.blocks import PendantTree

TRIANGLE_WITH_TAIL = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])


def decorated_square():
    """4-cycle with a pendant edge on vertices 0 and 2 and a pendant
    2-chain on vertices 1 and 3 (alternating with period 2)."""
    g, _ = build_periodic_unicyclic(
        4, 2, [RootedTreeSpec((-1, 0)), RootedTreeSpec((-1, 0, 1))])
    return g


class TestBlockDecomposition:
    def test_k4_single_block(self, k4):
        d = block_decomposition(k4)
        assert d.blocks == (frozenset({0, 1, 2, 3}),)
        assert not d.cutvertices and not d.bridges

    def test_path_all_bridges(self):
        d = block_decomposition(named_family("path", 4))
        assert d.blocks == (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}))
        assert d.cutvertices == {1, 2}
        assert d.bridges == {(0, 1), (1, 2), (2, 3)}

    def test_bowtie(self, bowtie):
        d = block_decomposition(bowtie)
        assert set(d.blocks) == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}
        assert d.cutvertices == {2}
        assert not d.bridges

    def test_single_vertex_empty(self):
        d = block_decomposition(Graph(1, []))
        assert d.blocks == () and not d.cutvertices and not d.bridges

    def test_edge_partition(self, corpus5):
        for g in corpus5[:150]:
            d = block_decomposition(g)
            all_edges = [e for es in d.block_edges for e in es]
            assert sorted(all_edges) == list(g.edges)

    def test_pairwise_intersections(self, corpus5):
        for g in corpus5[:150]:
            d = block_decomposition(g)
            for i in range(len(d.blocks)):
                for j in range(i + 1, len(d.blocks)):
                    assert len(d.blocks[i] & d.blocks[j]) <= 1


class TestBlockTree:
    def test_bowtie_centre_is_cutvertex(self, bowtie):
        bt = block_tree(block_decomposition(bowtie))
        assert len(bt.nodes) == 3 and len(bt.edges) == 2
        centre = bt.nodes[bt.centre]
        assert centre.kind == "cut" and centre.vertex == 2

    def test_k4_single_node(self, k4):
        bt = block_tree(block_decomposition(k4))
        assert len(bt.nodes) == 1 and bt.centre == 0
        assert bt.nodes[0].kind == "block"

    def test_triangle_with_pendant_edge(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        bt = block_tree(block_decomposition(g))
        centre = bt.nodes[bt.centre]
        assert centre.kind == "cut" and centre.vertex == 0

    def test_leaves_are_blocks(self, corpus5):
        for g in corpus5[:150]:
            bt = block_tree(block_decomposition(g))
            degree = [0] * len(bt.nodes)
            for i, j in bt.edges:
                degree[i] += 1
                degree[j] += 1
            for i, node in enumerate(bt.nodes):
                if len(bt.nodes) > 1 and degree[i] == 1:
                    assert node.kind == "block"

    def test_long_path_centre_is_middle_cutvertex(self):
        # 4096 bridges and 4095 cutvertices alternate along one path of
        # 8191 nodes, whose middle node is the cutvertex 2048
        bt = block_tree(block_decomposition(named_family("path", 4097)))
        assert len(bt.nodes) == 8191
        centre = bt.nodes[bt.centre]
        assert centre.kind == "cut" and centre.vertex == 2048

    def test_json_shape(self, bowtie):
        data = block_tree(block_decomposition(bowtie)).to_json()
        assert set(data) == {"nodes", "edges", "centre"}
        kinds = {node["kind"] for node in data["nodes"]}
        assert kinds <= {"block", "cut"}


class TestTwoEdgeConnected:
    def test_bowtie_single_component(self, bowtie):
        assert two_edge_connected_components(bowtie) == (frozenset(range(5)),)

    def test_triangle_with_pendant_edge(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        assert set(two_edge_connected_components(g)) == {
            frozenset({0, 1, 2}), frozenset({3})}

    def test_tree_gives_singletons(self):
        comps = two_edge_connected_components(named_family("path", 4))
        assert comps == tuple(frozenset({v}) for v in range(4))


class TestPendantTrees:
    def test_triangle_with_tail(self):
        trees = pendant_trees(TRIANGLE_WITH_TAIL)
        assert len(trees) == 1
        t = trees[0]
        assert t.root == 0 and t.vertices == {0, 3, 4}
        assert set(t.edges) == {(0, 3), (3, 4)}

    def test_k4_has_none(self, k4):
        assert pendant_trees(k4) == ()

    def test_decorated_square_has_four(self):
        trees = pendant_trees(decorated_square())
        assert [t.root for t in trees] == [0, 1, 2, 3]
        sizes = sorted(len(t.vertices) for t in trees)
        assert sizes == [2, 2, 3, 3]

    def test_cycle_component_excluded(self):
        # two triangles joined by a bridge: the far side of each bridge
        # contains a cycle, so neither endpoint roots a pendant tree
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
        assert pendant_trees(g) == ()

    def test_component_attached_twice_excluded(self):
        # triangle with a cherry: vertices 1, 2 hang off 0 through two
        # edges, so only the {3,4,5} part forms the pendant tree
        g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (3, 5)])
        trees = pendant_trees(g)
        assert len(trees) == 1 and trees[0].vertices == {0, 3, 4, 5}


def decorated_cycle(seed, m, period=None):
    """An m-cycle with a random rooted tree (0-5 extra vertices) hanging
    from every cycle vertex; with a period, the trees repeat with it."""
    rng = random.Random(seed)
    k = period or m
    shapes = [[rng.randrange(i) for i in range(1, rng.randrange(1, 7))]
              for _ in range(k)]
    edges = [(i, (i + 1) % m) for i in range(m)]
    n = m
    for v in range(m):
        labels = [v]
        for parent in shapes[v % k]:
            labels.append(n)
            edges.append((labels[parent], n))
            n += 1
    return Graph(n, edges)


def k4_plus_tree(seed, n):
    """K4 on 0..3 with a random tree grown off it, plus triangles closed
    deep inside the tree: trees hang off those triangles too, and off
    the bridge paths between a triangle and K4, which lie on the 2-core."""
    rng = random.Random(seed)
    parent = [-1] * 4 + [rng.randrange(v) for v in range(4, n)]
    edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    edges += [(parent[v], v) for v in range(4, n)]
    deep = [v for v in range(n) if parent[v] >= 4 and parent[parent[v]] >= 4]
    edges += [(parent[parent[v]], v) for v in rng.sample(deep, 3)]
    return Graph(n, edges)


LARGE_GRAPHS = [decorated_cycle(1, 70), decorated_cycle(2, 160, period=4),
                decorated_cycle(3, 120, period=3), k4_plus_tree(4, 200),
                k4_plus_tree(5, 350), k4_plus_tree(6, 500)]


class TestAgainstReference:
    def test_pendant_trees_on_corpus(self, corpus5):
        for g in corpus5:
            got = [(t.root, t.vertices, t.edges) for t in pendant_trees(g)]
            assert got == reference_pendant_trees(g), g

    @pytest.mark.parametrize("g", LARGE_GRAPHS, ids=lambda g: f"n{g.n}")
    def test_pendant_trees_on_large_graphs(self, g):
        assert 200 <= g.n <= 500
        got = [(t.root, t.vertices, t.edges) for t in pendant_trees(g)]
        assert got == reference_pendant_trees(g)

    def test_periodicity_on_corpus(self, corpus5):
        for g in corpus5:
            assert is_periodic_unicyclic(g) == reference_periodicity(g), g

    @pytest.mark.parametrize("g", LARGE_GRAPHS[:3], ids=lambda g: f"n{g.n}")
    def test_periodicity_on_decorated_cycles(self, g):
        assert is_periodic_unicyclic(g) == reference_periodicity(g)

    def test_periodic_decorations_are_detected(self):
        assert is_periodic_unicyclic(LARGE_GRAPHS[1]) == (True, 4)
        assert is_periodic_unicyclic(LARGE_GRAPHS[2])[0]


class TestStructurePass:
    def test_runs_once_per_graph(self, monkeypatch):
        # the verdict needs no blocks; they are built once, on first read,
        # and the 2-edge-connected components reuse them
        counts = {"_lowpoint_blocks": 0, "_subtree_labels": 0}
        for name in counts:
            def counting(*args, real=getattr(blocks, name), name=name):
                counts[name] += 1
                return real(*args)
            monkeypatch.setattr(blocks, name, counting)
        graphs = [decorated_square(), Graph(6, [(0, 1), (0, 2), (1, 2),
                                                (0, 3), (3, 4), (3, 5)])]
        for i, g in enumerate(graphs):
            verdict = classify(g)
            assert witness_kernel_element(g, verdict) is not None
            pendant_trees(g)
            assert counts == {"_lowpoint_blocks": i, "_subtree_labels": i + 1}
            block_decomposition(g)
            two_edge_connected_components(g)
            block_decomposition(g)
            assert counts == dict.fromkeys(counts, i + 1)
        # a verify run reads everything, and still builds each part once
        summary = verify_corpus(4)
        assert summary.ok
        assert counts == dict.fromkeys(counts, len(graphs) + summary.graphs_total)


class TestAhuCode:
    def test_single_vertex(self):
        assert ahu_code(Graph(1, []), [0], 0) == "()"

    def test_chain_of_three_rooted_at_end(self):
        g = named_family("path", 3)
        assert ahu_code(g, [0, 1, 2], 0) == "((()))"

    def test_star_equals_path_rooted_at_centre(self):
        star = named_family("star", 2)
        path = named_family("path", 3)
        assert ahu_code(star, range(3), 0) == ahu_code(path, range(3), 1) == "(()())"

    def test_non_tree_rejected(self, triangle):
        with pytest.raises(ValueError):
            ahu_code(triangle, [0, 1, 2], 0)

    def test_root_must_belong(self):
        g = named_family("path", 3)
        with pytest.raises(ValueError):
            ahu_code(g, [0, 1], 2)


def _pendant(root, vertices, edges):
    return PendantTree(root=root, vertices=frozenset(vertices), edges=tuple(edges))


def _brute_rigid(tree):
    others = sorted(tree.vertices - {tree.root})
    edge_set = set(tree.edges)
    for image in permutations(others):
        mapping = dict(zip(others, image))
        mapping[tree.root] = tree.root
        if all(mapping[v] == v for v in others):
            continue
        if all(((mapping[u], mapping[v]) if mapping[u] < mapping[v]
                else (mapping[v], mapping[u])) in edge_set for u, v in tree.edges):
            return False
    return True


def _hung_symmetric(tree_edges, k):
    """classify's flag for the rooted tree on 0..k-1, root 0, hung from a
    triangle at its root."""
    g = Graph(k + 2, [*tree_edges, (0, k), (0, k + 1), (k, k + 1)])
    return blocks._structure(g).is_symmetric(0)


class TestRigidity:
    def test_two_leaves_swap(self):
        assert _hung_symmetric([(0, 1), (0, 2)], 3)

    def test_chain_is_rigid(self):
        assert not _hung_symmetric([(0, 1), (1, 2)], 3)

    def test_leaf_plus_chain_is_rigid(self):
        # oracle: all root-fixing permutations of the 4 vertices
        edges = [(0, 1), (0, 2), (2, 3)]
        assert _brute_rigid(_pendant(0, range(4), edges))
        assert not _hung_symmetric(edges, 4)

    def test_symmetry_deeper_down(self):
        edges = [(0, 1), (1, 2), (1, 3)]
        assert not _brute_rigid(_pendant(0, range(4), edges))
        assert _hung_symmetric(edges, 4)

    def test_agrees_with_brute_force_on_corpus(self, corpus5):
        for g in corpus5:
            if g.num_edges < g.n:
                continue
            s = blocks._structure(g)
            for t in pendant_trees(g):
                assert s.is_symmetric(t.root) != _brute_rigid(t)


class TestUniqueCycle:
    def test_c5_is_itself(self):
        c = unique_cycle(named_family("cycle", 5))
        assert c.vertices() == (0, 1, 2, 3, 4)

    def test_canonical_orientation(self):
        # cycle through 0-2-1-3: starts at 0 and heads toward the
        # smaller cycle neighbor
        g = Graph(4, [(0, 2), (1, 2), (1, 3), (0, 3)])
        c = unique_cycle(g)
        assert c.vertices()[0] == 0
        assert c.vertices()[1] == min(c.vertices()[1], c.vertices()[-1])

    def test_decorated_square_cycle(self):
        c = unique_cycle(decorated_square())
        assert c.vertices() == (0, 1, 2, 3)

    def test_k4_rejected(self, k4):
        with pytest.raises(ValueError):
            unique_cycle(k4)

    def test_tree_rejected(self):
        with pytest.raises(ValueError):
            unique_cycle(named_family("path", 3))


class TestPeriodicUnicyclic:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_bare_cycle(self, n):
        assert is_periodic_unicyclic(named_family("cycle", n)) == (True, 1)

    def test_decorated_square(self):
        assert is_periodic_unicyclic(decorated_square()) == (True, 2)

    def test_triangle_with_one_leaf(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
        assert is_periodic_unicyclic(g) == (False, None)

    def test_not_unicyclic(self, k4, bowtie):
        assert is_periodic_unicyclic(k4) == (False, None)
        assert is_periodic_unicyclic(bowtie) == (False, None)

    def test_tree(self):
        assert is_periodic_unicyclic(named_family("path", 4)) == (False, None)

    def test_period_counts_trees_not_just_shape(self):
        # pendant edges on opposite corners only: rotation by 2 works,
        # rotation by 1 does not
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)])
        assert is_periodic_unicyclic(g) == (True, 2)
