import pytest

import homrep.families
from homrep import (
    RootedTreeSpec,
    betti,
    build_periodic_unicyclic,
    classify,
    is_periodic_unicyclic,
    matrix_of,
    named_family,
    spanning_tree_basis,
)
from homrep.families import FAMILY_MAX_EDGES


class TestRootedTreeSpec:
    def test_parse_with_brackets(self):
        assert RootedTreeSpec.parse("[-1,0,0,1]").parents == (-1, 0, 0, 1)

    def test_parse_bare(self):
        assert RootedTreeSpec.parse("-1,0").parents == (-1, 0)

    def test_root_must_be_first(self):
        with pytest.raises(ValueError):
            RootedTreeSpec((0, -1))

    def test_parent_must_precede_child(self):
        with pytest.raises(ValueError):
            RootedTreeSpec((-1, 2, 0))

    def test_malformed_text(self):
        with pytest.raises(ValueError):
            RootedTreeSpec.parse("[-1,zero]")


class TestBuildPeriodicUnicyclic:
    def test_decorated_square_golden(self):
        # frozen deterministic labeling: cycle 0..3, then tree copies in
        # cycle order (leaf, 2-chain, leaf, 2-chain)
        g, rho = build_periodic_unicyclic(
            4, 2, [RootedTreeSpec((-1, 0)), RootedTreeSpec((-1, 0, 1))])
        assert g.n == 10
        assert g.edges == ((0, 1), (0, 3), (0, 4), (1, 2), (1, 5),
                           (2, 3), (2, 7), (3, 8), (5, 6), (8, 9))
        assert rho.perm == (2, 3, 0, 1, 7, 8, 9, 4, 5, 6)
        assert rho.order() == 2

    def test_bare_cycle_case(self):
        g, rho = build_periodic_unicyclic(6, 1, [RootedTreeSpec((-1,))])
        assert g == named_family("cycle", 6)
        assert rho.perm == (1, 2, 3, 4, 5, 0) and rho.order() == 6

    def test_rho_lies_in_kernel(self):
        g, rho = build_periodic_unicyclic(
            6, 3, [RootedTreeSpec((-1, 0)), RootedTreeSpec((-1,)),
                   RootedTreeSpec((-1, 0, 0))])
        assert matrix_of(rho, spanning_tree_basis(g)).is_identity()
        assert not classify(g).faithful

    def test_constructed_graph_is_unicyclic(self):
        g, _ = build_periodic_unicyclic(
            8, 4, [RootedTreeSpec((-1,)), RootedTreeSpec((-1, 0)),
                   RootedTreeSpec((-1, 0, 1)), RootedTreeSpec((-1, 0, 0))])
        assert betti(g) == 1

    def test_detected_period_divides_construction_period(self):
        # identical specs shrink the minimal period
        g, _ = build_periodic_unicyclic(
            4, 2, [RootedTreeSpec((-1, 0)), RootedTreeSpec((-1, 0))])
        periodic, k = is_periodic_unicyclic(g)
        assert periodic and 2 % k == 0 and k == 1

    @pytest.mark.parametrize("n,k,count", [
        (2, 1, 1),   # cycle too short
        (4, 3, 2),   # 3 does not divide 4
        (3, 3, 3),   # k must be smaller than n
        (4, 0, 1),   # k must be at least 1
        (4, -2, 1),
        (6, 2, 1),   # wrong spec count
    ])
    def test_constraint_errors(self, n, k, count):
        specs = [RootedTreeSpec((-1,))] * count
        with pytest.raises(ValueError):
            build_periodic_unicyclic(n, k, specs)


class TestNamedFamily:
    def test_complete(self):
        k4 = named_family("complete", 4)
        assert k4.n == 4 and k4.num_edges == 6

    def test_cycle(self):
        c5 = named_family("cycle", 5)
        assert c5.n == 5 and all(c5.degree(v) == 2 for v in range(5))

    def test_star_counts_leaves(self):
        s = named_family("star", 3)
        assert s.n == 4 and s.degree(0) == 3

    def test_path(self):
        p = named_family("path", 4)
        assert p.num_edges == 3

    def test_bowtie(self):
        b = named_family("bowtie", 5)
        assert b.n == 5 and b.num_edges == 6 and b.degree(2) == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            named_family("hypercube", 3)

    @pytest.mark.parametrize("name,size", [("cycle", 2), ("star", 0),
                                           ("bowtie", 6), ("path", 0)])
    def test_invalid_sizes(self, name, size):
        with pytest.raises(ValueError):
            named_family(name, size)


class TestFamilySizeGuard:
    """Sizes at and past FAMILY_MAX_EDGES, with Graph replaced so that no
    large graph is built."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        monkeypatch.setattr(homrep.families, "Graph", lambda n, edges: calls.append(n))
        return calls

    @pytest.mark.parametrize("name,size", [
        ("complete", 30000), ("complete", 4473), ("cycle", FAMILY_MAX_EDGES + 1),
        ("star", FAMILY_MAX_EDGES + 1), ("path", FAMILY_MAX_EDGES + 2)])
    def test_refused_before_anything_is_built(self, built, name, size):
        with pytest.raises(ValueError, match=f"limited to {FAMILY_MAX_EDGES}"):
            named_family(name, size)
        assert built == []

    @pytest.mark.parametrize("name,size,n", [
        ("complete", 4472, 4472),  # 9,997,156 edges
        ("cycle", FAMILY_MAX_EDGES, FAMILY_MAX_EDGES),
        ("star", FAMILY_MAX_EDGES, FAMILY_MAX_EDGES + 1),
        ("path", FAMILY_MAX_EDGES + 1, FAMILY_MAX_EDGES + 1)])
    def test_largest_allowed_size_reaches_graph(self, built, name, size, n):
        named_family(name, size)
        assert built == [n]
