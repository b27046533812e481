"""Property tests over randomly drawn graphs."""

from hypothesis import given, settings, strategies as st

from helpers import compose
from homrep import (
    Graph,
    format_edge_list,
    is_connected,
    matrix_of,
    automorphisms,
    parse_edge_list,
    parse_graph6,
    spanning_tree_basis,
    to_graph6,
)


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, flags) if keep])


@st.composite
def connected_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    # a random spanning tree guarantees connectivity; sprinkle extras
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    edges = {(p, i) for i, p in enumerate(parents, start=1)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges |= {e for e, keep in zip(pairs, flags) if keep}
    return Graph(n, edges)


@given(graphs())
def test_graph6_round_trip(g):
    assert parse_graph6(to_graph6(g)) == g


@given(connected_graphs())
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


@given(connected_graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_basis_partitions_edges(g):
    b = spanning_tree_basis(g)
    assert is_connected(g)
    cotree_edges = set(b.cotree)  # co-tree darts run (u, v) with u < v
    assert len(b.tree_edges) == g.n - 1
    assert b.tree_edges | cotree_edges == set(g.edges)
    assert b.beta == g.num_edges - g.n + 1


@given(connected_graphs(max_n=6))
@settings(max_examples=25, deadline=None)
def test_matrix_action_is_multiplicative(g):
    b = spanning_tree_basis(g)
    auts = automorphisms(g)
    mats = {f: matrix_of(f, b) for f in auts}
    for f in auts[:6]:
        for h in auts[:6]:
            assert mats[compose(f, h)] == mats[f] @ mats[h]


@given(connected_graphs(max_n=6))
@settings(max_examples=25, deadline=None)
def test_matrix_entries_stay_signed_units(g):
    b = spanning_tree_basis(g)
    for f in automorphisms(g):
        assert all(x in (-1, 0, 1) for row in matrix_of(f, b).rows for x in row)
