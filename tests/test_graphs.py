import pytest

from homrep import (
    Dart,
    DisconnectedGraphError,
    Graph,
    GraphParseError,
    betti,
    enumerate_connected_graphs,
    format_edge_list,
    is_connected,
    named_family,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from homrep.graphs import require_connected
from helpers import reference_graph6_decode, reference_graph6_encode


class TestGraph:
    def test_normalizes_and_dedups_edges(self):
        g = Graph(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_dart_count_is_twice_edge_count(self, k4):
        darts = list(k4.darts())
        assert len(darts) == 2 * k4.num_edges
        assert {d.edge for d in darts} == set(k4.edges)

    def test_dart_inverse_involution(self):
        d = Dart(0, 1)
        assert d.inverse() == Dart(1, 0)
        assert d.inverse().inverse() == d

    def test_hashable_and_equal(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b and hash(a) == hash(b)
        # the hash is taken once, at construction, of the normalised edges
        c = parse_edge_list("2 1\n1 0\n0 1\n")
        assert c == a and hash(c) == hash(a)
        assert {a: "x"}[c] == "x"
        assert Graph(4, [(0, 1), (1, 2)]) != a and Graph(3, [(0, 1), (0, 2)]) != a


class TestParseEdgeList:
    def test_triangle(self):
        g = parse_edge_list("0 1\n1 2\n2 0")
        assert g.n == 3 and g.edges == ((0, 1), (0, 2), (1, 2))

    def test_duplicates_collapse(self):
        g = parse_edge_list("0 1\n0 1")
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("0 0")

    def test_line_order_irrelevant(self):
        assert parse_edge_list("0 1\n1 2") == parse_edge_list("1 2\n0 1")

    def test_malformed_token_names_line(self):
        with pytest.raises(GraphParseError) as exc:
            parse_edge_list("0 1\n0 x")
        assert exc.value.line == 2

    def test_comments_ignored(self):
        g = parse_edge_list("# a triangle\n0 1\n1 2 # tail comment\n2 0")
        assert g.num_edges == 3

    def test_header_allows_isolated_vertices(self):
        g = parse_edge_list("n 4\n0 1")
        assert g.n == 4 and g.edges == ((0, 1),)

    def test_header_bounds_labels(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("n 2\n0 5")

    def test_header_must_come_first(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("0 1\nn 4")

    def test_empty_input_rejected(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("# nothing\n")

    def test_format_round_trip(self, k4, bowtie):
        for g in (k4, bowtie):
            assert parse_edge_list(format_edge_list(g)) == g


class TestGraph6:
    def test_known_star(self):
        # hand-decoded: 'D' -> n=5, bits 0000001111 -> edges (0,4)..(3,4)
        g = parse_graph6("D?{")
        assert g.n == 5
        assert g.edges == ((0, 4), (1, 4), (2, 4), (3, 4))
        assert to_graph6(g) == "D?{"

    def test_single_edge(self):
        g = parse_graph6("A_")
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_empty_input(self):
        with pytest.raises(GraphParseError):
            parse_graph6("")

    def test_invalid_character(self):
        with pytest.raises(GraphParseError):
            parse_graph6("A\x20")

    def test_truncated(self):
        with pytest.raises(GraphParseError):
            parse_graph6("D?")

    def test_optional_header_prefix(self):
        assert parse_graph6(">>graph6<<A_").n == 2

    def test_round_trip_all_connected_up_to_5(self, corpus5):
        for g in corpus5:
            assert parse_graph6(to_graph6(g)) == g

    def test_against_reference_codec_all_strings_up_to_5(self):
        # every simple graph on n <= 5 vertices, connected or not
        for n in range(1, 6):
            pairs = [(i, j) for j in range(1, n) for i in range(j)]
            for mask in range(1 << len(pairs)):
                bits = {e: (mask >> k) & 1 for k, e in enumerate(pairs)}
                s = reference_graph6_encode(n, bits)
                g = parse_graph6(s)
                assert g.n == n
                assert set(g.edges) == {e for e, b in bits.items() if b}
                assert to_graph6(g) == s
                ref_n, ref_edges = reference_graph6_decode(to_graph6(g))
                assert ref_n == n and ref_edges == set(g.edges)


class TestConnectivity:
    def test_triangle_connected(self, triangle):
        assert is_connected(triangle)

    def test_two_disjoint_edges(self):
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_k2(self):
        assert is_connected(Graph(2, [(0, 1)]))

    def test_single_vertex(self):
        assert is_connected(Graph(1, []))

    def test_isolated_vertex_via_header(self):
        assert not is_connected(parse_edge_list("n 3\n0 1"))

    def test_no_bitmasks(self, monkeypatch):
        # a breadth-first search over the neighbour lists: n-bit masks
        # would cost quadratic time and memory on long paths
        def refuse(self):
            raise AssertionError("adjacency masks built")
        monkeypatch.setattr(Graph, "adjacency_masks", refuse)
        for g in (named_family("path", 3000), named_family("cycle", 5),
                  named_family("star", 4), Graph(1, [])):
            assert is_connected(g)
            require_connected(g)
            assert betti(g) == g.num_edges - g.n + 1
        for g in (Graph(4, [(0, 1), (2, 3)]), parse_edge_list("n 3\n0 1")):
            assert not is_connected(g)
            with pytest.raises(DisconnectedGraphError):
                require_connected(g)
            with pytest.raises(DisconnectedGraphError):
                betti(g)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 4), (4, 38)])
    def test_counts(self, n, count):
        graphs = list(enumerate_connected_graphs(n))
        assert len(graphs) == count
        assert all(g.n == n and is_connected(g) for g in graphs)

    def test_n3_by_hand(self):
        # brute force over the 8 subsets of {01, 02, 12}: the three
        # two-edge paths and the triangle are connected
        got = {g.edges for g in enumerate_connected_graphs(3)}
        assert got == {
            ((0, 1), (0, 2)), ((0, 1), (1, 2)), ((0, 2), (1, 2)),
            ((0, 1), (0, 2), (1, 2)),
        }

    def test_no_duplicates(self):
        graphs = list(enumerate_connected_graphs(4))
        assert len({g.edges for g in graphs}) == len(graphs)

    def test_deterministic_order(self):
        first = [g.edges for g in enumerate_connected_graphs(4)]
        second = [g.edges for g in enumerate_connected_graphs(4)]
        assert first == second

    @pytest.mark.parametrize("n", [1, 7])
    def test_guard(self, n):
        with pytest.raises(ValueError):
            list(enumerate_connected_graphs(n))
