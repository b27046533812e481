"""Spanning-tree bases of the cycle space and homology coordinates.

A spanning tree T of a connected graph leaves beta = e - v + 1 co-tree
edges.  Each co-tree dart x_i closes a unique simple oriented cycle
through the tree; these fundamental cycles are a basis of the first
homology group, and every simple oriented cycle has coordinates in
{-1, 0, 1} with respect to it.
"""

from __future__ import annotations

import random
import struct
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import DisconnectedGraphError
from .graphs import Dart, Graph, require_connected


class OrientedCycle:
    """A simple closed walk, stored as the sequence of darts it traverses.

    Two values compare equal when they traverse the same darts in the
    same cyclic order, regardless of starting dart.
    """

    __slots__ = ("darts", "_canon")

    def __init__(self, darts: Sequence[Dart]):
        darts = tuple(Dart(*d) for d in darts)
        k = len(darts)
        if k < 3:
            raise ValueError(f"a simple cycle has at least 3 darts, got {k}")
        for j, d in enumerate(darts):
            if d.head != darts[(j + 1) % k].tail:
                raise ValueError("darts do not chain into a closed walk")
        tails = [d.tail for d in darts]
        if len(set(tails)) != k:
            raise ValueError("cycle revisits a vertex (not simple)")
        self.darts = darts
        shift = min(range(k), key=lambda j: darts[j])
        self._canon = darts[shift:] + darts[:shift]

    def __len__(self) -> int:
        return len(self.darts)

    def vertices(self) -> tuple[int, ...]:
        return tuple(d.tail for d in self.darts)

    def dart_set(self) -> frozenset[Dart]:
        return frozenset(self.darts)

    def __eq__(self, other) -> bool:
        return isinstance(other, OrientedCycle) and self._canon == other._canon

    def __hash__(self) -> int:
        return hash(self._canon)

    def __repr__(self) -> str:
        return f"OrientedCycle({list(self.darts)})"


class SpanningTreeBasis:
    """A spanning tree plus the ordered co-tree darts x_1..x_beta.

    Co-tree darts are oriented (u, v) with u < v and listed in
    lexicographic order.  The tree is held as parent pointers from
    `root`, which is how fundamental-cycle tree paths are recovered;
    `tree_edges` is built from them on first read.
    """

    __slots__ = ("graph", "root", "cotree", "parent", "depth",
                 "_tree_edges", "_cycles", "_coord_index", "_dart_table")

    def __init__(self, graph: Graph, tree_edges: Iterable[tuple[int, int]],
                 root: int = 0):
        n = graph.n
        if type(root) is not int or not 0 <= root < n:
            raise ValueError(f"root must be a vertex in range({n}), got {root!r}")
        tree = frozenset((u, v) if u < v else (v, u) for u, v in tree_edges)
        if len(tree) != n - 1:
            raise ValueError(f"spanning tree needs {n - 1} edges, got {len(tree)}")
        for u, v in tree:
            if not graph.has_edge(u, v):
                raise ValueError(f"tree edge ({u}, {v}) is not a graph edge")
        # orient the tree away from the root; also checks it spans.  The
        # edges in sorted order list every vertex's neighbours in order.
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(tree):
            adj[u].append(v)
            adj[v].append(u)
        parent, depth = _bfs_tree(adj, root)
        if -2 in parent:
            raise ValueError("edge set is not a spanning tree (does not reach "
                             "every vertex)")
        self._adopt(graph, root, parent, depth)
        self._tree_edges = tree

    @classmethod
    def _from_parents(cls, graph: Graph, root: int, parent: Sequence[int],
                      depth: Sequence[int]) -> "SpanningTreeBasis":
        """The basis of the spanning tree of graph given by parent pointers
        and depths from root (parent -1 at the root only), unchecked.

        For the builders below, whose own traversal yields the tree;
        every other caller goes through the validating constructor.
        """
        b = cls.__new__(cls)
        b._adopt(graph, root, parent, depth)
        return b

    def _adopt(self, graph: Graph, root: int, parent: Sequence[int],
               depth: Sequence[int]) -> None:
        self.graph = graph
        self.root = root
        self.parent = tuple(parent)
        self.depth = tuple(depth)
        self.cotree = tuple(map(Dart._make, [(u, v) for u, v in graph.edges
                                             if parent[u] != v and parent[v] != u]))
        self._tree_edges: frozenset[tuple[int, int]] | None = None
        self._cycles: tuple[OrientedCycle, ...] | None = None
        self._coord_index: dict[Dart, tuple[int, int]] | None = None
        self._dart_table: dict[int, tuple[int, ...]] | None = None

    @property
    def tree_edges(self) -> frozenset[tuple[int, int]]:
        if self._tree_edges is None:
            self._tree_edges = frozenset((p, v) if p < v else (v, p)
                                         for v, p in enumerate(self.parent) if p >= 0)
        return self._tree_edges

    @property
    def beta(self) -> int:
        return len(self.cotree)

    def tree_path_darts(self, a: int, b: int) -> list[Dart]:
        """Darts of the unique tree path from a to b."""
        parent, depth = self.parent, self.depth
        up_a: list[Dart] = []
        up_b: list[Dart] = []
        while depth[a] > depth[b]:
            up_a.append(Dart(a, parent[a]))
            a = parent[a]
        while depth[b] > depth[a]:
            up_b.append(Dart(b, parent[b]))
            b = parent[b]
        while a != b:
            up_a.append(Dart(a, parent[a]))
            up_b.append(Dart(b, parent[b]))
            a, b = parent[a], parent[b]
        return up_a + [d.inverse() for d in reversed(up_b)]

    def fundamental_cycles(self) -> tuple[OrientedCycle, ...]:
        if self._cycles is None:
            cycles = []
            for x in self.cotree:
                cycles.append(OrientedCycle([x] + self.tree_path_darts(x.head, x.tail)))
            self._cycles = tuple(cycles)
        return self._cycles

    def coordinate_index(self) -> dict[Dart, tuple[int, int]]:
        """Map each co-tree dart (either orientation) to (position, sign)."""
        if self._coord_index is None:
            index: dict[Dart, tuple[int, int]] = {}
            for i, x in enumerate(self.cotree):
                index[x] = (i, 1)
                index[x.inverse()] = (i, -1)
            self._coord_index = index
        return self._coord_index

    def cycle_dart_table(self) -> dict[int, tuple[int, ...]]:
        """Signed cycle-dart incidence, one row per dart (tail, head),
        keyed by the integer dart tail * n + head.

        Entry j of the row of dart d is +1 when the j-th fundamental
        cycle traverses d, -1 when it traverses d's inverse, 0 otherwise.
        """
        if self._dart_table is None:
            n, beta = self.graph.n, len(self.cotree)
            parent, depth = self.parent, self.depth
            rows = {}
            zero = [0] * beta
            for u, v in self.graph.edges:
                rows[u * n + v] = zero.copy()
                rows[v * n + u] = zero.copy()
            # cycle j: the co-tree dart (u, v), then the tree path from v
            # up to the common ancestor with u and down again to u, walked
            # from both ends, the deeper end first
            for j, (u, v) in enumerate(self.cotree):
                rows[u * n + v][j] = 1
                rows[v * n + u][j] = -1
                a, b = v, u
                while a != b:
                    if depth[a] >= depth[b]:
                        p = parent[a]
                        rows[a * n + p][j] = 1
                        rows[p * n + a][j] = -1
                        a = p
                    else:
                        p = parent[b]
                        rows[p * n + b][j] = 1
                        rows[b * n + p][j] = -1
                        b = p
            self._dart_table = {d: tuple(row) for d, row in rows.items()}
        return self._dart_table

    def __repr__(self) -> str:
        return (f"SpanningTreeBasis(root={self.root}, "
                f"tree={sorted(self.tree_edges)}, cotree={list(self.cotree)})")


def betti(g: Graph) -> int:
    """First Betti number e - v + 1 of a connected graph."""
    require_connected(g)
    return g.num_edges - g.n + 1


def basis_from_tree(g: Graph, tree_edges: Iterable[tuple[int, int]],
                    root: int = 0) -> SpanningTreeBasis:
    """Basis determined by an explicit spanning tree."""
    require_connected(g)
    return SpanningTreeBasis(g, tree_edges, root)


def _bfs_tree(adj: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    """Parent pointers and depths of the BFS tree from root, taking each
    vertex's neighbours in the order adj lists them; the parent is -1 at
    the root and -2 at every vertex the search does not reach."""
    parent = [-2] * len(adj)
    depth = [0] * len(adj)
    parent[root] = -1
    queue = [root]
    for x in queue:
        for y in adj[x]:
            if parent[y] == -2:
                parent[y] = x
                depth[y] = depth[x] + 1
                queue.append(y)
    return parent, depth


def spanning_tree_basis(g: Graph) -> SpanningTreeBasis:
    """Canonical basis: BFS tree from vertex 0, neighbors in label order.

    Deterministic, so repeated runs (and golden outputs) agree.
    """
    parent, depth = _bfs_tree(g._adj, 0)
    if -2 in parent:
        raise DisconnectedGraphError("graph is not connected")
    return SpanningTreeBasis._from_parents(g, 0, parent, depth)


# Words of a seed's stream drawn on the first call; a graph that needs
# more of them asks again for twice as many, of which these are a prefix.
_FIRST_WORDS = 64


@lru_cache(maxsize=32)
def _seed_slot(seed: int) -> list[tuple[int, ...]]:
    """A one-item list holding the words of random.Random(seed) drawn so
    far: each seed keeps one tuple, which _seed_words replaces by a
    longer one when asked for more."""
    return [()]


def _seed_words(seed: int, length: int) -> tuple[int, ...]:
    """At least the first `length` 32-bit outputs of random.Random(seed),
    in order.

    getrandbits(32 * length) fills its result with the next words, the
    first one least significant.  A longer draw replaces the seed's
    tuple, so a caller keeps reading the tuple it was given.
    """
    slot = _seed_slot(seed)
    words = slot[0]
    if len(words) < length:
        bits = random.Random(seed).getrandbits(32 * length)
        words = slot[0] = struct.unpack(f"<{length}I", bits.to_bytes(4 * length, "little"))
    return words


def random_spanning_tree_basis(g: Graph, seed: int) -> SpanningTreeBasis:
    """Seeded randomized-DFS spanning tree; same seed, same basis.

    The tree is the one random.Random(seed) yields when randrange picks
    the root and shuffle orders each vertex's neighbours before they are
    pushed.  Each seed's words are drawn once, kept in a bounded cache
    and replayed, so no generator is built per call or shared between
    calls.  The basis builds `tree_edges` on first read.
    """
    n = g.n
    adj = g._adj
    # CPython's Random._randbelow_with_getrandbits(bound), replayed: for
    # k = bound.bit_length() <= 32 (every bound here is a vertex count or
    # a degree), getrandbits(k) is the next word shifted right by 32 - k,
    # and a draw of at least bound is rejected.  randrange(n) is that
    # draw with bound n; shuffle makes one per step, with bound j + 1 for
    # j from len - 1 down to 1.
    words = _seed_words(seed, _FIRST_WORDS)
    i = 0
    shift = 32 - n.bit_length()
    while True:
        try:
            root = words[i] >> shift
        except IndexError:  # past the cached words: ask for twice as many
            words = _seed_words(seed, 2 * i)
            continue
        i += 1
        if root < n:
            break
    parent = [-2] * n
    depth = [0] * n
    stack: list[tuple[int, int]] = [(root, -1)]
    while stack:
        x, came_from = stack.pop()
        if parent[x] != -2:
            continue
        parent[x] = came_from
        if came_from >= 0:
            depth[x] = depth[came_from] + 1
        nbrs = adj[x]
        if len(nbrs) > 1:  # shuffle draws nothing for fewer
            nbrs = list(nbrs)
            for j in range(len(nbrs) - 1, 0, -1):
                bound = j + 1
                shift = 32 - bound.bit_length()
                while True:
                    try:
                        k = words[i] >> shift
                    except IndexError:
                        words = _seed_words(seed, 2 * i)
                        continue
                    i += 1
                    if k < bound:
                        break
                nbrs[j], nbrs[k] = nbrs[k], nbrs[j]
        for y in nbrs:
            if parent[y] == -2:
                stack.append((y, x))
    if -2 in parent:
        raise DisconnectedGraphError("graph is not connected")
    return SpanningTreeBasis._from_parents(g, root, parent, depth)


def cycle_coordinates(c: OrientedCycle, b: SpanningTreeBasis) -> tuple[int, ...]:
    """Homology coordinates of a simple oriented cycle in basis b.

    Entry i is +1 if c traverses x_i, -1 if it traverses its inverse,
    0 otherwise.
    """
    g = b.graph
    index = b.coordinate_index()
    coords = [0] * b.beta
    for d in c.darts:
        if not g.is_dart(d):
            raise ValueError(f"dart {d} does not belong to the graph")
        hit = index.get(d)
        if hit is not None:
            coords[hit[0]] += hit[1]
    return tuple(coords)
