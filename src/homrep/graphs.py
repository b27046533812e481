"""Simple undirected graphs on dense integer vertex labels.

Vertices are always 0..n-1.  Graph values are immutable after
construction and hashable, so they can be shared freely across workers
and used as dictionary keys.  Parsing (edge-list text and graph6) and
the exhaustive labeled enumeration used by the verifier live here too.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

from .errors import DisconnectedGraphError, GraphParseError

ENUMERATION_MAX_VERTICES = 6


class Dart(NamedTuple):
    """An edge together with a direction of traversal."""

    tail: int
    head: int

    def inverse(self) -> "Dart":
        return Dart(self.head, self.tail)


class Graph:
    """Immutable simple graph: no loops, no parallel edges."""

    # _hash: computed once, as Automorphism keys hash their graph on every
    # dict operation; _structure: the structure homrep.blocks builds on
    # first use and keeps here; _connected: is_connected's answer, once asked
    __slots__ = ("n", "edges", "_edge_set", "_adj", "_hash", "_structure", "_connected")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 1:
            raise ValueError(f"graph must have at least one vertex, got n={n}")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            normalized.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(normalized))
        self._edge_set = frozenset(self.edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(nbrs)) for nbrs in adj)
        self._hash = hash((n, self.edges))
        self._structure = None
        self._connected = None

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_set

    def is_dart(self, d: Dart) -> bool:
        return d.tail != d.head and self.has_edge(d.tail, d.head)

    def adjacency_masks(self) -> list[int]:
        """Adjacency rows as integer bitmasks (bit v of row u <=> u~v)."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return masks

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.n == other.n and self.edges == other.edges)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def is_connected(g: Graph) -> bool:
    """True iff a breadth-first search from vertex 0 reaches every vertex;
    the search runs once per graph, and its answer is kept on the graph."""
    if g._connected is None:
        seen = [True] + [False] * (g.n - 1)
        queue = [0]
        for x in queue:
            for y in g._adj[x]:
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
        g._connected = len(queue) == g.n
    return g._connected


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedGraphError("graph is not connected")


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text: one "u v" pair per line.

    Lines starting with '#' are comments.  An optional first line
    "n <count>" fixes the vertex count (allowing isolated vertices);
    otherwise n is inferred as 1 + the largest label.  Duplicate edges
    collapse; self-loops are rejected.
    """
    return Graph(*_read_edge_list(text))


def _read_edge_list(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and the edge pairs, duplicates included, of
    edge-list text (see parse_edge_list), read before any graph is built."""
    edges: list[tuple[int, int]] = []
    declared_n: int | None = None
    saw_data = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if saw_data or declared_n is not None:
                raise GraphParseError("header 'n <count>' must come first", lineno)
            if len(tokens) != 2:
                raise GraphParseError("expected 'n <count>'", lineno)
            try:
                declared_n = int(tokens[1])
            except ValueError:
                raise GraphParseError(f"bad vertex count {tokens[1]!r}", lineno) from None
            if declared_n < 1:
                raise GraphParseError(f"vertex count must be positive, got {declared_n}", lineno)
            continue
        saw_data = True
        if len(tokens) != 2:
            raise GraphParseError(f"expected two labels, got {len(tokens)} tokens", lineno)
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphParseError(f"malformed token in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"negative vertex label in {line!r}", lineno)
        if u == v:
            raise GraphParseError(f"self-loop '{u} {u}' is not allowed", lineno)
        if declared_n is not None and max(u, v) >= declared_n:
            raise GraphParseError(f"label {max(u, v)} exceeds declared n={declared_n}", lineno)
        edges.append((u, v))
    if declared_n is not None:
        n = declared_n
    elif edges:
        n = 1 + max(max(u, v) for u, v in edges)
    else:
        raise GraphParseError("no edges and no 'n <count>' header")
    return n, edges


def format_edge_list(g: Graph) -> str:
    """Render a graph in the edge-list format accepted by parse_edge_list."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _pair_order(n: int) -> Iterator[tuple[int, int]]:
    # graph6 bit order: column-major over the upper triangle
    for j in range(1, n):
        for i in range(j):
            yield i, j


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (vertex counts below 63 only)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 input")
    for ch in s:
        if not 63 <= ord(ch) <= 126:
            raise GraphParseError(f"invalid graph6 character {ch!r}")
    if ord(s[0]) == 126:
        raise GraphParseError("graph6 headers for n >= 63 are not supported")
    n = ord(s[0]) - 63
    if n == 0:
        raise GraphParseError("graph6 encodes an empty graph (n=0)")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) != nbytes:
        raise GraphParseError(
            f"graph6 bit section has {len(body)} characters, expected {nbytes}")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise GraphParseError("nonzero padding bits in graph6 input")
    edges = [(i, j) for (i, j), b in zip(_pair_order(n), bits) if b]
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode a graph in graph6 format (requires n < 63)."""
    if g.n >= 63:
        raise ValueError("graph6 encoding implemented for n < 63 only")
    bits = [1 if g.has_edge(i, j) else 0 for i, j in _pair_order(g.n)]
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Yield every labeled connected simple graph on n vertices once.

    Deterministic order: increasing bitmask over the lexicographically
    sorted list of possible edges (bit k <=> edge k present).  Guarded
    to n <= 6; the subset count doubles per extra edge slot.
    """
    if not 2 <= n <= ENUMERATION_MAX_VERTICES:
        raise ValueError(
            f"enumeration supports 2 <= n <= {ENUMERATION_MAX_VERTICES}, got {n}")
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(all_edges)
    for mask in range(1 << m):
        g = Graph(n, [all_edges[b] for b in range(m) if mask >> b & 1])
        if is_connected(g):
            yield g
