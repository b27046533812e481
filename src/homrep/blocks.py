"""Block structure of a connected graph.

One structure per graph, memoised on the immutable Graph, is built in
parts.  First, and always: one leaf peel, which leaves a tree's centre
or any other graph's 2-core, in cycle order when there is a unique
cycle, and one integer AHU labelling of the forest hanging from what
the peel leaves.  Its labels answer the rooted-tree questions: pendant
trees and their rigidity, and detection of unicyclic graphs whose
unique cycle admits a nontrivial rotation, where the tree hanging from
a cycle vertex is its pendant tree, or the bare vertex, whose label is
the leaf label.  On first use: the unique cycle as an OrientedCycle,
blocks (maximal 2-connected subgraphs), cutvertices and bridges by the
lowpoint search, 2-edge-connected components, and the pendant trees'
vertex and edge sets.  classify reads only the first part.  Also here:
the bipartite block tree, canonical codes and explicit isomorphisms of
rooted trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .cycles import OrientedCycle
from .graphs import Graph, is_connected, require_connected


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks as vertex sets, with the bridge and cutvertex summary.

    Trivial two-vertex blocks are kept so that every edge belongs to
    exactly one block; bridges are precisely the trivial blocks.
    """

    blocks: tuple[frozenset[int], ...]
    block_edges: tuple[tuple[tuple[int, int], ...], ...]
    cutvertices: frozenset[int]
    bridges: frozenset[tuple[int, int]]

    def nontrivial_blocks(self) -> tuple[frozenset[int], ...]:
        return tuple(b for b in self.blocks if len(b) >= 3)


def _lowpoint_blocks(adj) -> BlockDecomposition:
    """Standard lowpoint (depth-first) biconnected-components algorithm,
    on the neighbour lists adj of a connected graph."""
    n = len(adj)
    if n < 2:
        return BlockDecomposition((), (), frozenset(), frozenset())

    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    next_nbr = [0] * n
    edge_stack: list[tuple[int, int]] = []
    raw_blocks: list[list[tuple[int, int]]] = []

    disc[0] = low[0] = 0
    timer = 1
    stack = [0]
    while stack:
        v = stack[-1]
        nbrs = adj[v]
        if next_nbr[v] < len(nbrs):
            w = nbrs[next_nbr[v]]
            next_nbr[v] += 1
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = timer
                timer += 1
                edge_stack.append((v, w))
                stack.append(w)
            elif w != parent[v] and disc[w] < disc[v]:
                edge_stack.append((v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if stack:
                u = stack[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    block = []
                    while True:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == (u, v):
                            break
                    raw_blocks.append(block)

    blocks = []
    for raw in raw_blocks:
        verts = frozenset(x for e in raw for x in e)
        edges = tuple(sorted((a, b) if a < b else (b, a) for a, b in raw))
        blocks.append((tuple(sorted(verts)), verts, edges))
    blocks.sort(key=lambda t: t[0])

    counts: dict[int, int] = {}
    for _, verts, _ in blocks:
        for x in verts:
            counts[x] = counts.get(x, 0) + 1
    cutvertices = frozenset(x for x, c in counts.items() if c >= 2)
    bridges = frozenset(edges[0] for _, verts, edges in blocks if len(verts) == 2)
    return BlockDecomposition(
        blocks=tuple(verts for _, verts, _ in blocks),
        block_edges=tuple(edges for _, _, edges in blocks),
        cutvertices=cutvertices,
        bridges=bridges)


@dataclass(frozen=True)
class BlockTreeNode:
    kind: str  # "block" or "cut"
    members: tuple[int, ...] | None = None
    vertex: int | None = None

    def to_json(self) -> dict:
        if self.kind == "block":
            return {"kind": "block", "members": list(self.members)}
        return {"kind": "cut", "vertex": self.vertex}


@dataclass(frozen=True)
class BlockTree:
    """Bipartite incidence tree of blocks and cutvertices, with centre."""

    nodes: tuple[BlockTreeNode, ...]
    edges: tuple[tuple[int, int], ...]
    centre: int

    def to_json(self) -> dict:
        return {"nodes": [x.to_json() for x in self.nodes],
                "edges": [list(e) for e in self.edges],
                "centre": self.centre}


def block_tree(d: BlockDecomposition) -> BlockTree:
    """Incidence tree (cutvertex adjacent to block iff it lies in it).

    The centre is computed by iterated leaf removal and asserted to be
    a single node, which holds for every block tree because all its
    leaves are blocks.
    """
    if not d.blocks:
        raise ValueError("empty decomposition has no block tree")
    nodes = [BlockTreeNode("block", members=tuple(sorted(b))) for b in d.blocks]
    cut_index = {}
    for x in sorted(d.cutvertices):
        cut_index[x] = len(nodes)
        nodes.append(BlockTreeNode("cut", vertex=x))
    edges = []
    for bi, b in enumerate(d.blocks):
        for x in sorted(b & d.cutvertices):
            edges.append((bi, cut_index[x]))

    total = len(nodes)
    if len(edges) != total - 1:
        raise RuntimeError("block incidence structure is not a tree")
    adj: list[set[int]] = [set() for _ in range(total)]
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    centre = _peel(adj)
    if len(centre) != 1:
        raise RuntimeError(
            f"block tree centre is not a single node: {sorted(centre)}")
    return BlockTree(tuple(nodes), tuple(edges), centre[0])


def _peel(adj) -> list[int]:
    """The nodes left when leaves are peeled, a layer at a time, while
    more than two nodes remain, of the connected graph with neighbour
    lists adj on 0..len(adj)-1: a tree's centre (one or two nodes), or
    any other graph's 2-core in increasing order."""
    # a node joins the next layer when its degree drops to one; peeled
    # nodes only drop further, so they never rejoin
    deg = [len(a) for a in adj]
    layer = [i for i in range(len(adj)) if deg[i] <= 1]
    remaining = len(adj)
    while remaining > 2 and layer:
        remaining -= len(layer)
        next_layer = []
        for leaf in layer:
            for other in adj[leaf]:
                deg[other] -= 1
                if deg[other] == 1:
                    next_layer.append(other)
        layer = next_layer
    # a tree stops at its centre; any other graph runs out of leaves, and
    # the nodes of degree two or more are then its 2-core
    return layer or [i for i in range(len(adj)) if deg[i] >= 2]


def is_simple_cycle_graph(g: Graph) -> bool:
    """True iff the whole graph is one simple cycle."""
    return (g.n >= 3 and all(g.degree(v) == 2 for v in range(g.n))
            and is_connected(g))


@dataclass(frozen=True)
class PendantTree:
    """The tree hanging from a root on the 2-core.

    The root survives iterated leaf deletion; the hanging part is the
    union of the acyclic components of g - root attached to the root by
    exactly one edge, that is, the root's descendants off the 2-core.
    """

    root: int
    vertices: frozenset[int]
    edges: tuple[tuple[int, int], ...]


class _Structure:
    """The structure of one connected graph, built in parts.

    The constructor checks connectivity, peels leaves and labels once
    the forest hanging from what the peel leaves, roots: the centre of a
    tree, else the 2-core, in the order of the unique cycle when
    beta = 1.  labels and children label that forest (see
    _subtree_labels), and symmetric[label] tells whether that label's
    rooted tree has a nontrivial root-fixing automorphism (see
    _symmetric_labels).  Off a tree, every vertex outside the 2-core has
    one path to it, so a core vertex's descendants are the acyclic
    components of g - root attached to it by one edge: its pendant tree.

    cycle, blocks, two_edge_components and pendant_trees are built the
    first time they are read; classify and its witnesses read none of
    them.
    """

    def __init__(self, g: Graph):
        require_connected(g)
        adj = self._adj = g._adj
        self._tree = g.num_edges < g.n
        self._unicyclic = g.num_edges == g.n
        roots = _peel(adj)
        if self._unicyclic:
            # from the smallest cycle vertex toward its smaller cycle neighbor
            on_cycle = [False] * g.n
            for v in roots:
                on_cycle[v] = True
            seq = [roots[0], min(y for y in adj[roots[0]] if on_cycle[y])]
            while len(seq) < len(roots):
                seq.append(next(y for y in adj[seq[-1]] if on_cycle[y] and y != seq[-2]))
            roots = seq
        self.roots = tuple(roots)
        table: dict[tuple[int, ...], int] = {}
        self.labels, self.children = _subtree_labels(adj, roots, table)
        self.symmetric = _symmetric_labels(table)

    def is_symmetric(self, v: int) -> bool:
        """Whether the tree hanging from v has a nontrivial automorphism
        fixing v."""
        return self.symmetric[self.labels[v]]

    @cached_property
    def cycle(self) -> OrientedCycle | None:
        """The unique cycle when beta = 1, oriented as the roots run."""
        if not self._unicyclic:
            return None
        r = self.roots
        return OrientedCycle(list(zip(r, r[1:] + r[:1])))

    @cached_property
    def blocks(self) -> BlockDecomposition:
        return _lowpoint_blocks(self._adj)

    @cached_property
    def two_edge_components(self) -> tuple[frozenset[int], ...]:
        """One pass over the graph without its bridges."""
        adj = self._adj
        bridges = self.blocks.bridges
        comp_of = [-1] * len(adj)
        comps = []
        for start in range(len(adj)):
            if comp_of[start] >= 0:
                continue
            comp_of[start] = len(comps)
            comp = [start]
            for x in comp:
                for y in adj[x]:
                    if comp_of[y] < 0 and ((x, y) if x < y else (y, x)) not in bridges:
                        comp_of[y] = len(comps)
                        comp.append(y)
            comps.append(frozenset(comp))
        return tuple(comps)

    @cached_property
    def pendant_trees(self) -> tuple[PendantTree, ...]:
        if self._tree:  # a tree's roots are its centre, not a 2-core
            return ()
        trees = []
        for w in sorted(self.roots):
            if self.children[w]:
                verts = [w]
                edges = []
                for x in verts:
                    for c in self.children[x]:
                        verts.append(c)
                        edges.append((x, c) if x < c else (c, x))
                trees.append(PendantTree(root=w, vertices=frozenset(verts),
                                         edges=tuple(sorted(edges))))
        return tuple(trees)


def _structure(g: Graph) -> _Structure:
    """The structure of g, made on first use and kept on g."""
    s = g._structure
    if s is None:
        s = g._structure = _Structure(g)
    return s


def block_decomposition(g: Graph) -> BlockDecomposition:
    """Blocks, cutvertices and bridges of a connected graph."""
    return _structure(g).blocks


def two_edge_connected_components(g: Graph) -> tuple[frozenset[int], ...]:
    """Components after deleting all bridges; singletons included, in
    increasing order of their smallest vertex."""
    return _structure(g).two_edge_components


def pendant_trees(g: Graph) -> tuple[PendantTree, ...]:
    """All pendant trees, in increasing root order.

    A vertex roots a pendant tree when it lies on the 2-core (it survives
    iterated leaf deletion) and at least one component of g - root is
    acyclic and attached to the root by exactly one edge.  A tree has an
    empty 2-core, and so no pendant tree.
    """
    return _structure(g).pendant_trees


def _subtree_labels(adj, roots, table: dict) -> tuple[dict[int, int], dict[int, list[int]]]:
    """AHU labels (Aho-Hopcroft-Ullman) of the forest that a breadth-first
    search from the roots spans in adj, and every vertex's children, in
    the order of that search.

    A vertex's label is the number of the sorted tuple of its children's
    labels in table, so labels from one shared table are equal iff the
    rooted subtrees are isomorphic.  A bare vertex has the leaf label,
    that of ().
    """
    children: dict[int, list[int]] = {r: [] for r in roots}
    order = list(children)
    for v in order:
        kids = children[v]
        for c in adj[v]:
            if c not in children:
                children[c] = []
                kids.append(c)
                order.append(c)
    labels: dict[int, int] = {}
    for v in reversed(order):
        key = tuple(sorted(labels[c] for c in children[v]))
        labels[v] = table.setdefault(key, len(table))
    return labels, children


def _equal_siblings(roots, labels: dict[int, int],
                    children: dict[int, list[int]]) -> tuple[int, int] | None:
    """The first two siblings with equal labels, in breadth-first order
    below the given roots of a labelled forest, or None when there are
    none, i.e. the rooted trees are rigid.

    The roots count as siblings, children of a virtual root: a tree
    rooted at its bicentre u-v, with roots (u, v), is split there by a
    vertex that every automorphism fixes.
    """
    groups = [roots]
    for group in groups:
        first: dict[int, int] = {}
        for c in group:
            if labels[c] in first:
                return first[labels[c]], c
            first[labels[c]] = c
        groups.extend(children[c] for c in group)
    return None


def ahu_code(g: Graph, vertices, root: int) -> str:
    """Canonical code of the rooted tree induced by the given vertices.

    Leaves encode as "()"; an internal node concatenates its children's
    codes in sorted order inside one pair of parentheses.  Two rooted
    trees are isomorphic iff their codes are equal.
    """
    vset = set(vertices)
    if root not in vset:
        raise ValueError(f"root {root} is not among the tree vertices")
    adj: dict[int, list[int]] = {v: [] for v in vset}
    for u, v in g.edges:
        if u in vset and v in vset:
            adj[u].append(v)
            adj[v].append(u)
    table: dict[tuple[int, ...], int] = {}
    labels, _ = _subtree_labels(adj, [root], table)
    # a tree has |V| - 1 edges and the search from the root reaches all of it
    if sum(map(len, adj.values())) != 2 * (len(vset) - 1) or len(labels) != len(vset):
        raise ValueError("vertex set does not induce a tree")
    # keys are created children first, so each child's code is ready
    codes: list[str] = []
    for key in table:
        codes.append("(" + "".join(sorted(codes[c] for c in key)) + ")")
    return codes[labels[root]]


def rooted_tree_isomorphism(labels: dict[int, int], children: dict[int, list[int]],
                            a: int, b: int) -> dict[int, int]:
    """An explicit isomorphism of the subtrees rooted at a and b of one
    labelled forest (see _subtree_labels), which must carry equal labels.

    Children with equal labels are paired in (label, vertex) order,
    which keeps the map deterministic.
    """
    mapping = {a: b}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        kids_x = sorted((labels[c], c) for c in children[x])
        kids_y = sorted((labels[c], c) for c in children[y])
        for (_, cx), (_, cy) in zip(kids_x, kids_y):
            mapping[cx] = cy
            stack.append((cx, cy))
    return mapping


def unique_cycle(g: Graph) -> OrientedCycle:
    """The unique simple cycle of a graph with exactly one independent cycle.

    Canonical orientation: starts at the smallest cycle vertex, heading
    toward the smaller of its two cycle neighbors.
    """
    cycle = _structure(g).cycle
    if cycle is None:
        beta = g.num_edges - g.n + 1
        raise ValueError(f"graph has {beta} independent cycles, expected 1")
    return cycle


def _symmetric_labels(table: dict) -> list[bool]:
    """For each label of an AHU table (see _subtree_labels), whether its
    rooted tree has a nontrivial root-fixing automorphism, that is, some
    vertex of it has two children with equal labels."""
    symmetric: list[bool] = []
    # keys are created children first, so each child's flag is ready
    for key in table:
        symmetric.append(len(set(key)) < len(key) or any(symmetric[c] for c in key))
    return symmetric


def _minimal_period(word: list[int]) -> int:
    """The least k dividing len(word) such that rotating by k fixes word."""
    m = len(word)
    return next(k for k in range(1, m + 1)
                if m % k == 0 and all(word[j] == word[(j + k) % m] for j in range(m)))


def is_periodic_unicyclic(g: Graph) -> tuple[bool, int | None]:
    """Detect a nontrivial rotation of the unique cycle.

    Returns (False, None) unless the graph has exactly one independent
    cycle.  Otherwise each cycle vertex is encoded by the integer AHU
    label, from one table, of the tree hanging from it: its pendant
    tree, or the bare vertex, which has the leaf label.  The graph admits
    a nontrivial rotation iff this cyclic word has minimal period
    k < cycle length, and then (True, k) is returned.
    """
    s = _structure(g)
    if not s._unicyclic:
        return (False, None)
    word = [s.labels[v] for v in s.roots]
    k = _minimal_period(word)
    return (True, k) if k < len(word) else (False, None)
