"""Independent oracles shared by the test modules.

Everything here is deliberately written from scratch against the
definitions (permutation filters, direct bit arithmetic, Laplace
expansion, multiset recursion) so the tests never reuse the code paths
they are checking.
"""

from __future__ import annotations

import random
from itertools import permutations
from math import isqrt

from homrep import Automorphism, Graph, IntMatrix, OrientedCycle


def brute_force_automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """All n! permutations, filtered by adjacency preservation."""
    edge_set = set(g.edges)
    out = []
    for p in permutations(range(g.n)):
        ok = True
        for u, v in g.edges:
            a, b = p[u], p[v]
            if ((a, b) if a < b else (b, a)) not in edge_set:
                ok = False
                break
        if ok:
            out.append(p)
    return out


def reference_graph6_encode(n: int, edge_bits: dict[tuple[int, int], int]) -> str:
    """Direct bit-arithmetic graph6 encoder (n < 63)."""
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(edge_bits.get((i, j), 0))
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = sum(b << (5 - i) for i, b in enumerate(bits[k:k + 6]))
        chars.append(chr(val + 63))
    return "".join(chars)


def reference_graph6_decode(s: str) -> tuple[int, set[tuple[int, int]]]:
    """Direct bit-arithmetic graph6 decoder (n < 63)."""
    n = ord(s[0]) - 63
    bitstring = "".join(format(ord(c) - 63, "06b") for c in s[1:])
    edges = set()
    pos = 0
    for j in range(1, n):
        for i in range(j):
            if bitstring[pos] == "1":
                edges.add((i, j))
            pos += 1
    return n, edges


def laplace_determinant(rows) -> int:
    """Cofactor-expansion determinant (first row), exact."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        total += (-1) ** j * x * laplace_determinant(minor)
    return total


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix as det * adjugate, every
    determinant by cofactor expansion."""
    rows = m.rows
    det = laplace_determinant(rows)
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {det})")
    n = len(rows)
    return IntMatrix.from_rows(
        [det * (-1) ** (i + j) * laplace_determinant(
            [[x for c, x in enumerate(r) if c != i] for k, r in enumerate(rows) if k != j])
         for j in range(n)] for i in range(n))


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """The product f after g, (fg)(v) = f(g(v)), checked as an automorphism."""
    if f.graph != g.graph:
        raise ValueError("cannot compose automorphisms of different graphs")
    return Automorphism(f.graph, tuple(f.perm[x] for x in g.perm))


def trial_division_is_prime(p: int) -> bool:
    """Primality by trial division up to the square root of p."""
    return p >= 2 and all(p % d for d in range(2, isqrt(p) + 1))


def matrix_mod_p(m: IntMatrix, p: int) -> IntMatrix:
    """Entrywise reduction into 0..p-1."""
    return IntMatrix(tuple(tuple(x % p for x in row) for row in m.rows))


def reversed_cycle(c: OrientedCycle) -> OrientedCycle:
    """The same cycle walked the other way round."""
    return OrientedCycle([(d.head, d.tail) for d in reversed(c.darts)])


def reference_random_tree(g: Graph, seed: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(root, parent, depth) of the seeded randomized-DFS spanning tree,
    drawn from random.Random(seed) itself: randrange picks the root and
    shuffle orders each vertex's neighbours."""
    rng = random.Random(seed)
    n = g.n
    root = rng.randrange(n)
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
        nbrs = list(g.neighbors(x))
        rng.shuffle(nbrs)
        for y in nbrs:
            if parent[y] == -2:
                stack.append((y, x))
    return root, tuple(parent), tuple(depth)


def signed_incidence_matrix(g, perm, basis):
    """Entry-rule oracle for the matrix of an automorphism.

    Entry (i, j) is the signed number of times the image of the j-th
    fundamental cycle traverses the i-th co-tree dart: +1 per forward
    traversal, -1 per backward traversal, summed over the whole cycle.
    """
    beta = basis.beta
    rows = [[0] * beta for _ in range(beta)]
    for j, cycle in enumerate(basis.fundamental_cycles()):
        image = [(perm[d.tail], perm[d.head]) for d in cycle.darts]
        for i, x in enumerate(basis.cotree):
            fwd = sum(1 for d in image if d == (x.tail, x.head))
            bwd = sum(1 for d in image if d == (x.head, x.tail))
            rows[i][j] = fwd - bwd
    return [tuple(r) for r in rows]


def rooted_trees_up_to_iso(n: int) -> list[tuple[int, ...]]:
    """All rooted trees on n vertices, one parent array per isomorphism
    class, generated by canonical multiset recursion (no canonical-code
    machinery involved)."""
    memo: dict[int, list[tuple[int, ...]]] = {1: [(-1,)]}

    def trees(size: int) -> list[tuple[int, ...]]:
        if size in memo:
            return memo[size]
        result = []
        # partition size-1 into a nondecreasing sequence of (subtree size,
        # index within trees(size)) pairs; nondecreasing pairs make each
        # multiset appear exactly once
        def assemble(remaining, min_pair, chosen):
            if remaining == 0:
                parents = [-1]
                offset = 1
                for s, idx in chosen:
                    sub = trees(s)[idx]
                    parents.append(0)
                    for t in range(1, s):
                        parents.append(sub[t] + offset)
                    offset += s
                result.append(tuple(parents))
                return
            for s in range(1, remaining + 1):
                for idx in range(len(trees(s))):
                    if (s, idx) < min_pair:
                        continue
                    assemble(remaining - s, (s, idx), chosen + [(s, idx)])

        assemble(size - 1, (1, 0), [])
        memo[size] = result
        return result

    return trees(n)


def parents_to_edges(parents) -> list[tuple[int, int]]:
    return [(parents[i], i) for i in range(1, len(parents))]


def brute_rooted_isomorphic(parents_a, parents_b) -> bool:
    """Backtracking search for a root-fixing bijection between two
    rooted trees given as parent arrays."""
    if len(parents_a) != len(parents_b):
        return False
    n = len(parents_a)
    kids_a = [[] for _ in range(n)]
    kids_b = [[] for _ in range(n)]
    for i in range(1, n):
        kids_a[parents_a[i]].append(i)
        kids_b[parents_b[i]].append(i)

    def match(a, b) -> bool:
        ka, kb = kids_a[a], kids_b[b]
        if len(ka) != len(kb):
            return False
        if not ka:
            return True
        # try every assignment of a's children onto b's children
        for image in permutations(kb):
            if all(match(x, y) for x, y in zip(ka, image)):
                return True
        return False

    return match(0, 0)


def all_increasing_parent_arrays(n: int) -> list[tuple[int, ...]]:
    """Every parent array with parent[i] < i: covers every rooted-tree
    isomorphism class on n vertices (BFS relabeling is increasing)."""
    out: list[tuple[int, ...]] = [(-1,)]
    for i in range(1, n):
        out = [t + (p,) for t in out for p in range(i)]
    return out


def _components_without(g: Graph, w: int) -> list[set[int]]:
    """Vertex sets of the connected components of g - w."""
    seen = {w}
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        comp = {start}
        seen.add(start)
        queue = [start]
        for x in queue:
            for y in g.neighbors(x):
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    queue.append(y)
        comps.append(comp)
    return comps


def two_core(g: Graph) -> set[int]:
    """The vertices that survive deleting leaves, one at a time, until
    none is left; empty for a tree with an edge."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    leaves = [v for v in alive if deg[v] == 1]
    while leaves:
        v = leaves.pop()
        alive.discard(v)
        for y in g.neighbors(v):
            if y in alive:
                deg[y] -= 1
                if deg[y] == 1:
                    leaves.append(y)
    return alive


def reference_pendant_trees(g: Graph) -> list[tuple[int, frozenset[int], tuple[tuple[int, int], ...]]]:
    """(root, vertices, sorted edges) of every pendant tree, by root.

    Straight from the definition: w roots a pendant tree when it survives
    iterated leaf deletion and some component of g - w is acyclic and
    meets w in exactly one edge; the tree is w plus all such components.
    """
    out = []
    for w in sorted(two_core(g)):
        nbrs = set(g.neighbors(w))
        comps = _components_without(g, w)
        hanging = set()
        for c in comps:
            inner = sum(1 for u, v in g.edges if u in c and v in c)
            if inner == len(c) - 1 and len(c & nbrs) == 1:
                hanging |= c
        if hanging:
            verts = frozenset(hanging | {w})
            edges = tuple(e for e in g.edges if e[0] in verts and e[1] in verts)
            out.append((w, verts, edges))
    return out


def _reference_tree_code(adj: dict[int, set[int]], v: int, parent: int) -> str:
    kids = sorted(_reference_tree_code(adj, c, v) for c in adj[v] if c != parent)
    return "[" + "".join(kids) + "]"


def reference_periodicity(g: Graph) -> tuple[bool, int | None]:
    """Rotation detector of a unicyclic graph from reference_pendant_trees.

    The cycle is what is left after leaves are stripped repeatedly; each
    cycle vertex reads the code of its pendant tree, or of the bare
    vertex, and the smallest rotation that fixes the word is the period.
    """
    if g.num_edges != g.n:
        return (False, None)
    alive = two_core(g)
    start = min(alive)
    seq = [start]
    prev, v = start, min(y for y in g.neighbors(start) if y in alive)
    while v != start:
        seq.append(v)
        prev, v = v, next(y for y in g.neighbors(v) if y in alive and y != prev)
    trees = {}
    for root, verts, edges in reference_pendant_trees(g):
        adj = {x: set() for x in verts}
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        trees[root] = _reference_tree_code(adj, root, -1)
    word = [trees.get(v, "[]") for v in seq]
    m = len(word)
    shift = next(s for s in range(1, m + 1) if word[s:] + word[:s] == word)
    return (True, shift) if shift < m else (False, None)


def colour_refinement_classes(g: Graph) -> int:
    """Number of vertex classes once colour refinement (1-dimensional
    Weisfeiler-Leman, from uniform colours) is stable.  When it is g.n,
    every automorphism fixes every vertex, so g is rigid."""
    colour = [0] * g.n
    while True:
        sig = [(colour[v], tuple(sorted(colour[u] for u in g.neighbors(v))))
               for v in range(g.n)]
        ids = {s: i for i, s in enumerate(sorted(set(sig)))}
        refined = [ids[s] for s in sig]
        if len(ids) == len(set(colour)):
            return len(ids)
        colour = refined


def rep_groups_graphs() -> dict[str, tuple[Graph, tuple[str, ...]]]:
    """The benchmark's `rep --json` graphs that graph6 can encode (fewer
    than 63 vertices), by name, with the flags the benchmark adds."""
    def complete(n):
        return Graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])

    def bipartite(k):
        return Graph(2 * k, [(a, b) for a in range(k) for b in range(k, 2 * k)])

    def cube(d):
        return Graph(1 << d, [(v, v | 1 << i) for v in range(1 << d) for i in range(d)
                              if not v >> i & 1])

    def star(k):
        return Graph(k + 1, [(0, i) for i in range(1, k + 1)])

    petersen = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    prism = ([(i, (i + 1) % 3) for i in range(3)] + [(i + 3, (i + 1) % 3 + 3) for i in range(3)]
             + [(i, i + 3) for i in range(3)])
    wheel = [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)]
    return {
        "K4": (complete(4), ()),
        "K5": (complete(5), ()),
        "K3,3": (bipartite(3), ()),
        "Q3": (cube(3), ()),
        "prism-3": (Graph(6, prism), ()),
        "octahedron": (Graph(6, [(a, b) for a in range(6) for b in range(a + 1, 6)
                                 if b - a != 3]), ()),
        "wheel-6": (Graph(7, wheel), ()),
        "C12": (Graph(12, [(i, (i + 1) % 12) for i in range(12)]), ()),
        "star-4": (star(4), ()),
        "petersen": (Graph(10, petersen), ()),
        "K6": (complete(6), ()),
        "K7": (complete(7), ("--mod-p", "3")),
        "K8": (complete(8), ("--kernel-only",)),
        "Q4": (cube(4), ()),
        "K4,4": (bipartite(4), ()),
        "star-7": (star(7), ()),
    }
