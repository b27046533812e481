"""Seeded inputs for the benchmark workloads, with the answers they imply.

Every generator is a pure function of its arguments: the same
(seed, family, n) always yields the same graph.  Each graph comes with
the verdict its construction guarantees, so the benchmark can check the
program's answers without asking the program.  Nothing here imports
homrep.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# verdict reasons, spelled as the classifier prints them
FAITHFUL = "Faithful"
TREE_WITH_SYMMETRY = "TreeWithSymmetry"
SYMMETRIC_PENDANT_TREE = "SymmetricPendantTree"
PERIODIC_UNICYCLIC = "PeriodicUnicyclic"

CLASSIFY_FAMILIES = (
    "cycle", "path", "star", "tree_cherry", "decorated_periodic",
    "decorated_aperiodic", "cycle_chords", "k4_tree",
)
CLASSIFY_SIZES = (128, 256, 512, 1024, 2048, 4096)

# Decorated cycles hang one rooted tree of this many vertices off every
# cycle vertex.  Shape j is the rooted path r=v0-v1-...-v6 plus one leaf
# on v_j; for j <= 4 the leaf's sibling v_{j+1} heads a path of at least
# two vertices, so every shape is rigid and the five shapes differ.
DECORATION_SIZE = 8
DECORATION_SHAPES = 5


@dataclass(frozen=True)
class Case:
    """A generated graph and the verdict its construction guarantees."""

    family: str
    n: int
    edges: tuple[tuple[int, int], ...]
    faithful: bool
    reason: str
    root: int | None = None
    period: int | None = None
    cycle_length: int | None = None  # the unique cycle, when there is one

    @property
    def betti(self) -> int:
        return len(self.edges) - self.n + 1

    @property
    def bridges(self) -> int:
        """Bridge count implied by the construction."""
        if self.betti == 0:
            return len(self.edges)
        if self.family == "cycle_chords":
            return 0
        if self.family == "k4_tree":
            return self.n - 4
        return self.n - self.cycle_length  # cycle plus hanging trees


def _norm(edges) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((u, v) if u < v else (v, u) for u, v in edges))


def _cycle_edges(m: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % m) for i in range(m)]


def _decoration(shape: int) -> list[int]:
    """Parent list of rooted-tree shape `shape`; vertex 0 is the root."""
    parents = [-1] + list(range(DECORATION_SIZE - 2))
    parents.append(shape)
    return parents


def _decorated_cycle(m: int, shapes: list[int], k: int) -> tuple[int, list[tuple[int, int]], list[list[int]]]:
    """Cycle 0..m-1 with tree shape shapes[j % k] hung off vertex j."""
    edges = _cycle_edges(m)
    labels = []
    nxt = m
    for j in range(m):
        parents = _decoration(shapes[j % k])
        mine = [j] + list(range(nxt, nxt + len(parents) - 1))
        nxt += len(parents) - 1
        edges.extend((mine[p], mine[t]) for t, p in enumerate(parents) if p >= 0)
        labels.append(mine)
    return nxt, edges, labels


def classify_case(seed: int, family: str, n: int) -> Case:
    """One classify_large input of about n vertices.

    Decorated cycles need n divisible by 8 with at least three cycle
    vertices per period; the aperiodic variant has n + 1 vertices.
    """
    rng = random.Random(f"{seed}:{family}:{n}")
    if family == "cycle":
        return Case(family, n, _norm(_cycle_edges(n)), False, PERIODIC_UNICYCLIC,
                    period=1, cycle_length=n)
    if family == "path":
        return Case(family, n, _norm((i, i + 1) for i in range(n - 1)),
                    False, TREE_WITH_SYMMETRY)
    if family == "star":
        return Case(family, n, _norm((0, i) for i in range(1, n)),
                    False, TREE_WITH_SYMMETRY)
    if family == "tree_cherry":
        # random recursive tree on n - 2 vertices, then two leaves on one
        # vertex: swapping them is a nontrivial automorphism
        edges = [(rng.randrange(i), i) for i in range(1, n - 2)]
        p = rng.randrange(n - 2)
        edges += [(p, n - 2), (p, n - 1)]
        return Case(family, n, _norm(edges), False, TREE_WITH_SYMMETRY)
    if family in ("decorated_periodic", "decorated_aperiodic"):
        if n % DECORATION_SIZE:
            raise ValueError(f"decorated cycles need n divisible by {DECORATION_SIZE}")
        m = n // DECORATION_SIZE
        periods = [k for k in (2, 4) if m % k == 0 and k < m]
        if not periods:
            raise ValueError(f"no period fits a cycle of length {m}")
        k = rng.choice(periods)
        # k distinct shapes make k the minimal period of the cyclic word
        shapes = rng.sample(range(DECORATION_SHAPES), k)
        total, edges, labels = _decorated_cycle(m, shapes, k)
        if family == "decorated_periodic":
            return Case(family, total, _norm(edges), False, PERIODIC_UNICYCLIC,
                        period=k, cycle_length=m)
        # lengthen the spine of the tree at cycle vertex 0: its code is now
        # unique in the word and the tree stays rigid, so no rotation survives
        edges.append((labels[0][DECORATION_SIZE - 2], total))
        return Case(family, total + 1, _norm(edges), True, FAITHFUL, cycle_length=m)
    if family == "cycle_chords":
        # leafless and not a cycle, hence faithful
        present = set(_norm(_cycle_edges(n)))
        chords = set()
        while len(chords) < max(2, n // 16):
            u, v = rng.sample(range(n), 2)
            e = (u, v) if u < v else (v, u)
            if e not in present:
                chords.add(e)
        return Case(family, n, _norm(present | chords), True, FAITHFUL)
    if family == "k4_tree":
        # K4 on 0..3 with a random tree hanging from vertex 0; the last two
        # vertices form a cherry, so the pendant tree at 0 is symmetric
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges.append((0, 4))
        edges += [(rng.randrange(4, i), i) for i in range(5, n - 2)]
        p = rng.randrange(4, n - 2)
        edges += [(p, n - 2), (p, n - 1)]
        return Case(family, n, _norm(edges), False, SYMMETRIC_PENDANT_TREE, root=0)
    raise ValueError(f"unknown family {family!r}")


def classify_cases(seed: int) -> list[Case]:
    """The classify_large input set: every family at every size."""
    return [classify_case(seed, family, n)
            for family in CLASSIFY_FAMILIES for n in CLASSIFY_SIZES]


@dataclass(frozen=True)
class GroupCase:
    """A rep_groups input with the closed forms its answers must match."""

    name: str
    n: int
    edges: tuple[tuple[int, int], ...]
    group_order: int
    kernel_size: int
    flags: tuple[str, ...] = ()

    @property
    def betti(self) -> int:
        return len(self.edges) - self.n + 1

    @property
    def faithful(self) -> bool:
        return self.kernel_size == 1


def _complete(n: int):
    return _norm((a, b) for a in range(n) for b in range(a + 1, n))


def _bipartite(k: int):
    return _norm((a, b) for a in range(k) for b in range(k, 2 * k))


def _cube(d: int):
    return _norm((v, v ^ (1 << b)) for v in range(1 << d) for b in range(d) if v < v ^ (1 << b))


def group_cases() -> list[GroupCase]:
    """The rep_groups input set.  Leafless non-cycles are faithful; a
    star's homology is trivial, so its whole group is the kernel; the
    kernel of a cycle is its rotation subgroup.

    The groups of 12 to 120 elements take 2-15 ms each; they are the
    lower half of the set, so its median is an operation short enough to
    find a calm moment on a shared host.  The large groups take 0.1-5 s.
    """
    petersen = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
    prism = ([(i, (i + 1) % 3) for i in range(3)] + [(i + 3, (i + 1) % 3 + 3) for i in range(3)]
             + [(i, i + 3) for i in range(3)])
    wheel = [(0, i) for i in range(1, 7)] + [(i, i % 6 + 1) for i in range(1, 7)]
    return [
        GroupCase("K4", 4, _complete(4), math.factorial(4), 1),
        GroupCase("K5", 5, _complete(5), math.factorial(5), 1),
        GroupCase("K3,3", 6, _bipartite(3), 2 * math.factorial(3) ** 2, 1),
        GroupCase("Q3", 8, _cube(3), 48, 1),
        GroupCase("prism-3", 6, _norm(prism), 12, 1),
        GroupCase("octahedron", 6, _norm((a, b) for a, b in _complete(6) if b - a != 3), 48, 1),
        GroupCase("wheel-6", 7, _norm(wheel), 12, 1),
        GroupCase("C12", 12, _norm(_cycle_edges(12)), 24, 12),
        GroupCase("star-4", 5, _norm((0, i) for i in range(1, 5)),
                  math.factorial(4), math.factorial(4)),
        GroupCase("petersen", 10, _norm(petersen), 120, 1),
        GroupCase("K6", 6, _complete(6), math.factorial(6), 1),
        GroupCase("K7", 7, _complete(7), math.factorial(7), 1, ("--mod-p", "3")),
        GroupCase("K8", 8, _complete(8), math.factorial(8), 1, ("--kernel-only",)),
        GroupCase("Q4", 16, _cube(4), 384, 1),
        GroupCase("K4,4", 8, _bipartite(4), 2 * math.factorial(4) ** 2, 1),
        GroupCase("star-7", 8, _norm((0, i) for i in range(1, 8)),
                  math.factorial(7), math.factorial(7)),
        GroupCase("C1500", 1500, _norm(_cycle_edges(1500)), 3000, 1500),
    ]


def corpus_shapes(n_max: int = 6) -> list[tuple]:
    """A shape for every labeled connected graph on 2..n_max vertices, in
    the order homrep's enumerator yields them: increasing bitmask over
    the lexicographically sorted possible edges.

    The shape is the edge count and, for every vertex, its degree and
    its neighbours' degrees.  Graphs of one shape are isomorphic but for
    a few pairs at n = 6, so the verifier does the same checks on them.
    """
    shapes = []
    for n in range(2, n_max + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1 << len(slots)):
            adj = [0] * n
            for k, (i, j) in enumerate(slots):
                if mask >> k & 1:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
            seen, frontier = 1, 1
            while frontier:
                v = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                new = adj[v] & ~seen
                seen |= new
                frontier |= new
            if seen != (1 << n) - 1:
                continue
            deg = [a.bit_count() for a in adj]
            shapes.append((n, mask.bit_count(), tuple(sorted(
                (deg[v], tuple(sorted(deg[u] for u in range(n) if adj[v] >> u & 1)))
                for v in range(n)))))
    return shapes


def edge_list_text(n: int, edges) -> str:
    """The edge-list file format: an 'n <count>' header, then 'u v' lines."""
    return "".join([f"n {n}\n"] + [f"{u} {v}\n" for u, v in edges])


def graph6(n: int, edges) -> str:
    """graph6 encoding for n < 63: upper triangle, column by column."""
    if not 0 < n < 63:
        raise ValueError("graph6 encoding here covers 0 < n < 63")
    present = set(_norm(edges))
    bits = [1 if (i, j) in present else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    chars = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        chars.append(chr(63 + int("".join(map(str, bits[k:k + 6])), 2)))
    return "".join(chars)
