"""Constructors for reference graph families.

Includes the decorated-cycle construction: an n-cycle with a k-periodic
sequence of rooted trees attached around it, which always carries a
nontrivial rotation acting trivially on homology.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autgroup import Automorphism
from .graphs import Graph


@dataclass(frozen=True)
class RootedTreeSpec:
    """A rooted tree as a parent sequence; vertex 0 is the root.

    parents[0] is -1 and parents[i] < i for i >= 1, so the labeling is
    topological by construction.
    """

    parents: tuple[int, ...]

    def __post_init__(self):
        if not self.parents or self.parents[0] != -1:
            raise ValueError("parents[0] must be -1 (vertex 0 is the root)")
        for i, p in enumerate(self.parents[1:], start=1):
            if not 0 <= p < i:
                raise ValueError(f"parent of vertex {i} must lie in 0..{i - 1}, got {p}")

    @property
    def size(self) -> int:
        return len(self.parents)

    @classmethod
    def parse(cls, text: str) -> "RootedTreeSpec":
        """Parse a parent list like "[-1,0,0,1]" (brackets optional)."""
        body = text.strip().lstrip("[").rstrip("]")
        try:
            parents = tuple(int(tok) for tok in body.split(",") if tok.strip())
        except ValueError:
            raise ValueError(f"malformed tree spec {text!r}") from None
        return cls(parents)


def build_periodic_unicyclic(n: int, k: int,
                             specs: list[RootedTreeSpec]) -> tuple[Graph, Automorphism]:
    """Attach a k-periodic sequence of rooted trees around an n-cycle.

    Requires n > 2, 1 <= k < n, k | n and exactly k tree specs.  Cycle
    vertices are labeled 0..n-1; tree copies follow in cycle order, each
    copy in spec order, with the copy's root identified with its cycle
    vertex.  Returns the graph together with the rotation by k, which is
    verified to be an automorphism of order n / k.
    """
    if n <= 2:
        raise ValueError(f"cycle length must exceed 2, got {n}")
    if not 1 <= k < n:
        raise ValueError(f"period {k} must be at least 1 and smaller than cycle length {n}")
    if n % k != 0:
        raise ValueError(f"period {k} does not divide cycle length {n}")
    if len(specs) != k:
        raise ValueError(f"expected {k} tree specs, got {len(specs)}")

    edges = [(j, (j + 1) % n) for j in range(n)]
    # label[j][t] = graph label of spec vertex t in the copy at cycle vertex j
    label: list[list[int]] = []
    next_label = n
    for j in range(n):
        spec = specs[j % k]
        mine = [j]
        for t in range(1, spec.size):
            mine.append(next_label)
            next_label += 1
        label.append(mine)
        for t in range(1, spec.size):
            edges.append((mine[spec.parents[t]], mine[t]))

    g = Graph(next_label, edges)
    perm = list(range(next_label))
    for j in range(n):
        target = (j + k) % n
        for t in range(specs[j % k].size):
            perm[label[j][t]] = label[target][t]
    rho = Automorphism(g, tuple(perm))
    if rho.order() != n // k:
        raise RuntimeError(f"rotation has order {rho.order()}, expected {n // k}")
    return g, rho


# the most edges a named family may have, a hundred times the 10^5 edges
# of the largest graphs classify is timed on; complete 30000 would have
# about 4.5e8 and exhaust memory
FAMILY_MAX_EDGES = 10 ** 7


def named_family(name: str, size: int) -> Graph:
    """Standard labeled test families: cycle, complete, star, path, bowtie.

    A family with more than FAMILY_MAX_EDGES edges is refused, with a
    ValueError, before any of it is built."""
    if name == "cycle":
        if size < 3:
            raise ValueError("cycle needs at least 3 vertices")
        n, m = size, size
        edges = ((i, (i + 1) % size) for i in range(size))
    elif name == "complete":
        if size < 1:
            raise ValueError("complete graph needs at least 1 vertex")
        n, m = size, size * (size - 1) // 2
        edges = ((i, j) for i in range(size) for j in range(i + 1, size))
    elif name == "star":
        # size counts the leaves; center is vertex 0
        if size < 1:
            raise ValueError("star needs at least 1 leaf")
        n, m = size + 1, size
        edges = ((0, i) for i in range(1, size + 1))
    elif name == "path":
        if size < 1:
            raise ValueError("path needs at least 1 vertex")
        n, m = size, size - 1
        edges = ((i, i + 1) for i in range(size - 1))
    elif name == "bowtie":
        if size != 5:
            raise ValueError("bowtie is a 5-vertex graph; pass size 5")
        n, m = 5, 6
        edges = ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))
    else:
        raise ValueError(f"unknown family {name!r} "
                         "(choose cycle, complete, star, path or bowtie)")
    if m > FAMILY_MAX_EDGES:
        raise ValueError(f"{name} {size} would have {m} edges; named families "
                         f"are limited to {FAMILY_MAX_EDGES}")
    return Graph(n, edges)
