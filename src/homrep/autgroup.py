"""The automorphism group of a connected graph.

The group is enumerated in full: kernel computation downstream needs
membership tests over every element, and kernels are not generated by
the kernel elements of a generating set.  The elements are multiplied
out from a stabiliser chain (`_kernels.stabiliser_chain`), whose strong
generators the verifier's homomorphism check walks.  A cap on the group
order, known before any element is built, guards runaway inputs like
large stars.

An element is its permutation tuple, as the chain yields it.
`Automorphism` validates one permutation built anywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import _kernels
from .errors import CapacityError
from .graphs import Graph, require_connected

DEFAULT_CAP = 10 ** 6


@dataclass(frozen=True)
class Automorphism:
    """An adjacency-preserving vertex permutation of a fixed graph."""

    graph: Graph
    perm: tuple[int, ...]

    def __post_init__(self):
        g, perm = self.graph, self.perm
        if len(perm) != g.n or sorted(perm) != list(range(g.n)):
            raise ValueError("perm is not a permutation of the vertex labels")
        for u, v in g.edges:
            if not g.has_edge(perm[u], perm[v]):
                raise ValueError(
                    f"permutation does not preserve adjacency on edge ({u}, {v})")

    def is_identity(self) -> bool:
        return all(p == v for v, p in enumerate(self.perm))

    def order(self) -> int:
        result = 1
        seen = [False] * len(self.perm)
        for v in range(len(self.perm)):
            if seen[v]:
                continue
            length = 0
            w = v
            while not seen[w]:
                seen[w] = True
                w = self.perm[w]
                length += 1
            result = result * length // gcd(result, length)
        return result

    def __repr__(self) -> str:
        return f"Automorphism({list(self.perm)})"


def identity_automorphism(g: Graph) -> Automorphism:
    return Automorphism(g, tuple(range(g.n)))


def automorphism_chain(g: Graph, cap: int = DEFAULT_CAP
                       ) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Strong generators for the base 0..n-1, and the raw permutation
    tuples of the full group, lexicographic, identity first."""
    require_connected(g)
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    chain = _kernels.stabiliser_chain(g.n, g.adjacency_masks(), cap)
    if isinstance(chain, int):
        raise CapacityError(
            f"automorphism group order exceeds the cap of {cap} (at least {chain} "
            "automorphisms); raise the cap to enumerate this group")
    return chain


def automorphisms(g: Graph, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """The full automorphism group of a connected graph, as the chain's
    permutation tuples, which preserve adjacency by construction and are
    not checked again.  Identity first, remainder in lexicographic
    order; the result length is the group order.
    """
    return automorphism_chain(g, cap)[1]
