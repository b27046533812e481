"""Faithfulness verdicts from block structure alone.

The matrix action of the automorphism group on the homology basis fails
to be injective exactly when one of three structural conditions holds:
the graph is a tree with symmetry, some pendant tree is symmetric, or
the graph is unicyclic and its unique cycle admits a nontrivial
rotation.  All three are rooted-tree questions, and the classifier and
the witnesses read the answers from one labelling per graph (blocks.py):
the integer AHU labels of the forest hanging from a tree's centre, or
from any other graph's 2-core, whose trees are the pendant trees and,
on the unique cycle, the letters of the rotation word.  No group search
is ever performed, so classification stays near-linear while the
brute-force oracle is exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autgroup import Automorphism
from .blocks import (
    _equal_siblings,
    _structure,
    _Structure,
    is_periodic_unicyclic,
    rooted_tree_isomorphism,
)
from .graphs import Graph, require_connected

FAITHFUL = "Faithful"
TREE_WITH_SYMMETRY = "TreeWithSymmetry"
SYMMETRIC_PENDANT_TREE = "SymmetricPendantTree"
PERIODIC_UNICYCLIC = "PeriodicUnicyclic"


@dataclass(frozen=True)
class Verdict:
    faithful: bool
    reason: str
    root: int | None = None
    period: int | None = None

    def to_json(self) -> dict:
        witness = None
        if self.reason == SYMMETRIC_PENDANT_TREE:
            witness = {"root": self.root}
        elif self.reason == PERIODIC_UNICYCLIC:
            witness = {"period": self.period}
        return {"faithful": self.faithful, "reason": self.reason,
                "witness": witness}

    def describe(self) -> str:
        if self.reason == SYMMETRIC_PENDANT_TREE:
            return f"{self.reason} (root {self.root})"
        if self.reason == PERIODIC_UNICYCLIC:
            return f"{self.reason} (period {self.period})"
        return self.reason


def classify(g: Graph) -> Verdict:
    """Decide faithfulness of the matrix action, with a witnessing condition.

    Checks, in order: tree with a nontrivial automorphism; a symmetric
    pendant tree (smallest root wins); a rotatable unique cycle.  When
    several conditions hold the first one in that order is reported.
    Off a tree, every pendant tree hangs from the 2-core, so the labels
    of the forest hanging from it answer both of the last two checks.
    """
    s = _structure(g)  # rejects a disconnected graph
    if g.num_edges < g.n:
        # automorphisms fix the centre: symmetry means isomorphic siblings
        roots = s.roots
        if len({s.labels[r] for r in roots}) < len(roots) or any(map(s.is_symmetric, roots)):
            return Verdict(False, TREE_WITH_SYMMETRY)
        return Verdict(True, FAITHFUL)
    symmetric = [r for r in s.roots if s.is_symmetric(r)]
    if symmetric:
        return Verdict(False, SYMMETRIC_PENDANT_TREE, root=min(symmetric))
    periodic, k = is_periodic_unicyclic(g)
    if periodic:
        return Verdict(False, PERIODIC_UNICYCLIC, period=k)
    return Verdict(True, FAITHFUL)


def classify_fast_2edge(g: Graph) -> Verdict | None:
    """Shortcut for graphs without degree-one vertices.

    Such a graph has a faithful action unless it is a simple cycle.
    Returns None when the graph has leaves (defer to classify).
    """
    require_connected(g)
    if any(g.degree(v) == 1 for v in range(g.n)):
        return None
    if all(g.degree(v) == 2 for v in range(g.n)):  # connected: a simple cycle
        return Verdict(False, PERIODIC_UNICYCLIC, period=1)
    return Verdict(True, FAITHFUL)


def _sibling_swap(g: Graph, s: _Structure, roots) -> Automorphism:
    """Swap the first two siblings with equal labels, with their subtrees,
    below the given roots of g's hanging forest; every other vertex of g
    stays fixed."""
    pair = _equal_siblings(roots, s.labels, s.children)
    if pair is None:
        raise ValueError("no two sibling subtrees are isomorphic")
    perm = list(range(g.n))
    for x, y in rooted_tree_isomorphism(s.labels, s.children, *pair).items():
        perm[x], perm[y] = y, x
    return Automorphism(g, tuple(perm))


def witness_kernel_element(g: Graph, verdict: Verdict | None = None) -> Automorphism | None:
    """A nontrivial automorphism acting trivially on homology, or None.

    Constructs the witness promised by the verdict: for a symmetric tree
    (rooted at its centre) or a symmetric pendant tree, the swap of the
    first two isomorphic sibling subtrees; for the periodic unicyclic
    case, the cycle rotation.  Raises ValueError when the verdict does
    not hold for g.
    """
    if verdict is None:
        verdict = classify(g)
    if verdict.faithful:
        return None

    s = _structure(g)
    if verdict.reason == TREE_WITH_SYMMETRY:
        if g.num_edges >= g.n:
            raise ValueError("graph is not a tree")
        return _sibling_swap(g, s, s.roots)

    if verdict.reason == SYMMETRIC_PENDANT_TREE:
        # off a tree the roots are the 2-core, and the pendant trees hang there
        if g.num_edges < g.n or verdict.root not in s.roots:
            raise ValueError(f"no pendant tree hangs from vertex {verdict.root}")
        return _sibling_swap(g, s, [verdict.root])

    if verdict.reason == PERIODIC_UNICYCLIC:
        if g.num_edges != g.n:
            raise ValueError("graph is not unicyclic")
        verts = s.roots  # the cycle, in order
        k = verdict.period
        if k not in range(1, len(verts)):
            raise ValueError(f"period {k} is not a nontrivial rotation of the cycle")
        pairs = list(zip(verts, verts[k:] + verts[:k]))
        if any(s.labels[a] != s.labels[b] for a, b in pairs):
            raise ValueError(f"the cycle does not rotate by {k}")
        perm = list(range(g.n))
        for a, b in pairs:
            for x, y in rooted_tree_isomorphism(s.labels, s.children, a, b).items():
                perm[x] = y
        return Automorphism(g, tuple(perm))

    raise ValueError(f"unknown verdict reason {verdict.reason!r}")
