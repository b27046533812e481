"""Faithfulness verdicts from block structure alone.

The matrix action of the automorphism group on the homology basis fails
to be injective exactly when one of three structural conditions holds:
the graph is a tree with symmetry, some pendant tree is symmetric, or
the graph is unicyclic and its unique cycle admits a nontrivial
rotation.  All three are rooted-tree questions, and the classifier and
the witnesses answer them with integer AHU labels (blocks.py): a tree is
rooted at its centre, a pendant tree at its root, and the trees hanging
from the unique cycle at their cycle vertices.  No group search is ever
performed, so classification stays near-linear while the brute-force
oracle is exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autgroup import Automorphism
from .blocks import (
    _equal_siblings,
    _hanging_word,
    _minimal_period,
    _subtree_labels,
    _symmetric_labels,
    _tree_centre,
    is_rigid_pendant_tree,
    is_simple_cycle_graph,
    pendant_trees,
    rooted_tree_isomorphism,
    unique_cycle,
)
from .cycles import betti
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
    A unicyclic graph's pendant trees all hang from its cycle, so one
    labelling of that forest answers both of the last two checks.
    """
    beta = betti(g)
    if beta == 0:
        # automorphisms fix the centre: symmetry means isomorphic siblings
        adj = [g.neighbors(v) for v in range(g.n)]
        roots = _tree_centre(adj)
        if _equal_siblings(roots, *_subtree_labels(adj, roots, {})) is not None:
            return Verdict(False, TREE_WITH_SYMMETRY)
        return Verdict(True, FAITHFUL)
    if beta == 1:
        verts, word, table = _hanging_word(g)
        symmetric = _symmetric_labels(table)
        roots = [v for v, label in zip(verts, word) if symmetric[label]]
        if roots:
            return Verdict(False, SYMMETRIC_PENDANT_TREE, root=min(roots))
        k = _minimal_period(word)
        if k < len(word):
            return Verdict(False, PERIODIC_UNICYCLIC, period=k)
        return Verdict(True, FAITHFUL)
    for s in pendant_trees(g):
        if not is_rigid_pendant_tree(s):
            return Verdict(False, SYMMETRIC_PENDANT_TREE, root=s.root)
    return Verdict(True, FAITHFUL)


def classify_fast_2edge(g: Graph) -> Verdict | None:
    """Shortcut for graphs without degree-one vertices.

    Such a graph has a faithful action unless it is a simple cycle.
    Returns None when the graph has leaves (defer to classify).
    """
    require_connected(g)
    if any(g.degree(v) == 1 for v in range(g.n)):
        return None
    if is_simple_cycle_graph(g):
        return Verdict(False, PERIODIC_UNICYCLIC, period=1)
    return Verdict(True, FAITHFUL)


def _sibling_swap(g: Graph, adj, roots) -> Automorphism:
    """Swap the first two siblings with equal labels, with their subtrees,
    in the tree adj rooted at roots; every other vertex of g stays fixed."""
    labels, children = _subtree_labels(adj, roots, {})
    pair = _equal_siblings(roots, labels, children)
    if pair is None:
        raise ValueError("no two sibling subtrees are isomorphic")
    perm = list(range(g.n))
    for x, y in rooted_tree_isomorphism(labels, children, *pair).items():
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

    if verdict.reason == TREE_WITH_SYMMETRY:
        if betti(g) != 0:
            raise ValueError("graph is not a tree")
        adj = [g.neighbors(v) for v in range(g.n)]
        return _sibling_swap(g, adj, _tree_centre(adj))

    if verdict.reason == SYMMETRIC_PENDANT_TREE:
        for t in pendant_trees(g):
            if t.root == verdict.root:
                return _sibling_swap(g, t.adjacency(), [t.root])
        raise ValueError(f"no pendant tree hangs from vertex {verdict.root}")

    if verdict.reason == PERIODIC_UNICYCLIC:
        verts = unique_cycle(g).vertices()
        k = verdict.period
        if k not in range(1, len(verts)):
            raise ValueError(f"period {k} is not a nontrivial rotation of the cycle")
        # the hanging trees, rooted at the cycle vertices, from one table
        labels, children = _subtree_labels([g.neighbors(v) for v in range(g.n)], verts, {})
        pairs = list(zip(verts, verts[k:] + verts[:k]))
        if any(labels[a] != labels[b] for a, b in pairs):
            raise ValueError(f"the cycle does not rotate by {k}")
        perm = list(range(g.n))
        for a, b in pairs:
            for x, y in rooted_tree_isomorphism(labels, children, a, b).items():
                perm[x] = y
        return Automorphism(g, tuple(perm))

    raise ValueError(f"unknown verdict reason {verdict.reason!r}")
