"""Faithfulness verdicts from block structure alone.

The matrix action of the automorphism group on the homology basis fails
to be injective exactly when one of three structural conditions holds:
the graph is a tree with symmetry, some pendant tree is symmetric, or
the graph is unicyclic and its unique cycle admits a nontrivial
rotation.  The classifier checks those conditions directly; the only
group search it ever performs is the early-exit symmetry test on trees,
so it stays polynomial while the brute-force oracle is exponential.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autgroup import Automorphism, has_nontrivial_automorphism
from .blocks import (
    _subtree_codes,
    is_periodic_unicyclic,
    is_rigid_pendant_tree,
    is_simple_cycle_graph,
    pendant_trees,
    rooted_tree_isomorphism,
    unique_cycle,
)
from .cycles import betti
from .graphs import Graph, require_connected
from . import _kernels

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
    """
    if betti(g) == 0:
        if has_nontrivial_automorphism(g):
            return Verdict(False, TREE_WITH_SYMMETRY)
        return Verdict(True, FAITHFUL)
    for s in pendant_trees(g):
        if not is_rigid_pendant_tree(s):
            return Verdict(False, SYMMETRIC_PENDANT_TREE, root=s.root)
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
    if is_simple_cycle_graph(g):
        return Verdict(False, PERIODIC_UNICYCLIC, period=1)
    return Verdict(True, FAITHFUL)


def _subtree_vertices(adj: dict[int, list[int]], start: int, avoid: int) -> list[int]:
    out = [start]
    seen = {start, avoid}
    queue = [start]
    for x in queue:
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                out.append(y)
                queue.append(y)
    return out


def witness_kernel_element(g: Graph, verdict: Verdict | None = None) -> Automorphism | None:
    """A nontrivial automorphism acting trivially on homology, or None.

    Constructs the witness promised by the verdict: any symmetry for a
    symmetric tree, a swap of two isomorphic hanging subtrees for a
    symmetric pendant tree, or the cycle rotation for the periodic
    unicyclic case.
    """
    if verdict is None:
        verdict = classify(g)
    if verdict.faithful:
        return None

    if verdict.reason == TREE_WITH_SYMMETRY:
        perms = _kernels.search_automorphisms(g.n, g.adjacency_masks(), 2)
        return Automorphism(g, perms[1])

    if verdict.reason == SYMMETRIC_PENDANT_TREE:
        s = next(t for t in pendant_trees(g) if t.root == verdict.root)
        adj = s.adjacency()
        codes = _subtree_codes(adj, s.root)
        stack = [(s.root, -1)]
        while stack:
            v, par = stack.pop()
            kids = sorted((codes[c], c) for c in adj[v] if c != par)
            pair = None
            for (c1, a), (c2, b) in zip(kids, kids[1:]):
                if c1 == c2:
                    pair = (a, b)
                    break
            if pair is not None:
                a, b = pair
                sub_a = _subtree_vertices(adj, a, v)
                sub_b = _subtree_vertices(adj, b, v)
                # restrict matching to the two hanging subtrees; the rest
                # of the pendant tree must stay fixed
                set_a, set_b = set(sub_a), set(sub_b)
                adj_a = {x: [y for y in adj[x] if y in set_a] for x in sub_a}
                adj_b = {x: [y for y in adj[x] if y in set_b] for x in sub_b}
                iso = rooted_tree_isomorphism(adj_a, a, adj_b, b)
                perm = list(range(g.n))
                for x in sub_a:
                    perm[x] = iso[x]
                    perm[iso[x]] = x
                return Automorphism(g, tuple(perm))
            stack.extend((c, v) for c in adj[v] if c != par)
        raise RuntimeError("symmetric pendant tree lost its symmetry")

    if verdict.reason == PERIODIC_UNICYCLIC:
        # the tree hanging from a cycle vertex is its pendant tree, or
        # the bare vertex
        verts = unique_cycle(g).vertices()
        hanging = {t.root: t.adjacency() for t in pendant_trees(g)}
        adjs = [hanging.get(v, {v: []}) for v in verts]
        perm = list(range(g.n))
        for j, v in enumerate(verts):
            i = (j + verdict.period) % len(verts)
            iso = rooted_tree_isomorphism(adjs[j], v, adjs[i], verts[i])
            if iso is None:
                raise RuntimeError("hanging trees not isomorphic despite period")
            for x, y in iso.items():
                perm[x] = y
        return Automorphism(g, tuple(perm))

    raise ValueError(f"unknown verdict reason {verdict.reason!r}")
