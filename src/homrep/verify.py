"""Exhaustive cross-validation of the classifier against brute force.

Walks every labeled connected graph up to a vertex bound and checks, per
graph: the structural verdict against the brute-force kernel, the
homomorphism and unimodularity of the matrix action, independence of the
kernel from the spanning tree, the structural properties of kernel
elements, the degree-two shortcut, mod-p kernels, the structure of the
mod-2 kernel, and the canonical-form detectors against permutation
search.  One pass computes everything; both the CLI verifier and the
acceptance suite run through here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import permutations

from .autgroup import automorphism_perms
from .blocks import (
    _structure,
    block_decomposition,
    block_tree,
    is_periodic_unicyclic,
    is_simple_cycle_graph,
    pendant_trees,
    unique_cycle,
)
from .classify import classify, classify_fast_2edge, witness_kernel_element
from .cycles import cycle_coordinates, random_spanning_tree_basis, spanning_tree_basis
from .graphs import Graph, enumerate_connected_graphs, format_edge_list
from .matrices import IntMatrix, determinant, inverse_unimodular
from .rep import _gather, _is_kernel_perm, change_of_basis

DEFAULT_SEEDS = (1, 2, 3, 4, 5)
DEFAULT_PAIR_SAMPLE = 200
MOD2_REPRODUCER_LIMIT = 25


@dataclass
class CriterionResult:
    name: str
    checked: int = 0
    violations: int = 0
    first_detail: str | None = None


@dataclass
class VerificationFailure:
    criterion: str
    graph_text: str
    detail: str


@dataclass
class VerificationSummary:
    n_max: int
    graphs_total: int = 0
    per_n: dict[int, int] = field(default_factory=dict)
    criteria: dict[str, CriterionResult] = field(default_factory=dict)
    mod2_extra_count: int = 0
    mod2_extra_examples: list[str] = field(default_factory=list)
    failure: VerificationFailure | None = None

    def result(self, name: str) -> CriterionResult:
        if name not in self.criteria:
            self.criteria[name] = CriterionResult(name)
        return self.criteria[name]

    @property
    def ok(self) -> bool:
        return self.failure is None and all(
            r.violations == 0 for r in self.criteria.values())


CRITERIA = (
    "classify_oracle",      # verdict agrees with brute-force kernel triviality
    "homomorphism",         # M(f.g) = M(f) M(g); det +/-1; entries in {-1,0,1}; dart walk
    "basis_independence",   # kernel identical under seeded random trees; conjugacy
    "kernel_structure",     # kernel elements fix cycles/blocks/2ec subgraphs
    "min_degree_two",       # no leaves => trivial kernel unless a simple cycle
    "mod_p",                # mod-3 kernel equals the integer kernel
    "mod2_kernel",          # kernel <= mod-2 kernel, index a power of 2, involutions
    "periodicity_oracle",   # rotation detector vs permutation search
    "rigidity_oracle",      # pendant-tree symmetry flags vs permutation search
    "fast_path",            # degree-two shortcut agrees with the classifier
    "block_properties",     # pairwise intersections, edge partition, centre
    "cycle_basis",          # cotree size = betti; own coordinates are unit vectors
    "witness_validity",     # constructed witness lies in the brute-force kernel
)


def _walk_columns(perm: tuple[int, ...], b) -> tuple[tuple[int, ...], ...]:
    """Oracle for `rep._gather`: column j is the j-th fundamental cycle's
    darts mapped through perm, read through the co-tree coordinate index."""
    index = b.coordinate_index()
    cols = []
    for c in b.fundamental_cycles():
        col = [0] * b.beta
        for d in c.darts:
            hit = index.get((perm[d.tail], perm[d.head]))
            if hit is not None:
                col[hit[0]] += hit[1]
        cols.append(tuple(col))
    return tuple(cols)


def _rotation_perms(g: Graph) -> set[tuple[int, ...]]:
    """All vertex permutations rotating the unique cycle of a cycle graph."""
    verts = unique_cycle(g).vertices()
    m = len(verts)
    out = set()
    for s in range(m):
        perm = [0] * g.n
        for i, v in enumerate(verts):
            perm[v] = verts[(i + s) % m]
        out.add(tuple(perm))
    return out


def _brute_minimal_rotation(g: Graph, perms) -> int | None:
    """Minimal nonzero shift realized by an automorphism rotating the
    unique cycle with orientation preserved, or None."""
    verts = unique_cycle(g).vertices()
    m = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    best = None
    for p in perms:
        img0 = p[verts[0]]
        s = pos.get(img0)
        if s is None or s == 0:
            continue
        if all(p[verts[i]] == verts[(i + s) % m] for i in range(1, m)):
            if best is None or s < best:
                best = s
    return best


def _brute_root_fixing_symmetry(tree) -> bool:
    """Permutation search for a nontrivial root-fixing tree automorphism."""
    others = sorted(tree.vertices - {tree.root})
    edge_set = set(tree.edges)
    for image in permutations(others):
        mapping = dict(zip(others, image))
        mapping[tree.root] = tree.root
        if all(mapping[v] == v for v in others):
            continue
        ok = True
        for u, v in tree.edges:
            a, b = mapping[u], mapping[v]
            if ((a, b) if a < b else (b, a)) not in edge_set:
                ok = False
                break
        if ok:
            return True
    return False


def _kernel_structure_check(g: Graph, b):
    """The structural properties every kernel element has, on basis b of g:
    returns a function giving the detail of the first property that a
    vertex permutation breaks, or None when it keeps them all."""
    cycles = b.fundamental_cycles()
    dart_sets = [c.dart_set() for c in cycles]
    vert_sets = [set(c.vertices()) for c in cycles]
    # the vertices of two cycles that meet: a kernel element fixes them all
    pinned = {x for i, vi in enumerate(vert_sets) for vj in vert_sets[i + 1:]
              if vi & vj for x in vi | vj}
    structure = _structure(g)
    blocks = structure.blocks.nontrivial_blocks()
    non_cycles = [comp for comp in structure.two_edge_components if len(comp) >= 3
                  and any(sum(y in comp for y in g.neighbors(x)) != 2 for x in comp)]

    def first_violation(p) -> str | None:
        for j, c in enumerate(cycles):
            if {(p[d.tail], p[d.head]) for d in c.darts} != dart_sets[j]:
                return f"kernel element moves fundamental cycle {j + 1}"
        if any(p[x] != x for x in pinned):
            return "intersecting cycles not fixed pointwise"
        if any({p[x] for x in blk} != blk for blk in blocks):
            return "kernel element moves a nontrivial block"
        if any(p[x] != x for comp in non_cycles for x in comp):
            return "kernel element moves a 2-edge-connected non-cycle part"
        return None
    return first_violation


class _Stop(Exception):
    """Ends a fail-fast run at its first violation."""


class _Run:
    def __init__(self, n_max, seeds, pair_sample, cap, sample_seed, fail_fast):
        self.summary = VerificationSummary(n_max=n_max)
        for name in CRITERIA:
            self.summary.result(name)
        self.seeds = seeds
        self.pair_sample = pair_sample
        self.cap = cap
        self.sample_seed = sample_seed
        self.fail_fast = fail_fast

    def record(self, name: str, ok: bool, g: Graph, detail: str | None) -> None:
        """Count one check of criterion `name`; a failed check keeps its
        detail and, in a fail-fast run, raises _Stop."""
        r = self.summary.result(name)
        r.checked += 1
        if ok:
            return
        r.violations += 1
        text = format_edge_list(g)
        if r.first_detail is None:
            r.first_detail = f"{detail}\n{text}"
        if self.summary.failure is None:
            self.summary.failure = VerificationFailure(name, text, detail)
        if self.fail_fast:
            raise _Stop


def _check_graph(g: Graph, idx: int, run: _Run) -> None:
    s = run.summary
    b = spanning_tree_basis(g)
    beta = b.beta
    unit = IntMatrix.identity(beta).rows
    perms = automorphism_perms(g, run.cap)
    mats = {p: IntMatrix(_gather(p, b)) for p in perms}
    kernel = [p for p in perms if mats[p].is_identity()]
    kernel_set = set(kernel)

    # cycle_basis: cotree size and own coordinates
    ok = beta == g.num_edges - g.n + 1 and all(
        cycle_coordinates(c, b) == unit[j] for j, c in enumerate(b.fundamental_cycles()))
    run.record("cycle_basis", ok, g, "fundamental cycle coordinates are not unit vectors")

    # block properties: P1, P2, centre
    d = block_decomposition(g)
    ok = True
    detail = ""
    for i in range(len(d.blocks)):
        for j in range(i + 1, len(d.blocks)):
            if len(d.blocks[i] & d.blocks[j]) > 1:
                ok = False
                detail = "two blocks share more than one vertex"
    all_block_edges = [e for es in d.block_edges for e in es]
    if len(all_block_edges) != g.num_edges or set(all_block_edges) != set(g.edges):
        ok = False
        detail = "block edges do not partition the edge set"
    if d.blocks:
        try:
            bt = block_tree(d)
            degree = [0] * len(bt.nodes)
            for i, j in bt.edges:
                degree[i] += 1
                degree[j] += 1
            for i, node in enumerate(bt.nodes):
                if degree[i] <= 1 and len(bt.nodes) > 1 and node.kind != "block":
                    ok = False
                    detail = "block tree has a cutvertex leaf"
        except RuntimeError as exc:
            ok = False
            detail = str(exc)
    run.record("block_properties", ok, g, detail or "block structure violation")

    # criterion 1: classifier vs brute-force kernel
    verdict = classify(g)
    brute_faithful = len(kernel) == 1
    run.record("classify_oracle", verdict.faithful == brute_faithful, g,
               f"classify says faithful={verdict.faithful} ({verdict.describe()}), "
               f"brute-force kernel has order {len(kernel)}")

    # witness validity: constructed kernel element really is in the kernel
    if not verdict.faithful:
        try:
            w = witness_kernel_element(g, verdict)
            ok = (w is not None and not w.is_identity()
                  and w.perm in kernel_set)
            detail = "constructed witness is not a nontrivial kernel element"
            if ok and verdict.reason == "SymmetricPendantTree":
                tree = next(t for t in pendant_trees(g)
                            if t.root == verdict.root)
                if any(w.perm[x] != x for x in range(g.n)
                       if x not in tree.vertices):
                    ok = False
                    detail = "pendant-tree witness moves vertices outside the tree"
        except Exception as exc:  # construction raised
            ok = False
            detail = f"witness construction failed: {exc}"
        run.record("witness_validity", ok, g, detail)

    # fast path consistency
    fast = classify_fast_2edge(g)
    if fast is not None:
        run.record("fast_path", fast.faithful == verdict.faithful, g,
                   "degree-two shortcut disagrees with classifier")

    # criterion 2: homomorphism, determinant, entry range; the gather against the walk
    entries_ok = all(abs(x) <= 1 for p in perms for row in mats[p].rows for x in row)
    walk_ok = all(mats[p].rows == tuple(zip(*_walk_columns(p, b))) for p in perms)
    run.record("homomorphism", entries_ok and walk_ok, g,
               "matrix entry outside {-1,0,1}" if not entries_ok
               else "gathered matrix differs from the dart walk")
    order = len(perms)
    if g.n <= 5 or order * order <= run.pair_sample:
        pairs = [(f, h) for f in perms for h in perms]
        det_perms = perms
    else:
        rng = random.Random((run.sample_seed << 24) ^ (g.n << 20) ^ idx)
        pairs = [(perms[rng.randrange(order)], perms[rng.randrange(order)])
                 for _ in range(run.pair_sample)]
        det_perms = sorted({p for pair in pairs for p in pair})
    for p in det_perms:
        run.record("homomorphism", abs(determinant(mats[p])) == 1, g,
                   "matrix determinant is not +/-1")
    for f, h in pairs:
        fh = tuple(f[h[v]] for v in range(g.n))
        ok = mats[fh] == mats[f] @ mats[h]
        run.record("homomorphism", ok, g,
                   "matrix of a composite differs from the matrix product")

    # criterion 3: kernel does not depend on the spanning tree
    for seed in run.seeds:
        b2 = random_spanning_tree_basis(g, seed)
        kernel2 = {p for p in perms if _is_kernel_perm(p, b2)}
        run.record("basis_independence", kernel2 == kernel_set, g,
                   f"kernel changed under random tree (seed {seed})")
        if g.n <= 5:
            p_mat = change_of_basis(b, b2)
            run.record("basis_independence", abs(determinant(p_mat)) == 1, g,
                       f"change-of-basis matrix is not unimodular (seed {seed})")
            p_inv = inverse_unimodular(p_mat)
            for p in perms:
                ok = IntMatrix(_gather(p, b2)) == p_inv @ mats[p] @ p_mat
                run.record("basis_independence", ok, g,
                           f"conjugacy identity failed (seed {seed})")

    # criterion 4: structural properties of kernel elements
    violation = _kernel_structure_check(g, b)
    for p in kernel:
        detail = violation(p)
        run.record("kernel_structure", detail is None, g, detail)

    # criterion 5: no leaves => injective unless the whole graph is a cycle
    if all(g.degree(v) >= 2 for v in range(g.n)):
        if is_simple_cycle_graph(g):
            ok = kernel_set == _rotation_perms(g)
            detail = "cycle kernel is not exactly the rotation subgroup"
        else:
            ok = len(kernel) == 1
            detail = "leafless non-cycle graph has a nontrivial kernel"
        run.record("min_degree_two", ok, g, detail)

    # criterion 7: mod-p kernels
    kernel3 = {p for p in perms if _is_kernel_perm(p, b, 3)}
    run.record("mod_p", kernel3 == kernel_set, g,
               "mod-3 kernel differs from the integer kernel")
    # torsion in the level-2 congruence subgroup has order at most 2
    # (Minkowski), so ker2 / ker is an elementary abelian 2-group
    kernel2 = {p for p in perms if _is_kernel_perm(p, b, 2)}
    index, rest = divmod(len(kernel2), len(kernel))
    if not kernel2 >= kernel_set:
        ok, detail = False, "integer kernel is not inside the mod-2 kernel"
    elif rest or index & (index - 1):
        ok, detail = False, (f"mod-2 kernel index {len(kernel2)}/{len(kernel)} "
                             "is not a power of 2")
    else:
        # kernel elements have the identity matrix, so only the excess is squared
        ok = all((mats[p] @ mats[p]).is_identity() for p in kernel2 - kernel_set)
        detail = "a mod-2 kernel element does not square to the identity"
    run.record("mod2_kernel", ok, g, detail)
    if kernel2 > kernel_set:
        s.mod2_extra_count += 1
        if len(s.mod2_extra_examples) < MOD2_REPRODUCER_LIMIT:
            s.mod2_extra_examples.append(format_edge_list(g))

    # criterion 9 second half: rotation detector vs permutation search
    if beta == 1:
        periodic, k = is_periodic_unicyclic(g)
        brute = _brute_minimal_rotation(g, perms[1:])
        ok = periodic == (brute is not None) and (not periodic or brute == k)
        run.record("periodicity_oracle", ok, g,
                   f"rotation detector says {(periodic, k)}, search found shift {brute}")

    # the symmetry flag classify reads vs permutation search, on every pendant tree
    forest = _structure(g)
    for tree in pendant_trees(g):
        ok = forest.is_symmetric(tree.root) == _brute_root_fixing_symmetry(tree)
        run.record("rigidity_oracle", ok, g,
                   f"symmetry flag disagrees with search at root {tree.root}")


def verify_corpus(n_max: int = 6, *, seeds=DEFAULT_SEEDS,
                  pair_sample: int = DEFAULT_PAIR_SAMPLE, cap: int = 10 ** 6,
                  sample_seed: int = 7, fail_fast: bool = False,
                  progress=None) -> VerificationSummary:
    """Run every per-graph check over all labeled connected graphs with
    2 <= n <= n_max vertices.  n_max is capped at 6; seeds must be
    nonempty and pair_sample positive, so that no criterion is vacuous."""
    if not 2 <= n_max <= 6:
        raise ValueError(f"verification supports 2 <= n_max <= 6, got {n_max}")
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("at least one tree seed is needed for basis_independence")
    if pair_sample < 1:
        raise ValueError(f"pair sample must be at least 1, got {pair_sample}")
    run = _Run(n_max, seeds, pair_sample, cap, sample_seed, fail_fast)
    s = run.summary
    try:
        for n in range(2, n_max + 1):
            for idx, g in enumerate(enumerate_connected_graphs(n)):
                s.per_n[n] = idx + 1
                s.graphs_total += 1
                _check_graph(g, idx, run)
                if progress is not None:
                    progress(n, idx + 1)
    except _Stop:
        # the graph that ends the run is reported like any other
        if progress is not None:
            progress(n, s.per_n[n])
    return s
