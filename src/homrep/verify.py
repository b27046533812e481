"""Exhaustive cross-validation of the classifier against brute force.

Walks every labeled connected graph up to a vertex bound and checks, per
graph: the stabiliser chain's automorphisms against the backtracking
search, the structural verdict against the brute-force kernel, the
homomorphism and unimodularity of the matrix action (products on the
chain's strong generators, a check that their closure is the whole
group, and the determinant of every element), independence of the
kernel from the spanning tree, the structural properties of kernel
elements, the degree-two shortcut, mod-p kernels, the structure of the
mod-2 kernel, and the canonical-form detectors against permutation
search.  One pass computes everything; both the CLI verifier and the
acceptance suite run through here.  A VerificationSummary is the run:
its parameters, a tally per criterion and the first failure, which its
record() keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, permutations

from ._kernels import search_automorphisms
from .autgroup import automorphism_chain
from .blocks import (
    _structure,
    block_decomposition,
    block_tree,
    is_periodic_unicyclic,
    is_simple_cycle_graph,
    pendant_trees,
    two_edge_connected_components,
    unique_cycle,
)
from .classify import classify, classify_fast_2edge, witness_kernel_element
from .cycles import cycle_coordinates, random_spanning_tree_basis, spanning_tree_basis
from .graphs import (ENUMERATION_MAX_VERTICES, Graph, enumerate_connected_graphs,
                     format_edge_list)
from .matrices import IntMatrix, determinant
from .rep import _gather, _inverses, _is_kernel_perm, change_of_basis

DEFAULT_SEEDS = (1, 2, 3, 4, 5)
MOD2_REPRODUCER_LIMIT = 5


@dataclass
class CriterionResult:
    checked: int = 0
    violations: int = 0
    first_detail: str | None = None


@dataclass
class VerificationFailure:
    criterion: str
    graph_text: str
    detail: str


CRITERIA = (
    "automorphism_chain",   # stabiliser chain's list equals the backtracking search's
    "classify_oracle",      # verdict agrees with brute-force kernel triviality
    "homomorphism",         # M(id) = I; M(f.s) = M(f) M(s) on the chain's strong
                            # generators, whose closure is the group; every
                            # det +/-1; entries in {-1,0,1}; dart walk
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


class _Stop(Exception):
    """Ends a fail-fast run at its first violation."""


@dataclass
class VerificationSummary:
    """One verifier run: its parameters, per-criterion tallies and first failure."""
    n_max: int
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    fail_fast: bool = False
    per_n: dict[int, int] = field(default_factory=dict)
    criteria: dict[str, CriterionResult] = field(
        default_factory=lambda: {name: CriterionResult() for name in CRITERIA})
    mod2_extra_count: int = 0
    mod2_extra_examples: list[str] = field(default_factory=list)
    failure: VerificationFailure | None = None

    @property
    def graphs_total(self) -> int:
        return sum(self.per_n.values())

    @property
    def ok(self) -> bool:
        return self.failure is None

    def record(self, name: str, ok: bool, g: Graph, detail: str | None) -> None:
        """Count one check of criterion `name`; a failed check keeps its
        detail and, in a fail-fast run, raises _Stop."""
        r = self.criteria[name]
        r.checked += 1
        if ok:
            return
        r.violations += 1
        text = format_edge_list(g)
        if r.first_detail is None:
            r.first_detail = f"{detail}\n{text}"
        if self.failure is None:
            self.failure = VerificationFailure(name, text, detail)
        if self.fail_fast:
            raise _Stop


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
    pos = {v: i for i, v in enumerate(verts)}
    return {tuple(verts[(pos[v] + s) % m] for v in range(g.n)) for s in range(m)}


def _brute_minimal_rotation(g: Graph, perms) -> int | None:
    """Minimal nonzero shift realized by an automorphism rotating the
    unique cycle with orientation preserved, or None."""
    verts = unique_cycle(g).vertices()
    m = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    return min((s for p in perms if (s := pos.get(p[verts[0]]))
                and all(p[v] == verts[(i + s) % m] for i, v in enumerate(verts))),
               default=None)


def _brute_root_fixing_symmetry(tree) -> bool:
    """Permutation search for a nontrivial root-fixing tree automorphism."""
    others = sorted(tree.vertices - {tree.root})
    edge_set = {e for u, v in tree.edges for e in ((u, v), (v, u))}
    for image in islice(permutations(others), 1, None):  # the identity comes first
        mapping = dict(zip(others, image))
        mapping[tree.root] = tree.root
        if all((mapping[u], mapping[v]) in edge_set for u, v in tree.edges):
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
    blocks = block_decomposition(g).nontrivial_blocks()
    non_cycles = [comp for comp in two_edge_connected_components(g) if len(comp) >= 3
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


def _check_homomorphism(g: Graph, perms, mats, gens, summary: VerificationSummary) -> None:
    """M(id) = I, det M(p) = +/-1 on perms, and M(f.s) = M(f) M(s) for
    each s in gens and each f that a breadth-first walk from the identity
    along gens reaches; the walk must reach all of perms.  By induction
    on word length, M(f.h) = M(f) M(h) for all f, h in the group."""
    record = summary.record
    ident = tuple(range(g.n))
    reached = [ident] if ident in mats else []
    record("homomorphism", bool(reached) and mats[ident].is_identity(), g,
           "matrix of the identity is not the identity matrix")
    for p in perms:
        record("homomorphism", abs(determinant(mats[p])) == 1, g,
               "matrix determinant is not +/-1")
    seen = set(reached)
    for f in reached:
        mf = mats[f]
        for s in gens:
            fs = tuple(map(f.__getitem__, s))
            if fs not in mats:
                record("homomorphism", False, g,
                       "a composite of automorphisms is outside the searched group")
                continue
            record("homomorphism", mats[fs] == mf @ mats[s], g,
                   "matrix of a composite differs from the matrix product")
            if fs not in seen:
                seen.add(fs)
                reached.append(fs)
    record("homomorphism", len(reached) == len(perms), g,
           f"the generators reach {len(reached)} of {len(perms)} automorphisms")


def _check_graph(g: Graph, s: VerificationSummary) -> None:
    b = spanning_tree_basis(g)
    beta = b.beta
    unit = IntMatrix.identity(beta).rows
    gens, perms = automorphism_chain(g)
    searched = search_automorphisms(g.n, g.adjacency_masks(), len(perms) + 1)
    s.record("automorphism_chain", perms == searched, g,
             f"the stabiliser chain's list differs from the search's "
             f"({len(perms)} and {len(searched)} automorphisms)")
    invs = list(_inverses(perms, g.n))  # one inverse per automorphism serves every basis
    mats = dict(zip(perms, map(IntMatrix._square, _gather(invs, b))))
    kernel = [p for p in perms if _is_kernel_perm(mats[p].rows)]
    kernel_set = set(kernel)

    # cycle_basis: cotree size and own coordinates
    ok = beta == g.num_edges - g.n + 1 and all(
        cycle_coordinates(c, b) == unit[j] for j, c in enumerate(b.fundamental_cycles()))
    s.record("cycle_basis", ok, g, "fundamental cycle coordinates are not unit vectors")

    # block properties: P1, P2, centre; the last failure found is reported
    d = block_decomposition(g)
    detail = None
    if any(len(x & y) > 1 for i, x in enumerate(d.blocks) for y in d.blocks[i + 1:]):
        detail = "two blocks share more than one vertex"
    all_block_edges = [e for es in d.block_edges for e in es]
    if len(all_block_edges) != g.num_edges or set(all_block_edges) != set(g.edges):
        detail = "block edges do not partition the edge set"
    if d.blocks:
        try:
            bt = block_tree(d)
            ends = [x for edge in bt.edges for x in edge]
            if len(bt.nodes) > 1 and any(node.kind != "block" and ends.count(i) <= 1
                                         for i, node in enumerate(bt.nodes)):
                detail = "block tree has a cutvertex leaf"
        except RuntimeError as exc:
            detail = str(exc) or "block structure violation"
    s.record("block_properties", detail is None, g, detail)

    # criterion 1: classifier vs brute-force kernel
    verdict = classify(g)
    brute_faithful = len(kernel) == 1
    s.record("classify_oracle", verdict.faithful == brute_faithful, g,
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
        s.record("witness_validity", ok, g, detail)

    # fast path consistency
    fast = classify_fast_2edge(g)
    if fast is not None:
        s.record("fast_path", fast.faithful == verdict.faithful, g,
                 "degree-two shortcut disagrees with classifier")

    # criterion 2: entry range, the gather against the walk, homomorphism, determinants
    entries_ok = all(abs(x) <= 1 for p in perms for row in mats[p].rows for x in row)
    walk_ok = all(mats[p].rows == tuple(zip(*_walk_columns(p, b))) for p in perms)
    s.record("homomorphism", entries_ok and walk_ok, g,
             "matrix entry outside {-1,0,1}" if not entries_ok
             else "gathered matrix differs from the dart walk")
    _check_homomorphism(g, perms, mats, gens, s)

    # criterion 3: kernel does not depend on the spanning tree
    for seed in s.seeds:
        b2 = random_spanning_tree_basis(g, seed)
        rows2 = dict(zip(perms, _gather(invs, b2)))
        kernel2 = {p for p in perms if _is_kernel_perm(rows2[p])}
        s.record("basis_independence", kernel2 == kernel_set, g,
                 f"kernel changed under random tree (seed {seed})")
        if g.n <= 5:
            p_mat = change_of_basis(b, b2)
            s.record("basis_independence", abs(determinant(p_mat)) == 1, g,
                     f"change-of-basis matrix is not unimodular (seed {seed})")
            for p in perms:  # the conjugacy identity, as P * M_new == M_old * P
                ok = (p_mat @ IntMatrix._square(rows2[p])).rows == (mats[p] @ p_mat).rows
                s.record("basis_independence", ok, g,
                         f"conjugacy identity failed (seed {seed})")

    # criterion 4: structural properties of kernel elements
    violation = _kernel_structure_check(g, b)
    for p in kernel:
        detail = violation(p)
        s.record("kernel_structure", detail is None, g, detail)

    # criterion 5: no leaves => injective unless the whole graph is a cycle
    if all(g.degree(v) >= 2 for v in range(g.n)):
        if is_simple_cycle_graph(g):
            ok = kernel_set == _rotation_perms(g)
            detail = "cycle kernel is not exactly the rotation subgroup"
        else:
            ok = len(kernel) == 1
            detail = "leafless non-cycle graph has a nontrivial kernel"
        s.record("min_degree_two", ok, g, detail)

    # criterion 7: mod-p kernels
    kernel3 = {p for p in perms if _is_kernel_perm(mats[p].rows, 3)}
    s.record("mod_p", kernel3 == kernel_set, g,
             "mod-3 kernel differs from the integer kernel")
    # torsion in the level-2 congruence subgroup has order at most 2
    # (Minkowski), so ker2 / ker is an elementary abelian 2-group
    kernel2 = {p for p in perms if _is_kernel_perm(mats[p].rows, 2)}
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
    s.record("mod2_kernel", ok, g, detail)
    if kernel2 > kernel_set:
        s.mod2_extra_count += 1
        if len(s.mod2_extra_examples) < MOD2_REPRODUCER_LIMIT:
            s.mod2_extra_examples.append(format_edge_list(g))

    # criterion 9 second half: rotation detector vs permutation search
    if beta == 1:
        periodic, k = is_periodic_unicyclic(g)
        brute = _brute_minimal_rotation(g, perms[1:])
        ok = periodic == (brute is not None) and (not periodic or brute == k)
        s.record("periodicity_oracle", ok, g,
                 f"rotation detector says {(periodic, k)}, search found shift {brute}")

    # the symmetry flag classify reads vs permutation search, on every pendant tree
    forest = _structure(g)
    for tree in pendant_trees(g):
        ok = forest.is_symmetric(tree.root) == _brute_root_fixing_symmetry(tree)
        s.record("rigidity_oracle", ok, g,
                 f"symmetry flag disagrees with search at root {tree.root}")


def verify_corpus(n_max: int = ENUMERATION_MAX_VERTICES, *, seeds=DEFAULT_SEEDS,
                  sample_seed: int = 7, fail_fast: bool = False,
                  progress=None) -> VerificationSummary:
    """Run every per-graph check over all labeled connected graphs with
    2 <= n <= n_max <= ENUMERATION_MAX_VERTICES vertices.  seeds must be
    nonempty, so that no criterion is vacuous.  sample_seed is accepted
    and ignored: it seeded the pair sample that the homomorphism check on
    the strong generators replaced, and the benchmark harness passes it."""
    if not 2 <= n_max <= ENUMERATION_MAX_VERTICES:
        raise ValueError(f"verification supports 2 <= n_max <= "
                         f"{ENUMERATION_MAX_VERTICES}, got {n_max}")
    seeds = tuple(seeds)
    if not seeds:
        raise ValueError("at least one tree seed is needed for basis_independence")
    s = VerificationSummary(n_max, seeds, fail_fast)
    try:
        for n in range(2, n_max + 1):
            for idx, g in enumerate(enumerate_connected_graphs(n)):
                s.per_n[n] = idx + 1
                _check_graph(g, s)
                if progress is not None:
                    progress(n, idx + 1)
    except _Stop:
        # the graph that ends the run is reported like any other
        if progress is not None:
            progress(n, s.per_n[n])
    return s
