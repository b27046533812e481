"""Acceptance suite: every release criterion, at its stated tolerance.

All arithmetic is exact, so tolerance means equality throughout.  The
corpus-wide criteria share one exhaustive pass over every labeled
connected graph with 2..6 vertices (fixture `summary`); the remaining
criteria run their own constructions.  Each test prints one PASS/FAIL
line (visible with pytest -s).
"""

import random

import pytest

from homrep import (
    CapacityError,
    Graph,
    RootedTreeSpec,
    ahu_code,
    automorphisms,
    betti,
    build_periodic_unicyclic,
    classify,
    format_edge_list,
    named_family,
    representation,
    spanning_tree_basis,
    verify_corpus,
)
from homrep.autgroup import automorphism_chain
from homrep.rep import _gather, _inverses
from homrep.verify import VerificationSummary, _check_homomorphism, _kernel_structure_check
from helpers import (
    all_increasing_parent_arrays,
    brute_force_automorphisms,
    brute_rooted_isomorphic,
    parents_to_edges,
    rooted_trees_up_to_iso,
    signed_incidence_matrix,
)

EXPECTED_CORPUS = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {name}{suffix}")


@pytest.fixture(scope="session")
def summary():
    return verify_corpus(6, seeds=(1, 2, 3, 4, 5))


# every criterion's check count on the corpus, so that no check is dropped silently
EXPECTED_CHECKS = {
    "automorphism_chain": 27475,
    "classify_oracle": 27475, "homomorphism": 320251, "basis_independence": 154620,
    "kernel_structure": 33019, "min_degree_two": 12322, "mod_p": 27475,
    "mod2_kernel": 27475, "periodicity_oracle": 3898, "rigidity_oracle": 16892,
    "fast_path": 12322, "block_properties": 27475, "cycle_basis": 27475,
    "witness_validity": 3047,
}


def _criterion(summary, name):
    r = summary.criteria[name]
    assert r.checked == EXPECTED_CHECKS[name], f"criterion {name} ran {r.checked} checks"
    return r


def test_criterion_1_classifier_matches_bruteforce_kernel(summary):
    assert summary.per_n == EXPECTED_CORPUS
    r = _criterion(summary, "classify_oracle")
    report("criterion 1: structural verdict = brute-force kernel triviality, "
           f"{summary.graphs_total} graphs", r.violations == 0,
           f"{r.checked} checks")
    assert r.violations == 0, r.first_detail


def test_stabiliser_chain_matches_the_search(summary):
    r = _criterion(summary, "automorphism_chain")
    report("the stabiliser chain lists the searched group, element for element",
           r.violations == 0, f"{r.checked} graphs")
    assert r.violations == 0, r.first_detail


def test_criterion_2_homomorphism_into_unimodular_matrices(summary):
    r = _criterion(summary, "homomorphism")
    report("criterion 2: products, determinants and entries of the matrix "
           "action", r.violations == 0, f"{r.checked} checks")
    assert r.violations == 0, r.first_detail


K33 = Graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
K24 = Graph(6, [(i, j) for i in range(2) for j in range(2, 6)])


def _homomorphism_check(g, perms, mats, gens):
    """The homomorphism criterion on its own, on hand-built matrices."""
    summary = VerificationSummary(6, (1,))
    _check_homomorphism(g, perms, mats, gens, summary)
    return summary.criteria["homomorphism"]


def _matrices(g, perms):
    b = spanning_tree_basis(g)
    return dict(zip(perms, _gather(_inverses(perms, g.n), b)))


@pytest.mark.parametrize("g", [named_family("complete", 6), K33], ids=["K6", "K33"])
def test_criterion_2_product_check_reaches_non_generators(g):
    # groups whose |G|^2 pairs are far more than the verifier checks: a
    # wrong matrix on an element outside the generating set is still seen
    gens, perms = automorphism_chain(g)
    mats = _matrices(g, perms)
    r = _homomorphism_check(g, perms, mats, gens)
    assert r.violations == 0
    assert r.checked == 1 + len(perms) + len(perms) * len(gens) + 1
    victim = next(p for p in reversed(perms) if p not in gens)
    # the negated matrix keeps its entries in {-1,0,1} and its determinant +/-1
    mats[victim] = tuple(tuple(-x for x in row) for row in mats[victim])
    r = _homomorphism_check(g, perms, mats, gens)
    report(f"criterion 2: a corrupt non-generator matrix is caught ({len(perms)} elements, "
           f"{len(gens)} generators)", r.violations > 0, f"{r.violations} violations")
    assert r.violations > 0
    assert r.first_detail.startswith("matrix of a composite differs from the matrix product")


def test_criterion_2_generators_must_generate_the_group():
    # K_{2,4}: only one generator moves vertex 0, so without it the walk
    # stays in the stabiliser of 0, a subgroup of index 2
    gens, perms = automorphism_chain(K24)
    dropped = [p for p in gens if p[0] == 0]
    assert len(dropped) == len(gens) - 1
    r = _homomorphism_check(K24, perms, _matrices(K24, perms), dropped)
    assert r.violations == 1
    assert r.first_detail.startswith(f"the generators reach {len(perms) // 2} of {len(perms)}")


def test_criterion_2_composite_outside_the_list_is_reported():
    # a rotation of the triangle without its square: not a group
    g = named_family("cycle", 3)
    perms = [(0, 1, 2), (1, 2, 0)]
    r = _homomorphism_check(g, perms, _matrices(g, perms), perms[1:])
    assert r.violations == 1
    assert r.first_detail.startswith("a composite of automorphisms is outside the searched group")


def test_criterion_3_spanning_tree_independence(summary):
    r = _criterion(summary, "basis_independence")
    report("criterion 3: kernel invariant under random spanning trees "
           "(seeds 1..5) + conjugacy", r.violations == 0, f"{r.checked} checks")
    assert r.violations == 0, r.first_detail


def test_criterion_4_kernel_elements_fix_structure(summary):
    r = _criterion(summary, "kernel_structure")
    report("criterion 4: kernel elements fix cycles setwise, blocks setwise, "
           "2-edge-connected non-cycles pointwise", r.violations == 0,
           f"{r.checked} kernel elements")
    assert r.violations == 0, r.first_detail


def test_criterion_4_check_fires_off_the_kernel(corpus5):
    # the corpus pass hands the check kernel elements only; every other
    # automorphism moves a fundamental cycle of the canonical basis
    checked = 0
    for g in corpus5:
        b = spanning_tree_basis(g)
        violation = _kernel_structure_check(g, b)
        unit = [tuple(int(i == j) for j in range(b.beta)) for i in range(b.beta)]
        for p in brute_force_automorphisms(g):
            detail = violation(p)
            if signed_incidence_matrix(g, p, b) == unit:
                assert detail is None, (format_edge_list(g), p, detail)
            else:
                assert detail is not None and detail.startswith(
                    "kernel element moves fundamental cycle"), (format_edge_list(g), p, detail)
                checked += 1
    report("criterion 4: the check rejects every automorphism outside the kernel",
           checked > 0, f"{checked} automorphisms")
    assert checked > 0


def test_criterion_5_leafless_graphs(summary):
    r = _criterion(summary, "min_degree_two")
    report("criterion 5: min degree 2 implies trivial kernel unless a "
           "simple cycle (then exactly the rotations)", r.violations == 0,
           f"{r.checked} graphs")
    assert r.violations == 0, r.first_detail


def _random_spec(rng: random.Random) -> RootedTreeSpec:
    size = rng.randint(1, 4)
    return RootedTreeSpec(
        (-1,) + tuple(rng.randrange(i) for i in range(1, size)))


def test_criterion_6_decorated_cycle_family():
    # the fixed reference instance reproduces bit-exactly
    g, rho = build_periodic_unicyclic(
        4, 2, [RootedTreeSpec((-1, 0)), RootedTreeSpec((-1, 0, 1))])
    assert g.n == 10
    assert g.edges == ((0, 1), (0, 3), (0, 4), (1, 2), (1, 5),
                       (2, 3), (2, 7), (3, 8), (5, 6), (8, 9))
    assert rho.perm == (2, 3, 0, 1, 7, 8, 9, 4, 5, 6)

    rng = random.Random(20260808)
    cap = 20000
    checked = 0
    while checked < 50:
        n = rng.randint(3, 12)
        divisors = [d for d in range(1, n) if n % d == 0]
        k = rng.choice(divisors)
        specs = [_random_spec(rng) for _ in range(k)]
        g, rho = build_periodic_unicyclic(n, k, specs)
        try:
            rep = representation(g, cap=cap)
        except CapacityError:
            continue  # group order over the cap: redraw
        assert rho.order() == n // k
        assert rho.perm in rep.kernel and not rho.is_identity()
        assert not classify(g).faithful
        checked += 1
    report("criterion 6: 50 random decorated cycles carry their rotation "
           "in the kernel; reference instance bit-exact", True)


def test_criterion_7_mod_p_kernels(summary):
    r = _criterion(summary, "mod_p")
    report("criterion 7: mod-3 kernel equals the integer kernel",
           r.violations == 0, f"{r.checked} graphs")
    # mod 2 carries no claim; strict growth is reported, never asserted
    print(f"  note: mod-2 kernel strictly exceeds the integer kernel on "
          f"{summary.mod2_extra_count} of {summary.graphs_total} graphs, e.g.:")
    for example in summary.mod2_extra_examples[:3]:
        print("    " + " | ".join(example.splitlines()))
    assert summary.mod2_extra_count == 6849
    assert r.violations == 0, r.first_detail


def test_criterion_7_mod2_kernel_structure(summary):
    # the excess itself is only reported; its shape is a theorem: torsion
    # in the level-2 congruence subgroup has order at most 2 (Minkowski)
    r = _criterion(summary, "mod2_kernel")
    report("criterion 7: mod-2 kernel contains the integer kernel with "
           "power-of-2 index, and every element acts as an involution",
           r.violations == 0, f"{r.checked} graphs")
    assert r.checked == summary.graphs_total
    assert r.violations == 0, r.first_detail


def test_criterion_8_reference_quantities():
    ok = True
    for n in range(4, 9):
        ok = ok and betti(named_family("complete", n)) == (n - 1) * (n - 2) // 2
    for p in (3, 5, 7):
        cycle = named_family("cycle", p)
        ok = ok and len(automorphisms(cycle)) == 2 * p
        ok = ok and betti(cycle) == 1
    star = named_family("star", 3)
    rep = representation(star)
    ok = ok and betti(star) == 0 and len(rep.kernel) == rep.group_order == 6
    report("criterion 8: reference counts for complete graphs, cycles and "
           "the 3-star", ok)
    assert ok


def test_criterion_9_canonical_form_oracles(summary):
    # rooted-tree codes vs permutation search, every rooted tree on <= 7
    # vertices: each increasing parent array must match exactly one
    # isomorphism-class representative, and code equality must follow
    pair_checks = 0
    for n in range(1, 8):
        reps = rooted_trees_up_to_iso(n)
        rep_graphs = [Graph(n, parents_to_edges(r)) if n > 1 else Graph(1, [])
                      for r in reps]
        rep_codes = [ahu_code(g, range(n), 0) for g in rep_graphs]
        assert len(set(rep_codes)) == len(reps), f"code collision at n={n}"
        for arr in all_increasing_parent_arrays(n):
            matches = [i for i, r in enumerate(reps)
                       if brute_rooted_isomorphic(arr, r)]
            assert len(matches) == 1, f"{arr} matched {len(matches)} classes"
            g = Graph(n, parents_to_edges(arr)) if n > 1 else Graph(1, [])
            assert ahu_code(g, range(n), 0) == rep_codes[matches[0]]
            pair_checks += len(reps)
    r = _criterion(summary, "periodicity_oracle")
    report("criterion 9: rooted-tree codes match permutation search "
           f"({pair_checks} comparisons); rotation detector matches search "
           f"on {r.checked} unicyclic graphs", r.violations == 0)
    assert r.violations == 0, r.first_detail


def test_supporting_structure_checks(summary):
    # not numbered criteria, but the verifier tracks them: the fast
    # path, block axioms, basis bookkeeping, rigidity search, witnesses
    names = ("fast_path", "block_properties", "cycle_basis",
             "rigidity_oracle", "witness_validity")
    ok = True
    for name in names:
        r = _criterion(summary, name)
        ok = ok and r.violations == 0
    report("supporting invariants: shortcut consistency, block axioms, "
           "basis bookkeeping, rigidity oracle, witness construction", ok)
    for name in names:
        assert summary.criteria[name].violations == 0, \
            summary.criteria[name].first_detail
