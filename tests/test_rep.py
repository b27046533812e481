import random
from collections import Counter

import pytest

from homrep import (
    Automorphism,
    IntMatrix,
    SpanningTreeBasis,
    automorphisms,
    change_of_basis,
    cycle_coordinates,
    determinant,
    matrix_of,
    named_family,
    random_spanning_tree_basis,
    representation,
    spanning_tree_basis,
    verify_corpus,
)
from helpers import (
    compose,
    inverse_unimodular,
    laplace_determinant,
    matrix_mod_p,
    rep_groups_graphs,
    signed_incidence_matrix,
    trial_division_is_prime,
)
from homrep.cli import _reducer
from homrep.matrices import PRIME_TEST_BOUND, is_prime
from homrep.rep import _gather, _inverses, _is_kernel_perm
from homrep.verify import DEFAULT_SEEDS


def _bases(g):
    """The canonical basis and three seeded random ones."""
    return [spanning_tree_basis(g)] + [random_spanning_tree_basis(g, s) for s in (1, 2, 3)]


class TestIntMatrix:
    def test_identity(self):
        m = IntMatrix.identity(3)
        assert m.is_identity() and m.dim == 3

    def test_empty_matrix_is_identity(self):
        m = IntMatrix(())
        assert m.dim == 0 and m.is_identity()
        assert (m @ m).dim == 0

    def test_product(self):
        a = IntMatrix.from_rows([[1, 1], [0, 1]])
        b = IntMatrix.from_rows([[1, 0], [1, 1]])
        assert (a @ b).rows == ((2, 1), (1, 1))

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix(((1, 2), (3,)))

    @pytest.mark.parametrize("name", ["K5", "petersen", "star-4", "C12"])
    def test_group_gather_matches_matrix_of(self, name):
        # the one gather loop of representation against one gather per element
        g = rep_groups_graphs()[name][0]
        b = random_spanning_tree_basis(g, 3)
        report = representation(g, b)
        assert report.group_order == len(automorphisms(g))
        for f, m in report.matrices.items():
            assert m == matrix_of(f, b), f

    def test_gathers_and_products_skip_the_square_check(self, monkeypatch):
        checked = []
        post_init = IntMatrix.__post_init__

        def counting(self):
            checked.append(self.dim)
            post_init(self)

        k4 = named_family("complete", 4)
        IntMatrix.identity(3)  # cached, so the kernel test builds none below
        monkeypatch.setattr(IntMatrix, "__post_init__", counting)
        m = representation(k4).matrices[automorphisms(k4)[5]]
        assert (m @ m).dim == 3
        assert checked == []
        with pytest.raises(ValueError):
            IntMatrix(((1, 2), (3,)))


class TestDeterminant:
    def test_identity_any_dim(self):
        for dim in range(5):
            assert determinant(IntMatrix.identity(dim)) == 1

    def test_one_by_one(self):
        assert determinant(IntMatrix.from_rows([[-1]])) == -1

    def test_against_laplace_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            dim = rng.randrange(1, 5)
            rows = [[rng.randrange(-3, 4) for _ in range(dim)] for _ in range(dim)]
            assert determinant(IntMatrix.from_rows(rows)) == laplace_determinant(rows)

    def test_singular(self):
        assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0

    def test_needs_pivot_swap(self):
        m = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert determinant(m) == -1


class TestInverse:
    # the helpers' adjugate inverse, the oracle of test_conjugacy_identity
    def test_round_trip(self):
        m = IntMatrix.from_rows([[1, 2], [1, 1]])  # det -1
        inv = inverse_unimodular(m)
        assert (m @ inv).is_identity() and (inv @ m).is_identity()

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            inverse_unimodular(IntMatrix.from_rows([[2, 0], [0, 1]]))


class TestMatrixOf:
    def test_identity_gives_identity(self, k4):
        b = spanning_tree_basis(k4)
        m = matrix_of(automorphisms(k4)[0], b)
        assert m.is_identity() and m.dim == 3

    def test_c4_rotation_and_reflection(self):
        c4 = named_family("cycle", 4)
        b = spanning_tree_basis(c4)
        rot = Automorphism(c4, (1, 2, 3, 0))
        refl = Automorphism(c4, (0, 3, 2, 1))
        assert matrix_of(rot, b).rows == ((1,),)
        assert matrix_of(refl, b).rows == ((-1,),)

    def test_k4_transposition_golden(self, k4):
        # frozen from the signed-incidence oracle: swapping vertices 2
        # and 3 swaps the first two fundamental cycles and reverses the
        # third
        b = spanning_tree_basis(k4)
        swap = Automorphism(k4, (0, 1, 3, 2))
        m = matrix_of(swap, b)
        assert m.rows == ((0, 1, 0), (1, 0, 0), (0, 0, -1))
        assert determinant(m) == 1
        assert m.rows == tuple(signed_incidence_matrix(k4, swap.perm, b))

    def test_matches_signed_incidence_oracle(self, corpus5):
        for g in corpus5:
            auts = automorphisms(g)
            for b in _bases(g):
                for f in auts:
                    assert (matrix_of(f, b).rows
                            == tuple(signed_incidence_matrix(g, f.perm, b)))

    def test_beta_zero_gives_empty_matrix(self):
        star = named_family("star", 3)
        b = spanning_tree_basis(star)
        for f in automorphisms(star):
            assert matrix_of(f, b).dim == 0

    def test_homomorphism_on_k4(self, k4):
        b = spanning_tree_basis(k4)
        auts = automorphisms(k4)
        mats = {f: matrix_of(f, b) for f in auts}
        for f in auts:
            for h in auts:
                assert mats[compose(f, h)] == mats[f] @ mats[h]

    def test_entries_and_determinants_on_k4(self, k4):
        b = spanning_tree_basis(k4)
        for f in automorphisms(k4):
            m = matrix_of(f, b)
            assert all(x in (-1, 0, 1) for row in m.rows for x in row)
            assert determinant(m) in (1, -1)


class TestRepresentation:
    def test_k4_faithful(self, k4):
        rep = representation(k4)
        assert rep.faithful
        assert len(rep.kernel) == 1 and rep.kernel[0].is_identity()
        assert rep.group_order == 24

    def test_c6_kernel_is_rotations(self):
        c6 = named_family("cycle", 6)
        rep = representation(c6)
        assert not rep.faithful
        rotations = {tuple((v + s) % 6 for v in range(6)) for s in range(6)}
        assert {f.perm for f in rep.kernel} == rotations

    def test_star_kernel_is_whole_group(self):
        star = named_family("star", 3)
        rep = representation(star)
        assert rep.group_order == 6
        assert len(rep.kernel) == 6 and not rep.faithful

    def test_kernel_size_divides_group_order(self, corpus5):
        for g in corpus5[:200]:
            rep = representation(g)
            assert rep.group_order % len(rep.kernel) == 0

    def test_identity_listed_first(self, bowtie):
        rep = representation(bowtie)
        assert next(iter(rep.matrices)).is_identity()


class TestChangeOfBasis:
    def test_same_basis_gives_identity(self, k4):
        b = spanning_tree_basis(k4)
        assert change_of_basis(b, b).is_identity()

    def test_unimodular_on_random_tree_pairs(self, corpus5):
        # 100 seeded pairs of random spanning trees across corpus graphs
        rng = random.Random(11)
        cyclic = [g for g in corpus5 if g.num_edges >= g.n]
        for _ in range(100):
            g = cyclic[rng.randrange(len(cyclic))]
            b1 = random_spanning_tree_basis(g, rng.randrange(10 ** 6))
            b2 = random_spanning_tree_basis(g, rng.randrange(10 ** 6))
            assert determinant(change_of_basis(b1, b2)) in (1, -1)

    def test_conjugacy_identity(self, k4, bowtie):
        for g in (k4, bowtie, named_family("cycle", 5)):
            b_old = spanning_tree_basis(g)
            for seed in (1, 2):
                b_new = random_spanning_tree_basis(g, seed)
                p = change_of_basis(b_old, b_new)
                p_inv = inverse_unimodular(p)
                for f in automorphisms(g):
                    assert matrix_of(f, b_new) == p_inv @ matrix_of(f, b_old) @ p

    def test_equals_the_coordinates_of_the_new_cycles(self, corpus5):
        # the route through OrientedCycle and cycle_coordinates is the oracle
        for g in corpus5:
            b = spanning_tree_basis(g)
            for seed in range(1, 6):
                b2 = random_spanning_tree_basis(g, seed)
                for b_old, b_new in ((b, b2), (b2, b)):
                    cols = [cycle_coordinates(c, b_old) for c in b_new.fundamental_cycles()]
                    assert change_of_basis(b_old, b_new).rows == tuple(zip(*cols))

    def test_rejects_mixed_graphs(self, k4, triangle):
        with pytest.raises(ValueError):
            change_of_basis(spanning_tree_basis(k4), spanning_tree_basis(triangle))


def _kernel_mod(g, b, p):
    """The mod p kernel as the verifier reads it: one gather of the group."""
    group = automorphisms(g)
    rows = _gather(_inverses([f.perm for f in group], g.n), b)
    return [f for f, m in zip(group, rows) if _is_kernel_perm(m, p)]


class TestModP:
    # cli._reducer is the reduction `rep --mod-p` prints
    def test_minus_one_mod_three(self):
        assert _reducer(3)(IntMatrix.from_rows([[-1]])).rows == ((2,),)

    def test_identity_mod_p(self):
        for p in (2, 3, 5):
            assert _reducer(p)(IntMatrix.identity(3)).is_identity()

    def test_k4_transposition_mod_two_is_parity(self, k4):
        b = spanning_tree_basis(k4)
        swap = Automorphism(k4, (0, 1, 3, 2))
        m = matrix_of(swap, b)
        assert _reducer(2)(m).rows == tuple(
            tuple(x % 2 for x in row) for row in m.rows)

    def test_rejects_composite(self):
        assert [p for p in range(-3, 30) if is_prime(p)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_is_prime_matches_trial_division_below_1e5(self):
        assert [p for p in range(-3, 10 ** 5) if is_prime(p)] == [
            p for p in range(-3, 10 ** 5) if trial_division_is_prime(p)]

    @pytest.mark.parametrize("q", [2047, 1373653, 25326001, 3215031751,
                                   3825123056546413051])
    def test_is_prime_rejects_strong_pseudoprimes(self, q):
        # the least strong pseudoprimes to the first 1, 2, 3, 4 and 9 prime
        # bases; each has a factor below 2 * 10^5
        assert any(q % d == 0 for d in range(2, 2 * 10 ** 5))
        assert not is_prime(q)

    def test_is_prime_on_large_primes(self):
        assert is_prime(2 ** 61 - 1) and is_prime(10 ** 16 + 61) and is_prime(10 ** 18 + 3)
        assert not is_prime((10 ** 9 + 7) * (10 ** 9 + 9))

    def test_is_prime_refuses_what_it_cannot_decide(self):
        # the bound is itself a strong pseudoprime to all twelve bases
        with pytest.raises(ValueError, match=str(PRIME_TEST_BOUND)):
            is_prime(PRIME_TEST_BOUND)

    def test_kernel_mod_three_k4(self, k4):
        kernel = _kernel_mod(k4, spanning_tree_basis(k4), 3)
        assert len(kernel) == 1 and kernel[0].is_identity()

    def test_kernel_mod_three_c6_is_rotations(self):
        c6 = named_family("cycle", 6)
        kernel = _kernel_mod(c6, spanning_tree_basis(c6), 3)
        rotations = {tuple((v + s) % 6 for v in range(6)) for s in range(6)}
        assert {f.perm for f in kernel} == rotations

    def test_kernel_mod_three_tree_is_whole_group(self):
        path = named_family("path", 4)
        assert len(_kernel_mod(path, spanning_tree_basis(path), 3)) == 2

    def test_kernel_mod_two_can_grow(self):
        # a cycle's reflections reduce to the identity mod 2
        c5 = named_family("cycle", 5)
        rep = representation(c5)
        assert len(_kernel_mod(c5, rep.basis, 2)) == 10 > len(rep.kernel) == 5

    def test_kernel_mod_p_is_reduced_identity(self, corpus5):
        for g in corpus5:
            auts = automorphisms(g)
            for b in _bases(g):
                for p in (2, 3):
                    want = [f for f in auts
                            if matrix_mod_p(matrix_of(f, b), p).is_identity()]
                    assert _kernel_mod(g, b, p) == want


class TestTableBuilds:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Bases made and table builds per basis (kept alive, so ids stay unique)."""
        made, builds, reads = [], {}, {}
        adopt, table = SpanningTreeBasis._adopt, SpanningTreeBasis.cycle_dart_table

        def counting_adopt(self, *args):
            made.append(self)
            adopt(self, *args)

        def counting_table(self):
            reads[id(self)] = reads.get(id(self), 0) + 1
            if self._dart_table is None:
                builds[id(self)] = builds.get(id(self), 0) + 1
            return table(self)

        monkeypatch.setattr(SpanningTreeBasis, "_adopt", counting_adopt)
        monkeypatch.setattr(SpanningTreeBasis, "cycle_dart_table", counting_table)
        return made, builds, reads

    def test_one_build_serves_every_gather(self, counts, k4):
        made, builds, reads = counts
        b = spanning_tree_basis(k4)
        representation(k4, b)
        assert reads[id(b)] == 1  # one read gathers the whole group
        for f in automorphisms(k4):
            matrix_of(f, b)
        assert reads[id(b)] == 1 + 24 and builds == {id(b): 1}

    @pytest.mark.parametrize("seeds", [DEFAULT_SEEDS, (7, 8)])
    def test_verifier_builds_one_basis_per_tree(self, counts, seeds):
        made, builds, reads = counts
        summary = verify_corpus(4, seeds=seeds)
        assert summary.ok
        per_graph = Counter(b.graph for b in made)
        assert len(per_graph) == summary.graphs_total
        assert set(per_graph.values()) == {1 + len(seeds)}
        assert set(builds.values()) == {1}
        # one gather of the group per basis: every kernel reads those
        # rows; change_of_basis reads each random tree's table once more
        assert sum(reads.values()) == (1 + 2 * len(seeds)) * summary.graphs_total
