import random
import time

import pytest

from homrep import (
    Automorphism,
    CapacityError,
    Graph,
    RootedTreeSpec,
    automorphisms,
    build_periodic_unicyclic,
    enumerate_connected_graphs,
    has_nontrivial_automorphism,
    identity_automorphism,
    named_family,
    representation,
    witness_kernel_element,
)
from homrep._kernels import search_automorphisms, stabiliser_chain
from homrep.autgroup import DEFAULT_CAP
from helpers import brute_force_automorphisms, compose

# path 0-1-2-3-4-5 with an extra leaf on vertex 2: the three arms from
# vertex 2 have pairwise distinct lengths, so nothing can move
RIGID_TREE_7 = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, edges)


class TestAutomorphismType:
    def test_validates_bijection(self, triangle):
        with pytest.raises(ValueError):
            Automorphism(triangle, (0, 0, 1))

    def test_validates_adjacency(self):
        path = named_family("path", 3)
        with pytest.raises(ValueError):
            Automorphism(path, (1, 0, 2))

    def test_inverse_and_order(self):
        c4 = named_family("cycle", 4)
        rot = Automorphism(c4, (1, 2, 3, 0))
        assert rot.order() == 4
        assert compose(rot, Automorphism(c4, (3, 0, 1, 2))) == identity_automorphism(c4)


class TestSearchedAutomorphisms:
    def test_search_output_is_not_rechecked(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a searched automorphism was checked again")

        monkeypatch.setattr(Automorphism, "__post_init__", refuse)
        k5 = named_family("complete", 5)
        auts = automorphisms(k5)
        assert len(auts) == 120 and auts[0].perm == (0, 1, 2, 3, 4)
        assert len(representation(k5).matrices) == 120

    def test_equal_to_validated_automorphisms(self):
        c5 = named_family("cycle", 5)
        for f in automorphisms(c5):
            checked = Automorphism(c5, f.perm)
            assert f == checked and hash(f) == hash(checked) and f.graph is c5

    def test_public_routes_still_validate(self, monkeypatch):
        checked = []
        post_init = Automorphism.__post_init__

        def counting(self):
            checked.append(self.perm)
            post_init(self)

        monkeypatch.setattr(Automorphism, "__post_init__", counting)
        c4 = named_family("cycle", 4)
        automorphisms(c4)
        assert checked == []
        identity_automorphism(c4)
        witness_kernel_element(named_family("path", 3))
        build_periodic_unicyclic(4, 2, [RootedTreeSpec.parse("[-1]")] * 2)
        assert len(checked) == 3
        with pytest.raises(ValueError):
            Automorphism(c4, (0, 2, 1, 3))


class TestEnumeration:
    def test_k4_has_24(self, k4):
        auts = automorphisms(k4)
        assert len(auts) == 24
        assert {a.perm for a in auts} == set(brute_force_automorphisms(k4))

    def test_c5_is_dihedral_of_order_10(self):
        assert len(automorphisms(named_family("cycle", 5))) == 10

    def test_p3_swaps_endpoints(self):
        auts = automorphisms(named_family("path", 3))
        assert [a.perm for a in auts] == [(0, 1, 2), (2, 1, 0)]

    def test_identity_first_then_lexicographic(self, k4):
        perms = [a.perm for a in automorphisms(k4)]
        assert perms[0] == (0, 1, 2, 3)
        assert perms == sorted(perms)

    def test_cap_exceeded(self):
        with pytest.raises(CapacityError) as exc:
            automorphisms(named_family("star", 5), cap=10)
        assert "10" in str(exc.value)

    def test_matches_brute_force_up_to_5(self, corpus5):
        # same elements in the same lexicographic, identity-first order
        for g in corpus5:
            got = [a.perm for a in automorphisms(g)]
            assert got == sorted(brute_force_automorphisms(g)), g

    def test_petersen_has_120(self):
        assert len(automorphisms(petersen())) == 120

    def test_early_stop_returns_a_prefix(self, corpus5):
        for g in [*corpus5, named_family("complete", 6), petersen()]:
            masks = g.adjacency_masks()
            full = search_automorphisms(g.n, masks, 10 ** 6)
            assert search_automorphisms(g.n, masks, 2) == full[:2], g

    def test_matches_brute_force_sampled_n6(self):
        rng = random.Random(20260808)
        graphs = list(enumerate_connected_graphs(6))
        for g in rng.sample(graphs, 300):
            assert ({a.perm for a in automorphisms(g)}
                    == set(brute_force_automorphisms(g))), g

    def test_group_order_divides_factorial(self, corpus5):
        import math
        for g in corpus5:
            assert math.factorial(g.n) % len(automorphisms(g)) == 0


def cube(d):
    return Graph(1 << d, [(v, v ^ (1 << b)) for v in range(1 << d) for b in range(d)])


class TestStabiliserChain:
    # the backtracking search is the oracle: the same elements, in the same order
    def test_equals_the_search(self, corpus5):
        graphs = [*corpus5, named_family("complete", 6), named_family("complete", 7),
                  petersen(), cube(4), Graph(8, [(a, b) for a in range(4) for b in range(4, 8)]),
                  named_family("cycle", 100)]
        for g in graphs:
            masks = g.adjacency_masks()
            gens, perms = stabiliser_chain(g.n, masks, DEFAULT_CAP)
            assert perms == search_automorphisms(g.n, masks, DEFAULT_CAP + 1), g
            assert set(gens) <= set(perms[1:]), g

    def test_star_12_is_refused_before_enumeration(self):
        # 12! = 479,001,600 elements; the search would list a million first
        star = named_family("star", 12)
        t0 = time.perf_counter()
        with pytest.raises(CapacityError) as exc:
            automorphisms(star)
        assert time.perf_counter() - t0 < 0.5  # about 1 ms; the search takes seconds
        # the stabiliser of vertices 0 and 1 is already Sym(10)
        assert str(exc.value) == ("automorphism group order exceeds the cap of 1000000 "
                                  "(at least 3628800 automorphisms); "
                                  "raise the cap to enumerate this group")

    def test_cap_is_the_group_order(self):
        k5 = named_family("complete", 5)
        assert len(automorphisms(k5, cap=120)) == 120
        with pytest.raises(CapacityError):
            automorphisms(k5, cap=119)

    def test_single_vertex(self):
        assert stabiliser_chain(1, [0], 1) == ([], [(0,)])


class TestHasNontrivial:
    def test_p3(self):
        assert has_nontrivial_automorphism(named_family("path", 3))

    def test_k2(self):
        assert has_nontrivial_automorphism(Graph(2, [(0, 1)]))

    def test_rigid_seven_vertex_tree(self):
        # oracle: all 5040 permutations leave only the identity
        assert len(brute_force_automorphisms(RIGID_TREE_7)) == 1
        assert not has_nontrivial_automorphism(RIGID_TREE_7)

    def test_long_cycle(self):
        # deeper than the interpreter's default recursion limit of 1000
        assert has_nontrivial_automorphism(named_family("cycle", 1500))


class TestCompose:
    def test_identity_neutral(self, k4):
        ident = identity_automorphism(k4)
        for f in automorphisms(k4)[:8]:
            assert compose(f, ident) == f == compose(ident, f)

    def test_inverse_gives_identity(self, k4):
        for f in automorphisms(k4)[:8]:
            inverse = Automorphism(k4, tuple(sorted(range(4), key=f.perm.__getitem__)))
            assert compose(f, inverse).is_identity()

    def test_rotations_add_up(self):
        c4 = named_family("cycle", 4)
        rot = Automorphism(c4, (1, 2, 3, 0))
        assert compose(rot, rot).perm == (2, 3, 0, 1)

    def test_right_factor_acts_first(self):
        c4 = named_family("cycle", 4)
        rot = Automorphism(c4, (1, 2, 3, 0))
        refl = Automorphism(c4, (0, 3, 2, 1))
        assert compose(rot, refl).perm == tuple(rot.perm[refl.perm[v]] for v in range(4))

    def test_size_mismatch(self, triangle, k4):
        with pytest.raises(ValueError):
            compose(identity_automorphism(triangle), identity_automorphism(k4))

