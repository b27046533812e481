import ast
import contextlib
import enum
import io
import json
import os
import re
import subprocess
import sys
import types
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import homrep
import homrep.cli
import homrep.rep
from helpers import matrix_mod_p, reference_random_tree, rep_groups_graphs
from homrep import basis_from_tree, parse_edge_list
from homrep.cli import EXIT_MEMORY, EXIT_OUTPUT_CLOSED, main
from homrep.families import FAMILY_MAX_EDGES
from homrep.matrices import PRIME_TEST_BOUND


_K4_BASIS = homrep.spanning_tree_basis(homrep.named_family("complete", 4))
K4_ROTATION_ROWS = set(homrep.rep._gather(
    homrep.rep._inverses([(1, 2, 3, 0), (2, 3, 0, 1), (3, 0, 1, 2)], 4), _K4_BASIS))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return str(path)


class TestInfo:
    def test_k4_text(self, capsys, k4_file):
        code, out, _ = run_cli(capsys, "info", "--input", k4_file)
        assert code == 0
        assert "betti: 3" in out and "cutvertices: none" in out

    def test_k4_json(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--family", "complete", "4", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["betti"] == 3
        assert data["blocks"] == [[0, 1, 2, 3]]
        assert data["bridges"] == []

    def test_decorated_square_periodic(self, capsys, tmp_path):
        gen_code, gen_out, _ = run_cli(
            capsys, "gen", "4", "2", "[-1,0]", "[-1,0,1]")
        assert gen_code == 0
        path = tmp_path / "dec.txt"
        path.write_text(gen_out)
        code, out, _ = run_cli(capsys, "info", "--input", str(path), "--json")
        assert code == 0
        data = json.loads(out)
        assert data["unicyclic"] and data["periodic"] and data["period"] == 2
        assert len(data["pendant_trees"]) == 4

    @pytest.mark.parametrize("text, root, tree", [
        # a cherry on the cutvertex 6 between two triangles
        ("0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n2 6\n6 3\n6 7\n6 8\n", 6,
         {"root": 6, "vertices": [6, 7, 8], "edges": [[6, 7], [6, 8]]}),
        # two paths on vertex 1 of the bridge path 0-1-2 from a triangle to a square
        ("0 1\n0 4\n0 7\n1 2\n1 8\n1 11\n2 3\n2 6\n3 5\n4 7\n4 9\n5 6\n8 10\n11 12\n", 1,
         {"root": 1, "vertices": [1, 8, 10, 11, 12],
          "edges": [[1, 8], [1, 11], [8, 10], [11, 12]]}),
    ], ids=["n9", "n13"])
    def test_tree_on_bridge_path_listed(self, capsys, tmp_path, text, root, tree):
        path = tmp_path / "bridged.txt"
        path.write_text(text)
        code, out, _ = run_cli(capsys, "info", "--input", str(path), "--json")
        assert code == 0
        assert tree in json.loads(out)["pendant_trees"]
        code, out, _ = run_cli(capsys, "classify", "--input", str(path), "--json")
        assert json.loads(out)["witness"] == {"root": root}

    @pytest.mark.parametrize("text", ["0 1\n2 3\n", "0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n"],
                             ids=["two-edges", "two-triangles"])
    @pytest.mark.parametrize("argv", [("info",), ("classify",), ("rep",),
                                      ("rep", "--tree", "rand")],
                             ids=["info", "classify", "rep", "rep-rand"])
    def test_disconnected_input_exit_2(self, capsys, tmp_path, argv, text):
        path = tmp_path / "d.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert (code, out, err) == (2, "", "error: graph is not connected\n")

    @pytest.mark.parametrize("text", ["0 100000000\n", "n 1000000\n0 1\n", "n 3\n"],
                             ids=["label-1e8", "header-1e6", "no-edges"])
    @pytest.mark.parametrize("argv", [("info",), ("classify",), ("rep",)],
                             ids=["info", "classify", "rep"])
    def test_too_few_edges_rejected_before_any_graph(self, capsys, tmp_path, monkeypatch,
                                                      argv, text):
        # n > edges + 1 cannot be connected: refused before Graph allocates n lists
        def refuse(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(homrep.graphs.Graph, "__init__", refuse)
        path = tmp_path / "d.txt"
        path.write_text(text)
        code, out, err = run_cli(capsys, *argv, "--input", str(path))
        assert (code, out, err) == (2, "", "error: graph is not connected\n")

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "info", "--input", "/no/such/file")
        assert code == 2 and "error" in err

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 zero\n")
        code, _, err = run_cli(capsys, "info", "--input", str(path))
        assert code == 2 and "line 1" in err

    def test_g6_input(self, capsys):
        code, out, _ = run_cli(capsys, "info", "--g6", "D?{", "--json")
        assert code == 0
        assert json.loads(out)["betti"] == 0


class TestRep:
    def test_c4_text(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "--family", "cycle", "4")
        assert code == 0
        assert "group order: 8" in out
        assert "kernel size: 4" in out
        assert "faithful: False" in out

    def test_k4_json_matrices(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "--family", "complete", "4", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["group_order"] == 24 and data["faithful"]
        assert len(data["matrices"]) == 24
        assert all(m["matrix"]["dim"] == 3 for m in data["matrices"])
        assert data["kernel"] == [[0, 1, 2, 3]]

    def test_star_empty_matrices(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "--family", "star", "3", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["betti"] == 0 and len(data["kernel"]) == 6
        assert all(m["matrix"]["rows"] == [] for m in data["matrices"])

    @pytest.mark.parametrize("argv, want", [
        (("--family", "path", "3"),
         "tree mode: det\ntree edges: [(0, 1), (1, 2)]\ncotree darts: []\nbetti: 0\n"
         "group order: 2\n"
         "automorphism [0, 1, 2] (kernel)\n(empty 0x0 matrix)\n"
         "automorphism [2, 1, 0] (kernel)\n(empty 0x0 matrix)\n"
         "kernel size: 2\nfaithful: False\n"),
        (("--family", "path", "3", "--mod-p", "3"),
         "tree mode: det\ntree edges: [(0, 1), (1, 2)]\ncotree darts: []\nbetti: 0\n"
         "group order: 2\n"
         "automorphism [0, 1, 2] (kernel)\n(empty 0x0 matrix)\nmod 3:\n(empty)\n"
         "automorphism [2, 1, 0] (kernel)\n(empty 0x0 matrix)\nmod 3:\n(empty)\n"
         "kernel size: 2\nfaithful: False\n"),
        (("--g6", "@"),
         "tree mode: det\ntree edges: []\ncotree darts: []\nbetti: 0\n"
         "group order: 1\n"
         "automorphism [0] (kernel)\n(empty 0x0 matrix)\n"
         "kernel size: 1\nfaithful: True\n"),
    ], ids=["path-3", "path-3-mod-3", "K1"])
    def test_beta_zero_text(self, capsys, argv, want):
        assert run_cli(capsys, "rep", *argv) == (0, want, "")

    def test_kernel_only_filters(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "--family", "cycle", "5",
                               "--kernel-only", "--json")
        data = json.loads(out)
        assert code == 0
        assert len(data["matrices"]) == 5 == len(data["kernel"])

    def test_cap_exceeded_exit_4(self, capsys):
        code, _, err = run_cli(capsys, "rep", "--family", "complete", "4",
                               "--cap", "5")
        assert code == 4 and "cap" in err

    def test_random_tree_seed_reported(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "--family", "cycle", "4",
                               "--tree", "rand", "--seed", "3")
        assert code == 0 and "seed 3" in out

    @pytest.mark.parametrize("seed", ["1", "3", "-7"])
    @pytest.mark.parametrize("source", [
        ("--family", "complete", "4"), ("--g6", "IheA@GUAo"), ("--family", "cycle", "12"),
    ], ids=["K4", "petersen", "C12"])
    def test_random_tree_output_is_the_generators_tree(self, capsys, monkeypatch, source, seed):
        # the same bytes as a basis built from random.Random(seed)'s own tree
        argv = ("rep", *source, "--tree", "rand", "--seed", seed, "--json")
        code, out, _ = run_cli(capsys, *argv)
        built = []

        def reference(g, s):
            root, parent, _ = reference_random_tree(g, s)
            built.append(s)
            return basis_from_tree(g, [(v, p) for v, p in enumerate(parent) if p >= 0], root)

        monkeypatch.setattr(homrep.cli, "random_spanning_tree_basis", reference)
        ref_code, ref_out, _ = run_cli(capsys, *argv)
        assert built == [int(seed)]
        assert (code, out.encode()) == (ref_code, ref_out.encode())

    def test_mod_p_section(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "--family", "cycle", "4",
                               "--mod-p", "3", "--json")
        data = json.loads(out)
        assert code == 0 and data["mod_p"]["p"] == 3
        rows = [m["matrix"]["rows"] for m in data["mod_p"]["matrices"]]
        assert [[2]] in rows  # reflections reduce to [-1] = [2] mod 3

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("source", [
        ("--family", "complete", "5"), ("--g6", "EFz_"), ("--family", "cycle", "12"),
        ("--family", "star", "4"),
    ], ids=["K5", "K3,3", "C12", "star-4"])
    def test_mod_p_matrices_are_matrix_mod_p(self, capsys, source, p):
        code, out, _ = run_cli(capsys, "rep", *source, "--mod-p", str(p), "--json")
        data = json.loads(out)
        want = [matrix_mod_p(m["matrix"]["rows"], p) for m in data["matrices"]]
        assert code == 0
        assert ([m["matrix"]["rows"] for m in data["mod_p"]["matrices"]]
                == [[list(row) for row in w] for w in want])
        code, out, _ = run_cli(capsys, "rep", *source, "--mod-p", str(p))
        blocks = out.split(f"mod {p}:\n")[1:]
        assert code == 0 and len(blocks) == len(want)
        for block, w in zip(blocks, want):
            text = "\n".join(" ".join(str(x) for x in row) for row in w)
            assert block.startswith((text or "(empty)") + "\n")

    def test_mod_p_rejects_composite(self, capsys):
        code, _, err = run_cli(capsys, "rep", "--family", "cycle", "4",
                               "--mod-p", "4")
        assert code == 2 and "prime" in err

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("p", ["0", "1", "9", "-3"])
    def test_mod_p_non_prime_prints_nothing(self, capsys, p, mode):
        code, out, err = run_cli(capsys, "rep", "--family", "cycle", "4",
                                 "--mod-p", p, *mode)
        assert code == 2 and out == ""
        assert err == f"error: {p} is not prime\n"

    def test_mod_p_large_prime(self, capsys):
        code, out, err = run_cli(capsys, "rep", "--family", "cycle", "4",
                                 "--mod-p", "10000000000000061")
        assert code == 0 and err == ""
        assert "mod 10000000000000061:\n10000000000000060\n" in out

    @pytest.mark.parametrize("p", [PRIME_TEST_BOUND, 10 ** 30])
    def test_mod_p_above_the_test_bound_exit_2(self, capsys, p):
        code, out, err = run_cli(capsys, "rep", "--family", "cycle", "4", "--mod-p", str(p))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and str(PRIME_TEST_BOUND) in err

    def test_json_edges_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "rep", "--family", "bowtie", "5", "--json")
        data = json.loads(out)
        text = "n {}\n".format(data["n"]) + "\n".join(
            f"{u} {v}" for u, v in data["edges"])
        from homrep import named_family
        assert parse_edge_list(text) == named_family("bowtie", 5)


class TestClassify:
    def test_faithful_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--family", "complete", "4")
        assert code == 0 and out.strip() == "faithful"

    def test_not_faithful_exit_3(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--family", "path", "3")
        assert code == 3 and "TreeWithSymmetry" in out

    def test_cycle_json(self, capsys):
        code, out, _ = run_cli(capsys, "classify", "--family", "cycle", "6", "--json")
        data = json.loads(out)
        assert code == 3
        assert data == {"faithful": False, "reason": "PeriodicUnicyclic",
                        "witness": {"period": 1}}

    def test_bowtie_faithful(self, capsys):
        code, _, _ = run_cli(capsys, "classify", "--family", "bowtie", "5")
        assert code == 0

    def test_long_path_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "classify", "--family", "path", "1500")
        assert code == 3 and "TreeWithSymmetry" in out and err == ""

    def test_oversized_family_exit_2_without_a_graph(self, capsys, monkeypatch):
        def no_graph(n, edges):
            raise AssertionError("a Graph was built")

        monkeypatch.setattr(homrep.families, "Graph", no_graph)
        code, out, err = run_cli(capsys, "classify", "--family", "complete", "30000")
        assert code == 2 and out == ""
        assert err == ("error: complete 30000 would have 449985000 edges; "
                       f"named families are limited to {FAMILY_MAX_EDGES}\n")

    def test_memory_error_exit_code(self, capsys, monkeypatch):
        def exhausted(name, size):
            raise MemoryError

        monkeypatch.setattr(homrep.cli, "named_family", exhausted)
        code, out, err = run_cli(capsys, "classify", "--family", "cycle", "5")
        assert code == EXIT_MEMORY and out == ""
        assert err == "error: out of memory; try a smaller input\n"


class TestVerify:
    def test_n_max_4(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4", "--json")
        data = json.loads(out)
        assert code == 0 and data["ok"]
        assert data["graphs"] == {"2": 1, "3": 4, "4": 38}
        assert all(c["violations"] == 0 for c in data["criteria"].values())

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "3")
        assert code == 0
        assert "n=3: 4 graphs" in out
        assert "classify_oracle" in out

    def test_guard_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n-max", "9")
        assert code == 2 and "n_max" in err

    @pytest.mark.parametrize("mode", [(), ("--json",)], ids=["text", "json"])
    @pytest.mark.parametrize("flags", [("--seeds", ","), ("--seeds", "")],
                             ids=["seeds-comma", "seeds-empty"])
    def test_vacuous_options_exit_2(self, capsys, flags, mode):
        code, out, err = run_cli(capsys, "verify", "--n-max", "4", *flags, *mode)
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_negative_first_seed_is_written_with_an_equals_sign(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--seeds=-3,2", "--json")
        assert code == 0 and json.loads(out)["seeds"] == [-3, 2]
        # argparse reads a separate "-3,2" as an option: a usage error
        proc = run_child("verify", "--n-max", "3", "--seeds", "-3,2")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "expected one argument" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kwargs", [{"seeds": ()}], ids=["seeds"])
    def test_verify_corpus_rejects_vacuous_options(self, kwargs):
        with pytest.raises(ValueError):
            homrep.verify_corpus(3, **kwargs)

    def test_verify_corpus_accepts_the_benchmark_call(self):
        # the benchmark harness calls verify_corpus(6, sample_seed=..., progress=...);
        # sample_seed is ignored, and progress sees every graph
        seen = []
        counts = {name: (r.checked, r.violations)
                  for name, r in homrep.verify_corpus(3).criteria.items()}
        summary = homrep.verify_corpus(3, sample_seed=11,
                                       progress=lambda n, count: seen.append((n, count)))
        assert {name: (r.checked, r.violations)
                for name, r in summary.criteria.items()} == counts
        assert seen == [(2, 1), (3, 1), (3, 2), (3, 3), (3, 4)]

    def test_gather_checked_against_dart_walk(self, capsys, monkeypatch):
        # a transposed gather keeps every kernel, so the kernel criteria
        # miss it; the dart-walk oracle is the first homomorphism check
        import homrep.rep
        import homrep.verify

        gather = homrep.rep._gather

        def transposed(invs, b):
            return [tuple(zip(*rows)) for rows in gather(invs, b)]

        monkeypatch.setattr(homrep.rep, "_gather", transposed)
        monkeypatch.setattr(homrep.verify, "_gather", transposed)
        r = homrep.verify_corpus(4).criteria["homomorphism"]
        assert r.violations > 0
        assert r.first_detail.startswith("gathered matrix differs from the dart walk")
        code, out, _ = run_cli(capsys, "verify", "--n-max", "4")
        assert code == 5 and "DISAGREEMENT FOUND" in out

    @pytest.mark.parametrize("mod2_kernel, detail", [
        (lambda rows: False, "integer kernel is not inside the mod-2 kernel"),
        (lambda rows: True, "is not a power of 2"),  # the triangle: index 6
        # K4 with the rotations of 0-1-2-3 added: index 4, but they have order 4;
        # K4 is the only graph with beta = 3 at n <= 4, so its rows name them
        (lambda rows: homrep.rep._is_kernel_perm(rows) or rows in K4_ROTATION_ROWS,
         "does not square to the identity"),
    ], ids=["not-inside", "index", "involution"])
    def test_mod2_kernel_criterion_catches_a_wrong_kernel(self, monkeypatch, mod2_kernel,
                                                           detail):
        import homrep.verify

        is_kernel = homrep.rep._is_kernel_perm

        def wrong_mod_2(rows, p=None):
            return mod2_kernel(rows) if p == 2 else is_kernel(rows, p)

        monkeypatch.setattr(homrep.verify, "_is_kernel_perm", wrong_mod_2)
        summary = homrep.verify_corpus(4)
        r = summary.criteria["mod2_kernel"]
        assert r.violations > 0 and detail in r.first_detail
        assert all(c.violations == 0 for name, c in summary.criteria.items()
                   if name != "mod2_kernel")

    def test_automorphism_chain_criterion_catches_a_dropped_element(self, monkeypatch):
        import homrep.verify

        chain = homrep.autgroup.automorphism_chain

        def dropping(g, cap=homrep.autgroup.DEFAULT_CAP):
            gens, perms = chain(g, cap)
            return gens, perms[:-1]

        monkeypatch.setattr(homrep.verify, "automorphism_chain", dropping)
        summary = homrep.verify_corpus(4, fail_fast=True)
        # K2, the first graph: its swap is dropped, and the chain is checked first
        assert summary.graphs_total == 1
        assert {name: r.violations for name, r in summary.criteria.items()
                if r.violations} == {"automorphism_chain": 1}
        assert summary.failure.detail == ("the stabiliser chain's list differs from "
                                          "the search's (1 and 2 automorphisms)")

    def test_fail_fast_stops_at_the_first_violation(self, monkeypatch):
        # the transposed gather of test_gather_checked_against_dart_walk
        import homrep.verify

        gather = homrep.rep._gather

        def transposed(invs, b):
            return [tuple(zip(*rows)) for rows in gather(invs, b)]

        monkeypatch.setattr(homrep.rep, "_gather", transposed)
        monkeypatch.setattr(homrep.verify, "_gather", transposed)
        calls = []
        summary = homrep.verify_corpus(5, fail_fast=True,
                                       progress=lambda n, count: calls.append((n, count)))
        violated = {name: r.violations for name, r in summary.criteria.items() if r.violations}
        assert violated == {summary.failure.criterion: 1}
        n, count = calls[-1]
        assert list(summary.per_n)[-1] == n and summary.per_n[n] == count
        assert summary.graphs_total == sum(summary.per_n.values()) == len(calls)
        # the last graph counted is the one that stopped the run
        stopper = list(homrep.enumerate_connected_graphs(n))[count - 1]
        assert summary.failure.graph_text == homrep.format_edge_list(stopper)

    def test_fail_fast_stops_on_a_raising_witness(self, monkeypatch):
        import homrep.verify

        def broken(g, verdict=None):
            raise RuntimeError("broken witness")

        monkeypatch.setattr(homrep.verify, "witness_kernel_element", broken)
        summary = homrep.verify_corpus(5, fail_fast=True)
        assert summary.per_n == {2: 1} and summary.graphs_total == 1
        assert {name: r.violations for name, r in summary.criteria.items()
                if r.violations} == {"witness_validity": 1}
        assert summary.failure.detail == "witness construction failed: broken witness"

    @pytest.mark.parametrize("fail_fast", [False, True], ids=["all", "fail-fast"])
    def test_progress_exception_propagates(self, fail_fast):
        class Enough(Exception):
            pass

        raised = []

        def progress(n, count):
            # raises once, so a run that swallowed it would return
            if n == 3 and not raised:
                raised.append(count)
                raise Enough

        with pytest.raises(Enough):
            homrep.verify_corpus(4, fail_fast=fail_fast, progress=progress)

    def test_seed_flag_parsed(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n-max", "3",
                               "--seeds", "2,4", "--json")
        assert code == 0 and json.loads(out)["ok"]


class TestGen:
    def test_decorated_square(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "4", "2", "[-1,0]", "[-1,0,1]")
        assert code == 0
        g = parse_edge_list(out)
        assert g.n == 10
        assert "# rho: 2 3 0 1 7 8 9 4 5 6" in out
        assert "# order: 2" in out

    def test_three_distinct_chains(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "6", "3",
                               "[-1]", "[-1,0]", "[-1,0,1]")
        assert code == 0
        assert "# order: 2" in out

    def test_constraint_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "gen", "3", "3", "[-1]", "[-1]", "[-1]")
        assert code == 2 and "smaller" in err

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_nonpositive_period_exit_2(self, capsys, k):
        code, out, err = run_cli(capsys, "gen", "4", k, "[-1]")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "at least 1" in err

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "6", "1", "[-1]", "--json")
        data = json.loads(out)
        assert code == 0
        assert data["order"] == 6 and data["rho"] == [1, 2, 3, 4, 5, 0]

    def test_oversized_exit_2_without_a_graph(self, capsys, monkeypatch):
        def no_graph(n, edges):
            raise AssertionError("a Graph was built")

        monkeypatch.setattr(homrep.families, "Graph", no_graph)
        code, out, err = run_cli(capsys, "gen", "1000000000", "2", "[-1]", "[-1]")
        assert code == 2 and out == ""
        assert err == ("error: a 1000000000-cycle with period 2 and these trees would "
                       "have 1000000000 edges; decorated cycles are limited to "
                       f"{FAMILY_MAX_EDGES}\n")


# keys json accepts, and every kind of value the emitter must render
# exactly as json.dumps(indent=2) does: bools and ints are kept apart,
# floats include nan and +/-inf, strings run beyond ASCII
JSON_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.none(), st.floats())
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text())
# lists drawn from a small pool of int rows, so rows repeat as the same
# object (as a `rep` report's matrix rows do), and with each row its twin
# with bools for 0 and 1, which compares equal: (1, 0) == (True, False)
ROW_POOLS = st.lists(
    st.lists(st.integers(-1, 2), min_size=1, max_size=3).map(tuple), min_size=1, max_size=3,
).map(lambda rows: rows + [tuple(bool(x) if x in (0, 1) else x for x in r) for r in rows])
SHARED_ROWS = ROW_POOLS.flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=6))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(JSON_KEYS, inner),
        st.lists(st.integers()), st.lists(st.one_of(st.integers(), st.booleans())),
        SHARED_ROWS, SHARED_ROWS.map(lambda rows: {"rows": rows, "nested": [rows, {"m": rows}]})),
    max_leaves=30)


class Name(str):
    pass


class Colour(enum.IntEnum):
    RED = 1


SHARED_LIST_ROW = [1, 2]
SHARED_ROWS_K2 = ((1, 0), (0, 1))
REP_GROUPS = rep_groups_graphs()
Entries = homrep.cli._Entries


def entry(perm, rows):
    """One of `rep`'s matrix entries, as cmd_rep builds it."""
    return {"perm": perm, "matrix": {"dim": len(rows), "rows": rows}}


def print_json_output(obj) -> str:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        homrep.cli._print_json(obj)
    return sink.getvalue()


class TestJson:
    @pytest.mark.parametrize("argv", [
        ("rep", "--family", "bowtie", "5", "--json"),
        ("rep", "--family", "complete", "4", "--mod-p", "3", "--json"),
        ("rep", "--family", "cycle", "5", "--kernel-only", "--json"),
        ("info", "--family", "bowtie", "5", "--json"),
        ("classify", "--family", "cycle", "6", "--json"),
        ("verify", "--n-max", "3", "--json"),  # int keys under "graphs"
        ("gen", "4", "2", "[-1,0]", "[-1,0,1]", "--json"),
        ("rep", "--g6", "IheA@GUAo", "--tree", "rand", "--seed", "3", "--json"),
        ("rep", "--family", "complete", "5", "--mod-p", "2", "--json"),
        ("rep", "--family", "star", "4", "--kernel-only", "--json"),  # beta = 0: "rows": []
        ("rep", "--family", "path", "1", "--json"),
    ], ids=["rep", "rep-mod-p", "rep-kernel-only", "info", "classify", "verify", "gen",
            "rep-petersen-rand", "rep-k5-mod-2", "rep-star-kernel-only", "rep-single-vertex"])
    def test_json_is_indented_with_one_trailing_newline(self, capsys, monkeypatch, argv):
        printed = []

        def recording(obj):
            printed.append(obj)
            emit(obj)

        emit = homrep.cli._print_json
        monkeypatch.setattr(homrep.cli, "_print_json", recording)
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 3) and len(printed) == 1
        assert out == json.dumps(printed[0], indent=2) + "\n"
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("tree", [("--tree", "rand", "--seed", "1"), ("--tree", "det")],
                             ids=["rand", "det"])
    @pytest.mark.parametrize("name", list(REP_GROUPS))
    def test_rep_json_on_the_benchmark_graphs(self, capsys, name, tree):
        # the matrices of a whole group, as one gather loop builds them
        # and the writer streams them, with the benchmark's own flags
        g, flags = REP_GROUPS[name]
        code, out, _ = run_cli(capsys, "rep", "--g6", homrep.to_graph6(g), *tree,
                               "--json", *flags)
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_emitter_matches_stdlib(self, obj):
        assert print_json_output(obj) == json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": []}, [[], {}], {2: 2, True: 3, False: 5, None: 4, 1.5: [1, True]},
        {"\u00e9\u6f22\U0001f600": ["\n\"", float("nan"), float("inf"), -float("inf")]},
        [-1, 0, 2 ** 70], [True, False, 1], (1, (2, 3)), 7, "s", None, 0.1,
        # rows that compare equal across types, and one row at two indents
        [(1, 2), (True, 2)], [(1, 0), (1.0, 0)], [(1, 2), [(1, 2)]],
        {"a": [(1,)], "b": {"c": [(1,)]}}, [(1, 0), (True, False), (1, 0)],
        {"m": [[(1, 0)], [(True, False)]]},
        # str and int subclasses, one list row object twice, and a list
        # row between two equal tuple rows
        {Name("k"): Name("v\u00e9")}, [1, Colour.RED, 2], [Colour.RED],
        [SHARED_LIST_ROW, SHARED_LIST_ROW], [(1, 2), [1, 2], (1, 2)],
    ])
    def test_emitter_edge_cases(self, obj):
        assert print_json_output(obj) == json.dumps(obj, indent=2) + "\n"

    def test_large_output_is_written_in_bounded_chunks(self, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
        obj = [{"a": i, "b": [i, i + 1]} for i in range(20000)]
        homrep.cli._print_json(obj)
        assert "".join(writes) == json.dumps(obj, indent=2) + "\n"
        assert len(writes) > 1
        assert max(map(len, writes)) < 2 * homrep.cli._CHUNK

    @pytest.mark.parametrize("obj", [
        Entries([entry((0, 1), ((1, 0), (0, 1))), entry((1, 0), ((0, 1), (1, 0)))]),
        {"a": {"b": Entries([entry((2, 0, 1), ((-1, 1),))]), "c": 1}},
        Entries(), {"matrices": Entries(), "kernel": []},
        Entries([entry((0,), ())]),  # a one-vertex graph: beta = 0, "rows": []
        Entries([entry((1, 0, 2), ())] * 2),
        Entries([entry((0, 1), SHARED_ROWS_K2), entry((1, 0), SHARED_ROWS_K2[::-1]),
                 entry((0, 1), (tuple([1, 0]), tuple([0, 1])))]),  # equal, distinct rows
        # one row in two lists at two indents, as in `rep --mod-p`
        {"matrices": Entries([entry((0, 1), SHARED_ROWS_K2)]),
         "mod_p": {"p": 2, "matrices": Entries([entry((0, 1), SHARED_ROWS_K2)])}},
    ], ids=["top-level", "two-dicts-deep", "empty", "empty-nested", "one-vertex",
            "beta-0-twice", "shared-and-equal-rows", "two-indents"])
    def test_entries_template_matches_stdlib(self, obj):
        assert print_json_output(obj) == json.dumps(obj, indent=2) + "\n"

    def test_entries_template_on_rows_shared_through_the_reducer(self):
        matrices = [((1, -1), (0, 1)), ((0, 1), (1, -1)), ((1, -1), (-1, 0))]
        reduce = homrep.cli._reducer(3)
        entries = Entries(entry((i,), reduce(m)) for i, m in enumerate(matrices))
        # (1, -1) became one reduced row object, shared by all three entries
        assert len({id(e["matrix"]["rows"][r]) for e in entries for r in (0, 1)
                    if e["matrix"]["rows"][r] == (1, 2)}) == 1
        assert print_json_output(entries) == json.dumps(entries, indent=2) + "\n"

    def test_entries_are_written_in_bounded_chunks(self, monkeypatch):
        writes = []
        monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=writes.append))
        rows = tuple(tuple(range(i, i + 6)) for i in range(6))
        obj = {"matrices": Entries(entry(tuple(range(i % 7, i % 7 + 10)), rows)
                                   for i in range(3000))}
        homrep.cli._print_json(obj)
        assert "".join(writes) == json.dumps(obj, indent=2) + "\n"
        assert len(writes) > 1
        assert max(map(len, writes)) < 2 * homrep.cli._CHUNK

    def test_emitter_rejects_bad_keys_like_json(self):
        with pytest.raises(TypeError, match="keys must be str"):
            print_json_output({(1, 2): 3})


def run_child(*argv, stdout=subprocess.PIPE):
    # the child interpreter imports the package under test, also when only
    # pytest's `pythonpath` setting put it on sys.path
    src = os.path.dirname(os.path.dirname(homrep.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "homrep", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point():
    proc = run_child("classify", "--family", "complete", "4")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "faithful"


@pytest.mark.parametrize("argv", [
    ("info", "--family", "path", "5", "--json"),
    ("rep", "--family", "complete", "4", "--json"),
    ("classify", "--family", "path", "3", "--json"),
    ("verify", "--n-max", "3"),
    ("gen", "4", "2", "[-1,0]", "[-1,0,1]"),
    ("--help",),
    ("rep", "--help"),
], ids=["info", "rep", "classify", "verify", "gen", "help", "rep-help"])
def test_closed_stdout_exits_quietly(argv):
    # the read end is closed before the child starts, so its first write
    # to stdout fails, however little it prints
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_child(*argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (EXIT_OUTPUT_CLOSED, "")


def _readme() -> str:
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def test_readme_lists_every_exit_code():
    table = _readme().split("Exit codes:\n\n", 1)[1].split("\n\n", 1)[0]
    documented = [int(code) for code in re.findall(r"^\| (\d+) \|", table, re.M)]
    codes = {value for name, value in vars(homrep.cli).items() if name.startswith("EXIT_")}
    assert documented == sorted(codes)


def test_readme_library_example_runs_as_written(capsys):
    # the first python block under "## Library", with the values its
    # comments state
    section = _readme().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(code, namespace)
    m_comment = re.search(r"^m = .*# (.*)$", code, re.M).group(1)
    assert namespace["m"] == ast.literal_eval(m_comment)
    printed = re.search(r"^# (Verdict\(.*\))$", code, re.M).group(1)
    assert capsys.readouterr().out == printed + "\n"


def test_repeated_main_calls_match_fresh_processes(capsys):
    # one parser serves every main call in a process; no call may see
    # another's subcommand, flags or defaults
    runs = [("rep", "--family", "cycle", "4", "--tree", "rand", "--seed", "3", "--mod-p", "3"),
            ("classify", "--family", "path", "5", "--json"),
            ("rep", "--family", "cycle", "4", "--kernel-only"),
            ("info", "--family", "bowtie", "5"),
            ("verify", "--n-max", "3", "--seeds", "2"),
            ("rep", "--family", "cycle", "x")]
    for argv in runs:
        code, out, err = run_cli(capsys, *argv)
        proc = run_child(*argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
    assert homrep.cli.build_parser() is homrep.cli.build_parser()


# --------------------------------------------------------------- CLI inputs
# Each value is drawn valid three times in four, so that most calls get
# past option checking; the rest are malformed, out of range or too large.
def _mostly(valid, invalid):
    return st.integers(0, 3).flatmap(lambda i: invalid if i == 3 else valid)


@st.composite
def small_graphs(draw):
    """A graph on at most 7 vertices, connected unless a tree edge is dropped."""
    n = draw(st.integers(1, 7))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        u, v = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        edges.add((u, v))
    if edges and draw(st.integers(0, 3)) == 3:  # one time in four
        edges.discard(min(edges))
    return homrep.Graph(n, edges)


EDGE_LIST_TEXT = _mostly(
    small_graphs().map(homrep.format_edge_list),
    st.text(alphabet="0123456789 -n#x\n", max_size=24))
FAMILY = st.tuples(
    _mostly(st.sampled_from(["cycle", "complete", "star", "path", "bowtie"]), st.just("cube")),
    # sizes past the named-family bound for every family
    _mostly(st.integers(1, 6), st.integers(-2, 0) | st.integers(FAMILY_MAX_EDGES + 2, 10 ** 12)))
GRAPH6 = _mostly(small_graphs().map(homrep.to_graph6),
                 st.text(alphabet=[chr(c) for c in range(62, 127)], min_size=1, max_size=6))
GRAPH_SOURCES = st.one_of(
    st.just(("--input", "-")),
    FAMILY.map(lambda f: ("--family", f[0], str(f[1]))),
    GRAPH6.map(lambda text: ("--g6", text)))
# primes, small integers, and values at the primality test's bound
MOD_P = st.one_of(st.sampled_from([2, 3, 7, 10 ** 16 + 61]), st.integers(-3, 40),
                  st.sampled_from([PRIME_TEST_BOUND - 2, PRIME_TEST_BOUND, 10 ** 30]))
TREE_SPECS = st.integers(1, 4).flatmap(lambda size: st.tuples(
    st.just(-1), *(st.integers(0, i - 1) for i in range(1, size))))


@st.composite
def gen_args(draw):
    """gen's n, k and tree specs: mostly a valid period, or any small values."""
    if draw(st.integers(0, 3)) < 3:
        k = draw(st.integers(1, 3))
        n = k * draw(st.integers(3 if k == 1 else 2, 3))
        specs = draw(st.lists(TREE_SPECS, min_size=k, max_size=k))
    else:
        n, k = draw(st.integers(-1, 9)), draw(st.integers(-1, 9))
        specs = draw(st.lists(st.lists(st.integers(-2, 3), max_size=4), min_size=1,
                              max_size=3))
    return (str(n), str(k), *("[" + ",".join(map(str, ps)) + "]" for ps in specs))


def _flag(name, values):
    return st.one_of(st.just(()), values.map(lambda v: (name, str(v))))


@st.composite
def cli_calls(draw, command):
    """An argv for the subcommand, and the text on stdin."""
    json_flag = draw(st.sampled_from([(), ("--json",)]))
    if command == "verify":
        seeds = draw(_mostly(st.lists(st.integers(-3, 9), min_size=1, max_size=3), st.just([])))
        n_max = draw(_mostly(st.integers(2, 3), st.integers(-1, 1)))
        argv = ("verify", "--n-max", str(n_max), "--seeds", ",".join(map(str, seeds)))
    elif command == "gen":
        argv = ("gen", *draw(gen_args()))
    else:
        argv = (command, *draw(GRAPH_SOURCES))
        if command == "rep":
            # a small cap keeps every group that is enumerated small
            cap = draw(_mostly(st.integers(1, 2000), st.integers(-1, 0)))
            argv += ("--cap", str(cap), *draw(_flag("--mod-p", MOD_P)),
                     *draw(st.sampled_from([(), ("--tree", "rand")])),
                     *draw(_flag("--seed", st.integers(-10 ** 6, 10 ** 6))),
                     *draw(st.sampled_from([(), ("--kernel-only",)])))
    return argv + json_flag, draw(EDGE_LIST_TEXT)


@pytest.mark.parametrize("command", ["info", "rep", "classify", "verify", "gen"])
@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_inputs_end_in_a_documented_exit_code(command, data):
    argv, stdin = data.draw(cli_calls(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(sys, "stdin", io.StringIO(stdin)):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
