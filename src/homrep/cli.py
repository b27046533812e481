"""Command-line front end.

Subcommands: info (structure report), rep (matrices, kernel, faithful
flag), classify (verdict with scripting-friendly exit code), verify
(exhaustive small-graph cross-check), gen (decorated-cycle generator).
Exit codes are the EXIT_* constants below.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .autgroup import DEFAULT_CAP
from .blocks import (
    block_decomposition,
    block_tree,
    is_periodic_unicyclic,
    pendant_trees,
)
from .classify import classify
from .cycles import betti, random_spanning_tree_basis, spanning_tree_basis
from .errors import CapacityError, DisconnectedGraphError, GraphParseError
from .families import RootedTreeSpec, build_periodic_unicyclic, named_family
from .graphs import (ENUMERATION_MAX_VERTICES, Graph, _read_edge_list, format_edge_list,
                     parse_graph6)
from .matrices import Matrix, is_prime
from .rep import representation
from .verify import DEFAULT_SEEDS, verify_corpus

EXIT_OK = 0  # success; classify: faithful
EXIT_INPUT = 2  # unreadable, malformed or disconnected input, or a bad option value
EXIT_NOT_FAITHFUL = 3  # classify only
EXIT_CAPACITY = 4  # automorphism group order above --cap
EXIT_DISAGREEMENT = 5  # verify found a disagreement
EXIT_MEMORY = 6  # ran out of memory
EXIT_OUTPUT_CLOSED = 7  # stdout was closed before all output was written


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="PATH",
                     help="edge-list file ('-' reads stdin)")
    src.add_argument("--family", nargs=2, metavar=("NAME", "SIZE"),
                     help="named family: cycle | complete | star | path | bowtie")
    src.add_argument("--g6", metavar="STRING", help="graph6-encoded graph")


def _add_tree_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tree", choices=("det", "rand"), default="det",
                   help="spanning tree: deterministic BFS or seeded random DFS")
    p.add_argument("--seed", type=int, default=1,
                   help="seed for --tree rand (default 1)")


def _load_graph(args) -> Graph:
    if args.input is not None:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input) as fh:
                    text = fh.read()
            except OSError as exc:
                raise GraphParseError(f"cannot read {args.input}: {exc}") from None
        n, edges = _read_edge_list(text)
        if n > len(edges) + 1:  # too few edges to connect n vertices
            raise DisconnectedGraphError("graph is not connected")
        return Graph(n, edges)
    if args.family is not None:
        name, size = args.family
        try:
            size = int(size)
        except ValueError:
            raise ValueError(f"family size must be an integer, got {size!r}") from None
        return named_family(name, size)
    return parse_graph6(args.g6)


# CPython's C encoder serves only indent=None, and json.dump(indent=2)
# spends most of a `rep --json` run formatting integers in Python.  The
# recursive writer below writes the same bytes: a list of plain ints, or
# of int rows (a matrix), is joined in one call, `rep`'s matrix entries
# (an _Entries) are written from one template per entry, and every other
# container is streamed.
_scalar = json.JSONEncoder().encode
_string = json.encoder.encode_basestring_ascii
_INDENT = "  "
# characters per write to stdout; 64 KiB chunks, under glibc's 128 KiB mmap
# threshold, fragmented the heap: C1500's `rep --json` into a StringIO peaked
# at 308 MB RSS, not 237 (2 vCPUs, Python 3.11.7)
_CHUNK = 1 << 18
# the element types of a flat list, built once: a set built per call cost
# 5% of the writer's time on K5's `rep --json` (2 vCPUs, Python 3.11.7)
_INTS = frozenset({int})
_ROWS = frozenset({list, tuple})


class _Entries(list):
    """`rep`'s matrix entries, each {"perm": p, "matrix": {"dim": d,
    "rows": m}} with exactly these keys in this order.

    _print_json writes each entry from one template, which holds only
    while every perm is non-empty and, like every row of m, holds plain
    ints only, as the gather and _reducer build them.  Rows are rendered
    once per list, keyed by id: the entries share them, and the list
    keeps them alive while it is written."""


def _flat(o, nl: str) -> str | None:
    """Text of o, a list or tuple whose line starts at nl, when it is
    empty, holds only plain ints, or holds only lists and tuples that are
    flat in turn (a matrix); None otherwise."""
    if not o:
        return "[]"
    inner = nl + _INDENT
    types = set(map(type, o))
    if types == _INTS:
        texts = map(str, o)
    elif types <= _ROWS:
        texts = [_flat(row, inner) for row in o]
        if None in texts:
            return None
    else:
        return None
    return "[" + inner + ("," + inner).join(texts) + nl + "]"


def _key(k) -> str:
    """A dict key as json writes it, with the colon after it."""
    if isinstance(k, str):
        return _string(k) + ": "
    if k is None or isinstance(k, (int, float)):  # bool is an int
        return '"' + _scalar(k) + '": '
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {k.__class__.__name__}")


def _print_json(obj) -> None:
    """Exactly json.dump(obj, sys.stdout, indent=2) and a newline.

    The pieces are appended to one chunk, and its size is checked once
    per streamed element: a dict entry, an element of a list that is not
    flat, or an entry of an _Entries.  The chunk reaches stdout when it
    holds about _CHUNK characters, so no report is held whole and a file
    is not written once per piece."""
    out = sys.stdout
    chunk: list[str] = []
    put = chunk.append
    size = 0
    keys: dict[str, str] = {}  # each str key's text, encoded once per call

    def flush() -> None:
        nonlocal size
        out.write("".join(chunk))
        chunk.clear()
        size = 0

    def emit(o, nl: str) -> None:
        """Append the text of o, a value whose line starts at nl."""
        nonlocal size
        inner = nl + _INDENT
        if isinstance(o, dict):
            sep, comma = "{" + inner, "," + inner
            for k, v in o.items():
                key = keys.get(k)
                if key is None:
                    key = _key(k)
                    if type(k) is str:
                        keys[k] = key
                t = type(v)  # an int or a flat list is written with its key
                text = (str(v) if t is int else
                        _flat(v, inner) if t is list or t is tuple else None)
                if text is None:
                    piece = sep + key
                    put(piece)
                    size += len(piece)
                    emit(v, inner)
                else:
                    piece = sep + key + text
                    put(piece)
                    size += len(piece)
                if size >= _CHUNK:
                    piece = text = None  # so that the flush frees a long text
                    flush()
                sep = comma
            piece = nl + "}" if o else "{}"
        elif type(o) is _Entries and o:
            # the lines of an entry, of its keys, of a perm's entries and
            # the matrix's keys, of the rows, and of a row's entries
            i1 = inner
            i2 = i1 + _INDENT
            i3 = i2 + _INDENT
            i4 = i3 + _INDENT
            i5 = i4 + _INDENT
            c1, c3, c4, c5 = "," + i1, "," + i3, "," + i4, "," + i5
            head = "{" + i2 + '"perm": [' + i3
            mid = i2 + '],' + i2 + '"matrix": {' + i3 + '"dim": '
            rows_key = "," + i3 + '"rows": '
            tail = i2 + "}" + i1 + "}"
            known: dict[int, str] = {}  # id(row) -> its text
            sep = "[" + i1
            for e in o:
                matrix = e["matrix"]
                m = matrix["rows"]
                if m:
                    texts = list(map(known.get, map(id, m)))
                    if None in texts:
                        for j, text in enumerate(texts):
                            if text is None:
                                row = m[j]
                                texts[j] = known[id(row)] = (
                                    "[" + i5 + c5.join(map(str, row)) + i4 + "]")
                    rows = "[" + i4 + c4.join(texts) + i3 + "]"
                else:
                    rows = "[]"
                piece = (sep + head + c3.join(map(str, e["perm"])) + mid
                         + str(matrix["dim"]) + rows_key + rows + tail)
                put(piece)
                size += len(piece)
                if size >= _CHUNK:
                    piece = None  # so that the flush frees the entry's text
                    flush()
                sep = c1
            piece = nl + "]"
        elif isinstance(o, (list, tuple)):
            piece = _flat(o, nl)
            if piece is None:
                sep, comma = "[" + inner, "," + inner
                for x in o:
                    put(sep)
                    size += len(sep)
                    emit(x, inner)
                    if size >= _CHUNK:
                        flush()
                    sep = comma
                piece = nl + "]"
        elif isinstance(o, str):
            piece = _string(o)
        else:
            piece = _scalar(o)
        put(piece)
        size += len(piece)

    emit(obj, "\n")
    put("\n")
    flush()


def _basis(args, g: Graph):
    if args.tree == "rand":
        return random_spanning_tree_basis(g, args.seed)
    return spanning_tree_basis(g)


def cmd_info(args) -> int:
    g = _load_graph(args)
    beta = betti(g)
    d = block_decomposition(g)
    trees = pendant_trees(g)
    periodic, period = is_periodic_unicyclic(g)
    bt = block_tree(d) if d.blocks else None
    if args.json:
        out = {
            "n": g.n,
            "edges": [list(e) for e in g.edges],
            "betti": beta,
            "blocks": [sorted(b) for b in d.blocks],
            "cutvertices": sorted(d.cutvertices),
            "bridges": [list(e) for e in sorted(d.bridges)],
            "block_tree": bt.to_json() if bt else None,
            "pendant_trees": [
                {"root": t.root, "vertices": sorted(t.vertices),
                 "edges": [list(e) for e in t.edges]}
                for t in trees],
            "unicyclic": beta == 1,
            "periodic": periodic,
            "period": period,
        }
        _print_json(out)
        return EXIT_OK
    print(f"vertices: {g.n}")
    print(f"edges: {g.num_edges}")
    print(f"betti: {beta}")
    for i, b in enumerate(d.blocks):
        kind = "bridge" if len(b) == 2 else "block"
        print(f"{kind} {i}: {{{', '.join(map(str, sorted(b)))}}}")
    print(f"cutvertices: {sorted(d.cutvertices) if d.cutvertices else 'none'}")
    if bt is not None:
        centre = bt.nodes[bt.centre]
        desc = (f"block {sorted(centre.members)}" if centre.kind == "block"
                else f"cutvertex {centre.vertex}")
        print(f"block tree: {len(bt.nodes)} nodes, centre = {desc}")
    for t in trees:
        print(f"pendant tree at {t.root}: vertices {sorted(t.vertices)}")
    if beta == 1:
        status = f"yes, period {period}" if periodic else "no"
        print(f"unicyclic: yes; periodic: {status}")
    return EXIT_OK


def _matrix_text(m: Matrix) -> str:
    """The rows of m, one line each, entries separated by spaces."""
    return "\n".join(" ".join(map(str, row)) for row in m)


def _reducer(p: int):
    """Matrix -> its entrywise reduction into 0..p-1 for a prime p.

    The matrices of one report share their rows, so each distinct row
    is reduced once and the reduced matrices share rows in turn.
    """
    reduced: dict[tuple[int, ...], tuple[int, ...]] = {}

    def reduce(m: Matrix) -> Matrix:
        rows = []
        for row in m:
            r = reduced.get(row)
            if r is None:
                r = reduced[row] = tuple(x % p for x in row)
            rows.append(r)
        return tuple(rows)

    return reduce


def cmd_rep(args) -> int:
    if args.mod_p is not None and not is_prime(args.mod_p):
        raise ValueError(f"{args.mod_p} is not prime")
    g = _load_graph(args)
    b = _basis(args, g)
    report = representation(g, b, cap=args.cap)
    if args.kernel_only:
        shown = [(p, report.matrices[p]) for p in report.kernel]
    else:
        shown = report.matrices.items()
    mod_p = _reducer(args.mod_p) if args.mod_p is not None else None
    if args.json:
        out = {
            "n": g.n,
            "edges": [list(e) for e in g.edges],
            "tree_mode": args.tree,
            "seed": args.seed if args.tree == "rand" else None,
            "basis": {
                "root": b.root,
                "tree_edges": [list(e) for e in sorted(b.tree_edges)],
                "cotree": [list(d) for d in b.cotree],
            },
            "betti": b.beta,
            "group_order": report.group_order,
            "matrices": _Entries({"perm": p, "matrix": {"dim": len(m), "rows": m}}
                                 for p, m in shown),
            "kernel": report.kernel,
            "faithful": report.faithful,
        }
        if mod_p is not None:
            out["mod_p"] = {
                "p": args.mod_p,
                "matrices": _Entries({"perm": p, "matrix": {"dim": len(m), "rows": mod_p(m)}}
                                     for p, m in shown),
            }
        _print_json(out)
        return EXIT_OK
    print(f"tree mode: {args.tree}"
          + (f" (seed {args.seed})" if args.tree == "rand" else ""))
    print(f"tree edges: {sorted(b.tree_edges)}")
    print(f"cotree darts: {[tuple(d) for d in b.cotree]}")
    print(f"betti: {b.beta}")
    print(f"group order: {report.group_order}")
    kernel_set = set(report.kernel)
    for p, m in shown:
        tag = " (kernel)" if p in kernel_set else ""
        print(f"automorphism {list(p)}{tag}")
        print(_matrix_text(m) if m else "(empty 0x0 matrix)")
        if mod_p is not None:
            print(f"mod {args.mod_p}:")
            print(_matrix_text(mod_p(m)) or "(empty)")
    print(f"kernel size: {len(report.kernel)}")
    print(f"faithful: {report.faithful}")
    return EXIT_OK


def cmd_classify(args) -> int:
    g = _load_graph(args)
    verdict = classify(g)
    if args.json:
        _print_json(verdict.to_json())
    elif verdict.faithful:
        print("faithful")
    else:
        print(f"not faithful: {verdict.describe()}")
    return EXIT_OK if verdict.faithful else EXIT_NOT_FAITHFUL


def cmd_verify(args) -> int:
    seeds = tuple(int(tok) for tok in args.seeds.split(",") if tok.strip())
    shown = {"n": None}

    def progress(n, count):
        if args.json:
            return
        if shown["n"] is None:  # printed late, so rejected options print nothing
            print(f"tree seeds: {list(seeds)}")
        if count % 2000 == 0 or count == 1 and n != shown["n"]:
            shown["n"] = n
            print(f"n={n}: {count} graphs checked ...", flush=True)

    summary = verify_corpus(args.n_max, seeds=seeds, fail_fast=True, progress=progress)
    if args.json:
        out = {
            "n_max": summary.n_max,
            "seeds": list(summary.seeds),
            "graphs": summary.per_n,
            "criteria": {
                name: {"checked": r.checked, "violations": r.violations}
                for name, r in summary.criteria.items()},
            "mod2_kernel_exceeds_integer_kernel": {
                "count": summary.mod2_extra_count,
                "examples": summary.mod2_extra_examples},
            "ok": summary.ok,
            "failure": (
                {"criterion": summary.failure.criterion,
                 "detail": summary.failure.detail,
                 "graph": summary.failure.graph_text}
                if summary.failure else None),
        }
        _print_json(out)
    else:
        for n, count in summary.per_n.items():
            print(f"n={n}: {count} graphs")
        for name, r in summary.criteria.items():
            print(f"{name}: {r.checked} checks, {r.violations} violations")
        print(f"mod-2 kernel strictly larger than integer kernel on "
              f"{summary.mod2_extra_count} graphs (reported, not asserted)")
        if summary.failure:
            print("DISAGREEMENT FOUND")
            print(f"criterion: {summary.failure.criterion}")
            print(f"detail: {summary.failure.detail}")
            print("reproducer edge list:")
            print(summary.failure.graph_text, end="")
    return EXIT_OK if summary.ok else EXIT_DISAGREEMENT


def cmd_gen(args) -> int:
    specs = [RootedTreeSpec.parse(s) for s in args.spec]
    g, rho = build_periodic_unicyclic(args.n, args.k, specs)
    if args.json:
        out = {
            "n": g.n,
            "edges": [list(e) for e in g.edges],
            "rho": list(rho.perm),
            "order": rho.order(),
        }
        _print_json(out)
        return EXIT_OK
    print(format_edge_list(g), end="")
    print(f"# rho: {' '.join(map(str, rho.perm))}")
    print(f"# order: {rho.order()}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Help on a closed stdout raises, where argparse drops the error."""

    def _print_message(self, message, file=None):
        if file is not sys.stdout:
            return super()._print_message(message, file)
        print(message, end="", file=file, flush=True)  # a buffered stdout raises too


@functools.cache  # built on the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="homrep",
        description="Matrix action of graph automorphisms on the cycle space")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="structure report: blocks, cycles, pendant trees")
    _add_input_flags(p_info)
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(func=cmd_info)

    p_rep = sub.add_parser("rep", help="matrices, kernel and faithfulness")
    _add_input_flags(p_rep)
    _add_tree_flags(p_rep)
    p_rep.add_argument("--cap", type=int, default=DEFAULT_CAP,
                       help="abort if the group order exceeds this")
    p_rep.add_argument("--mod-p", type=int, default=None, metavar="P",
                       help="also print matrices reduced modulo the prime P")
    p_rep.add_argument("--kernel-only", action="store_true",
                       help="print matrices only for kernel elements")
    p_rep.add_argument("--json", action="store_true")
    p_rep.set_defaults(func=cmd_rep)

    p_cls = sub.add_parser("classify", help="faithfulness verdict (exit 3 when not faithful)")
    _add_input_flags(p_cls)
    p_cls.add_argument("--json", action="store_true")
    p_cls.set_defaults(func=cmd_classify)

    p_ver = sub.add_parser("verify", help="exhaustive cross-check on all small graphs")
    p_ver.add_argument("--n-max", type=int, default=ENUMERATION_MAX_VERTICES,
                       help="largest vertex count to enumerate "
                            f"(2..{ENUMERATION_MAX_VERTICES}, default {ENUMERATION_MAX_VERTICES})")
    p_ver.add_argument("--seeds", default=",".join(map(str, DEFAULT_SEEDS)),
                       help="comma-separated seeds for the random-tree kernels; "
                            "write a list that starts with a negative seed as "
                            "--seeds=-3,2")
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a decorated cycle with its rotation")
    p_gen.add_argument("n", type=int, help="cycle length")
    p_gen.add_argument("k", type=int, help="period (divides n, smaller than n)")
    p_gen.add_argument("spec", nargs="+",
                       help="k rooted trees as parent lists, e.g. \"[-1,0,0,1]\"")
    p_gen.add_argument("--json", action="store_true")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
        return code
    except (GraphParseError, DisconnectedGraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return EXIT_MEMORY
    except BrokenPipeError:
        # the interpreter flushes stdout at exit: point it at devnull, so
        # that the flush does not raise again (the note on SIGPIPE in the
        # documentation of Python's signal module)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OUTPUT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
