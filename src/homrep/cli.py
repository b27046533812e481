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
from .matrices import IntMatrix, is_prime
from .rep import representation
from .verify import DEFAULT_SEEDS, verify_corpus

EXIT_OK = 0  # success; classify: faithful
EXIT_INPUT = 2  # unreadable, malformed or disconnected input, or a bad option value
EXIT_NOT_FAITHFUL = 3  # classify only
EXIT_CAPACITY = 4  # automorphism group order above --cap
EXIT_DISAGREEMENT = 5  # verify found a disagreement
EXIT_MEMORY = 6  # ran out of memory


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
# of int rows (a matrix), is joined in one call, and every other container
# is streamed.  Only tuple rows are memoised, as a report's matrices share
# them; list rows are built per element, so their texts are not kept.
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


def _flat(o, nl: str, memo: dict) -> str | None:
    """Text of o, a list or tuple whose line starts at nl, when it is
    empty, holds only plain ints, or holds only lists and tuples that are
    flat in turn (a matrix); None otherwise.  memo maps an indent to a
    table id(row) -> (row, its text or None) of the tuple rows met so far
    at that indent: the entry holds the row, so that its id is not reused
    while the writer runs."""
    if not o:
        return "[]"
    inner = nl + _INDENT
    types = set(map(type, o))
    if types == _INTS:
        texts = map(str, o)
    elif types <= _ROWS:
        rows = memo.get(inner)
        if rows is None:
            rows = memo[inner] = {}
        texts = []
        for row in o:
            hit = rows.get(id(row))
            if hit is None:
                hit = row, _flat(row, inner, memo)
                if type(row) is tuple:
                    rows[id(row)] = hit
            if hit[1] is None:
                return None
            texts.append(hit[1])
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
    per streamed element: a dict entry, or an element of a list that is
    not flat.  The chunk reaches stdout when it holds about _CHUNK
    characters, so no report is held whole and a file is not written
    once per piece."""
    out = sys.stdout
    chunk: list[str] = []
    put = chunk.append
    size = 0
    keys: dict[str, str] = {}  # each str key's text, encoded once per call
    memo: dict[str, dict] = {}

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
                        _flat(v, inner, memo) if t is list or t is tuple else None)
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
        elif isinstance(o, (list, tuple)):
            piece = _flat(o, nl, memo)
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


def _reducer(p: int):
    """IntMatrix -> its entrywise reduction into 0..p-1 for a prime p.

    The matrices of one report share their rows, so each distinct row
    is reduced once and the reduced matrices share rows in turn.
    """
    reduced: dict[tuple[int, ...], tuple[int, ...]] = {}

    def reduce(m: IntMatrix) -> IntMatrix:
        rows = []
        for row in m.rows:
            r = reduced.get(row)
            if r is None:
                r = reduced[row] = tuple(x % p for x in row)
            rows.append(r)
        return IntMatrix._square(tuple(rows))

    return reduce


def cmd_rep(args) -> int:
    if args.mod_p is not None and not is_prime(args.mod_p):
        raise ValueError(f"{args.mod_p} is not prime")
    g = _load_graph(args)
    b = _basis(args, g)
    report = representation(g, b, cap=args.cap)
    if args.kernel_only:
        shown = [(f, report.matrices[f]) for f in report.kernel]
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
            "matrices": [{"perm": f.perm, "matrix": m.to_json()} for f, m in shown],
            "kernel": [list(f.perm) for f in report.kernel],
            "faithful": report.faithful,
        }
        if mod_p is not None:
            out["mod_p"] = {
                "p": args.mod_p,
                "matrices": [{"perm": f.perm, "matrix": mod_p(m).to_json()}
                             for f, m in shown],
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
    for f, m in shown:
        tag = " (kernel)" if f in kernel_set else ""
        print(f"automorphism {list(f.perm)}{tag}")
        if m.dim:
            print(m.render_text())
        else:
            print("(empty 0x0 matrix)")
        if mod_p is not None:
            print(f"mod {args.mod_p}:")
            print(mod_p(m).render_text() or "(empty)")
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


@functools.cache  # built on the first call, not at import
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphParseError, DisconnectedGraphError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError:
        print("error: out of memory; try a smaller input", file=sys.stderr)
        return EXIT_MEMORY


if __name__ == "__main__":
    sys.exit(main())
