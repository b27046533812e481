"""The matrix action of graph automorphisms on the homology basis.

Conventions (fixed once, used everywhere):
  * column j of the matrix of f holds the coordinates of the image of
    the j-th fundamental cycle under f;
  * the product fg applies g first, (fg)(v) = f(g(v)), which makes the
    assignment f -> matrix a homomorphism under ordinary matrix product.

The matrix is built row by row as a gather from the basis's cycle-dart
table Z (`SpanningTreeBasis.cycle_dart_table`), whose rows are keyed by
the integer dart tail * n + head: entry (i, j) counts the signed
traversals of the co-tree dart x_i by f(C_j), that is of the dart
f^-1(x_i) by C_j, so row i of the matrix of f is Z[f^-1(x_i)].  The
gather takes the inverses, so a caller that gathers one group in
several bases inverts each element once.

Every matrix has entries in {-1, 0, 1} and determinant +/-1; the kernel
is the set of automorphisms mapped to the identity matrix, the mod p
kernel those mapped to the identity mod p; `_is_kernel_perm` tests both.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .autgroup import DEFAULT_CAP, Automorphism, automorphisms
from .cycles import SpanningTreeBasis, spanning_tree_basis
from .graphs import Graph
from .matrices import IntMatrix


def _inverses(perms, n: int) -> Iterator[dict[int, int]]:
    """The inverse of each permutation of 0..n-1 in perms, in turn, as a
    map from each image to its point: the form of an automorphism that
    `_gather` reads.  A caller that gathers in several bases keeps them
    as a list; one gather takes them one at a time, so that a large
    graph's group never holds all its inverses at once."""
    points = range(n)
    return (dict(zip(p, points)) for p in perms)


def _gather(invs, b: SpanningTreeBasis) -> list[tuple[tuple[int, ...], ...]]:
    """Rows of the matrix in basis b of each automorphism whose inverse
    (from `_inverses`) invs lists, in its order; one read of the table."""
    n, table, cotree = b.graph.n, b.cycle_dart_table(), b.cotree
    return [tuple([table[inv[u] * n + inv[v]] for u, v in cotree]) for inv in invs]


def _is_kernel_perm(rows: tuple[tuple[int, ...], ...], p: int | None = None) -> bool:
    """True iff rows, a matrix that its caller gathered with `_gather`,
    are the identity matrix (mod p if given): the one test of kernel
    membership, integer or mod p, so that each matrix is gathered once."""
    unit = IntMatrix.identity(len(rows)).rows
    return rows == unit or p is not None and all(
        (x - w) % p == 0 for row, unit_row in zip(rows, unit) for x, w in zip(row, unit_row))


def matrix_of(f: Automorphism, b: SpanningTreeBasis) -> IntMatrix:
    """Matrix of f in basis b; the empty 0x0 matrix when beta = 0."""
    g = f.graph
    if g != b.graph:
        raise ValueError("automorphism and basis belong to different graphs")
    return IntMatrix._square(_gather(_inverses([f.perm], g.n), b)[0])


@dataclass
class RepresentationReport:
    """Full group scan: one matrix per automorphism, plus the kernel."""

    basis: SpanningTreeBasis
    matrices: dict[Automorphism, IntMatrix]
    kernel: tuple[Automorphism, ...]
    faithful: bool

    @property
    def group_order(self) -> int:
        return len(self.matrices)


def representation(g: Graph, b: SpanningTreeBasis | None = None,
                   cap: int = DEFAULT_CAP) -> RepresentationReport:
    """Matrices for every automorphism and the kernel of the action.

    For beta = 0 every matrix is the empty identity, so the kernel is
    the whole group.  faithful <=> the kernel is just the identity.
    """
    if b is None:
        b = spanning_tree_basis(g)
    elif b.graph != g:
        raise ValueError("basis belongs to a different graph")
    group = automorphisms(g, cap)
    gathered = _gather(_inverses((f.perm for f in group), g.n), b)
    kernel = [f for f, rows in zip(group, gathered) if _is_kernel_perm(rows)]
    mats = dict(zip(group, map(IntMatrix._square, gathered)))
    return RepresentationReport(
        basis=b, matrices=mats, kernel=tuple(kernel), faithful=len(kernel) == 1)


def change_of_basis(b_old: SpanningTreeBasis, b_new: SpanningTreeBasis) -> IntMatrix:
    """Unimodular matrix P expressing the new cycles in old coordinates.

    Column j is the old-basis coordinate vector of the j-th fundamental
    cycle of b_new, so entry (i, j) counts the signed traversals of
    b_old's co-tree dart x_i by that cycle: row i is the row of x_i in
    b_new's cycle-dart table.  For any automorphism f the matrices
    satisfy P * matrix_of(f, b_new) = matrix_of(f, b_old) * P.
    """
    if b_old.graph != b_new.graph:
        raise ValueError("bases belong to different graphs")
    n, table = b_new.graph.n, b_new.cycle_dart_table()
    return IntMatrix._square(tuple(table[u * n + v] for u, v in b_old.cotree))

