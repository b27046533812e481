"""Exact integer matrices sized for cycle-space dimensions.

A matrix is its tuple of row tuples (`Matrix`), the form in which `rep`
gathers it, so a matrix passes from `rep` to the verifier and the CLI
unwrapped.  Everything here is exact: determinants use fraction-free
(Bareiss) elimination over Python integers, which cannot overflow.
Matrices of dimension 0 exist and behave as the empty identity.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub
from typing import Sequence

Matrix = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=16)
def identity(dim: int) -> Matrix:
    """The dim x dim identity matrix; () when dim = 0."""
    return tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The product ab of two square matrices of one dimension."""
    if len(a) != len(b):
        raise ValueError("dimension mismatch in matrix product")
    out = []
    for row in a:  # sparse: add coef * b's row k per nonzero row[k]
        acc = [0] * len(row)
        for coef, b_row in zip(row, b):
            if coef == 1:
                acc = list(map(add, acc, b_row))
            elif coef == -1:
                acc = list(map(sub, acc, b_row))
            elif coef:
                acc = [x + coef * y for x, y in zip(acc, b_row)]
        out.append(tuple(acc))
    return tuple(out)


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant of the square matrix whose rows m lists,
    by fraction-free Gaussian elimination; a ragged m raises ValueError."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


# Miller-Rabin on the first twelve primes as bases decides primality
# exactly below this bound, the least strong pseudoprime to all twelve
# (Sorenson and Webster, 2015)
PRIME_TEST_BOUND = 318665857834031151167461
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test; p must be below PRIME_TEST_BOUND."""
    if p >= PRIME_TEST_BOUND:
        raise ValueError(f"{p} is too large to test for primality "
                         f"(the bound is {PRIME_TEST_BOUND})")
    if p < 2:
        return False
    for a in _WITNESSES:
        if p % a == 0:
            return p == a
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True
