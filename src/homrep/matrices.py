"""Dense exact-integer matrices sized for cycle-space dimensions.

Everything here is exact: determinants use fraction-free (Bareiss)
elimination over Python integers, which cannot overflow.  Matrices of
dimension 0 exist and behave as the empty identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in r) for r in rows))

    @classmethod
    @lru_cache(maxsize=16)
    def identity(cls, dim: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(dim))
                         for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_identity(self) -> bool:
        return self.rows == IntMatrix.identity(self.dim).rows

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for row in self.rows:  # sparse: add coef * other's row k per nonzero row[k]
            acc = [0] * len(row)
            for coef, b_row in zip(row, other.rows):
                if coef == 1:
                    acc = list(map(add, acc, b_row))
                elif coef == -1:
                    acc = list(map(sub, acc, b_row))
                elif coef:
                    acc = [a + coef * b for a, b in zip(acc, b_row)]
            out.append(tuple(acc))
        return IntMatrix(tuple(out))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)) if self.rows else ())

    def render_text(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.rows)

    def to_json(self) -> dict:
        """The matrix as JSON data; json renders the row tuples as lists."""
        return {"dim": self.dim, "rows": self.rows}

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"


def determinant(m: IntMatrix) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    n = m.dim
    if n == 0:
        return 1
    a = [list(row) for row in m.rows]
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


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Inverse of a unimodular matrix, exactly, via the adjugate.

    With det = +/-1 the inverse is det * adjugate, so it stays integer.
    """
    det = determinant(m)
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (det = {det})")
    n = m.dim
    if n == 0:
        return m
    inv = []
    for i in range(n):
        row = []
        for j in range(n):
            minor = IntMatrix(tuple(
                tuple(x for cj, x in enumerate(r) if cj != i)
                for rj, r in enumerate(m.rows) if rj != j))
            row.append(det * (-1) ** (i + j) * determinant(minor))
        inv.append(tuple(row))
    return IntMatrix(tuple(inv))


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def matrix_mod_p(m: IntMatrix, p: int) -> IntMatrix:
    """Entrywise reduction into 0..p-1; p must be prime."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return IntMatrix(tuple(tuple(x % p for x in row) for row in m.rows))
