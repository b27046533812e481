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
    def _square(cls, rows: tuple[tuple[int, ...], ...]) -> "IntMatrix":
        """Wrap rows known to be square without the length check: a
        gathered matrix or a product of square matrices."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        return m

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
        return IntMatrix._square(tuple(out))

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
