"""Exact-rational matrices, just big enough for desk-scale checks.

Every verdict downstream is an equality of matrices, so entries are
`fractions.Fraction` and there are no tolerances anywhere.  Matrices are
real; the adjoint is the transpose.

Matrices are stored dense, but the product skips zeros: each nonzero entry
of the left factor scales the nonzero entries of one row of the right
factor into an accumulator row.  The partial isometries checked here are
mostly zeros and units (projections, permutations, zero representations),
so most of the scalar work a dense product would do is a multiply by zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

_ZERO = Fraction(0)


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class RatMat:
    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged matrix")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "RatMat":
        return cls(tuple(tuple(_frac(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls(
            tuple(
                tuple(Fraction(1 if i == j else 0) for j in range(n))
                for i in range(n)
            )
        )

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "RatMat":
        m = n if m is None else m
        return cls(tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n)))

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    @property
    def T(self) -> "RatMat":
        n, m = self.shape
        return RatMat(tuple(tuple(self.rows[i][j] for i in range(n)) for j in range(m)))

    def _match(self, other: "RatMat") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __add__(self, other: "RatMat") -> "RatMat":
        self._match(other)
        return RatMat(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other: "RatMat") -> "RatMat":
        self._match(other)
        return RatMat(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __matmul__(self, other: "RatMat") -> "RatMat":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [_ZERO] * m
            for a, entries in zip(row, nonzero):
                if a:
                    for j, b in entries:
                        acc[j] += a * b
            out.append(tuple(acc))
        return RatMat(tuple(out))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def is_projection(self) -> bool:
        return self == self.T and self @ self == self

    def __str__(self) -> str:
        return "[" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows
        ) + "]"


def join(projections: Iterable[RatMat], dim: int) -> RatMat:
    """Join of commuting projections, folded by p v q = p + q - pq."""
    out = RatMat.zeros(dim)
    for p in projections:
        out = out + p - out @ p
    return out


def hstack(mats: Sequence[RatMat]) -> RatMat:
    n = mats[0].shape[0]
    if any(m.shape[0] != n for m in mats):
        raise ValueError("hstack needs equal row counts")
    return RatMat(
        tuple(tuple(x for m in mats for x in m.rows[i]) for i in range(n))
    )


def rank(mat: RatMat) -> int:
    """Exact rank by fraction-free-enough Gaussian elimination."""
    rows = [list(r) for r in mat.rows]
    n, m = mat.shape
    r = 0
    for col in range(m):
        pivot = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == n:
            break
    return r
