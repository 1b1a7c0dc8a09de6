"""Exact-rational matrices, just big enough for desk-scale checks.

Every verdict downstream is an equality of matrices, so arithmetic is exact
and there are no tolerances anywhere.  Matrices are real; the adjoint is the
transpose.

A matrix is stored as integer rows `num` over one positive denominator
`den`, in canonical form: the gcd of `den` and every entry of `num` is 1.
The zero matrix and every integer matrix therefore have `den == 1`, and two
matrices are equal exactly when their `num` and `den` are, so equality and
hashing are plain tuple comparisons.  Arithmetic runs on the integers; a
result is reduced (divided by that gcd) only when its denominator is not 1.
`rows` gives the entries as `fractions.Fraction`s, built on demand.

Matrices are stored dense, but the product skips zeros: each nonzero entry
of the left factor scales the nonzero entries of one row of the right
factor into an accumulator row.  The partial isometries checked here are
mostly zeros and units (projections, permutations, zero representations),
so most of the scalar work a dense product would do is a multiply by zero.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .core import Frozen

_set = object.__setattr__

Num = tuple[tuple[int, ...], ...]


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _new(num: Num, den: int) -> "RatMat":
    """A matrix from integer rows over a positive denominator, reduced to
    the canonical form."""
    if den != 1:
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = tuple(tuple(x // g for x in row) for row in num)
            den //= g
    mat = object.__new__(RatMat)
    _set(mat, "num", num)
    _set(mat, "den", den)
    return mat


class RatMat(Frozen):
    """An immutable exact-rational matrix: `num / den` in canonical form."""

    __slots__ = ("num", "den")
    num: Num
    den: int

    def __init__(self, rows: Iterable[Sequence]):
        rows = tuple(tuple(_frac(x) for x in row) for row in rows)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged matrix")
        # the lcm of the entries' denominators is already canonical: for
        # each prime p of it, an entry whose denominator holds p's highest
        # power has a numerator prime to p, scaled by a factor prime to p
        den = lcm(*(x.denominator for row in rows for x in row))
        _set(self, "num", tuple(
            tuple(x.numerator * (den // x.denominator) for x in row) for row in rows
        ))
        _set(self, "den", den)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "RatMat":
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return _new(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "RatMat":
        m = n if m is None else m
        return _new(((0,) * m,) * n, 1)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.num)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.num), len(self.num[0]) if self.num else 0)

    @property
    def T(self) -> "RatMat":
        return _new(tuple(zip(*self.num)), self.den)

    def _match(self, other: "RatMat") -> None:
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def _plus(self, other: "RatMat", sign: int) -> "RatMat":
        """self + sign * other over the lcm of the denominators."""
        self._match(other)
        g = gcd(self.den, other.den)
        a, b = other.den // g, sign * (self.den // g)
        return _new(
            tuple(
                tuple(x * a + y * b for x, y in zip(ra, rb))
                for ra, rb in zip(self.num, other.num)
            ),
            self.den * a,
        )

    def __add__(self, other: "RatMat") -> "RatMat":
        return self._plus(other, 1)

    def __sub__(self, other: "RatMat") -> "RatMat":
        return self._plus(other, -1)

    def __matmul__(self, other: "RatMat") -> "RatMat":
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        nonzero = [[(j, b) for j, b in enumerate(row) if b] for row in other.num]
        out = []
        for row in self.num:
            acc = [0] * m
            for a, entries in zip(row, nonzero):
                if a:
                    for j, b in entries:
                        acc[j] += a * b
            out.append(tuple(acc))
        return _new(tuple(out), self.den * other.den)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def is_projection(self) -> bool:
        return self == self.T and self @ self == self

    def trace(self) -> Fraction:
        return Fraction(sum(row[i] for i, row in enumerate(self.num)), self.den)

    def __eq__(self, other) -> bool:
        if other.__class__ is not RatMat:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatMat(rows={self.rows!r})"

    def __str__(self) -> str:
        return "[" + ", ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in self.rows
        ) + "]"


def join(
    projections: Iterable[RatMat],
    dim: int,
    times: Callable[[RatMat, RatMat], RatMat] = operator.matmul,
) -> RatMat:
    """Join of commuting projections, folded by p v q = p + q - pq, with
    each product pq taken by `times`."""
    out = RatMat.zeros(dim)
    for p in projections:
        out = out + p - times(out, p)
    return out
