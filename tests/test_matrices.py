from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sgpd.matrices import RatMat, hstack, rank


def test_exact_arithmetic():
    a = RatMat.from_rows([[Fraction(1, 3), 1], [0, Fraction(1, 7)]])
    b = a + a - a
    assert b == a
    assert (a @ RatMat.identity(2)) == a


def test_transpose_and_projection():
    p = RatMat.from_rows([[1, 0], [0, 0]])
    assert p.is_projection()
    q = RatMat.from_rows([[Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(1, 2)]])
    assert q.is_projection()
    nilpotent = RatMat.from_rows([[0, 1], [0, 0]])
    assert not nilpotent.is_projection()
    assert nilpotent.T == RatMat.from_rows([[0, 0], [1, 0]])


def test_shape_errors():
    with pytest.raises(ValueError):
        RatMat.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        RatMat.identity(2) @ RatMat.identity(3)
    with pytest.raises(ValueError):
        RatMat.identity(2) + RatMat.identity(3)


def test_rank():
    assert rank(RatMat.identity(3)) == 3
    assert rank(RatMat.zeros(3)) == 0
    assert rank(RatMat.from_rows([[1, 2], [2, 4]])) == 1
    assert rank(RatMat.from_rows([[1, 2], [2, 4 + Fraction(1, 1000000)]])) == 2


def test_hstack():
    a = RatMat.identity(2)
    b = RatMat.zeros(2)
    stacked = hstack([a, b])
    assert stacked.shape == (2, 4)
    assert rank(stacked) == 2


def test_str_uses_fraction_notation():
    m = RatMat.from_rows([[Fraction(1, 2), 0]])
    assert str(m) == "[[1/2, 0]]"


# ---- the zero-skipping product against the textbook dense product

KERNEL = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# mostly zeros and units, as in the partial isometries the checks multiply,
# plus fractions with non-unit denominators
ENTRIES = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]),
    st.fractions(min_value=-3, max_value=3, max_denominator=7),
)


def dense_product(a, b):
    """Row-by-column sums over every index, zeros included."""
    n, k = a.shape
    m = b.shape[1]
    return [
        [sum((a.rows[i][t] * b.rows[t][j] for t in range(k)), Fraction(0)) for j in range(m)]
        for i in range(n)
    ]


def matrix(n, m):
    return st.lists(
        st.lists(ENTRIES, min_size=m, max_size=m), min_size=n, max_size=n
    ).map(RatMat.from_rows)


def permutation(n):
    return st.permutations(range(n)).map(
        lambda p: RatMat.from_rows([[int(p[i] == j) for j in range(n)] for i in range(n)])
    )


def factor(n, m):
    """Random, or the zero matrix, or (when square) the identity or a permutation."""
    kinds = [matrix(n, m), matrix(n, m), st.just(RatMat.zeros(n, m))]
    if n == m:
        kinds += [st.just(RatMat.identity(n)), permutation(n)]
    return st.one_of(kinds)


@st.composite
def factor_pairs(draw):
    """(a, b) with a n x k and b k x m, square more often than not."""
    n = draw(st.integers(1, 4))
    k = draw(st.sampled_from([n, 1, 2, 3, 4]))
    m = draw(st.sampled_from([k, 1, 2, 3, 4]))
    return draw(factor(n, k)), draw(factor(k, m))


@KERNEL
@given(factor_pairs())
def test_product_matches_dense(pair):
    a, b = pair
    got = a @ b
    assert got.shape == (a.shape[0], b.shape[1])
    assert [list(row) for row in got.rows] == dense_product(a, b)
    assert all(type(x) is Fraction for row in got.rows for x in row)


def test_product_shape_mismatch_on_non_square():
    with pytest.raises(ValueError, match="shape mismatch"):
        RatMat.zeros(2, 3) @ RatMat.zeros(2, 3)
