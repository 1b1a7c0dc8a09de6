from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from sgpd.matrices import RatMat, join


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


# ---- the integer kernel against plain-Fraction lists

DIFF = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# negative entries and non-unit denominators, zeros and units
SIGNED = st.one_of(
    st.sampled_from([0, 0, 1, -1]),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)


def fractions_matrix(n, m):
    return st.lists(
        st.lists(SIGNED.map(Fraction), min_size=m, max_size=m), min_size=n, max_size=n
    )


@st.composite
def same_shape(draw, count=2):
    """`count` Fraction matrices of one shape, zero-sized ones included;
    the later ones are sometimes copies or sums of the first."""
    n, m = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    mats = [draw(fractions_matrix(n, m))]
    for _ in range(count - 1):
        mats.append(draw(st.one_of(
            fractions_matrix(n, m),
            st.just([list(r) for r in mats[0]]),
            st.just(ref_add(mats[0], mats[0])),
        )))
    return mats


@st.composite
def projections(draw):
    """(dim, commuting projections): diagonal 0-1 matrices, which the test
    conjugates by one rational invertible matrix."""
    dim = draw(st.integers(0, 3))
    diagonals = draw(st.lists(st.lists(st.sampled_from([0, 1]), min_size=dim, max_size=dim),
                              max_size=3))
    return dim, [[[Fraction(d[i]) if i == j else Fraction(0) for j in range(dim)]
                  for i in range(dim)] for d in diagonals]


def ref_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_T(a):
    m = len(a[0]) if a else 0
    return [[row[j] for row in a] for j in range(m)]


def ref_mul(a, b):
    m = len(b[0]) if b else 0
    return [[sum((x * b[t][j] for t, x in enumerate(row)), Fraction(0)) for j in range(m)]
            for row in a]


def ref_join(ps, dim):
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for p in ps:
        out = ref_sub(ref_add(out, p), ref_mul(out, p))
    return out


# ref_hstack and ref_rank are the nondegeneracy oracle of test_atoms
def ref_hstack(mats):
    return [[x for a in mats for x in a[i]] for i in range(len(mats[0]))]


def ref_rank(a):
    rows = [list(r) for r in a]
    r = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                rows[i] = [x - rows[i][col] * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def ref_str(a):
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in a) + "]"


def ref_repr(a):
    return f"RatMat(rows={tuple(tuple(row) for row in a)!r})"


def agrees(mat, ref):
    """`mat` holds exactly the Fraction entries of `ref`, in canonical form."""
    assert mat.shape == (len(ref), len(ref[0]) if ref else 0)
    assert [list(row) for row in mat.rows] == ref
    assert all(type(x) is Fraction for row in mat.rows for x in row)
    assert mat.den >= 1 and gcd(mat.den, *(x for row in mat.num for x in row)) == 1
    return True


@DIFF
@given(same_shape())
def test_add_sub_transpose_match_fractions(pair):
    a, b = pair
    x, y = RatMat.from_rows(a), RatMat.from_rows(b)
    assert agrees(x + y, ref_add(a, b))
    assert agrees(x - y, ref_sub(a, b))
    assert agrees(x.T, ref_T(a))
    if a and a[0]:  # an n x 0 matrix transposes to 0 x 0
        assert agrees(x.T.T, a)


@DIFF
@given(factor_pairs())
def test_product_of_fractions_is_canonical(pair):
    a, b = pair
    assert agrees(a @ b, ref_mul([list(r) for r in a.rows], [list(r) for r in b.rows]))


@DIFF
@given(same_shape())
def test_predicates_and_text_match_fractions(pair):
    a, b = pair
    x, y = RatMat.from_rows(a), RatMat.from_rows(b)
    assert (x == y) == (a == b)
    if a == b:
        assert hash(x) == hash(y)
    assert x.is_zero() == all(v == 0 for row in a for v in row)
    square = len(a) == (len(a[0]) if a else 0)
    if square:
        assert x.is_projection() == (a == ref_T(a) and ref_mul(a, a) == a)
        assert x.trace() == sum((row[i] for i, row in enumerate(a)), Fraction(0))
    assert str(x) == ref_str(a)
    assert repr(x) == ref_repr(a)


@DIFF
@given(projections(), st.integers(1, 6))
def test_join_matches_fractions(family, scale):
    dim, ps = family
    # conjugate by an invertible matrix with non-unit denominators, so the
    # projections stay commuting and idempotent but are no longer integral
    g = [[Fraction(int(i == j) + (Fraction(1, scale) if j == i + 1 else 0))
          for j in range(dim)] for i in range(dim)]
    g_inv = [list(r) for r in _inverse(g)]
    conj = [ref_mul(ref_mul(g, p), g_inv) for p in ps]
    got = join((RatMat.from_rows(p) for p in conj), dim)
    assert agrees(got, ref_join(conj, dim))


def _inverse(g):
    """Inverse of a unit upper-triangular matrix by back substitution."""
    n = len(g)
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if g[i][j]:
                inv[i] = [x - g[i][j] * y for x, y in zip(inv[i], inv[j])]
    return inv


@DIFF
@given(same_shape(count=1), st.integers(1, 30))
def test_canonical_form_is_independent_of_scaling(mats, k):
    (a,) = mats
    n = len(a)
    m = len(a[0]) if a else 0
    direct = RatMat.from_rows(a)
    # the same entries reached through a common denominator k times larger
    scaled = RatMat.from_rows([[x * k for x in row] for row in a])
    down = RatMat.from_rows(
        [[Fraction(int(i == j), k) for j in range(n)] for i in range(n)]
    )
    via_product = down @ scaled
    via_sums = direct + direct - direct
    via_ints = RatMat.from_rows([[Fraction(x.numerator * k, x.denominator * k) for x in row]
                                 for row in a])
    for other in (via_product, via_sums, via_ints, RatMat(tuple(map(tuple, a)))):
        assert other == direct and hash(other) == hash(direct)
        assert (other.num, other.den) == (direct.num, direct.den)
    assert direct.shape == (n, m)


def test_zero_dimension():
    empty = RatMat(())
    assert empty.shape == (0, 0)
    assert empty.rows == () and empty.den == 1
    assert empty == RatMat.zeros(0) == RatMat.identity(0) == RatMat.from_rows([])
    assert hash(empty) == hash(RatMat.zeros(0))
    assert empty.is_zero() and empty.is_projection()
    assert empty @ empty == empty and empty + empty == empty and empty.T == empty
    assert join([empty, empty], 0) == empty
    assert str(empty) == "[]" and repr(empty) == "RatMat(rows=())"


def test_integer_and_zero_matrices_have_unit_denominator():
    half = RatMat.from_rows([[Fraction(1, 2), Fraction(-3, 4)]])
    assert (half.num, half.den) == (((2, -3),), 4)
    assert (half + half + half + half).den == 1
    assert (half - half).den == 1 and (half - half).is_zero()
    assert RatMat.from_rows([[Fraction(4, 2), Fraction(-6, 3)]]).num == ((2, -2),)


def test_immutable():
    m = RatMat.identity(2)
    with pytest.raises(AttributeError):
        m.den = 2
