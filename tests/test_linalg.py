"""The field elimination of ``_linalg`` against oracles written here: the
Leibniz sum for determinants, the largest nonzero minor for ranks, and
A^-1 A = I for inverses; on small integer matrices over Q and over Q(w)."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from moduliq import qq
from moduliq._linalg import det_field, mat_identity, mat_inverse, mat_mul, rank_field
from moduliq.scalars import CYC_ONE, CYC_ZERO, CycNum

# field name -> (one, zero, the element a + b*w, or a over Q)
FIELDS = {
    "Q": (qq(1), qq(0), lambda a, b: qq(a)),
    "Q(w)": (CYC_ONE, CYC_ZERO, lambda a, b: CycNum(qq(a), qq(b))),
}


@st.composite
def matrices(draw, square):
    """(a, one, zero): an n x m matrix with n, m <= 4 and small entries, many
    of them zero so that elimination must swap rows; in half the draws the
    last row is a combination of the others."""
    one, zero, element = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    entry = st.one_of(st.just(zero), st.builds(element, st.integers(-2, 2), st.integers(-2, 2)))
    n = draw(st.integers(1, 4))
    m = n if square else draw(st.integers(1, 4))
    a = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
    if draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=n - 1, max_size=n - 1))
        a[-1] = [sum((c * row[j] for c, row in zip(coeffs, a)), zero) for j in range(m)]
    return a, one, zero


def leibniz_det(a, one, zero):
    total = zero
    for perm in itertools.permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(a)), 2))
        term = one if inversions % 2 == 0 else -one
        for i, p in enumerate(perm):
            term = term * a[i][p]
        total = total + term
    return total


def minor_rank(a, one, zero):
    """Size of the largest square submatrix with a nonzero Leibniz sum."""
    n, m = len(a), len(a[0])
    for k in range(min(n, m), 0, -1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.combinations(range(m), k):
                if leibniz_det([[a[i][j] for j in cols] for i in rows], one, zero) != zero:
                    return k
    return 0


@given(matrices(square=True))
def test_det_field_is_the_leibniz_sum(case):
    a, one, zero = case
    before = [list(row) for row in a]
    assert det_field(a, one, zero) == leibniz_det(a, one, zero)
    assert a == before


@given(matrices(square=False))
def test_rank_field_is_the_largest_nonzero_minor(case):
    a, one, zero = case
    assert rank_field(a, one, zero) == minor_rank(a, one, zero)


@given(matrices(square=True))
def test_mat_inverse_inverts_or_refuses(case):
    a, one, zero = case
    if leibniz_det(a, one, zero) == zero:
        with pytest.raises(ValueError, match="^singular matrix$"):
            mat_inverse(a, one, zero)
    else:
        inv = mat_inverse(a, one, zero)
        assert mat_mul(inv, a, zero) == mat_identity(len(a), one, zero)


def test_empty_matrix_has_rank_zero():
    assert rank_field([], qq(1), qq(0)) == 0
