"""The eliminations of ``_linalg``, the int Bareiss of ``_rational`` and
the references of ``field_oracle`` against oracles written here: the
Leibniz sum for determinants, the largest nonzero minor for ranks, and
A^-1 A = I for inverses, on small integer matrices over Q and over Q(w);
and the integral LLL against its defining conditions, with every
Gram-Schmidt quantity recomputed as a determinant."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from field_oracle import det_field, inertia as ldl_inertia, mat_inverse
from moduliq import qq
from moduliq._rational import as_int, den, det_bareiss
from moduliq._linalg import inertia, lll, mat_identity, mat_mul, mat_transpose, rank_field
from moduliq.lattices import build_standard
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
    if one == qq(1):
        # the int Bareiss on the same matrix; its entries are integers
        ints = [[as_int(x) for x in row] for row in a]
        assert det_bareiss(ints) == leibniz_det(ints, 1, 0)
        assert ints == [[as_int(x) for x in row] for row in before]


@pytest.mark.parametrize("a, det", [
    ([], 1),
    ([[0, 1], [1, 0]], -1),  # a zero pivot: one row swap
    ([[0, 2, 1], [0, 1, 3], [4, 0, 5]], 20),  # the swap takes the last row
    ([[1, 2, 3], [2, 4, 6], [0, 1, 1]], 0),  # a swap at the second step, then a zero row
    ([[0, 0], [0, 7]], 0),  # no pivot in the first column
])
def test_det_bareiss_swaps_and_singular_matrices(a, det):
    assert det_bareiss(a) == det == (leibniz_det(a, 1, 0) if a else 1)


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


@st.composite
def symmetric_forms(draw):
    """A symmetric n x n matrix, n <= 6, of ints and small rationals, many
    of them zero; in some draws the whole diagonal is zero, and in some a
    row and its column repeat another, so that the form is degenerate."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-3, 3), st.builds(qq, st.integers(-4, 4), st.integers(1, 6)))
    zero_diagonal = draw(st.booleans())
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            g[i][j] = g[j][i] = draw(entry)
    if n > 1 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        g[b] = list(g[a])
        for r in range(n):
            g[r][b] = g[b][r]
        g[b][b] = g[a][a]
    return g


@settings(max_examples=300)
@given(symmetric_forms())
def test_inertia_matches_the_ldl_reference(g):
    # inertia reads an int matrix: the draw times the lcm s > 0 of its
    # denominators, which has the draw's inertia
    s = math.lcm(*(den(x) for row in g for x in row))
    ints = [[as_int(x * s) for x in row] for row in g]
    before = [list(row) for row in ints]
    assert inertia(ints) == ldl_inertia(g)
    assert ints == before


# ---------------------------------------------------------------------------
# integral LLL


def minor(g, rows, k):
    """det of the Gram entries g[r][c], r in rows, c < k, as a rational."""
    if not rows:
        return qq(1)
    return det_field([[qq(g[r][c]) for c in range(k)] for r in rows], qq(1), qq(0))


def check_lll(g):
    """The LLL conditions on lll(g), with d and lam recomputed as minors:
    d_i is the leading i x i minor of the reduced Gram, and lam_kj the minor
    on rows 0..j-1, k and columns 0..j."""
    n = len(g)
    reduced, t, t_inv, d, lam = lll(g)
    assert reduced == mat_mul(mat_mul(t, g, 0), mat_transpose(t), 0)
    assert mat_mul(t, t_inv, 0) == mat_identity(n, 1, 0)
    assert d == [minor(reduced, range(i), i) for i in range(n + 1)]
    for k in range(n):
        for j in range(k):
            assert lam[k][j] == minor(reduced, [*range(j), k], j + 1)
            assert 2 * abs(lam[k][j]) <= d[j + 1]  # size-reduced
        if k:
            # Lovasz with delta = 3/4
            assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2


@st.composite
def unimodular(draw, n, most=12):
    """A product of up to `most` shears e_i -> e_i + r e_j, swaps and sign
    flips."""
    u = mat_identity(n, 1, 0)
    for _ in range(draw(st.integers(0, most)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        move = draw(st.sampled_from(("shear", "swap", "flip")))
        if move == "shear":
            r = draw(st.sampled_from((-2, -1, 1, 2)))
            u[i] = [a + r * b for a, b in zip(u[i], u[j])]
        elif move == "swap":
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-a for a in u[i]]
    return u


@st.composite
def skewed_root_lattices(draw):
    """U (-G) U^T for G one of E8, E6, A2, E6+A2 and U unimodular."""
    g = [[-int(x) for x in row] for row in build_standard(draw(st.sampled_from(("E8", "E6", "A2", "E6+A2")))).gram]
    u = draw(unimodular(len(g)))
    return mat_mul(mat_mul(u, g, 0), mat_transpose(u), 0)


@given(skewed_root_lattices())
def test_lll_on_skewed_root_lattices(g):
    check_lll(g)


@st.composite
def symmetric_grams(draw):
    """B B^T for an integer B of rank <= 4 (definite or degenerate), or a
    symmetric integer matrix of any inertia."""
    n = draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    if draw(st.booleans()):
        b = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
        return mat_mul(b, mat_transpose(b), 0)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(entries)
    return g


@given(symmetric_grams())
def test_lll_reduces_definite_grams_and_refuses_the_rest(g):
    if ldl_inertia(g) == (len(g), 0, 0):
        check_lll(g)
    else:
        with pytest.raises(ValueError, match="^Gram matrix is not positive definite$"):
            lll(g)


def test_lll_edge_cases():
    assert lll([]) == ([], [], [], [1], [])
    for g in ([[0, 1], [1, 0]], [[1, 1], [1, 1]], [[2, 1], [1, -1]], [[0]]):
        with pytest.raises(ValueError):
            lll(g)
