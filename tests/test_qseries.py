import functools
import math
import operator
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import series_oracle
from cyc_oracle import ref
from moduliq import qq
from moduliq.qseries import (
    PrecisionError,
    QSeries,
    delta_series,
    eta_power,
    inverse_delta,
)
from moduliq.scalars import OMEGA, CycNum
from series_oracle import as_dict, grid, well_formed


def agree(a, b):
    """The coefficients of a and b agree below both truncations."""
    t = min(a.trunc, b.trunc)
    return a.truncate(t) == b.truncate(t)


def conv(a, b, n):
    out = [0] * (n + 1)
    for i, x in enumerate(a[: n + 1]):
        for j, y in enumerate(b[: n + 1]):
            if i + j <= n:
                out[i + j] += x * y
    return out


def product_coeffs(m, n):
    """Integer coefficients of prod_{k>=1} (1 - q^k)^m up to q^n, by plain
    list convolution (independent of the QSeries implementation)."""
    import math

    out = [1] + [0] * n
    for k in range(1, n + 1):
        factor = [0] * (n + 1)
        j = 0
        while k * j <= n and j <= m:
            factor[k * j] = (-1) ** j * math.comb(m, j)
            j += 1
        out = conv(out, factor, n)
    return out


def test_mul_basic():
    one_plus = QSeries.make(1, {0: 1, 1: 1}, 10)
    one_minus = QSeries.make(1, {0: 1, 1: -1}, 10)
    prod = one_plus * one_minus
    assert prod.coeff(0).rational() == 1
    assert prod.coeff(1).rational() == 0
    assert prod.coeff(2).rational() == -1


def test_grid_merge():
    third = QSeries.monomial(1, qq(1, 3), 5)
    two_thirds = QSeries.monomial(1, qq(2, 3), 5)
    assert (third * two_thirds).coeff(1).rational() == 1


def test_theta_product_cross_term():
    a = QSeries.make(1, {0: 1, 1: 6}, 2)
    b = QSeries.make(1, {0: 1, 1: 72}, 2)
    assert (a * b).coeff(1).rational() == 78


def test_delta_against_convolution_oracle():
    n = 8
    oracle = product_coeffs(24, n)
    d = delta_series(n + 1)
    for k in range(n):
        assert d.coeff(k + 1).rational() == oracle[k]


def test_eta_powers_against_convolution_oracle():
    n = 8
    for m in range(1, 25):
        oracle = product_coeffs(m, n)
        shift = qq(m, 24)
        e = eta_power(m, n + shift)
        assert e.trunc == n + shift
        assert e.exponents() == [k + shift for k in range(n) if oracle[k]]
        for k in range(n):
            assert e.coeff(k + shift).rational() == oracle[k]


def test_eta_leading_exponents():
    assert eta_power(16, 3).leading()[0] == qq(2, 3)
    assert eta_power(24, 3).leading()[0] == 1
    assert eta_power(8, 3).leading()[0] == qq(1, 3)


def test_inverse_delta_oracle():
    # solve for the inverse coefficients by triangular back-substitution
    n = 6
    d = product_coeffs(24, n)  # Delta / q
    inv = [qq(1)]
    for i in range(1, n + 1):
        inv.append(-sum(inv[j] * d[i - j] for j in range(i)))
    series = inverse_delta(n)
    assert series.coeff(-1).rational() == 1
    for i in range(1, n + 1):
        assert series.coeff(i - 1).rational() == inv[i]
    assert series.coeff(0).rational() == 24
    assert series.coeff(1).rational() == 324


def test_invert_monomial():
    m = QSeries.monomial(1, qq(1, 3), 3)
    assert m.invert().leading()[0] == qq(-1, 3)


def test_pow():
    base = QSeries.make(1, {0: 1, 1: 1}, 6)
    assert base.pow(3).coeff(2).rational() == 3
    assert base.pow(0).coeff(0).rational() == 1
    assert agree(base.pow(-1), base.invert())


@st.composite
def invertible_series(draw):
    n_den = draw(st.sampled_from((1, 2, 3)))
    trunc = draw(st.integers(1, 3))
    coeff = st.builds(CycNum, st.integers(-4, 4).map(qq), st.integers(-2, 2).map(qq))
    terms = dict(enumerate(draw(st.lists(coeff, max_size=trunc * n_den))))
    lead = st.builds(CycNum, st.sampled_from((1, 2, -1, 3)).map(qq), st.integers(0, 2).map(qq))
    terms[0] = draw(lead)
    return QSeries.make(n_den, terms, trunc)


@given(invertible_series(), st.integers(-3, 4))
def test_pow_matches_repeated_products(a, m):
    p = a.pow(m)
    if m == 0:
        assert p == QSeries.one(a.trunc)
    else:
        factor = a if m > 0 else a.invert()
        expected = functools.reduce(operator.mul, [factor] * abs(m))
        assert agree(p, expected)
        assert p.trunc == expected.trunc == a.trunc + (m - 1) * a.leading_exponent()
    product = p * a.pow(-m)
    assert product.trunc == a.trunc
    assert agree(product, QSeries.one(a.trunc))


_RATIONAL = st.builds(qq, st.integers(-6, 6), st.integers(1, 6))
_COEFF = st.builds(CycNum, _RATIONAL, _RATIONAL)
# non-unit leads (2 + w, 3, rationals) make the rolling denominator of QSeries.pow grow
_LEADS = st.one_of(
    st.builds(CycNum, st.sampled_from((1, 2, -1, 3)).map(qq), st.integers(0, 2).map(qq)),
    _COEFF.filter(lambda c: not c.is_zero()),
)


@st.composite
def rational_series(draw, invertible=False):
    """Q(w) coefficients with denominators up to 6 on the grid q^(1/N),
    N in (1, 2, 3, 24), known below a truncation on or off the grid."""
    n_den = draw(st.sampled_from((1, 2, 3, 24)))
    start = draw(st.integers(-4, 4))
    span = draw(st.integers(0, 10))
    keys = st.integers(start, start + span)
    terms = draw(st.dictionaries(keys, _COEFF, max_size=8))
    if invertible:
        terms[start] = draw(_LEADS)
    trunc = qq(start + span, n_den) + qq(draw(st.integers(1, 6)), 6 * n_den)
    return QSeries.make(n_den, terms, trunc)


@given(rational_series(), rational_series())
def test_mul_matches_the_oracle(a, b):
    assert as_dict(a * b) == series_oracle.mul(*as_dict(a), *as_dict(b))
    assert well_formed(a * b)


@given(rational_series(invertible=True), st.integers(-3, 4))
def test_pow_matches_the_oracle(a, m):
    assert as_dict(a.pow(m)) == series_oracle.power(*as_dict(a), a.n_den, m)
    assert well_formed(a.pow(m))


# 0, +-1, w, w^2 and random elements of Q(w)
_SCALARS = st.one_of(st.sampled_from((0, 1, -1, OMEGA, OMEGA * OMEGA)), _COEFF)


@given(rational_series(), _SCALARS)
def test_scale_matches_the_oracle(a, c):
    expected = series_oracle.scale(*as_dict(a), c)
    assert as_dict(a.scale(c)) == expected
    assert as_dict(a * c) == expected
    assert as_dict(c * a) == expected
    assert a.scale(c).n_den == grid(expected[0])
    assert well_formed(a.scale(c))
    if not ref(c).is_zero():
        assert as_dict(a / c) == series_oracle.scale(*as_dict(a), 1 / ref(c))


@given(rational_series(), rational_series(), _SCALARS)
def test_add_and_sub_match_the_oracle(a, b, c):
    negated = series_oracle.scale(*as_dict(b), -1)
    assert as_dict(a + b) == series_oracle.add(*as_dict(a), *as_dict(b))
    assert as_dict(a - b) == series_oracle.add(*as_dict(a), *negated)
    assert [s.n_den for s in (a + b, a - b)] == [grid(as_dict(s)[0]) for s in (a + b, a - b)]
    assert all(map(well_formed, (a + b, a - b, a + c, c - a)))
    constant = ({qq(0): ref(c)}, a.trunc)
    assert as_dict(a + c) == series_oracle.add(*as_dict(a), *constant)
    assert as_dict(c + a) == as_dict(a + c)
    assert as_dict(c - a) == as_dict(-(a - c))
    assert as_dict(a - c) == series_oracle.add(*as_dict(a), *series_oracle.scale(*constant, -1))


def test_scalar_on_the_left_of_a_series():
    # a CycNum operator leaves an unknown operand to the reflected QSeries one
    s = QSeries.make(3, {-1: CycNum(qq(1, 2), 1), 2: 3, 4: OMEGA}, qq(5, 2))
    for c in (OMEGA, OMEGA * OMEGA + 2, CycNum(qq(-1, 3), qq(2, 5))):
        assert c * s == s * c
        assert c + s == s + c
        assert c - s == -(s - c)
    # Python's own TypeError, not one from a rational constructor
    with pytest.raises(TypeError, match=r"unsupported operand type\(s\) for \+: 'CycNum' and 'str'"):
        OMEGA + "x"
    for op in (operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError, match="'CycNum'"):
            op(OMEGA, "x")


@given(rational_series(), st.integers(0, 48))
def test_truncate_matches_the_oracle(a, j):
    # j / 48 below the truncation: on the grid of a or off it
    trunc = a.trunc - qq(j, 48)
    cut = a.truncate(trunc)
    assert as_dict(cut) == series_oracle.truncate(*as_dict(a), trunc)
    assert cut.n_den == grid(as_dict(cut)[0])
    with pytest.raises(PrecisionError):
        a.truncate(a.trunc + qq(1, 48))


@given(rational_series())
def test_coeff_matches_the_oracle(a):
    coeffs, trunc = as_dict(a)
    # every exponent with denominator 1, 2, 3, 5, 24 or 48 from below the
    # first term up to one past the truncation: on the grid, off it, beyond it
    for d in (1, 2, 3, 5, 24, 48):
        for k in range(math.floor((min(coeffs, default=trunc) - 1) * d), math.ceil((trunc + 1) * d)):
            e = qq(k, d)
            expected = series_oracle.coeff(coeffs, trunc, e)
            if expected is None:
                with pytest.raises(PrecisionError):
                    a.coeff(e)
            else:
                assert ref(a.coeff(e)) == expected


def test_pow_keeps_relative_precision():
    # 1/Delta = q^-1 (1 + 24 q + ...) is known to relative order 6 below q^5,
    # so its square q^-2 (...) is known below q^4
    inv = inverse_delta(5)
    square = inv.pow(2)
    assert square.trunc == 4
    assert agree(square, inv * inv)
    assert (inv * inv).trunc == 4
    assert agree(inv.pow(-1), delta_series(7))
    assert inv.pow(-1).trunc == 7


def test_pow_of_zero_series():
    zero = QSeries.zero(qq(1, 2), 2)
    assert zero.pow(3) == QSeries.zero(qq(3, 2), 2)
    for m in (0, -1, -2):
        with pytest.raises(ZeroDivisionError):
            zero.pow(m)


def test_equal_values_have_equal_fields_and_hashes():
    # the constructor reduces the common denominator of the coefficients by
    # one gcd, so == and hash see the value, not the way it was computed
    cut = QSeries.make(1, {0: 1, 1: qq(1, 2)}, 2).truncate(1)
    assert cut == QSeries.one(1)
    assert hash(cut) == hash(QSeries.one(1))
    s = QSeries.make(3, {-1: qq(1, 6), 0: CycNum(qq(1, 2), qq(-1, 3)), 2: OMEGA}, 5)
    assert math.lcm(*(s.coeff(e).d for e in s.exponents())) == 6
    zero = s + (-s)
    assert zero == QSeries.zero(s.trunc, s.n_den)
    assert hash(zero) == hash(QSeries.zero(s.trunc, s.n_den))


def test_eta_power_product_identity():
    lhs = eta_power(8, 5) * eta_power(16, 5)
    assert agree(lhs, delta_series(5))


def test_truncation_guard():
    d = delta_series(3)
    with pytest.raises(PrecisionError):
        d.coeff(3)
    with pytest.raises(PrecisionError):
        d.coeff(10)


def _random_series(rng, invertible=False):
    n_den = rng.choice((1, 2, 3))
    trunc = qq(rng.randint(2, 4))
    terms = {}
    lo = 0 if invertible else rng.randint(-2, 0)
    for k in range(lo, int(trunc) * n_den):
        if rng.random() < 0.5:
            terms[k] = CycNum(qq(rng.randint(-4, 4)), qq(rng.randint(-2, 2)))
    if invertible:
        terms[lo] = CycNum(qq(rng.choice((1, 2, -1, 3))), qq(rng.randint(0, 2)))
    return QSeries.make(n_den, terms, trunc)


def test_ring_laws_on_100_random_triples():
    rng = random.Random(314)
    for _ in range(100):
        a = _random_series(rng)
        b = _random_series(rng)
        c = _random_series(rng)
        assert agree((a + b) + c, a + (b + c))
        assert agree(a * (b + c), a * b + a * c)
        assert agree((a * b) * c, a * (b * c))
        assert agree(a * b, b * a)


def test_inversion_on_100_random_series():
    rng = random.Random(2718)
    for _ in range(100):
        a = _random_series(rng, invertible=True)
        inv = a.invert()
        one = QSeries.one(qq(10))
        assert agree(a * inv, one)
        assert agree(inv * a, one)


def test_rendering():
    s = QSeries.make(3, {-3: 1, 0: 24, 2: 3}, 2)
    assert str(s) == "q^(-1) + 24 + 3*q^(2/3)"
    t = QSeries.monomial(CycNum(qq(1), qq(2)), qq(1, 3), 1)
    assert str(t) == "(1 + 2*w)*q^(1/3)"


def test_equal_series_on_different_grids_are_equal():
    # q^(1/3) q^(2/3) is worked out on the grid q^(1/3); the constructor moves
    # it to the grid q^1 that its exponents need
    product = QSeries.monomial(1, qq(1, 3), 5) * QSeries.monomial(1, qq(2, 3), 5)
    q = QSeries.monomial(1, 1, qq(16, 3))
    assert product == q and hash(product) == hash(q)
    assert product.n_den == 1 and product.terms == ((1, 1, 0),)
