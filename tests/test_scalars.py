import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cyc_oracle import ref
from moduliq import qq
from moduliq._rational import QQ, den, num, padic_valuation
from moduliq.scalars import (
    CYC_ONE,
    OMEGA,
    SQRT_M3,
    CycNum,
    cyc,
)


def test_qq_of_two_ints_is_the_reduced_fraction():
    # signs on either side, zero numerators, and pairs with a common factor
    for x in range(-12, 13):
        for y in (-12, -6, -4, -1, 1, 2, 3, 8, 12):
            r = qq(x, y)
            assert type(r) is QQ
            assert r == Fraction(x, y)
            assert (num(r), den(r)) == (Fraction(x, y).numerator, Fraction(x, y).denominator)
    with pytest.raises(ZeroDivisionError):
        qq(1, 0)


def test_qq_of_one_value():
    half = qq(1, 2)
    assert qq(half) == half
    assert type(qq(half)) is QQ
    for text in ("3/6", "-4", "0", "-10/4"):
        assert qq(text) == QQ(Fraction(text))
    for n in (-5, 0, 1, 10**30):
        assert qq(n) == QQ(n) == n
        assert type(qq(n)) is QQ


def test_omega_relation():
    # w^2 + w + 1 = 0
    assert (OMEGA * OMEGA + OMEGA + CYC_ONE).is_zero()


def test_sqrt_minus_three():
    assert SQRT_M3 * SQRT_M3 == cyc(-3)


def test_conj_norm_examples():
    assert OMEGA.conj() == CycNum(qq(-1), qq(-1))  # -1 - w
    assert OMEGA.norm() == 1
    assert SQRT_M3.conj() == CycNum(qq(-1), qq(-2))
    assert SQRT_M3.norm() == 3
    assert (cyc(0).conj(), cyc(0).norm()) == (cyc(0), 0)


def test_conj_norm_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        x = CycNum(qq(rng.randint(-9, 9), rng.randint(1, 5)), qq(rng.randint(-9, 9)))
        y = CycNum(qq(rng.randint(-9, 9)), qq(rng.randint(-9, 9), rng.randint(1, 5)))
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x * y).norm() == x.norm() * y.norm()


def test_of_reduces_an_int_triple():
    # one gcd, and the sign moves onto the numerators
    z = CycNum.of(2, -4, -6)
    assert (z.x, z.y, z.d) == (-1, 2, 3)
    assert z == CycNum(qq(-1, 3), qq(2, 3))
    zero = CycNum.of(0, 0, -7)
    assert (zero.x, zero.y, zero.d) == (0, 0, 1)
    assert CycNum.of(5, 0) == cyc(5)


def test_division_and_pow():
    x = CycNum(qq(2), qq(-3))
    assert (x / x) == CYC_ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == CYC_ONE / (x * x)


_QQ = st.builds(qq, st.integers(-6, 6), st.integers(1, 4))
_CYC = st.builds(CycNum, _QQ, _QQ)
# both kinds of rational operand next to the elements of Q(w)
_OPERAND = st.one_of(_CYC, st.integers(-3, 3), _QQ)


def _same(got, want):
    """got is the CycNum of the reference value want, with backend coordinates."""
    assert isinstance(got, CycNum)
    assert ref(got) == want
    assert type(got.a) is QQ and type(got.b) is QQ
    assert str(got) == str(want)


@given(_CYC, _OPERAND)
def test_cycnum_agrees_with_the_reference(x, y):
    rx, ry = ref(x), ref(y)
    for got, want in (
        (x + y, rx + ry), (y + x, ry + rx),
        (x - y, rx - ry), (y - x, ry - rx),
        (x * y, rx * ry), (y * x, ry * rx),
        (-x, -rx), (x.conj(), rx.conj()),
    ):
        _same(got, want)
    assert x.norm() == rx.norm() and type(x.norm()) is QQ
    assert (x.a, x.b) == (rx.a, rx.b)
    for num_, den_, rnum, rden in ((x, y, rx, ry), (y, x, ry, rx)):
        if rden.is_zero():
            with pytest.raises(ZeroDivisionError):
                num_ / den_
        else:
            _same(num_ / den_, rnum / rden)
    if rx.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        _same(x.inverse(), rx.inverse())


@given(_CYC, st.integers(-4, 5))
def test_cycnum_powers_agree_with_the_reference(x, k):
    if k < 0 and x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x**k
    else:
        _same(x**k, ref(x) ** k)


@given(_CYC, _CYC)
def test_cycnum_equality_and_hash(x, y):
    assert (x == y) == (ref(x) == ref(y))
    assert (x != y) == (ref(x) != ref(y))
    # the same value reached another way is equal and hashes alike
    z = (x + y) - y
    assert z == x and hash(z) == hash(x)
    assert x * y == y * x and hash(x * y) == hash(y * x)
    assert (cyc(x.a) == x) == (x.b == 0)
    # only a CycNum equals a CycNum
    assert (x == x.a) is False and (CYC_ONE == 1) is False


def test_padic_examples():
    assert padic_valuation(9, 3) == 2
    assert padic_valuation(qq(16**9 * 7, 9**9 * 144 * 720), 3) == -22
    assert padic_valuation(0, 3) == math.inf


def test_padic_denominator_factorization():
    # independent check of the -22: factor 9^9 * 144 * 720 by hand
    n = 9**9 * 144 * 720
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    assert v == 22
    assert (16**9 * 7) % 3 != 0


def test_padic_rejects_composite():
    with pytest.raises(ValueError):
        padic_valuation(qq(1), 6)
    with pytest.raises(ValueError):
        padic_valuation(qq(1), 1)


def test_padic_additive():
    rng = random.Random(11)
    for _ in range(50):
        x = qq(rng.randint(1, 400), rng.randint(1, 400)) * rng.choice((1, -1))
        y = qq(rng.randint(1, 400), rng.randint(1, 400))
        for p in (2, 3, 5):
            assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)
