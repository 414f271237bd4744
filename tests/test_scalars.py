import math
import random
from fractions import Fraction

import pytest

from moduliq import qq
from moduliq._rational import QQ, den, num
from moduliq.scalars import (
    CYC_ONE,
    OMEGA,
    SQRT_M3,
    CycNum,
    cyc,
    cyc_conj_norm,
    padic_valuation,
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
    conj_w, norm_w = cyc_conj_norm(OMEGA)
    assert conj_w == CycNum(qq(-1), qq(-1))  # -1 - w
    assert norm_w == 1
    conj_r, norm_r = cyc_conj_norm(SQRT_M3)
    assert conj_r == CycNum(qq(-1), qq(-2))
    assert norm_r == 3
    assert cyc_conj_norm(0) == (cyc(0), 0)


def test_conj_norm_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        x = CycNum(qq(rng.randint(-9, 9), rng.randint(1, 5)), qq(rng.randint(-9, 9)))
        y = CycNum(qq(rng.randint(-9, 9)), qq(rng.randint(-9, 9), rng.randint(1, 5)))
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x * y).norm() == x.norm() * y.norm()


def test_division_and_pow():
    x = CycNum(qq(2), qq(-3))
    assert (x / x) == CYC_ONE
    assert x ** 3 == x * x * x
    assert x ** -2 == CYC_ONE / (x * x)


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
