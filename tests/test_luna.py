import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from luna_oracle import evaluate, slice_det, univariate_resultant
from moduliq import qq
from moduliq._rational import as_int, den
from moduliq.luna import (
    SLICE_MONOMIALS,
    _slice_det,
    disc12_vanishing_order,
    sextic_discriminant,
    slice_data,
)


def test_slice_data():
    data = slice_data()
    assert len(data["monomials"]) == 10
    assert data["weight_set"] == [-12, -10, -8, -6, -4, 4, 6, 8, 10, 12]


def test_sextic_discriminant_shape():
    disc = sextic_discriminant()
    assert disc.terms[(0, 0, 0, 0, 5)] == -46656
    degrees = disc.total_degrees()
    assert degrees[0] == 5
    assert all(d >= 6 for d in degrees[1:])
    assert [e for e in disc.terms if sum(e) == 5] == [(0, 0, 0, 0, 5)]
    assert disc.weighted_degrees((2, 3, 4, 5, 6)) == [30]


def test_sextic_specialization_to_ct():
    disc = sextic_discriminant()
    # alpha = beta = gamma = delta = 0 leaves exactly -46656 eps^5
    for eps in (qq(1), qq(-2), qq(3, 7)):
        assert evaluate(disc, (0, 0, 0, 0, eps)) == -46656 * eps**5


def test_sextic_against_univariate_resultant_at_50_points():
    disc = sextic_discriminant()
    rng = random.Random(123)
    for _ in range(50):
        pt = tuple(
            qq(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)
        )
        a, b, c, d, e = pt
        f = [qq(1), qq(0), a, b, c, d, e]
        fp = [qq(6), qq(0), 4 * a, 3 * b, 2 * c, d]
        res = univariate_resultant(f, fp)
        assert evaluate(disc, pt) == -res


def test_disc12_generic_order_is_ten():
    report = disc12_vanishing_order()
    assert report["order"] == 10
    assert report["degree"] <= 22
    assert all(x != 0 for x in report["direction"])


def test_disc12_other_seeds_agree():
    for seed in (1, 77):
        assert disc12_vanishing_order(seed=seed)["order"] == 10


# single epsilon-type coordinate: the form keeps a square factor for all t
ONLY_EPS = tuple(1 if m == (8, 4) else 0 for m in SLICE_MONOMIALS)
BOTH_EPS = tuple(1 if m in ((8, 4), (4, 8)) else 0 for m in SLICE_MONOMIALS)
# one factor fully generic, the other epsilon-only
HALF = tuple(
    1 if m in ((8, 4), (0, 12), (1, 11), (2, 10), (3, 9), (4, 8)) else 0
    for m in SLICE_MONOMIALS
)


def test_disc12_degenerate_directions_never_drop_below_ten():
    assert disc12_vanishing_order(direction=ONLY_EPS)["order"] == math.inf
    assert disc12_vanishing_order(direction=BOTH_EPS)["order"] == math.inf
    assert disc12_vanishing_order(direction=HALF)["order"] >= 10


def _check_against_reference(report):
    """det(t) of the report's direction, scaled to integers, is the oracle's,
    coefficient by coefficient, and the report reads its order and degree."""
    scale = math.lcm(*(den(x) for x in report["direction"]))
    ints = [as_int(x * scale) for x in report["direction"]]
    det = slice_det(SLICE_MONOMIALS, ints)
    assert _slice_det(ints) == det
    if not det:
        assert (report["order"], report["degree"]) == (math.inf, None)
    else:
        order = next(i for i, c in enumerate(det) if c)
        assert (report["order"], report["degree"]) == (order, len(det) - 1)


# entries near 10^20, of both signs: det(t) has coefficients of up to 462 digits
LARGE = tuple((-1) ** i * (10**20 + 7 * i + 1) for i in range(10))


def test_disc12_named_directions_match_the_reference():
    for report in (
        disc12_vanishing_order(),
        disc12_vanishing_order(seed=1),
        disc12_vanishing_order(seed=77),
        *(disc12_vanishing_order(direction=d) for d in (ONLY_EPS, BOTH_EPS, HALF, LARGE)),
    ):
        _check_against_reference(report)


# zero, negative, large and rational direction entries
direction_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
)


@settings(max_examples=25)
@given(st.lists(direction_entries, min_size=10, max_size=10))
def test_disc12_random_directions_match_the_reference(direction):
    _check_against_reference(disc12_vanishing_order(direction=direction))


def test_slice_det_digits_keep_signs_and_zeros():
    # from t^10 up every even power has a negative coefficient, every odd one 0
    direction = (2, -1, 0, 0, 0, 0, 0, 0, 0, -1)
    det = _slice_det(direction)
    assert det == slice_det(SLICE_MONOMIALS, direction)
    assert len(det) == 23 and not any(det[:10]) and not any(det[11::2])
    assert all(c < 0 for c in det[10::2])
    # the zero determinant unpacks to no digits at all
    for zero in ((0,) * 10, ONLY_EPS, BOTH_EPS):
        assert _slice_det(zero) == []
    report = disc12_vanishing_order(direction=(0,) * 10)
    assert (report["order"], report["degree"]) == (math.inf, None)


def test_disc12_direction_needs_ten_entries():
    # one entry per slice monomial: none is dropped or ignored
    for direction in ((1,) * 9, (1,) * 11, ()):
        with pytest.raises(ValueError, match="needs 10 entries"):
            disc12_vanishing_order(direction=direction)


def test_univariate_resultant_values():
    # Res(x^2 - 1, x^2 - 4) = product of (r^2 - 4) over r = +-1
    assert univariate_resultant([1, 0, -1], [1, 0, -4]) == 9
    # Res(x^6 + e, 6 x^5) = 6^6 e^5
    e = qq(5, 3)
    assert univariate_resultant(
        [qq(1), 0, 0, 0, 0, 0, e], [qq(6), 0, 0, 0, 0, 0]
    ) == qq(6) ** 6 * e**5
