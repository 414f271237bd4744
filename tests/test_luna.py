import math
import random

from moduliq import qq
from moduliq.luna import (
    SLICE_MONOMIALS,
    disc12_vanishing_order,
    sextic_discriminant,
    slice_data,
    univariate_resultant,
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
        assert disc.evaluate((0, 0, 0, 0, eps)) == -46656 * eps**5


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
        assert disc.evaluate(pt) == -res


def test_disc12_generic_order_is_ten():
    report = disc12_vanishing_order()
    assert report["order"] == 10
    assert report["degree"] <= 22
    assert all(x != 0 for x in report["direction"])


def test_disc12_other_seeds_agree():
    for seed in (1, 77):
        assert disc12_vanishing_order(seed=seed)["order"] == 10


def test_disc12_degenerate_directions_never_drop_below_ten():
    # single epsilon-type coordinate: the form keeps a square factor for all t
    only_eps = tuple(1 if m == (8, 4) else 0 for m in SLICE_MONOMIALS)
    assert disc12_vanishing_order(direction=only_eps)["order"] == math.inf
    both_eps = tuple(1 if m in ((8, 4), (4, 8)) else 0 for m in SLICE_MONOMIALS)
    assert disc12_vanishing_order(direction=both_eps)["order"] == math.inf
    # one factor fully generic, the other epsilon-only: still at least ten
    half = tuple(
        1 if m in ((8, 4), (0, 12), (1, 11), (2, 10), (3, 9), (4, 8)) else 0
        for m in SLICE_MONOMIALS
    )
    assert disc12_vanishing_order(direction=half)["order"] >= 10


def test_univariate_resultant_values():
    # Res(x^2 - 1, x^2 - 4) = product of (r^2 - 4) over r = +-1
    assert univariate_resultant([1, 0, -1], [1, 0, -4]) == 9
    # Res(x^6 + e, 6 x^5) = 6^6 e^5
    e = qq(5, 3)
    assert univariate_resultant(
        [qq(1), 0, 0, 0, 0, 0, e], [qq(6), 0, 0, 0, 0, 0]
    ) == qq(6) ** 6 * e**5
