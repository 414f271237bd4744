import pytest

from field_oracle import translation_law_holds
from moduliq import borcherds, qq
from moduliq.borcherds import (
    HeegnerCombo,
    ball_divisor,
    delta_inverse_form,
    e4_over_delta_form,
    lift_weight_divisor,
    ma_input,
    product_existence,
    quasi_pullback,
)
from moduliq.lattices import build_standard
from moduliq.qseries import QSeries, inverse_delta
from moduliq.modforms import VVForm


def std_combo(m):
    return HeegnerCombo.make(
        {
            ("00", qq(-2)): m,
            ("4/3", qq(-2, 3)): 27 * m,
            ("2/3", qq(-4, 3)): 3 * m,
        }
    )


def test_delta_inverse_lift():
    weight, divisor = lift_weight_divisor(delta_inverse_form(1))
    assert weight == 12
    assert divisor.as_dict() == {("00", qq(-2)): qq(1)}


def test_e4_over_delta_lift():
    form = e4_over_delta_form(1)
    # 264 = 240 roots of E8 + 24 from the inverse of Delta
    assert form.coeff("00", 0).rational() == 264
    weight, divisor = lift_weight_divisor(form)
    assert weight == 132
    assert divisor.as_dict() == {("00", qq(-2)): qq(1)}


def _refusal(call, *args):
    with pytest.raises((ValueError, ZeroDivisionError)) as info:
        call(*args)
    return info.type, str(info.value)


def test_refusal_matches_inverse_delta():
    # the counts around TERM_LIMIT that are refused: building 1/Delta to
    # 2000 terms takes a second
    for prec in [qq(k, 6) for k in range(-30, 31)] + [qq(11995, 6), 2000, 10**6]:
        try:
            inverse_delta(prec)
        except (ValueError, ZeroDivisionError) as exc:
            assert _refusal(borcherds._refuse_inverse_delta, prec) == (type(exc), str(exc))
        else:
            borcherds._refuse_inverse_delta(prec)


def test_walk_limit_refused_before_inverse_delta(monkeypatch):
    def never(prec):
        raise AssertionError("1/Delta built before the walks")

    monkeypatch.setattr(borcherds, "inverse_delta", never)
    for form, terms in ((ma_input, 1_000_003), (e4_over_delta_form, 1_000_002)):
        assert _refusal(form, 1990) == (ValueError, "204090 walk leaves exceed WALK_LIMIT = 200000")
        assert _refusal(form, 10**6) == (ValueError, f"{terms} terms exceed TERM_LIMIT = 2000")
        assert _refusal(form, -5) == (ZeroDivisionError, "cannot invert the zero series")


def test_ma_input_components():
    f = ma_input(qq(2))
    assert f.coeff("00", -1).rational() == 1
    assert f.coeff("00", 0).rational() == 102
    assert f.coeff("0", 0).rational() == 81
    assert f.coeff("4/3", qq(-1, 3)).rational() == 27
    assert f.coeff("2/3", qq(-2, 3)).rational() == 3
    assert f.coeff("2/3", qq(1, 3)).rational() == 75
    assert translation_law_holds(f, build_standard("L_dm"))


def test_ma_input_exact_products_fix_published_misprints():
    """Two second coefficients in circulation drop cross terms: the exact
    products give 864 = 27*24 + 216 and 2673 = 81*24 + 729."""
    f = ma_input(qq(2))
    assert f.coeff("4/3", qq(2, 3)).rational() == 864
    assert f.coeff("0", 1).rational() == 2673


def test_ma_lift():
    weight, divisor = lift_weight_divisor(ma_input(qq(1)))
    assert weight == 51
    assert divisor.as_dict() == {
        ("00", qq(-2)): qq(1),
        ("4/3", qq(-2, 3)): qq(27),
        ("2/3", qq(-4, 3)): qq(3),
    }


def test_lift_rejects_bad_input():
    bad = VVForm({"00": QSeries.make(1, {0: 3}, 2)}, weight=qq(-12), rep="rho")
    with pytest.raises(ValueError):
        lift_weight_divisor(bad)  # odd constant term
    frac = VVForm(
        {"00": QSeries.make(2, {-2: qq(1, 2), 0: 24}, 2)}, weight=qq(-12), rep="rho"
    )
    with pytest.raises(ValueError):
        lift_weight_divisor(frac)  # non-integral principal part


def test_product_existence_family():
    for m in range(1, 6):
        cert = product_existence(std_combo(m))
        assert cert.exists
        assert cert.weight == 51 * m


def test_product_existence_rejections():
    violating = [
        {("00", qq(-2)): 1},
        {("00", qq(-2)): 1, ("4/3", qq(-2, 3)): 27},
        {("00", qq(-2)): 1, ("4/3", qq(-2, 3)): 26, ("2/3", qq(-4, 3)): 3},
        {("00", qq(-2)): 1, ("4/3", qq(-2, 3)): 27, ("2/3", qq(-4, 3)): 4},
    ]
    for entries in violating:
        cert = product_existence(HeegnerCombo.make(entries))
        assert not cert.exists
        assert cert.violated_pairings
        assert all(v != 0 for _, v in cert.violated_pairings)
    # the empty combo is the divisor of a constant
    empty = product_existence(HeegnerCombo.make({}))
    assert empty.exists and empty.weight == 0


def test_weight_identity():
    # (3^10 - 3)/(2*671) * 1 + (3/671) * 27 + (1539/671) * 3 = 51
    total = qq(3**10 - 3, 2 * 671) + qq(3, 671) * 27 + qq(1539, 671) * 3
    assert total == 51


def test_two_routes_agree():
    weight_lift, divisor = lift_weight_divisor(ma_input(qq(1)))
    cert = product_existence(divisor)
    assert cert.exists
    assert cert.weight == weight_lift == 51


def test_quasi_pullback():
    w_e6a2, div_e6a2 = quasi_pullback(build_standard("E6+A2"))
    assert w_e6a2 == 51 == 12 + 3 + 36
    assert div_e6a2.as_dict() == {
        ("00", qq(-2)): qq(1),
        ("4/3", qq(-2, 3)): qq(27),
        ("2/3", qq(-4, 3)): qq(3),
    }
    w_e8, div_e8 = quasi_pullback(build_standard("E8"))
    assert w_e8 == 132 == 12 + 120
    assert div_e8.as_dict() == {("00", qq(-2)): qq(1)}
    w_0, div_0 = quasi_pullback(build_standard("0"))
    assert w_0 == 12
    assert div_0.as_dict() == {("00", qq(-2)): qq(1)}


def test_quasi_pullback_weight_additivity():
    pieces = ["A2", "E6", "E8", "A2+A2"]
    for a in pieces:
        for b in pieces:
            wa = quasi_pullback(build_standard(a))[0]
            wb = quasi_pullback(build_standard(b))[0]
            wab = quasi_pullback(build_standard(f"{a}+{b}"))[0]
            assert wab - 12 == (wa - 12) + (wb - 12)


def test_ball_divisor():
    assert ball_divisor(std_combo(1)) == {
        "H_n": qq(3),
        "H_h": qq(84),
        "H_vt": qq(9),
    }
    only_nodal = HeegnerCombo.make({("00", qq(-2)): 1})
    assert ball_divisor(only_nodal) == {"H_n": qq(3), "H_h": qq(3), "H_vt": qq(0)}
    assert ball_divisor(HeegnerCombo.make({})) == {
        "H_n": qq(0),
        "H_h": qq(0),
        "H_vt": qq(0),
    }
