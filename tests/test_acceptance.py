"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; a pytest failure is the FAIL line for its criterion.
"""

import cmath
import math
import random

from box_oracle import box_norm_counts, norm_ladder
from field_oracle import lift
from numeric_oracle import to_complex
from test_qseries import agree
from moduliq import qq
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
from moduliq.kirwan import (
    betti_complete,
    binary_form_weights,
    correction_extra_bound,
    correction_main,
    equivariant_series_ss,
    invariant_product_cohomology,
    kirwan_blowup_table,
    kirwan_strata,
    toroidal_table,
)
from moduliq.lattices import build_standard, discriminant_group, overlattice
from moduliq.ledger import (
    consistency_report,
    hassett_keel_relations,
    k_equiv_obstruction,
    kirwan_discrepancy,
    kirwan_exceptional_coefficient,
    normal_bundle_bidegree,
    section4_relations,
    solve_unknown,
    top_intersection_T9,
)
from moduliq.luna import disc12_vanishing_order, sextic_discriminant
from moduliq.modforms import (
    eisenstein_level3,
    obstruction_eisenstein,
    theta_series,
    vvmf_dimension_report,
    weil_rep,
)
from moduliq.qseries import QSeries
from moduliq.scalars import CYC_ONE, CycNum, cyc, omega_pow
from moduliq.shortvec import count_coset_vectors, root_data


def _ok(n, text):
    print(f"[criterion {n:2d}] {text}: PASS")


def test_criterion_01_theta_expansions():
    a2, e6, e8 = (build_standard(n) for n in ("A2", "E6", "E8"))
    th_a2 = theta_series(a2, None, qq(7, 2))
    assert th_a2.coeff(1).rational() == 6
    assert th_a2.coeff(2).is_zero()
    assert th_a2.coeff(3).rational() == 6
    assert theta_series(a2, (1,), 1).coeff(qq(1, 3)).rational() == 3
    th_e6 = theta_series(e6, None, qq(5, 2))
    assert th_e6.coeff(1).rational() == 72
    assert th_e6.coeff(2).rational() == 270
    th_e6_1 = theta_series(e6, (1,), 2)
    assert th_e6_1.coeff(qq(2, 3)).rational() == 27
    assert th_e6_1.coeff(qq(5, 3)).rational() == 216
    assert theta_series(e8, None, qq(3, 2)).coeff(1).rational() == 240
    _ok(1, "theta expansions (6, 3, 72, 270, 27, 216, 240)")


def test_criterion_02_short_vector_counts():
    assert count_coset_vectors(build_standard("E8"), None, qq(-2)) == 240
    e6 = build_standard("E6")
    assert (
        count_coset_vectors(e6, (1,), qq(-4, 3))
        + count_coset_vectors(e6, (2,), qq(-4, 3))
        == 54
    )
    a2 = build_standard("A2")
    assert (
        count_coset_vectors(a2, (1,), qq(-2, 3))
        + count_coset_vectors(a2, (2,), qq(-2, 3))
        == 6
    )
    assert root_data(a2)[1] == 3
    assert root_data(e6)[1] == 36
    assert root_data(build_standard("E8"))[1] == 120
    _ok(2, "short-vector counts 240 / 54 / 6 and positive roots (3, 36, 120)")


def test_criterion_03_weil_matrices():
    sym = weil_rep(build_standard("L_dm"), dual=True).symmetrized()
    assert sym.labels == ("00", "0", "4/3", "2/3")
    w, w2 = omega_pow(1), omega_pow(2)
    expected_t = (CYC_ONE, CYC_ONE, w, w2)
    for i in range(4):
        for j in range(4):
            assert sym.mat_t[i][j] == (expected_t[i] if i == j else cyc(0))
    expected_s = (
        (1, 4, 2, 2),
        (1, 1, -1, -1),
        (1, -2, -1, 2),
        (1, -2, 2, -1),
    )
    for i in range(4):
        for j in range(4):
            assert sym.mat_s[i][j] == cyc(qq(expected_s[i][j], 3))
    _ok(3, "symmetrized dual Weil matrices match the printed pair")


def test_criterion_04_dimension_formula():
    rep = weil_rep(build_standard("L_dm"), dual=True).symmetrized()
    report = vvmf_dimension_report(10, rep)
    assert report.total == 4
    assert report.eisenstein == 2
    assert report.cusp == 2
    assert report.alphas == (qq(1), qq(4, 3), qq(1))
    _ok(4, "dimension 4 = 2 + 2 with alpha-invariants (1, 4/3, 1)")


def test_criterion_05_obstruction_eisenstein():
    h = obstruction_eisenstein(2)
    assert h.coeff("00", 0).rational() == qq(-1, 2)
    assert h.coeff("00", 1).rational() == qq(3**10 - 3, 2 * 11 * 61)
    assert h.coeff("0", 1).rational() == qq(2 * 3**10, 11 * 61)
    assert h.coeff("4/3", qq(1, 3)).rational() == qq(3, 11 * 61)
    assert h.coeff("2/3", qq(2, 3)).rational() == qq(3 * 513, 11 * 61)
    _ok(5, "Eisenstein tuple constant -1/2 and leading coefficients")


def test_criterion_06_product_existence():
    for m in range(1, 6):
        combo = HeegnerCombo.make(
            {
                ("00", qq(-2)): m,
                ("4/3", qq(-2, 3)): 27 * m,
                ("2/3", qq(-4, 3)): 3 * m,
            }
        )
        cert = product_existence(combo)
        assert cert.exists and cert.weight == 51 * m
    for entries in (
        {("00", qq(-2)): 1, ("4/3", qq(-2, 3)): 27, ("2/3", qq(-4, 3)): 2},
        {("00", qq(-2)): 1, ("4/3", qq(-2, 3)): 28, ("2/3", qq(-4, 3)): 3},
    ):
        cert = product_existence(HeegnerCombo.make(entries))
        assert not cert.exists
        assert all(v != 0 for _, v in cert.violated_pairings)
    _ok(6, "combos (m, 27m, 3m) certified at weight 51m; violators rejected")


def test_criterion_07_borcherds_lifts():
    w_delta, d_delta = lift_weight_divisor(delta_inverse_form(1))
    assert w_delta == 12 and d_delta.as_dict() == {("00", qq(-2)): qq(1)}
    form_e4 = e4_over_delta_form(1)
    assert form_e4.coeff("00", 0).rational() == 264 == 240 + 24
    w_e4, _ = lift_weight_divisor(form_e4)
    assert w_e4 == 132
    w_ma, d_ma = lift_weight_divisor(ma_input(qq(1)))
    assert w_ma == 51
    assert d_ma.as_dict() == {
        ("00", qq(-2)): qq(1),
        ("4/3", qq(-2, 3)): qq(27),
        ("2/3", qq(-4, 3)): qq(3),
    }
    w_qp, d_qp = quasi_pullback(build_standard("E6+A2"))
    assert w_qp == 51 == 12 + 3 + 36 and d_qp.as_dict() == d_ma.as_dict()
    assert quasi_pullback(build_standard("E8"))[0] == 132 == 12 + 120
    _ok(7, "lift weights 12 / 132 / 51 agree across both routes")


def test_criterion_08_ball_restriction():
    combo = HeegnerCombo.make(
        {("00", qq(-2)): 1, ("4/3", qq(-2, 3)): 27, ("2/3", qq(-4, 3)): 3}
    )
    assert ball_divisor(combo) == {"H_n": qq(3), "H_h": qq(84), "H_vt": qq(9)}
    _ok(8, "ball restriction 3(H_n + 28 H_h + 3 H_vt)")


def test_criterion_09_kirwan_pipeline():
    series = equivariant_series_ss(12, 10)
    assert [series.coeff(2 * k) for k in range(5)] == [1, 1, 2, 2, 3]
    corr = correction_main(10)
    assert [corr.coeff(2 * k) for k in range(5)] == [0, 1, 1, 2, 2]
    slice_weights = [w for w in binary_form_weights(12) if abs(w) >= 4]
    bound = correction_extra_bound(slice_weights, [2, -2, 4, -4, 6, -6, 8, -8, 10, -10])
    assert bound >= 5
    assert kirwan_strata(12).min_double_codim >= 10
    table = betti_complete(series + corr, 9)
    assert table.even() == (1, 2, 3, 4, 5, 5, 4, 3, 2, 1)
    _ok(9, "equivariant series, corrections, bounds, and the completed table")


def test_criterion_10_boundary_and_toroidal():
    assert invariant_product_cohomology(4).even() == (1, 1, 2, 2, 3, 2, 2, 1, 1)
    assert toroidal_table().even() == (1, 2, 3, 4, 5, 5, 4, 3, 2, 1)
    assert toroidal_table() == kirwan_blowup_table()
    _ok(10, "boundary table and toroidal = blow-up coincidence")


def test_criterion_11_ledger():
    assert kirwan_exceptional_coefficient() == 4
    assert solve_unknown(hassett_keel_relations("discriminant")) == qq(-2, 11)
    assert solve_unknown(hassett_keel_relations("pullback")) == 15
    assert normal_bundle_bidegree() == (qq(-1), qq(-1))
    assert kirwan_discrepancy() == qq(2, 3)
    assert top_intersection_T9() == qq(7, 103680)
    report = k_equiv_obstruction()
    assert report.valuation_at_3 == -22 and report.contradiction
    conflict = consistency_report(section4_relations())
    assert not conflict.consistent
    assert len(conflict.conflicts) == 1
    assert conflict.conflicts[0].endswith("(as printed)")
    assert len(conflict.repairs) == 1
    assert conflict.repairs[0][1] == "T" and conflict.repairs[0][3] == -16
    _ok(11, "ledger coefficients, discrepancy 2/3, T^9, valuation -22, single conflict")


def test_criterion_12_luna():
    disc = sextic_discriminant()
    assert [e for e in disc.terms if sum(e) == 5] == [(0, 0, 0, 0, 5)]
    assert disc.terms[(0, 0, 0, 0, 5)] == -46656
    assert all(t >= 6 for t in disc.total_degrees() if t != 5)
    assert disc.weighted_degrees((2, 3, 4, 5, 6)) == [30]
    assert disc12_vanishing_order()["order"] == 10
    _ok(12, "sextic discriminant certificate and vanishing order 10")


def test_criterion_13_documented_misprints():
    """Exact values where circulating printed tables drop cross terms; see
    README, 'Known discrepancies in printed sources'."""
    f = ma_input(qq(2))
    assert f.coeff("4/3", qq(2, 3)).rational() == 864  # printed as 648 elsewhere
    assert f.coeff("0", 1).rational() == 2673  # printed as 729 elsewhere
    h = obstruction_eisenstein(1)
    lead = h.components["2/3"].leading()
    assert lead[0] == qq(2, 3)  # sometimes printed as 3/2
    _ok(13, "misprint regressions: 864, 2673, and exponent 2/3")


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


def test_criterion_14_property_suites():
    # (a) q-series ring laws and inversion on 100 randomized inputs
    rng = random.Random(5151)
    for _ in range(100):
        a, b, c = (_random_series(rng) for _ in range(3))
        assert agree(a * (b + c), a * b + a * c)
        assert agree((a * b) * c, a * (b * c))
        inv_input = _random_series(rng, invertible=True)
        assert agree(inv_input * inv_input.invert(), QSeries.one(qq(10)))
    # (b) brute-force short-vector oracle, rank <= 4 and |norm| <= 6
    for name in ("A2", "A1+A1", "A2+A2"):
        lat = build_standard(name)
        disc = discriminant_group(lat)
        for el in disc.elements():
            norms = norm_ladder(disc.q(el) - 2, -6)
            box = box_norm_counts(lat, el, norms[-1])
            for norm in norms:
                assert count_coset_vectors(lat, el, norm) == box.get(norm, 0)
    # (c) overlattice determinant law on randomized glue
    rng = random.Random(6006)
    checked = 0
    for _ in range(10):
        names = [rng.choice(("A2", "A2(-1)", "U(3)")) for _ in range(2)]
        lat = build_standard("+".join(names))
        disc = discriminant_group(lat)
        isotropic = [
            el for el in disc.elements() if el != disc.zero() and disc.q(el) == 0
        ]
        if not isotropic:
            continue
        glue = [list(lift(disc, rng.choice(isotropic)))]
        bigger = overlattice(lat, glue)
        assert abs(bigger.det()) * 9 == abs(lat.det())
        checked += 1
    assert checked >= 3
    # (d) Eisenstein lattice-sum oracle at tau = 2i, six significant digits
    tau = 2j
    for k in (6, 10):
        c_k = (-2j * cmath.pi) ** k / (3**k * math.factorial(k - 1))
        for label in ((1, 0), (0, 1)):
            series = eisenstein_level3(k, label, 6)
            val = 0j
            for e in series.exponents():
                val += to_complex(series.coeff(e)) * cmath.exp(
                    2j * cmath.pi * tau * int(e.numerator) / int(e.denominator)
                )
            expected = c_k * val
            got = 0j
            box = 120
            for m in range(-box, box + 1):
                if m % 3 != label[0] % 3:
                    continue
                for n in range(-box, box + 1):
                    if n % 3 != label[1] % 3 or (m == 0 and n == 0):
                        continue
                    got += (m * tau + n) ** (-k)
            assert abs(got - expected) <= 1e-6 * max(abs(expected), 1e-12)
    _ok(14, "property suites: series laws, box oracle, glue law, lattice sums")
