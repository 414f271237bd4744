import cmath
import math
from fractions import Fraction

import pytest

import series_oracle
import weil_oracle
from field_oracle import translation_law_holds
from numeric_oracle import to_complex

from moduliq import qq
from moduliq.lattices import build_standard
from moduliq.modforms import (
    _alpha_invariant,
    bernoulli,
    eisenstein_level3,
    obstruction_cusp_basis,
    obstruction_eisenstein,
    theta_series,
    vvmf_dimension_report,
    weil_rep,
)
from moduliq.scalars import CYC_ONE, CYC_ZERO, OMEGA, cyc


def test_theta_expansions():
    a2 = build_standard("A2")
    e6 = build_standard("E6")
    e8 = build_standard("E8")
    th = theta_series(a2, None, 4)
    assert [str(e) for e in th.exponents()] == ["0", "1", "3"]
    assert th.coeff(0).rational() == 1
    assert th.coeff(1).rational() == 6
    assert th.coeff(3).rational() == 6
    th1 = theta_series(a2, (1,), 2)
    assert th1.coeff(qq(1, 3)).rational() == 3
    assert th1.coeff(qq(4, 3)).rational() == 3
    th6 = theta_series(e6, None, 3)
    assert th6.coeff(1).rational() == 72
    assert th6.coeff(2).rational() == 270
    th61 = theta_series(e6, (1,), 2)
    assert th61.coeff(qq(2, 3)).rational() == 27
    assert th61.coeff(qq(5, 3)).rational() == 216
    th8 = theta_series(e8, None, 3)
    assert th8.coeff(1).rational() == 240
    assert th8.coeff(2).rational() == 2160


def test_theta_e8_is_weight4_eisenstein():
    # independent oracle: 1 + 240 sum sigma_3(n) q^n
    def sigma3(n):
        return sum(d**3 for d in range(1, n + 1) if n % d == 0)

    th8 = theta_series(build_standard("E8"), None, 4)
    for n in range(1, 4):
        assert th8.coeff(n).rational() == 240 * sigma3(n)


def test_theta_constant_term():
    e6 = build_standard("E6")
    assert theta_series(e6, None, 1).coeff(0).rational() == 1
    theta = theta_series(e6, (1,), 3)
    assert all(theta.coeff(e).rational() >= 0 for e in theta.exponents())
    assert theta_series(e6, (1,), 1).coeff(qq(1, 3)).is_zero()


DUAL_T = [
    [1, 0, 0, 0],
    [0, 1, 0, 0],
    [0, 0, "w", 0],
    [0, 0, 0, "w2"],
]
DUAL_S = [
    [qq(1, 3), qq(4, 3), qq(2, 3), qq(2, 3)],
    [qq(1, 3), qq(1, 3), qq(-1, 3), qq(-1, 3)],
    [qq(1, 3), qq(-2, 3), qq(-1, 3), qq(2, 3)],
    [qq(1, 3), qq(-2, 3), qq(2, 3), qq(-1, 3)],
]


def _as_cyc(x):
    if x == "w":
        return OMEGA
    if x == "w2":
        return OMEGA * OMEGA
    return cyc(x)


def test_dual_weil_matrices_match_published_form():
    sym = weil_rep(build_standard("L_dm"), dual=True).symmetrized()
    assert sym.labels == ("00", "0", "4/3", "2/3")
    for i in range(4):
        for j in range(4):
            assert sym.mat_t[i][j] == _as_cyc(DUAL_T[i][j] if i == j else 0)
            assert sym.mat_s[i][j] == _as_cyc(DUAL_S[i][j])


def test_unimodular_rep_is_trivial():
    rep = weil_oracle.full_weil(build_standard("II_2_26"))
    assert rep.dim == 1
    assert rep.mat_t[0][0] == CYC_ONE
    assert rep.mat_s[0][0] == CYC_ONE


# every exponent-3, square-order lattice the Weil tests name
WEIL_LATTICES = (
    "L_dm", "II_2_18", "II_2_26", "E8", "A2+A2+A2+A2", "U+U(3)+U(3)+E8+E8",
    "E6+E6+A2+A2", "U(3)+U(3)", "U+U(3)+E8+E8+E8",
)


def _assert_sl2_relations(rep):
    """S^4 = 1 and (ST)^3 = S^2."""
    from moduliq._linalg import mat_eq, mat_identity, mat_mul

    s = [list(r) for r in rep.mat_s]
    t = [list(r) for r in rep.mat_t]
    s2 = mat_mul(s, s, CYC_ZERO)
    s4 = mat_mul(s2, s2, CYC_ZERO)
    st = mat_mul(s, t, CYC_ZERO)
    st3 = mat_mul(mat_mul(st, st, CYC_ZERO), st, CYC_ZERO)
    assert mat_eq(s4, mat_identity(rep.dim, CYC_ONE, CYC_ZERO))
    assert mat_eq(st3, s2)


def test_weil_relations():
    for dual in (False, True):
        _assert_sl2_relations(weil_oracle.full_weil(build_standard("L_dm"), dual=dual))
        for name in WEIL_LATTICES:
            _assert_sl2_relations(weil_rep(build_standard(name), dual=dual).symmetrized())


@pytest.mark.parametrize("dual", [False, True])
@pytest.mark.parametrize("name", WEIL_LATTICES)
def test_symmetrized_pair_matches_the_full_representation(name, dual):
    lattice = build_standard(name)
    sym = weil_rep(lattice, dual=dual).symmetrized()
    want = weil_oracle.symmetrized(lattice, dual=dual)
    assert (sym.labels, sym.mat_t, sym.mat_s) == (want.labels, want.mat_t, want.mat_s)


def test_weil_rejects_nonsquare_group():
    with pytest.raises(ValueError):
        weil_rep(build_standard("A2"))


# (total, eisenstein, alphas) of the symmetrized dual rep of L_dm, by weight
L_DM_DIMENSIONS = {
    4: (2, 2, (1, qq(4, 3), 1)),
    6: (3, 2, (1, 1, 1)),
    8: (3, 2, (1, qq(5, 3), 1)),
    10: (4, 2, (1, qq(4, 3), 1)),
    12: (5, 2, (1, 1, 1)),
    14: (5, 2, (1, qq(5, 3), 1)),
}


def test_dimension_formula():
    rep = weil_rep(build_standard("L_dm"), dual=True).symmetrized()
    report = vvmf_dimension_report(10, rep)
    assert report.total == 4
    assert report.eisenstein == 2
    assert report.cusp == 2
    assert report.alphas == (qq(1), qq(4, 3), qq(1))
    assert report.d == 4
    for k, want in L_DM_DIMENSIONS.items():
        report = vvmf_dimension_report(k, rep)
        assert (report.total, report.eisenstein, report.alphas) == want
    with pytest.raises(ValueError):
        vvmf_dimension_report(2, rep)


@pytest.mark.parametrize("k", [6, 10])
def test_dimension_formula_refuses_an_unsymmetrized_rep(k):
    # on C[A_M], S^2 sends e_g to e_-g, so S^2 = 1 holds on 5 of 9 dimensions
    rep = weil_oracle.full_weil(build_standard("L_dm"), dual=True)
    with pytest.raises(ValueError, match=r"5 of 9 .*symmetrized\(\)"):
        vvmf_dimension_report(k, rep)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1], [0, 1]],  # not diagonalisable
        [[0, -1], [1, 0]],  # eigenvalues +-i, outside the sixth roots
    ],
)
def test_alpha_invariant_refuses_matrices_outside_its_scope(rows):
    with pytest.raises(ValueError, match="sixth roots"):
        _alpha_invariant([[cyc(x) for x in row] for row in rows])


def _bernoulli_reference(count):
    """B_0 .. B_(count-1) from sum_(j<=m) C(m+1, j) B_j = 0, on Fractions,
    with B_1 flipped to the +1/2 that ``bernoulli`` returns."""
    b = [Fraction(1)]
    for m in range(1, count):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    b[1] = -b[1]
    return b


def test_bernoulli_numbers():
    assert bernoulli(2) == qq(1, 6)
    assert bernoulli(6) == qq(1, 42)
    assert bernoulli(10) == qq(5, 66)
    assert bernoulli(1) == qq(1, 2)
    for k, expected in enumerate(_bernoulli_reference(31)):
        assert bernoulli(k) == expected, k


def test_eisenstein_level3_expansions():
    e2 = eisenstein_level3(10, (1, 0), qq(4, 3))
    assert e2.coeff(qq(1, 3)).rational() == 1
    assert e2.coeff(qq(2, 3)).rational() == 2**9 + 1
    assert e2.coeff(1).rational() == 3**9
    e1 = eisenstein_level3(10, (0, 1), qq(4, 3))
    assert e1.coeff(0).rational() == qq(-671, 3)
    assert e1.coeff(1).rational() == -1  # (w + w^2)
    f2 = eisenstein_level3(6, (1, 0), qq(4, 3))
    assert f2.coeff(qq(2, 3)).rational() == 2**5 + 1
    assert f2.coeff(1).rational() == 3**5
    f1 = eisenstein_level3(6, (0, 1), 1)
    assert f1.coeff(0).rational() == qq(-13, 9)
    g2 = eisenstein_level3(2, (1, 0), 1)
    assert g2.coeff(qq(1, 3)).rational() == 1
    g1 = eisenstein_level3(2, (0, 1), 1)
    assert g1.coeff(0).rational() == qq(-1, 3)
    with pytest.raises(ValueError):
        eisenstein_level3(10, (0, 0), 1)
    with pytest.raises(ValueError):
        eisenstein_level3(4, (1, 0), 1)


@pytest.mark.parametrize("k", (2, 6, 10))
def test_eisenstein_level3_against_trial_division(k):
    labels = [(a1, a2) for a1 in range(3) for a2 in range(3) if (a1, a2) != (0, 0)]
    for label in labels:
        for prec in (-2, 0, qq(1, 6), qq(1, 3), qq(2, 3), qq(7, 2), 20):
            series = eisenstein_level3(k, label, prec)
            oracle = series_oracle.eisenstein_level3(k, label, prec)
            assert series_oracle.as_dict(series) == oracle, (k, label, prec)
            assert series_oracle.well_formed(series), (k, label, prec)


def _series_value(series, tau):
    total = 0j
    for e in series.exponents():
        total += to_complex(series.coeff(e)) * cmath.exp(
            2j * cmath.pi * tau * int(e.numerator) / int(e.denominator)
        )
    return total


def _lattice_sum(k, label, tau, box):
    a1, a2 = label
    total = 0j
    for m in range(-box, box + 1):
        if m % 3 != a1 % 3:
            continue
        for n in range(-box, box + 1):
            if n % 3 != a2 % 3 or (m == 0 and n == 0):
                continue
            total += (m * tau + n) ** (-k)
    return total


@pytest.mark.parametrize("k", [6, 10])
@pytest.mark.parametrize("label", [(1, 0), (0, 1), (1, 1)])
def test_eisenstein_numeric_lattice_sum_oracle(k, label):
    tau = 2j
    c_k = (-2j * cmath.pi) ** k / (3**k * __import__("math").factorial(k - 1))
    series = eisenstein_level3(k, label, 6)
    expected = c_k * _series_value(series, tau)
    got = _lattice_sum(k, label, tau, 120)
    assert abs(got - expected) <= 1e-6 * max(abs(expected), 1e-12)


def test_obstruction_eisenstein_leading_coefficients():
    h = obstruction_eisenstein(2)
    assert h.coeff("00", 0).rational() == qq(-1, 2)
    assert h.coeff("00", 1).rational() == qq(3**10 - 3, 2 * 11 * 61)
    assert h.coeff("0", 1).rational() == qq(2 * 3**10, 11 * 61)
    assert h.coeff("4/3", qq(1, 3)).rational() == qq(3, 11 * 61)
    assert h.coeff("2/3", qq(2, 3)).rational() == qq(3 * 513, 11 * 61)
    assert translation_law_holds(h, build_standard("L_dm"))


def test_obstruction_cusp_leading_data():
    case_a, case_b = obstruction_cusp_basis(2)
    # tuple A: components 00 and 0 in ratio 1 : -2, leading exponent 2/3 for 2/3
    a00 = case_a.components["00"]
    a0 = case_a.components["0"]
    assert a00.leading()[0] == 1
    assert a0.coeff(1) == a00.coeff(1).__mul__(-2)
    assert case_a.components["2/3"].leading()[0] == qq(2, 3)
    # tuple B: the 4/3 component has no q^(1/3) term
    assert case_b.coeff("4/3", qq(1, 3)).is_zero()
    assert case_b.components["4/3"].leading()[0] == qq(4, 3)
    assert translation_law_holds(case_a, build_standard("L_dm"))
    assert translation_law_holds(case_b, build_standard("L_dm"))


@pytest.mark.parametrize("prec", [0, -1])
def test_obstruction_refuses_a_non_positive_precision(prec):
    # by name, before a coeff(0) read could raise PrecisionError
    for build in (obstruction_eisenstein, obstruction_cusp_basis):
        message = f"^obstruction precision must be positive, got {prec}$"
        with pytest.raises(ValueError, match=message) as excinfo:
            build(prec)
        assert excinfo.type is ValueError


def test_obstruction_tuples_satisfy_s_law_numerically():
    """Functional equation at the fixed point tau = i of the inversion.

    The stored components are type-sums, which are coordinates in the dual
    basis of the summed vectors u_t, so they transform by the transpose of
    the operator matrix: h_s(-1/tau) = tau^10 sum_t S[t][s] h_t(tau).
    Checked to six digits.
    """
    sym = weil_rep(build_standard("L_dm"), dual=True).symmetrized()
    tau = 1j
    eis = obstruction_eisenstein(10)
    case_a, case_b = obstruction_cusp_basis(10)
    smat = [[to_complex(x) for x in row] for row in sym.mat_s]
    for form in (eis, case_a, case_b):
        values = [_series_value(form.components[lbl], tau) for lbl in sym.labels]
        scale = max(max(abs(v) for v in values), 1e-9)
        for i in range(4):
            transformed = (tau**10) * sum(
                smat[j][i] * values[j] for j in range(4)
            )
            assert abs(values[i] - transformed) <= 1e-6 * scale


def test_theta_rejects_coset_of_wrong_length():
    with pytest.raises(ValueError):
        theta_series(build_standard("E6"), (1, 2), 3)


def test_theta_needs_an_even_lattice():
    # the exponents of an odd lattice leave the grid -q/2 + Z
    for name in ("A1(1/2)", "A1(3/2)", "A2(1/2)", "U+A1(1/2)"):
        with pytest.raises(ValueError, match="^theta series needs an even lattice$"):
            theta_series(build_standard(name), None, 2)
