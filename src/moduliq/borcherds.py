"""Borcherds lifts: weights, divisors, existence certificates, quasi-pullback.

Divisor bookkeeping runs over {a, -a} orbits of the discriminant group with
divisors labeled by vector norm (twice the q-exponent of the corresponding
principal-part coefficient).  With that convention the 1/2 in the lift's
divisor formula is absorbed by pairing a with -a, and self-paired classes
carry the raw coefficient.
"""

from collections import namedtuple
from functools import lru_cache

from ._rational import Frozen, as_int, fmt_q, is_integer, mod_q, qq
from .lattices import Lattice, build_standard, discriminant_group
from .modforms import VVForm, obstruction_cusp_basis, obstruction_eisenstein, theta_series
from .qseries import check_terms, cutoff, inverse_delta
from .shortvec import count_coset_vectors, root_data

__all__ = [
    "HeegnerCombo",
    "ProductCertificate",
    "ball_divisor",
    "delta_inverse_form",
    "e4_over_delta_form",
    "lift_weight_divisor",
    "ma_input",
    "product_existence",
    "quasi_pullback",
]


class HeegnerCombo(Frozen):
    """Map (type label, norm) -> rational multiplicity, norms negative."""

    _fields = __slots__ = ("entries",)  # sorted tuple of ((label, norm), multiplicity)

    @staticmethod
    def make(entries: dict) -> "HeegnerCombo":
        items = []
        for (label, norm), mult in entries.items():
            mult = qq(mult)
            if mult == 0:
                continue
            items.append(((label, qq(norm)), mult))
        items.sort(key=lambda kv: (kv[0][0], kv[0][1]))
        return HeegnerCombo(tuple(items))

    def as_dict(self) -> dict:
        return dict(self.entries)

    def __str__(self):
        if not self.entries:
            return "0"
        return " + ".join(
            f"{fmt_q(m)}*D[{label}, {fmt_q(n)}]" for (label, n), m in self.entries
        )


# weight: rational when exists, else None; violated_pairings: ((cusp form id,
# nonzero rational), ...)
ProductCertificate = namedtuple("ProductCertificate", "exists weight violated_pairings")


# ---------------------------------------------------------------------------
# lifts


def lift_weight_divisor(form: VVForm):
    """Weight c_00(0)/2 and the orbit divisor of the lift of a weakly
    holomorphic input; principal-part coefficients must be integers and
    c_00(0) even."""
    c0 = form.coeff("00", 0)
    if not (c0.is_rational() and is_integer(c0.rational())):
        raise ValueError("constant term of the 00-component must be an integer")
    c0 = as_int(c0.rational())
    if c0 % 2:
        raise ValueError("constant term of the 00-component must be even")
    entries = {}
    for label, series in form.components.items():
        for e in series.exponents():
            if e >= 0:
                break
            c = series.coeff(e)
            if not (c.is_rational() and is_integer(c.rational())):
                raise ValueError("principal part must have integer coefficients")
            entries[(label, 2 * e)] = qq(c.rational())
    return qq(c0, 2), HeegnerCombo.make(entries)


def delta_inverse_form(prec) -> VVForm:
    """1/Delta as the scalar-valued input on a unimodular lattice."""
    return VVForm({"00": inverse_delta(prec)}, weight=qq(-12), rep="rho")


def _refuse_inverse_delta(prec):
    """Raise what inverse_delta(prec) would raise, without building it: the
    TERM_LIMIT error on its cutoff(prec + 1) coefficients, or the zero series
    that Delta is when that count is not positive."""
    if check_terms(cutoff(prec + 1, 1)) <= 0:
        raise ZeroDivisionError("cannot invert the zero series")


def e4_over_delta_form(prec) -> VVForm:
    """theta_E8 / Delta = E4/Delta on a unimodular lattice of signature (2,18)."""
    prec = qq(prec)
    _refuse_inverse_delta(prec + 1)  # before the walk, which has its own limit
    theta = theta_series(build_standard("E8"), None, prec + 2)
    return VVForm(
        {"00": (theta * inverse_delta(prec + 1)).truncate(prec)},
        weight=qq(-8),
        rep="rho",
    )


def ma_input(prec) -> VVForm:
    """The weakly holomorphic tuple theta * theta / Delta on U+U(3)+E8+E8.

    Components on the type classes:
      00:  theta_A2 * theta_E6 / Delta
      0:   theta_{E6+[1]} * theta_{A2+[1]} / Delta
      4/3: theta_{E6+[1]} / Delta
      2/3: theta_{A2+[1]} / Delta
    """
    prec = qq(prec)
    a2 = build_standard("A2")
    e6 = build_standard("E6")
    margin = prec + 2
    _refuse_inverse_delta(margin)  # before the walks, which have their own limit
    th_a2 = theta_series(a2, None, margin)
    th_a2_1 = theta_series(a2, (1,), margin)
    th_e6 = theta_series(e6, None, margin)
    th_e6_1 = theta_series(e6, (1,), margin)
    inv_d = inverse_delta(margin)
    comps = {
        "00": (th_a2 * th_e6 * inv_d).truncate(prec),
        "0": (th_e6_1 * th_a2_1 * inv_d).truncate(prec),
        "4/3": (th_e6_1 * inv_d).truncate(prec),
        "2/3": (th_a2_1 * inv_d).truncate(prec),
    }
    return VVForm(comps, weight=qq(-8), rep="rho")


# ---------------------------------------------------------------------------
# existence certificates via the obstruction pairing


def _pairing(form: VVForm, combo: HeegnerCombo):
    total = qq(0)
    for (label, norm), mult in combo.entries:
        c = form.coeff(label, -norm / 2)
        total += c.rational() * mult
    return total


@lru_cache(maxsize=None)
def _obstruction_tuples(prec):
    eis = obstruction_eisenstein(prec)
    case_a, case_b = obstruction_cusp_basis(prec)
    return eis, case_a, case_b


def product_existence(combo: HeegnerCombo, prec=None) -> ProductCertificate:
    """Certificate that the combo is the divisor of a meromorphic form.

    The combo is paired against the two cusp tuples; existence needs both
    pairings to vanish, in which case the weight is the pairing against the
    Eisenstein tuple normalized by constant term -1/2.
    """
    if prec is None:
        deepest = max(
            (-norm / 2 for (_, norm), _ in combo.entries), default=qq(1)
        )
        prec = deepest + 1
    eis, case_a, case_b = _obstruction_tuples(qq(prec))
    violations = []
    for name, cusp in (("cusp-eta8-weight6", case_a), ("cusp-eta16-weight2", case_b)):
        val = _pairing(cusp, combo)
        if val != 0:
            violations.append((name, val))
    if violations:
        return ProductCertificate(False, None, tuple(violations))
    return ProductCertificate(True, _pairing(eis, combo), ())


# ---------------------------------------------------------------------------
# quasi-pullback


def quasi_pullback(r: Lattice):
    """Weight and divisor multiplicities of the quasi-pullback of the
    weight-12 form on the 26-dimensional domain across a negative definite R.

    weight = 12 + (number of positive roots of R); each nonzero coset orbit
    of A_R with representative norm n' in (-2, 0) contributes the complementary
    divisor class of norm -2 - n' with multiplicity equal to the number of
    R*-vectors in that single coset of norm n' (half the count over the
    +/- pair).
    """
    weight = qq(12) + root_data(r)[1]
    entries = {("00", qq(-2)): qq(1)}
    if r.rank:
        disc = discriminant_group(r)
        for rep in disc.orbit_representatives():
            if rep == disc.zero():
                continue
            qv = disc.q(rep)  # in [0, 2)
            if qv == 0:
                # isotropic classes pair with norm-0 vectors: no divisor
                continue
            norm_class = qv - 2  # representative in (-2, 0)
            count = count_coset_vectors(r, rep, norm_class)
            if count == 0:
                continue
            ell_norm = qq(-2) - norm_class
            label = fmt_q(mod_q(ell_norm, qq(2)))
            key = (label, ell_norm)
            entries[key] = entries.get(key, qq(0)) + count
    return weight, HeegnerCombo.make(entries)


# ---------------------------------------------------------------------------
# restriction to the 9-ball


def ball_divisor(combo: HeegnerCombo) -> dict:
    """Restrict a divisor on the type IV domain of U+U(3)+E8+E8 to the ball.

    All multiplicities triple; the norm -2 class splits into the nodal and
    hyperelliptic pieces H_n + H_h, the norm -2/3 class lands on H_h, and
    the norm -4/3 class on H_vt.
    """
    by_norm = {}
    for (label, norm), mult in combo.entries:
        by_norm[norm] = by_norm.get(norm, qq(0)) + mult
    unknown = set(by_norm) - {qq(-2), qq(-2, 3), qq(-4, 3)}
    if unknown:
        raise ValueError(f"no ball restriction rule for norms {sorted(unknown)}")
    m2 = by_norm.get(qq(-2), qq(0))
    m23 = by_norm.get(qq(-2, 3), qq(0))
    m43 = by_norm.get(qq(-4, 3), qq(0))
    return {
        "H_n": 3 * m2,
        "H_h": 3 * (m2 + m23),
        "H_vt": 3 * m43,
    }
