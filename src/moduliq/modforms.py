"""Theta series, Weil representations, dimension formulas, and the
obstruction space of weight-10 vector-valued forms.

Scope of the Weil machinery: discriminant groups of exponent dividing 3 and
square order, which keeps every matrix entry inside Q(w).  The carried
convention (T diagonal with e^(pi i q), S a scaled character sum) satisfies
S^4 = 1 and (ST)^3 = S^2 exactly; the dual representation is the entrywise
conjugate.  The library holds only the pair on the type classes, read from
the pairing census of ``lattices``; the full |A_M| x |A_M| matrices on
C[A_M] live in the test suite's oracle.

The obstruction space for the rank-20 lattice U+U(3)+E8+E8 is spanned by
one two-parameter Eisenstein family and two cusp forms built from eta
powers times level-3 Eisenstein series; all three live on the four
type-classes of the discriminant group and are returned as exact q-series.
"""

import math
from collections import namedtuple
from functools import lru_cache
from operator import mul

from . import _linalg
from ._rational import Frozen, as_int, den, floor_q, fmt_q, is_integer, mod_q, num, qq
from .lattices import Lattice, discriminant_group, pairing_census
from .qseries import QSeries, check_terms, cutoff, eta_power
from .scalars import CYC_ONE, CYC_ZERO, OMEGA_POWERS, cyc, omega_pow, root_of_unity_6
from .shortvec import _resolve_coset, coset_norm_counts

__all__ = [
    "DimensionReport",
    "MatrixRep",
    "VVForm",
    "WeilRep",
    "TYPE_ORDER",
    "bernoulli",
    "eisenstein_level3",
    "obstruction_cusp_basis",
    "obstruction_eisenstein",
    "theta_series",
    "vvmf_dimension_report",
    "weil_rep",
]

TYPE_ORDER = ("00", "0", "4/3", "2/3")


# ---------------------------------------------------------------------------
# theta series


def theta_series(lattice: Lattice, coset, prec) -> QSeries:
    """Sum of q^(-<x,x>/2) over dual vectors x in the given coset of A_M.

    The exponent convention makes theta of E8 the weight-4 Eisenstein series
    1 + 240q + 2160q^2 + ... and puts the coset components on the exponent
    grid -q(coset)/2 mod 1.
    """
    prec = qq(prec)
    if prec <= 0:
        raise ValueError("theta precision must be positive")
    if not lattice.is_even():
        # the exponent grid -q/2 + Z below holds only for even lattices
        raise ValueError("theta series needs an even lattice")
    disc = discriminant_group(lattice)
    el = _resolve_coset(disc, coset)
    # exponents run over -q/2 + Z, from the least non-negative one e0 to the
    # last one below prec; one enumeration to that norm gives every term
    e0 = mod_q(-disc.q(el) / 2, qq(1))
    last = e0 - floor_q(e0 - prec) - 1
    counts = coset_norm_counts(lattice, el, -2 * last) if last >= 0 else {}
    n_den = den(e0)
    coeffs = {as_int(-norm / 2 * n_den): cnt for norm, cnt in counts.items()}
    return QSeries.make(n_den, coeffs, prec)


# ---------------------------------------------------------------------------
# Weil representation


class MatrixRep(Frozen):
    """A pair of exact matrices for the standard SL2(Z) generators."""

    _fields = __slots__ = ("labels", "mat_t", "mat_s")

    @property
    def dim(self) -> int:
        return len(self.labels)


class WeilRep(Frozen):
    """The (dual) Weil representation of a lattice.  The library holds only
    its pair on the type classes (``symmetrized``); the full |A_M| x |A_M|
    matrices on C[A_M] live in the test suite's oracle."""

    _fields = __slots__ = ("lattice", "dual")

    def symmetrized(self) -> MatrixRep:
        """Restriction to vectors whose coefficients depend only on the type.

        Basis: the summed vectors u_t = sum of e_alpha over alpha of type t,
        ordered by TYPE_ORDER (restricted to the types that occur).  T is
        e(+-q/2) on the class of norm q.  S[s][t], the u_s coefficient of
        S u_t, sums e(-+b(beta, alpha)) / sqrt|A_M| over alpha in t for any
        beta in s, so it is read from the counts of b = 0, 1/3, 2/3 in
        ``pairing_census``.  Upper signs plain, lower signs dual.
        """
        census = pairing_census(self.lattice)
        present = {s for s, _ in census}
        labels = tuple(t for t in TYPE_ORDER if t in present)
        if present - set(labels):
            raise ValueError("unexpected type labels for the symmetrization")
        sign = -1 if self.dual else 1
        t_diag = {}
        for s in labels:
            q = qq(0) if s in ("00", "0") else qq(s)
            t_diag[s] = omega_pow(as_int(sign * 3 * q / 2))  # e(+-q/2), q in {0, 2/3, 4/3}
        mat_t = tuple(tuple(t_diag[s] if s == t else CYC_ZERO for t in labels) for s in labels)
        phases = [omega_pow(-sign * k) for k in range(3)]
        scale = qq(1, math.isqrt(discriminant_group(self.lattice).order))
        mat_s = tuple(
            tuple(sum(map(mul, census[s, t], phases), CYC_ZERO) * scale for t in labels)
            for s in labels
        )
        return MatrixRep(labels, mat_t, mat_s)


@lru_cache(maxsize=None)
def weil_rep(lattice: Lattice, dual: bool = False) -> WeilRep:
    """The (dual) Weil representation of a supported lattice.

    Supported lattices: discriminant group of exponent dividing 3 and square
    order, with (pos - neg)/2 divisible by 4 so the S-matrix scalar is
    rational; this covers the unimodular lattices and U+U(3)+E8+E8.  No
    matrix on all of C[A_M] is built: ``WeilRep.symmetrized`` reads the
    type-class pair from the pairing census, which bounds |A_M| by
    PAIRING_LIMIT, and the full matrices live in the test suite's oracle.
    """
    disc = discriminant_group(lattice)
    root = math.isqrt(disc.order)
    if root * root != disc.order:
        raise ValueError("S-matrix scalar lies outside Q(w) (non-square |A_M|)")
    if any(d != 3 for d in disc.invariant_factors):
        raise ValueError("only exponent-3 discriminant groups are supported")
    pos, neg = lattice.signature()
    if (pos - neg) % 8 != 0:
        raise ValueError("S-matrix scalar lies outside Q(w) for this signature")
    return WeilRep(lattice, dual)


# ---------------------------------------------------------------------------
# dimension formula


def _eigenspace_dim(m, c):
    """dim ker(M - c), exact in Q(w)."""
    shifted = [[x - c if j == i else x for j, x in enumerate(row)] for i, row in enumerate(m)]
    return len(m) - _linalg.rank_field(shifted, CYC_ONE, CYC_ZERO)


def _alpha_invariant(m, sign=1):
    """Sum of t over the eigenvalues e(t), 0 <= t < 1, of M (sign 1) or of
    M^-1 (sign -1), for M diagonalisable with sixth roots of unity as
    eigenvalues.

    The multiplicity of e(j/6) is n - rank(M - e(j/6)), exact in Q(w); those
    multiplicities sum to n exactly when M is such a matrix.  Inverting M
    turns each eigenvalue e(t) into e(-t).
    """
    mults = [_eigenspace_dim(m, root_of_unity_6(j)) for j in range(6)]
    if sum(mults) != len(m):
        raise ValueError("matrix is not diagonalisable with sixth roots of unity as eigenvalues")
    return sum((mult * qq(sign * j % 6, 6) for j, mult in enumerate(mults)), qq(0))


def _scale_matrix(m, scalar):
    return tuple(tuple(scalar * x for x in row) for row in m)


DimensionReport = namedtuple("DimensionReport", "total eisenstein cusp alphas d")


def vvmf_dimension_report(k, rep: MatrixRep) -> DimensionReport:
    """Dimension data for modular forms of weight k > 2 under the given rep.

    total = d + d k/12 - alpha(i^k S) - alpha((e^(k pi i/3) S T)^(-1)) - alpha(T)
    where d counts the (-1)^k eigenspace of S^2 (the representation of -1).
    The alphas are taken on the whole space, so d must be the whole dimension,
    as on every ``WeilRep.symmetrized()``; any other rep is refused.  Then
    i^k S, T (eigenvalues in mu_3) and e^(k pi i/3) S T (with (ST)^3 = S^2)
    have orders dividing 6.  The Eisenstein part is the T-fixed space.
    """
    k = qq(k)
    if k <= 2:
        raise ValueError("dimension formula needs weight > 2")
    if not is_integer(k) or as_int(k) % 2:
        raise ValueError("only even integral weights stay inside Q(w)")
    kk = as_int(k)
    n = rep.dim
    s = [list(r) for r in rep.mat_s]
    d = _eigenspace_dim(_linalg.mat_mul(s, s, CYC_ZERO), CYC_ONE)  # (-1)^k = 1
    if d != n:
        raise ValueError(
            f"S^2 = (-1)^k holds on {d} of {n} dimensions; the dimension formula"
            " needs all of them, as on WeilRep.symmetrized()"
        )
    i_pow_k = cyc((-1) ** (kk // 2 % 2))  # i^k for even k
    a1 = _alpha_invariant(_scale_matrix(s, i_pow_k))
    # e^(k pi i / 3) is a sixth root of unity, exactly representable
    st = _linalg.mat_mul(s, rep.mat_t, CYC_ZERO)
    a2 = _alpha_invariant(_scale_matrix(st, root_of_unity_6(kk)), sign=-1)
    a3 = _alpha_invariant(rep.mat_t)
    total_q = d + qq(d) * k / 12 - a1 - a2 - a3
    assert is_integer(total_q), "dimension formula did not produce an integer"
    total = as_int(total_q)
    eis = _eigenspace_dim(rep.mat_t, CYC_ONE)
    return DimensionReport(total, eis, total - eis, (a1, a2, a3), d)


# ---------------------------------------------------------------------------
# level-3 Eisenstein series


def bernoulli(k: int):
    """Exact Bernoulli number B_k, with B_1 = +1/2 (the Akiyama-Tanigawa
    convention; B_k agrees with the usual numbers for every other k)."""
    # Akiyama-Tanigawa on ints scaled by L = lcm(1..k+1): every entry stays
    # in (1/L)Z, so one rational is built at the end
    scale = math.lcm(*range(1, k + 2))
    b = [0] * (k + 1)
    for m in range(k + 1):
        b[m] = scale // (m + 1)
        for j in range(m, 0, -1):
            b[j - 1] = j * (b[j - 1] - b[j])
    return qq(b[0], scale)


def eisenstein_level3(k: int, label, prec) -> QSeries:
    """Normalized level-3 Eisenstein series for (a1, a2) in (Z/3)^2.

    The series is the lattice sum over (m, n) = (a1, a2) mod 3 of
    (m tau + n)^(-k), divided by c_k = (-2 pi i)^k / (3^k (k-1)!); for
    k = 2 only the holomorphic part is produced.  Coefficient of q^(n/3):
       sum over d | n of d^(k-1) [ w^(a2 d) [n/d = a1]
                                   + (-1)^k w^(-a2 d) [n/d = -a1] ]
    and the constant term for a1 = 0 is -B_k (3^k - 1) / (2k).
    """
    if k not in (2, 6, 10):
        raise ValueError("supported weights: 2, 6, 10")
    a1, a2 = label
    a1 %= 3
    a2 %= 3
    if (a1, a2) == (0, 0):
        raise ValueError("label (0,0) is not supported")
    prec = qq(prec)
    # divisor sieve on int pairs x + y w over d, the denominator of the
    # constant term: each dd adds d dd^(k-1) w^(+-a2 dd) to the n = dd * quot
    # with quot = +-a1 mod 3, stepping 3dd through them; (-1)^k = 1 for even
    # k.  For a1 = 0 both land on n = 3dd, 6dd, ..., so their sum is added once.
    size = check_terms(cutoff(prec, 3))
    pairs = [(w.x, w.y) for w in OMEGA_POWERS]  # w^0, w^1, w^2 with w.d = 1
    d, re, im = 1, [0] * size, [0] * size
    if a1 == 0 and size > 0:
        c0 = -bernoulli(k) * (3**k - 1) / (2 * k)
        d, re[0] = den(c0), num(c0)
    for dd in range(1, size if a1 else -(-size // 3)):
        power, step = d * dd ** (k - 1), 3 * dd
        x, y = pairs[a2 * dd % 3]
        u, v = pairs[-a2 * dd % 3]
        if a1 == 0:
            x, y = x + u, y + v
        x, y = power * x, power * y
        for n in range(dd * (a1 or 3), size, step):
            re[n] += x
            im[n] += y
        if a1:
            u, v = power * u, power * v
            for n in range(dd * (3 - a1), size, step):
                re[n] += u
                im[n] += v
    return QSeries(3, d, tuple((n, re[n], im[n]) for n in range(size) if re[n] or im[n]), prec)


# ---------------------------------------------------------------------------
# vector-valued forms on the type classes


class VVForm(Frozen):
    """Tuple of q-series indexed by type classes of the discriminant group."""

    # components: type label -> QSeries; rep: "rho" (inputs to the product)
    # or "rho*" (obstruction side)
    _fields = __slots__ = ("components", "weight", "rep")

    def __init__(self, components: dict, weight, rep: str):
        super().__init__(components, weight, rep)

    def coeff(self, label: str, exponent):
        return self.components[label].coeff(exponent)


def _obstruction_prec(prec):
    """prec as a rational; ValueError naming it, before any coefficient read,
    when it is not positive."""
    prec = qq(prec)
    if prec <= 0:
        raise ValueError(f"obstruction precision must be positive, got {fmt_q(prec)}")
    return prec


def obstruction_eisenstein(prec) -> VVForm:
    """The weight-10 dual-type Eisenstein tuple with constant terms (-1/2, 0, 0, 0).

    Components on the type classes (00, 0, 4/3, 2/3):
      h_00  = s (E1~ + (E2~ + E3~ + E4~)/3)
      h_0   = s (4/3)(E2~ + E3~ + E4~)
      h_4/3 = s (2/3)(E2~ + w^2 E3~ + w E4~)
      h_2/3 = s (2/3)(E2~ + w E3~ + w^2 E4~)
    with Ei~ the normalized weight-10 level-3 series and s = 3/(2 * 11 * 61 * ...)
    fixed by h_00(infinity) = -1/2.
    """
    prec = _obstruction_prec(prec)
    e1 = eisenstein_level3(10, (0, 1), prec)
    e2 = eisenstein_level3(10, (1, 0), prec)
    e3 = eisenstein_level3(10, (1, 1), prec)
    e4 = eisenstein_level3(10, (1, 2), prec)
    const = e1.coeff(0).rational()  # -671/3
    s = qq(-1, 2) / const
    _, w, w2 = OMEGA_POWERS
    h00 = (e1 + (e2 + e3 + e4).scale(qq(1, 3))).scale(s)
    h0 = (e2 + e3 + e4).scale(s * qq(4, 3))
    h43 = (e2 + e3.scale(w2) + e4.scale(w)).scale(s * qq(2, 3))
    h23 = (e2 + e3.scale(w) + e4.scale(w2)).scale(s * qq(2, 3))
    return VVForm(
        {"00": h00, "0": h0, "4/3": h43, "2/3": h23}, weight=qq(10), rep="rho*"
    )


def obstruction_cusp_basis(prec):
    """The two cusp tuples spanning the cuspidal part of the obstruction space.

    Tuple A is eta^8 times weight-6 level-3 combinations, tuple B is eta^16
    times the holomorphic parts of the weight-2 series; in B the coefficient
    patterns (1, w^k, w^-k) and (3, -1, -1, -1) are exactly the combinations
    that cancel the shared non-analytic part.
    """
    prec = _obstruction_prec(prec)
    _, w, w2 = OMEGA_POWERS

    eta8 = eta_power(8, prec + qq(2, 3))
    f1 = eisenstein_level3(6, (0, 1), prec)
    f2 = eisenstein_level3(6, (1, 0), prec)
    f3 = eisenstein_level3(6, (1, 1), prec)
    f4 = eisenstein_level3(6, (1, 2), prec)
    combo_w = f2 + f3.scale(w) + f4.scale(w2)
    combo_w2 = f2 + f3.scale(w2) + f4.scale(w)
    combo_1 = f1.scale(3) - (f2 + f3 + f4)
    case_a = VVForm(
        {
            "00": (eta8 * combo_w).truncate(prec),
            "0": (eta8 * combo_w).scale(-2).truncate(prec),
            "4/3": (eta8 * combo_1).truncate(prec),
            "2/3": (eta8 * combo_w2).scale(2).truncate(prec),
        },
        weight=qq(10),
        rep="rho*",
    )

    eta16 = eta_power(16, prec + qq(1, 3))
    g1 = eisenstein_level3(2, (0, 1), prec)
    g2 = eisenstein_level3(2, (1, 0), prec)
    g3 = eisenstein_level3(2, (1, 1), prec)
    g4 = eisenstein_level3(2, (1, 2), prec)
    combo_g00 = g2 + g3.scale(w2) + g4.scale(w)
    combo_g43 = g2 + g3.scale(w) + g4.scale(w2)
    combo_g23 = g1.scale(3) - (g2 + g3 + g4)
    # weight-2 non-analytic parts are shared; each combination's coefficient sum
    # (1 + w + w^2, 3 - 1 - 1 - 1) vanishes, so the holomorphic parts alone
    # transform correctly
    case_b = VVForm(
        {
            "00": (eta16 * combo_g00).truncate(prec),
            "0": (eta16 * combo_g00).scale(-2).truncate(prec),
            "4/3": (eta16 * combo_g43).scale(2).truncate(prec),
            "2/3": (eta16 * combo_g23).truncate(prec),
        },
        weight=qq(10),
        rep="rho*",
    )
    return case_a, case_b
