"""Equivariant Poincare series for twelve points on the line, correction
terms, Betti completion by duality, and the toroidal table.

The pipeline: the equivariant series of the semistable locus is the product
of the series of projective space and of the classifying space of SL2,
valid below twice the minimal unstable-stratum codimension; one blow-up
correction term is added; Poincare duality completes the table for the
nine-fold.  The toroidal table combines intersection cohomology of the
minimal compactification with boundary cohomology above the middle degree.

Reference tables for the ordered-points spaces are cited data (Kirwan 1989;
Kirwan-Lee-Weintraub 1987) shipped as fixtures, never recomputed here.
"""

from collections import namedtuple

from ._rational import Frozen

__all__ = [
    "BettiTable",
    "PoincarePoly",
    "REFERENCE_TABLES",
    "betti_complete",
    "binary_form_weights",
    "correction_extra_bound",
    "correction_main",
    "equivariant_series_ss",
    "invariant_product_cohomology",
    "kirwan_blowup_table",
    "kirwan_strata",
    "toroidal_betti",
    "toroidal_table",
]


class PoincarePoly(Frozen):
    """Polynomial in t with non-negative integer coefficients, possibly truncated."""

    # coeffs: coefficient of t^i at index i; truncation: degree bound (exclusive) or None
    _fields = __slots__ = ("coeffs", "truncation")

    @staticmethod
    def make(coeffs, truncation=None) -> "PoincarePoly":
        coeffs = list(coeffs)
        if truncation is not None:
            coeffs = coeffs[:truncation]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if any(c < 0 for c in coeffs):
            raise ValueError("negative Poincare coefficient")
        return PoincarePoly(tuple(coeffs), truncation)

    def coeff(self, i: int) -> int:
        if self.truncation is not None and i >= self.truncation:
            raise ValueError(f"coefficient of t^{i} is beyond the truncation")
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __add__(self, other: "PoincarePoly") -> "PoincarePoly":
        trunc = _min_trunc(self.truncation, other.truncation)
        n = max(len(self.coeffs), len(other.coeffs))
        coeffs = [
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        ]
        return PoincarePoly.make(coeffs, trunc)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                term = f"t^{i}" if i > 1 else "t"
                parts.append(term if c == 1 else f"{c}*{term}")
        return " + ".join(parts)


def _min_trunc(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def _geometric(step: int, cutoff: int):
    """Truncation of 1/(1 - t^step) below the cutoff degree."""
    coeffs = [0] * cutoff
    for i in range(0, cutoff, step):
        coeffs[i] = 1
    return PoincarePoly.make(coeffs, cutoff)


def _product(a: PoincarePoly, b: PoincarePoly, cutoff: int) -> PoincarePoly:
    coeffs = [0] * cutoff
    for i, ca in enumerate(a.coeffs):
        if not ca:
            continue
        for j, cb in enumerate(b.coeffs):
            if i + j >= cutoff:
                break
            coeffs[i + j] += ca * cb
    return PoincarePoly.make(coeffs, cutoff)


class BettiTable(Frozen):
    """Betti numbers for degrees 0..2n; odd entries vanish throughout."""

    _fields = __slots__ = ("dims",)

    @staticmethod
    def from_even(values) -> "BettiTable":
        dims = []
        for v in values:
            dims.append(v)
            dims.append(0)
        dims.pop()
        return BettiTable(tuple(dims))

    def even(self) -> tuple:
        return self.dims[::2]

    def dim(self, j: int) -> int:
        return self.dims[j] if 0 <= j < len(self.dims) else 0

    def satisfies_duality(self) -> bool:
        top = len(self.dims) - 1
        return all(self.dims[j] == self.dims[top - j] for j in range(len(self.dims)))

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.even()) + ")"


# ---------------------------------------------------------------------------
# weights and strata


def binary_form_weights(d: int):
    """Torus weights on binary forms of degree d: d - 2i for 0 <= i <= d."""
    if d < 1:
        raise ValueError("degree must be positive")
    return [d - 2 * i for i in range(d + 1)]


# indexing_set: closest points beta >= 0; codims: (beta, d(beta)) for beta > 0;
# min_double_codim: min over nonzero beta of 2 d(beta)
StrataReport = namedtuple("StrataReport", "indexing_set codims min_double_codim")


def kirwan_strata(d: int) -> StrataReport:
    """Unstable-stratum data for degree-d binary forms (d even).

    In the one-dimensional Lie algebra the closest-point set consists of 0
    and the positive weight values; the codimension of the beta-stratum is
    the number of weights below beta minus one (for the flag variety of the
    destabilizing parabolic).
    """
    if d % 2:
        raise ValueError("strictly semistable case needs even degree")
    weights = binary_form_weights(d)
    betas = sorted({abs(w) for w in weights})
    codims = []
    for beta in betas:
        if beta == 0:
            continue
        codims.append((beta, sum(1 for w in weights if w < beta) - 1))
    min_double = min(2 * c for _, c in codims)
    return StrataReport(tuple(betas), tuple(codims), min_double)


def equivariant_series_ss(d: int, cutoff: int) -> PoincarePoly:
    """P_t(P^d) * P_t(B SL2) truncated below the cutoff.

    Valid only below twice the minimal unstable codimension, which is
    checked against the strata report.
    """
    if cutoff > kirwan_strata(d).min_double_codim:
        raise ValueError("cutoff exceeds the validity bound of the stratification")
    proj = PoincarePoly.make(
        [1 if (i % 2 == 0 and i <= 2 * d) else 0 for i in range(cutoff)], cutoff
    )
    bsl2 = _geometric(4, cutoff)
    return _product(proj, bsl2, cutoff)


def correction_main(cutoff: int) -> PoincarePoly:
    """Blow-up main term (1 - t^4)^(-1) (t^2 + t^4 + t^6 + t^8), truncated."""
    if cutoff > 10:
        raise ValueError("main correction term is only valid below t^10")
    num = PoincarePoly.make(
        [1 if i in (2, 4, 6, 8) else 0 for i in range(max(cutoff, 9))], cutoff
    )
    return _product(num, _geometric(4, cutoff), cutoff)


def correction_extra_bound(slice_weights, closest_points) -> int:
    """min over positive beta' of n(beta') = #{w in slice_weights : w < beta'}.

    Certifies that the extra blow-up term vanishes below t^(2 min).
    """
    positives = sorted({abs(b) for b in closest_points if b != 0})
    if not positives:
        raise ValueError("no nonzero closest points given")
    return min(
        sum(1 for w in slice_weights if w < beta) for beta in positives
    )


# ---------------------------------------------------------------------------
# Betti tables


def betti_complete(poly: PoincarePoly, complex_dim: int) -> BettiTable:
    """Fill a truncated even Poincare polynomial to a full table by duality."""
    top = 2 * complex_dim
    middle = complex_dim if complex_dim % 2 == 0 else complex_dim - 1
    if poly.truncation is not None and poly.truncation <= middle:
        raise ValueError("truncation does not reach the middle degree")
    dims = [0] * (top + 1)
    for j in range(0, complex_dim + 1):
        if j % 2 == 0:
            dims[j] = poly.coeff(j) if (
                poly.truncation is None or j < poly.truncation
            ) else 0
    for j in range(complex_dim + 1, top + 1):
        dims[j] = dims[top - j]
    table = BettiTable(tuple(dims))
    assert table.satisfies_duality()
    return table


def invariant_product_cohomology(d: int) -> BettiTable:
    """Betti table of (P^d x P^d)/swap: dims in degree 2k count pairs
    0 <= i <= j <= d with i + j = k."""
    if d < 0:
        raise ValueError("d must be non-negative")
    values = []
    for k in range(2 * d + 1):
        values.append(
            sum(1 for i in range(d + 1) for j in range(i, d + 1) if i + j == k)
        )
    return BettiTable.from_even(values)


def toroidal_betti(ih_bb: BettiTable, boundary: BettiTable) -> BettiTable:
    """Combine IH of the minimal compactification with boundary cohomology.

    For a nine-fold with one cusp: above the middle degree the toroidal
    Betti number is IH plus the boundary contribution; below the middle it
    is filled by duality; the odd middle degree vanishes.
    """
    n = 9
    top = 2 * n
    if len(ih_bb.dims) != top + 1:
        raise ValueError("intersection cohomology table must cover degrees 0..18")
    if len(boundary.dims) != 2 * 8 + 1:
        raise ValueError("boundary table must be that of an eight-fold")
    dims = [0] * (top + 1)
    for j in range(n + 1, top + 1):
        dims[j] = ih_bb.dim(j) + boundary.dim(j)
    for j in range(0, n):
        dims[j] = dims[top - j]
    table = BettiTable(tuple(dims))
    assert table.satisfies_duality()
    return table


# ---------------------------------------------------------------------------
# assembled tables and cited fixtures

REFERENCE_TABLES = {
    # Kirwan-Lee-Weintraub (1987), Table III: intersection cohomology of the
    # ordered GIT quotient of twelve points.
    "IH_ordered_GIT": BettiTable.from_even(
        (1, 12, 67, 232, 562, 562, 232, 67, 12, 1)
    ),
    # Kirwan (1989), table p. 40: the ordered Kirwan blow-up.
    "H_ordered_K": BettiTable.from_even(
        (1, 474, 991, 1618, 2410, 2410, 1618, 991, 474, 1)
    ),
    # Kirwan (1989): intersection cohomology of the unordered GIT quotient,
    # equal to that of the minimal compactification of the nine-ball quotient.
    "IH_BB": BettiTable.from_even((1, 1, 2, 2, 3, 3, 2, 2, 1, 1)),
}

REFERENCE_CITATIONS = {
    "IH_ordered_GIT": "Kirwan-Lee-Weintraub 1987, Table III",
    "H_ordered_K": "Kirwan 1989, table p. 40",
    "IH_BB": "Kirwan 1989 (unordered case)",
}


def kirwan_blowup_table() -> BettiTable:
    """Betti table of the blow-up of the unordered GIT quotient at its cusp."""
    series = equivariant_series_ss(12, 10) + correction_main(10)
    return betti_complete(series, 9)


def toroidal_table() -> BettiTable:
    """Betti table of the unique toroidal compactification of the nine-ball
    quotient, from cited intersection cohomology plus the computed boundary."""
    return toroidal_betti(REFERENCE_TABLES["IH_BB"], invariant_product_cohomology(4))
