"""Luna-slice data for twelve points and the exact discriminant computations.

The versal sextic discriminant is an 11x11 Sylvester resultant with
monomial entries, expanded by a memoized banded Laplace recursion over
integer multivariate polynomials.  The degree-12 restriction is only ever
evaluated along one-parameter lines t: det(t) is interpolated on ints from
its values at t = 0..22, each an int Bareiss determinant
(``_rational.det_bareiss``).
"""

import math
from functools import lru_cache

from . import certified
from ._rational import as_int, den, det_bareiss, qq

__all__ = [
    "SEXTIC_WEIGHTS",
    "MultiPoly",
    "disc12_vanishing_order",
    "sextic_discriminant",
    "slice_data",
]


class MultiPoly:
    """Multivariate polynomial with integer-or-rational coefficients.

    terms: dict mapping exponent tuples to nonzero coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = c

    @staticmethod
    def const(nvars, c) -> "MultiPoly":
        return MultiPoly(nvars, {(0,) * nvars: c} if c else {})

    @staticmethod
    def var(nvars, i, c=1) -> "MultiPoly":
        e = [0] * nvars
        e[i] = 1
        return MultiPoly(nvars, {tuple(e): c})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.nvars, out)

    def __sub__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            if not other:
                return MultiPoly(self.nvars)
            return MultiPoly(
                self.nvars, {e: c * other for e, c in self.terms.items()}
            )
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def total_degrees(self):
        return sorted({sum(e) for e in self.terms})

    def weighted_degrees(self, weights):
        return sorted({sum(w * k for w, k in zip(weights, e)) for e in self.terms})

    def __len__(self):
        return len(self.terms)


# ---------------------------------------------------------------------------
# determinants


def det_banded_laplace(matrix):
    """Determinant by first-column expansion with memoized row subsets.

    Rows of the (banded) matrix must die out quickly: a branch whose
    available rows include one with no nonzero entries at or beyond the
    current column is pruned to zero.
    """
    n = len(matrix)
    zero = MultiPoly(matrix[0][0].nvars)
    last_col = []
    for row in matrix:
        cols = [j for j, x in enumerate(row) if not x.is_zero()]
        last_col.append(max(cols) if cols else -1)

    memo = {}

    def rec(col, avail):
        if col == n:
            one = MultiPoly(matrix[0][0].nvars, {(0,) * matrix[0][0].nvars: 1})
            return one
        if any(last_col[r] < col for r in avail):
            return zero
        key = (col, avail)
        got = memo.get(key)
        if got is not None:
            return got
        total = zero
        for pos, r in enumerate(avail):
            entry = matrix[r][col]
            if entry.is_zero():
                continue
            sub = rec(col + 1, avail[:pos] + avail[pos + 1 :])
            if sub.is_zero():
                continue
            contrib = entry * sub
            total = total + contrib if pos % 2 == 0 else total - contrib
        memo[key] = total
        return total

    return rec(0, tuple(range(n)))


# ---------------------------------------------------------------------------
# slice data


SLICE_MONOMIALS = (
    (12, 0),
    (0, 12),
    (11, 1),
    (1, 11),
    (10, 2),
    (2, 10),
    (9, 3),
    (3, 9),
    (8, 4),
    (4, 8),
)


def slice_data() -> dict:
    """Monomials and torus weights of the transverse slice at the double
    sixfold point."""
    # diag(s, 1/s): x0^a x1^b picks up s^(a-b)
    weights = {m: m[0] - m[1] for m in SLICE_MONOMIALS}
    return {
        "monomials": SLICE_MONOMIALS,
        "weights": weights,
        "weight_set": sorted(set(weights.values())),
    }


# ---------------------------------------------------------------------------
# the versal sextic discriminant


def _sylvester(f, g, zero):
    """Sylvester matrix of two coefficient lists (highest degree first), with
    ``zero`` off the bands."""
    m, n = len(f) - 1, len(g) - 1
    rows = []
    for coeffs, shifts in ((f, n), (g, m)):
        for i in range(shifts):
            row = [zero] * (m + n)
            row[i : i + len(coeffs)] = coeffs
            rows.append(row)
    return rows


SEXTIC_WEIGHTS = (2, 3, 4, 5, 6)  # of the coefficients a, b, c, d, e


@lru_cache(maxsize=1)
def sextic_discriminant() -> MultiPoly:
    """Discriminant of x^6 + a x^4 + b x^3 + c x^2 + d x + e as -Res(f, f').

    Asserted on construction against the certified values: the unique
    total-degree-5 monomial is e^5 with coefficient -46656, every other
    monomial has total degree >= 6, and the polynomial is isobaric of
    weight 30 for SEXTIC_WEIGHTS.
    """
    nv = 5
    one = MultiPoly.const(nv, 1)
    a, b, c, d, e = (MultiPoly.var(nv, i) for i in range(nv))
    zero = MultiPoly(nv)
    f = [one, zero, a, b, c, d, e]
    # f' = 6x^5 + 4a x^3 + 3b x^2 + 2c x + d
    fp = [
        MultiPoly.const(nv, 6),
        zero,
        MultiPoly.var(nv, 0, 4),
        MultiPoly.var(nv, 1, 3),
        MultiPoly.var(nv, 2, 2),
        MultiPoly.var(nv, 3, 1),
    ]
    res = det_banded_laplace(_sylvester(f, fp, zero))
    disc = -res
    degree5 = [ex for ex in disc.terms if sum(ex) == 5]
    assert degree5 == [(0, 0, 0, 0, 5)], "unexpected degree-5 terms"
    assert disc.terms[(0, 0, 0, 0, 5)] == certified.SEXTIC_EPSILON5
    assert min(disc.total_degrees()) == 5
    assert all(t >= 6 for t in disc.total_degrees() if t != 5)
    isobaric = [certified.SEXTIC_ISOBARIC_WEIGHT]
    assert disc.weighted_degrees(SEXTIC_WEIGHTS) == isobaric, "not isobaric"
    return disc


# ---------------------------------------------------------------------------
# vanishing order of the degree-12 discriminant along slice lines


def _direction_stream(seed: int):
    state = seed & 0x7FFFFFFF
    while True:
        state = (1103515245 * state + 12345) % (1 << 31)
        yield state % 9 + 1


def _slice_det(coeff_ints):
    """Coefficients of det(t), constant term first ([] for det = 0), for the
    Sylvester matrix of d/dx0 and d/dx1 of
    x0^6 x1^6 + t * sum_i coeff_ints[i] * (slice monomial i).

    The 22 rows are linear in t, so deg det <= 22: Newton's forward
    differences of det(0..22), exact on ints, then Horner in that basis.
    """
    values = []
    for t in range(23):
        # partial derivatives as degree-11 binary forms; coefficients on
        # x0^k x1^(11-k) for k = 11..0
        d0, d1 = [0] * 12, [0] * 12
        forms = [((6, 6), 1), *zip(SLICE_MONOMIALS, (t * c for c in coeff_ints))]
        for (aexp, bexp), c in forms:
            if aexp:
                d0[12 - aexp] = aexp * c
            if bexp:
                d1[11 - aexp] = bexp * c
        values.append(det_bareiss(_sylvester(d0, d1, 0)))
    # values[k] becomes the k-th difference over k!, the int coefficient of
    # t(t-1)...(t-k+1)
    for k in range(1, 23):
        for i in range(22, k - 1, -1):
            values[i] = (values[i] - values[i - 1]) // k
    coeffs = []
    for k in range(22, -1, -1):
        # coeffs * (t - k) + values[k]
        coeffs = [x - k * y for x, y in zip([values[k], *coeffs], [*coeffs, 0])]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def disc12_vanishing_order(direction=None, seed=20240801):
    """Order in t of disc of x0^6 x1^6 + t * (combination of slice monomials).

    direction: optional sequence of ten rationals (coefficients on
    SLICE_MONOMIALS); by default a deterministic pseudo-random direction.
    Returns a dict with the order (math.inf for the identically zero
    discriminant), the direction used, and the degree of disc in t.
    """
    if direction is None:
        gen = _direction_stream(seed)
        direction = tuple(next(gen) for _ in SLICE_MONOMIALS)
    direction = tuple(qq(x) for x in direction)
    if len(direction) != len(SLICE_MONOMIALS):
        raise ValueError(
            f"direction needs {len(SLICE_MONOMIALS)} entries, one per slice"
            f" monomial, got {len(direction)}"
        )
    # scale to integers; rescaling t does not change the vanishing order
    lcm = math.lcm(*(den(x) for x in direction))
    det = _slice_det([as_int(x * lcm) for x in direction])
    if not det:
        return {"order": math.inf, "direction": direction, "degree": None}
    order = next(i for i, c in enumerate(det) if c)
    return {"order": order, "direction": direction, "degree": len(det) - 1}
