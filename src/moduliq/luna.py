"""Luna-slice data for twelve points and the exact discriminant computations.

The versal sextic discriminant is an 11x11 Sylvester resultant with
monomial entries, expanded by a memoized banded Laplace recursion over
integer multivariate polynomials.  The degree-12 restriction is only ever
evaluated along one-parameter lines, where a fraction-free Bareiss
elimination over Z[t] is exact and fast.
"""

import math
from functools import lru_cache

from . import certified
from ._rational import as_int, den, qq

__all__ = [
    "SEXTIC_WEIGHTS",
    "MultiPoly",
    "disc12_vanishing_order",
    "sextic_discriminant",
    "slice_data",
    "univariate_resultant",
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

    def leading(self):
        """(exponent, coefficient) maximal in lex order."""
        e = max(self.terms)
        return e, self.terms[e]

    def evaluate(self, point):
        total = qq(0)
        for e, c in self.terms.items():
            v = qq(c)
            for x, k in zip(point, e):
                if k:
                    v *= qq(x) ** k
            total += v
        return total

    def total_degrees(self):
        return sorted({sum(e) for e in self.terms})

    def weighted_degrees(self, weights):
        return sorted({sum(w * k for w, k in zip(weights, e)) for e in self.terms})

    def __len__(self):
        return len(self.terms)


def _int_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise ValueError("inexact integer division")
    return q


# ---------------------------------------------------------------------------
# determinants for polynomial matrices


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


def det_bareiss_unipoly(matrix):
    """Fraction-free determinant of a matrix of integer coefficient lists.

    Entries are univariate polynomials as lists (index = degree).
    """

    def pmul(p, q):
        out = [0] * (len(p) + len(q) - 1) if p and q else []
        for i, a in enumerate(p):
            if not a:
                continue
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
        while out and not out[-1]:
            out.pop()
        return out

    def psub(p, q):
        out = list(p) + [0] * (len(q) - len(p))
        for j, b in enumerate(q):
            out[j] -= b
        while out and not out[-1]:
            out.pop()
        return out

    def pdiv_exact(p, q):
        # exact division of integer polynomials
        if not q:
            raise ZeroDivisionError
        p = list(p)
        out = [0] * (len(p) - len(q) + 1) if len(p) >= len(q) else []
        while len(p) >= len(q) and p:
            k = len(p) - len(q)
            c = _int_div(p[-1], q[-1])
            out[k] = c
            for j, b in enumerate(q):
                p[k + j] -= c * b
            while p and not p[-1]:
                p.pop()
        if p:
            raise ValueError("inexact polynomial division")
        return out

    def normalize(x):
        x = list(x)
        while x and not x[-1]:
            x.pop()
        return x

    a = [[normalize(x) for x in row] for row in matrix]
    n = len(a)
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return []
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num_ = psub(pmul(a[k][k], a[i][j]), pmul(a[i][k], a[k][j]))
                a[i][j] = pdiv_exact(num_, prev) if prev != [1] else num_
            a[i][k] = []
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else [-c for c in det]


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


def univariate_resultant(p, q):
    """Resultant of two rational coefficient lists (highest degree first).

    Independent of the multivariate path: a Bareiss determinant over Z of
    the scaled Sylvester matrix.
    """
    p = [qq(x) for x in p]
    q = [qq(x) for x in q]
    scale_p = math.lcm(*(den(x) for x in p))
    scale_q = math.lcm(*(den(x) for x in q))
    pi = [as_int(x * scale_p) for x in p]
    qi = [as_int(x * scale_q) for x in q]
    det = det_bareiss_unipoly(_sylvester([[c] for c in pi], [[c] for c in qi], []))
    val = qq(det[0]) if det else qq(0)
    return val / (qq(scale_p) ** (len(q) - 1) * qq(scale_q) ** (len(p) - 1))


# ---------------------------------------------------------------------------
# vanishing order of the degree-12 discriminant along slice lines


def _direction_stream(seed: int):
    state = seed & 0x7FFFFFFF
    while True:
        state = (1103515245 * state + 12345) % (1 << 31)
        yield state % 9 + 1


def disc12_vanishing_order(direction=None, seed=20240801):
    """Order in t of disc of x0^6 x1^6 + t * (combination of slice monomials).

    direction: optional tuple of ten rationals (coefficients on
    SLICE_MONOMIALS); by default a deterministic pseudo-random direction.
    Returns a dict with the order (math.inf for the identically zero
    discriminant), the direction used, and the degree of disc in t.
    """
    if direction is None:
        gen = _direction_stream(seed)
        direction = tuple(next(gen) for _ in SLICE_MONOMIALS)
    direction = tuple(qq(x) for x in direction)
    # scale to integers; rescaling t does not change the vanishing order
    lcm = math.lcm(*(den(x) for x in direction))
    coeff_ints = [as_int(x * lcm) for x in direction]
    # coefficient of x0^a x1^b in f_t, as an integer polynomial in t
    coeffs = {}
    coeffs[(6, 6)] = [1]
    for (aexp, bexp), cint in zip(SLICE_MONOMIALS, coeff_ints):
        coeffs[(aexp, bexp)] = [0, cint]
    # partial derivatives as degree-11 binary forms; coefficient lists on
    # x0^k x1^(11-k) for k = 11..0
    d0 = [[0] for _ in range(12)]
    d1 = [[0] for _ in range(12)]
    for (aexp, bexp), poly in coeffs.items():
        if aexp >= 1:
            k = aexp - 1
            d0[11 - k] = _list_add(d0[11 - k], [aexp * c for c in poly])
        if bexp >= 1:
            k = aexp
            d1[11 - k] = _list_add(d1[11 - k], [bexp * c for c in poly])
    det = det_bareiss_unipoly(_sylvester(d0, d1, []))
    if not det:
        return {"order": math.inf, "direction": direction, "degree": None}
    order = next(i for i, c in enumerate(det) if c)
    return {"order": order, "direction": direction, "degree": len(det) - 1}


def _list_add(p, q):
    out = list(p) + [0] * (len(q) - len(p))
    for j, b in enumerate(q):
        out[j] += b
    while out and not out[-1]:
        out.pop()
    return out
