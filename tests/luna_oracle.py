"""Plain reference for the slice determinant of ``moduliq.luna``.

``slice_det`` builds the two partial derivatives of
x0^6 x1^6 + t * (sum of direction_i * slice monomial_i) as binary forms with
coefficients in Z[t], and takes the determinant of their Sylvester matrix by
a fraction-free Bareiss elimination over Z[t] itself: polynomial multiply,
subtract and exact divide on coefficient lists.  It shares no substitution,
bound or digit unpacking with the code it checks.

``univariate_resultant`` and ``evaluate`` check the versal sextic
discriminant of ``moduliq.luna`` at points: the resultant of two rational
coefficient lists is the same ``det_unipoly`` of their Sylvester matrix,
with constant entries, and a ``MultiPoly`` is evaluated term by term.
Neither shares the library's Laplace expansion or its int determinant.
"""

import math

from moduliq import qq


def _trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _pmul(p, q):
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def _psub(p, q):
    out = list(p) + [0] * (len(q) - len(p))
    for j, b in enumerate(q):
        out[j] -= b
    return _trim(out)


def _pdiv_exact(p, q):
    """p / q for integer polynomials q | p; ValueError if it is inexact."""
    p = list(p)
    out = [0] * max(len(p) - len(q) + 1, 0)
    while len(p) >= len(q) and p:
        k = len(p) - len(q)
        c, r = divmod(p[-1], q[-1])
        if r:
            raise ValueError("inexact integer division")
        out[k] = c
        for j, b in enumerate(q):
            p[k + j] -= c * b
        p = _trim(p)
    if p:
        raise ValueError("inexact polynomial division")
    return out


def det_unipoly(matrix):
    """Determinant of a square matrix of Z[t] entries (coefficient lists,
    constant term first), as a trimmed coefficient list ([] for zero)."""
    a = [[_trim(x) for x in row] for row in matrix]
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
                num = _psub(_pmul(a[k][k], a[i][j]), _pmul(a[i][k], a[k][j]))
                a[i][j] = _pdiv_exact(num, prev)
            a[i][k] = []
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return det if sign == 1 else [-c for c in det]


def slice_det(monomials, coeff_ints):
    """det(t) of the Sylvester matrix of d/dx0 and d/dx1 of
    x0^6 x1^6 + t * sum_i coeff_ints[i] * x0^a_i x1^b_i, constant term first.
    """
    forms = {(6, 6): [1]}
    for m, c in zip(monomials, coeff_ints, strict=True):
        forms[m] = [0, c]
    # coefficient lists on x0^k x1^(11-k) for k = 11..0
    d0 = [[] for _ in range(12)]
    d1 = [[] for _ in range(12)]
    for (a, b), poly in forms.items():
        if a:
            d0[12 - a] = [a * c for c in poly]
        if b:
            d1[11 - a] = [b * c for c in poly]
    rows = []
    for form in (d0, d1):
        for shift in range(11):
            row = [[] for _ in range(22)]
            row[shift : shift + 12] = form
            rows.append(row)
    return det_unipoly(rows)


def evaluate(poly, point):
    """The value of a MultiPoly at a point of rationals, summed term by term."""
    return sum(
        (qq(c) * math.prod(qq(x) ** k for x, k in zip(point, e)) for e, c in poly.terms.items()),
        qq(0),
    )


def univariate_resultant(p, q):
    """Res(p, q) of two rational coefficient lists, highest degree first:
    det_unipoly of the Sylvester matrix of the lists scaled to integers."""
    p, q = [qq(x) for x in p], [qq(x) for x in q]
    scale_p = math.lcm(*(x.denominator for x in p))
    scale_q = math.lcm(*(x.denominator for x in q))
    m, n = len(p) - 1, len(q) - 1
    rows = []
    for coeffs, scale, shifts in ((p, scale_p, n), (q, scale_q, m)):
        for shift in range(shifts):
            row = [[] for _ in range(m + n)]
            row[shift : shift + len(coeffs)] = [[int(x * scale)] for x in coeffs]
            rows.append(row)
    det = det_unipoly(rows)
    return qq(det[0] if det else 0) / (qq(scale_p) ** n * qq(scale_q) ** m)
