"""Truncated formal series in q^(1/N) with coefficients in Q(w).

Every series carries its truncation order; arithmetic propagates the
jointly-known range, so a coefficient beyond the known range raises instead
of silently reading zero.  Exponents are stored as integer keys k meaning
q^(k/N) on a fixed grid N, and coefficients as Python int pairs (x, y)
meaning (x + y w) / d over one common denominator d (Cohen, GTM 138, 4.2),
which the constructor keeps in lowest terms.  Every kernel loops on those
ints with w^2 = -1 - w; ``make`` reads coefficients once, and ``coeff``,
``leading`` and ``__str__`` build a ``CycNum`` on the way out.

Powers, inverses and eta products all come from one recurrence in
``QSeries.pow``: J.C.P. Miller's power formula (Knuth, TAOCP vol. 2, 4.7).
Its denominator rolls: it grows only at a step whose division is not exact.
No kernel computes more than ``TERM_LIMIT`` coefficients, so a precision
that would take hours is refused at once.
"""

import bisect
import math

from ._rational import Frozen, as_int, den, fmt_q, num, qq
from .scalars import CYC_ONE, CYC_ZERO, CycNum, cyc

__all__ = [
    "QSeries", "PrecisionError", "TERM_LIMIT", "eta_power", "delta_series", "inverse_delta",
]

# coefficients one kernel may compute; 1/Delta to q^2000 takes about 1 s
TERM_LIMIT = 2_000


class PrecisionError(ValueError):
    pass


def cutoff(trunc, n_den: int) -> int:
    """The least key k with k/n_den >= trunc: the keys below it are known."""
    return -(-num(trunc) * n_den // den(trunc))


def check_terms(count: int) -> int:
    """count, or ValueError naming TERM_LIMIT when it is larger."""
    if count > TERM_LIMIT:
        raise ValueError(f"{count} terms exceed TERM_LIMIT = {TERM_LIMIT}")
    return count


def _key(term) -> int:
    return term[0]


def _coords(c) -> tuple:
    """(x, y, d) with c = (x + y w) / d, for an int, a rational or a CycNum."""
    if type(c) is int:
        return c, 0, 1
    if isinstance(c, CycNum):
        return c.x, c.y, c.d
    c = qq(c)
    return num(c), 0, den(c)


class QSeries(Frozen):
    # n_den: exponent grid q^(k / n_den); d > 0: common denominator; terms:
    # sorted tuple of (k, x, y) for the coefficient (x + y w) / d, no zero
    # coefficients; trunc: rational, exponents >= trunc are unknown
    _fields = __slots__ = ("n_den", "d", "terms", "trunc")

    def __init__(self, n_den: int, d: int, terms: tuple, trunc):
        # every kernel builds its result here: one gcd puts it in lowest terms
        g = d
        for _, x, y in terms:
            if g == 1:
                break
            g = math.gcd(g, x, y)
        if g != 1:
            d //= g
            terms = tuple((k, x // g, y // g) for k, x, y in terms)
        # and one more puts the exponents on the coarsest grid that holds them
        if n_den != 1:
            g = n_den
            for k, _, _ in terms:
                g = math.gcd(g, k)
                if g == 1:
                    break
            if g != 1:
                n_den //= g
                terms = tuple((k // g, x, y) for k, x, y in terms)
        init = object.__setattr__
        init(self, "n_den", n_den)
        init(self, "d", d)
        init(self, "terms", terms)
        init(self, "trunc", trunc)

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(n_den: int, coeffs: dict, trunc) -> "QSeries":
        trunc = qq(trunc)
        limit = cutoff(trunc, n_den)
        items = sorted(((k, _coords(c)) for k, c in coeffs.items() if k < limit), key=_key)
        d = math.lcm(*(c[2] for _, c in items))
        terms = tuple((k, x * (d // e), y * (d // e)) for k, (x, y, e) in items if x or y)
        return QSeries(n_den, d, terms, trunc)

    @staticmethod
    def zero(trunc, n_den: int = 1) -> "QSeries":
        return QSeries.make(n_den, {}, trunc)

    @staticmethod
    def one(trunc) -> "QSeries":
        return QSeries.make(1, {0: 1}, trunc)

    @staticmethod
    def monomial(coeff, exponent, trunc) -> "QSeries":
        e = qq(exponent)
        return QSeries.make(den(e), {num(e): coeff}, trunc)

    # -- basics ------------------------------------------------------------

    def exponents(self):
        return [qq(k, self.n_den) for k, _, _ in self.terms]

    def leading(self):
        """(exponent, coefficient) of the lowest-order known term, or None."""
        if not self.terms:
            return None
        k, x, y = self.terms[0]
        return qq(k, self.n_den), CycNum.of(x, y, self.d)

    def leading_exponent(self):
        return qq(self.terms[0][0], self.n_den) if self.terms else self.trunc

    def coeff(self, exponent) -> CycNum:
        e = qq(exponent)
        if e >= self.trunc:
            raise PrecisionError(
                f"coefficient at q^{fmt_q(e)} is beyond the truncation {fmt_q(qq(self.trunc))}"
            )
        # e = num/den in lowest terms lies on the grid iff den divides n_den
        if self.n_den % den(e):
            return CYC_ZERO
        k = num(e) * (self.n_den // den(e))
        i = bisect.bisect_left(self.terms, k, key=_key)
        if i < len(self.terms) and self.terms[i][0] == k:
            return CycNum.of(*self.terms[i][1:], self.d)
        return CYC_ZERO

    def _below(self, trunc) -> tuple:
        """The terms with exponent below trunc."""
        return self.terms[: bisect.bisect_left(self.terms, cutoff(trunc, self.n_den), key=_key)]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.monomial(other, 0, self.trunc)
        n = math.lcm(self.n_den, other.n_den)
        d = math.lcm(self.d, other.d)
        trunc = min(self.trunc, other.trunc)
        out = {}
        for series in (self, other):
            f, g = n // series.n_den, d // series.d
            for k, x, y in series._below(trunc):
                k *= f
                p, q = out.get(k, (0, 0))
                out[k] = (p + x * g, q + y * g)
        terms = tuple((k, x, y) for k, (x, y) in sorted(out.items()) if x or y)
        return QSeries(n, d, terms, trunc)

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.n_den, self.d, tuple((k, -x, -y) for k, x, y in self.terms), self.trunc)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "QSeries":
        u, v, e = _coords(c)
        if not (u or v):
            return QSeries.zero(self.trunc, self.n_den)
        # (x + y w)(u + v w) = (xu - yv) + (xv + yu - yv) w
        terms = tuple((k, x * u - y * v, x * v + y * u - y * v) for k, x, y in self.terms)
        return QSeries(self.n_den, self.d * e, terms, self.trunc)

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        n = math.lcm(self.n_den, other.n_den)
        fa, fb = n // self.n_den, n // other.n_den
        trunc = min(self.trunc + other.leading_exponent(), other.trunc + self.leading_exponent())
        limit = cutoff(trunc, n)
        pb = [(kb * fb, xb, yb) for kb, xb, yb in other.terms]
        re, im = {}, {}
        for ka, xa, ya in self.terms:
            ka *= fa
            for kb, xb, yb in pb:
                k = ka + kb
                if k >= limit:
                    break
                # (xa + ya w)(xb + yb w) = (xa xb - ya yb) + (xa yb + ya xb - ya yb) w
                yy = ya * yb
                re[k] = re.get(k, 0) + xa * xb - yy
                im[k] = im.get(k, 0) + xa * yb + ya * xb - yy
        terms = tuple((k, x, im[k]) for k, x in sorted(re.items()) if x or im[k])
        return QSeries(n, self.d * other.d, terms, trunc)

    __rmul__ = __mul__

    def shift(self, exponent) -> "QSeries":
        """Multiply by q^exponent."""
        e = qq(exponent)
        n = math.lcm(self.n_den, den(e))
        f, k0 = n // self.n_den, as_int(e * n)
        terms = tuple((k * f + k0, x, y) for k, x, y in self.terms)
        return QSeries(n, self.d, terms, self.trunc + e)

    def truncate(self, trunc) -> "QSeries":
        trunc = qq(trunc)
        if trunc > self.trunc:
            raise PrecisionError("cannot extend a truncated series")
        return QSeries(self.n_den, self.d, self._below(trunc), trunc)

    def pow(self, m: int) -> "QSeries":
        """self^m for every integer m; m <= 0 needs a nonzero series.

        With self = c q^e V and V = 1 + sum_k v_k q^(k/N), W = V^m follows
        Miller's recurrence W_0 = 1, n W_n = sum_k ((m+1)k - n) v_k W_(n-k),
        over the nonzero v_k only.  c^m q^(me) W keeps the relative precision
        of self, so it is known below trunc + (m-1)e.  pow(0) is one(trunc).
        """
        if not self.terms:
            if m <= 0:
                raise ZeroDivisionError("cannot invert the zero series")
            return QSeries.zero(m * self.trunc, self.n_den)
        if m == 0:
            return QSeries.one(self.trunc)
        k0, x0, y0 = self.terms[0]
        e = qq(k0, self.n_den)
        # v_k = (x + y w) / (x0 + y0 w) = (x + y w)(a + b w) / d with a + b w
        # = (x0 - y0) - y0 w the conjugate of x0 + y0 w and d its norm, so
        # the series' own denominator cancels
        a, b, d = x0 - y0, -y0, x0 * x0 - x0 * y0 + y0 * y0
        v = [(k - k0, (m + 1) * (k - k0), x * a - y * b, x * b + y * a - y * b)
             for k, x, y in self.terms[1:]]
        # W_n = (p_n + q_n w) / big_d with W_0 = 1
        w = [(1, 0)]
        big_d = 1
        for n in range(1, check_terms(cutoff(self.trunc - e, self.n_den))):
            sa = sb = 0
            for k, mk, x, y in v:
                if k > n:
                    break
                p, q = w[n - k]
                t = mk - n
                yq = y * q
                sa += t * (x * p - yq)
                sb += t * (x * q + y * p - yq)
            # W_n = (sa + sb w) / (n d big_d); only the part of n d that does
            # not divide (sa, sb) moves into the rolling denominator
            nd = n * d
            g = math.gcd(nd, sa, sb)
            if g != nd:
                f = nd // g
                big_d *= f
                w = [(p * f, q * f) for p, q in w]
            w.append((sa // g, sb // g))
        cm = CycNum.of(x0, y0, self.d) ** m
        cx, cy = cm.x, cm.y
        terms = tuple(
            (n + m * k0, cx * p - cy * q, cx * q + cy * p - cy * q)
            for n, (p, q) in enumerate(w)
            if p or q
        )
        return QSeries(self.n_den, cm.d * big_d, terms, self.trunc + (m - 1) * e)

    def invert(self) -> "QSeries":
        """Two-sided inverse up to truncation; leading coefficient must be a unit."""
        return self.pow(-1)

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return self * other.invert()
        return self.scale(CYC_ONE / cyc(other))

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k, x, y in self.terms:
            c = CycNum.of(x, y, self.d)
            e = qq(k, self.n_den)
            cs = str(c) if c.is_rational() else f"({c})"
            if e == 0:
                parts.append(cs)
                continue
            if e == 1:
                qs = "q"
            elif den(e) == 1 and e > 0:
                qs = f"q^{fmt_q(e)}"
            else:
                qs = f"q^({fmt_q(e)})"
            parts.append({"1": qs, "-1": f"-{qs}"}.get(cs, f"{cs}*{qs}"))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


def eta_power(m: int, prec) -> QSeries:
    """q^(m/24) * prod_{n>0} (1 - q^n)^m, truncated at prec; the product is
    the m-th power of Euler's pentagonal series sum_{j in Z} (-1)^j q^(j(3j-1)/2).
    """
    if m < 1:
        raise ValueError("eta_power needs m >= 1")
    prec = qq(prec)
    shift = qq(m, 24)
    rel = prec - shift
    if rel <= 0:
        return QSeries.zero(prec, 24 // math.gcd(m, 24))
    check_terms(cutoff(rel, 1))  # before the pentagonal loop, which takes sqrt(rel) steps
    pentagonal = {0: 1}
    j = 1
    while j * (3 * j - 1) // 2 < rel:
        pentagonal[j * (3 * j - 1) // 2] = pentagonal[j * (3 * j + 1) // 2] = (-1) ** j
        j += 1
    return QSeries.make(1, pentagonal, rel).pow(m).shift(shift)


def delta_series(prec) -> QSeries:
    """The weight-12 cusp form q * prod (1-q^n)^24."""
    return eta_power(24, prec)


def inverse_delta(prec) -> QSeries:
    """q^-1 + 24 + 324 q + ..., known below exponent prec."""
    prec = qq(prec)
    return delta_series(prec + 2).invert()
