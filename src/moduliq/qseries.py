"""Truncated formal series in q^(1/N) with coefficients in Q(w).

Every series carries its truncation order; arithmetic propagates the
jointly-known range, so a coefficient beyond the known range raises instead
of silently reading zero.  Exponents are stored as integer keys k meaning
q^(k/N) on a fixed grid N.

Powers, inverses and eta products all come from one recurrence in
``QSeries.pow``: J.C.P. Miller's power formula (Knuth, TAOCP vol. 2, 4.7).
"""

import bisect
import math
from dataclasses import dataclass

from ._rational import as_int, den, floor_q, fmt_q, num, qq
from .scalars import CYC_ONE, CYC_ZERO, CycNum, cyc

__all__ = ["QSeries", "PrecisionError", "eta_power", "delta_series", "inverse_delta"]


class PrecisionError(ValueError):
    pass


@dataclass(frozen=True)
class QSeries:
    n_den: int       # exponent grid q^(k / n_den)
    terms: tuple     # sorted tuple of (k, CycNum), no zero coefficients
    trunc: object    # rational; exponents >= trunc are unknown

    # -- construction -----------------------------------------------------

    @staticmethod
    def make(n_den: int, coeffs: dict, trunc) -> "QSeries":
        trunc = qq(trunc)
        limit = -floor_q(-trunc * n_den)  # keys below limit are known
        items = []
        for k, c in coeffs.items():
            c = cyc(c)
            if c.is_zero():
                continue
            if k >= limit:
                continue
            items.append((k, c))
        items.sort(key=lambda kv: kv[0])
        return QSeries(n_den, tuple(items), trunc)

    @staticmethod
    def zero(trunc, n_den: int = 1) -> "QSeries":
        return QSeries.make(n_den, {}, trunc)

    @staticmethod
    def one(trunc) -> "QSeries":
        return QSeries.make(1, {0: CYC_ONE}, trunc)

    @staticmethod
    def monomial(coeff, exponent, trunc) -> "QSeries":
        e = qq(exponent)
        n_den = den(e)
        return QSeries.make(n_den, {num(e): cyc(coeff)}, trunc)

    # -- basics ------------------------------------------------------------

    def exponents(self):
        return [qq(k, self.n_den) for k, _ in self.terms]

    def leading(self):
        """(exponent, coefficient) of the lowest-order known term, or None."""
        if not self.terms:
            return None
        k, c = self.terms[0]
        return qq(k, self.n_den), c

    def leading_exponent(self):
        lead = self.leading()
        return lead[0] if lead is not None else self.trunc

    def coeff(self, exponent) -> CycNum:
        e = qq(exponent)
        if e >= self.trunc:
            raise PrecisionError(
                f"coefficient at q^{fmt_q(e)} is beyond the truncation {fmt_q(qq(self.trunc))}"
            )
        scaled = e * self.n_den
        if den(scaled) != 1:
            return CYC_ZERO
        k = num(scaled)
        i = bisect.bisect_left(self.terms, k, key=lambda kv: kv[0])
        if i < len(self.terms) and self.terms[i][0] == k:
            return self.terms[i][1]
        return CYC_ZERO

    def _regrid(self, n_den: int) -> dict:
        f = n_den // self.n_den
        return {k * f: c for k, c in self.terms}

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.monomial(other, 0, self.trunc)
        n = math.lcm(self.n_den, other.n_den)
        a = self._regrid(n)
        for k, c in other._regrid(n).items():
            a[k] = a.get(k, CYC_ZERO) + c
        return QSeries.make(n, a, min(self.trunc, other.trunc))

    __radd__ = __add__

    def __neg__(self):
        return QSeries(self.n_den, tuple((k, -c) for k, c in self.terms), self.trunc)

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            other = QSeries.monomial(other, 0, self.trunc)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "QSeries":
        c = cyc(c)
        if c.is_zero():
            return QSeries.zero(self.trunc, self.n_den)
        return QSeries(
            self.n_den, tuple((k, c * v) for k, v in self.terms), self.trunc
        )

    def __mul__(self, other):
        if not isinstance(other, QSeries):
            return self.scale(other)
        n = math.lcm(self.n_den, other.n_den)
        fa, fb = n // self.n_den, n // other.n_den
        trunc = min(
            self.trunc + other.leading_exponent(),
            other.trunc + self.leading_exponent(),
        )
        limit = -floor_q(-trunc * n)  # keys below limit are known
        out = {}
        for ka, ca in self.terms:
            for kb, cb in other.terms:
                k = ka * fa + kb * fb
                if k >= limit:
                    break
                out[k] = out.get(k, CYC_ZERO) + ca * cb
        return QSeries.make(n, out, trunc)

    __rmul__ = __mul__

    def shift(self, exponent) -> "QSeries":
        """Multiply by q^exponent."""
        e = qq(exponent)
        n = math.lcm(self.n_den, den(e))
        k0 = as_int(e * n)
        return QSeries(
            n,
            tuple((k * (n // self.n_den) + k0, c) for k, c in self.terms),
            self.trunc + e,
        )

    def truncate(self, trunc) -> "QSeries":
        trunc = qq(trunc)
        if trunc > self.trunc:
            raise PrecisionError("cannot extend a truncated series")
        return QSeries.make(self.n_den, dict(self.terms), trunc)

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
        k0, c = self.terms[0]
        e = qq(k0, self.n_den)
        v = [(k - k0, ck / c) for k, ck in self.terms[1:]]
        w = [CYC_ONE]
        for n in range(1, -floor_q((e - self.trunc) * self.n_den)):  # n/N < trunc - e
            acc = CYC_ZERO
            for k, vk in v:
                if k > n:
                    break
                acc = acc + vk * w[n - k] * ((m + 1) * k - n)
            w.append(acc * qq(1, n))
        cm = c**m
        terms = {n + m * k0: cm * wn for n, wn in enumerate(w)}
        return QSeries.make(self.n_den, terms, self.trunc + (m - 1) * e)

    def invert(self) -> "QSeries":
        """Two-sided inverse up to truncation; leading coefficient must be a unit."""
        return self.pow(-1)

    def __truediv__(self, other):
        if isinstance(other, QSeries):
            return self * other.invert()
        return self.scale(CYC_ONE / cyc(other))

    # -- comparison on jointly-known range ----------------------------------

    def agrees_with(self, other: "QSeries") -> bool:
        bound = min(self.trunc, other.trunc)
        n = math.lcm(self.n_den, other.n_den)
        a = {k: c for k, c in self._regrid(n).items() if qq(k, n) < bound}
        b = {k: c for k, c in other._regrid(n).items() if qq(k, n) < bound}
        return a == b

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k, c in self.terms:
            e = qq(k, self.n_den)
            if c.is_rational():
                cs = fmt_q(c.a)
            else:
                cs = f"({c})"
            if e == 0:
                parts.append(cs)
            else:
                if e == 1:
                    qs = "q"
                elif den(e) == 1 and e > 0:
                    qs = f"q^{fmt_q(e)}"
                else:
                    qs = f"q^({fmt_q(e)})"
                if cs == "1":
                    parts.append(qs)
                elif cs == "-1":
                    parts.append(f"-{qs}")
                else:
                    parts.append(f"{cs}*{qs}")
        rendered = " + ".join(parts).replace("+ -", "- ")
        return rendered

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
