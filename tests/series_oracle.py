"""Plain Q(w) oracles for the q-series kernels, shared by the test modules.

A series here is a dict {rational exponent: Cyc} known below a rational
truncation.  Everything is computed with the plain reference ``Cyc`` of
``cyc_oracle`` in double loops, on no exponent grid, and shares nothing with
the int-pair kernels of ``moduliq.qseries`` and ``moduliq.modforms`` or with
``moduliq.scalars.CycNum``: no common denominator, no rolling denominator,
no divisor sieve.
"""

import math

from cyc_oracle import OMEGA, ONE, ZERO, ref
from moduliq import qq

BERNOULLI = {2: qq(1, 6), 6: qq(1, 42), 10: qq(5, 66)}


def as_dict(series):
    """(exponent dict of Cyc coefficients, trunc) of a QSeries."""
    return {e: ref(series.coeff(e)) for e in series.exponents()}, series.trunc


def grid(coeffs):
    """The least N that puts every exponent of coeffs on the grid q^(1/N)."""
    return math.lcm(*(e.denominator for e in coeffs))


def well_formed(s):
    """True when a QSeries keeps its invariants: keys strictly increase, no
    coefficient (x + y w) / d is zero, every key k lies below the truncation
    (k / n_den < trunc, which is k < cutoff(trunc, n_den) for an int k), the
    grid n_den is the coarsest that holds the keys (coprime to them all, so 1
    for the zero series), and the common denominator d is positive and
    coprime to the coordinates."""
    keys = [k for k, _, _ in s.terms]
    return (
        all(a < b for a, b in zip(keys, keys[1:]))
        and math.gcd(s.n_den, *keys) == 1
        and not any(x == 0 and y == 0 for _, x, y in s.terms)
        and all(qq(k, s.n_den) < s.trunc for k in keys)
        and s.d > 0
        and math.gcd(s.d, *(v for _, x, y in s.terms for v in (x, y))) == 1
    )


def _nonzero(coeffs):
    return {e: c for e, c in coeffs.items() if not c.is_zero()}


def scale(a, ta, c):
    """c times each coefficient of a."""
    c = ref(c)
    return _nonzero({e: c * x for e, x in a.items()}), ta


def add(a, ta, b, tb):
    """a + b, known below min(ta, tb)."""
    trunc = min(ta, tb)
    out = {}
    for e, x in [*a.items(), *b.items()]:
        if e < trunc:
            out[e] = out.get(e, ZERO) + x
    return _nonzero(out), trunc


def truncate(a, ta, trunc):
    """a known below trunc <= ta."""
    assert trunc <= ta
    return {e: x for e, x in a.items() if e < trunc}, trunc


def coeff(a, ta, e):
    """The coefficient at q^e, or None at or beyond the truncation ta."""
    return a.get(e, ZERO) if e < ta else None


def mul(a, ta, b, tb):
    """Product of a (known below ta) and b (known below tb), with the
    truncation min(ta + lead(b), tb + lead(a)); an empty series leads at
    its truncation."""
    trunc = min(ta + min(b, default=tb), tb + min(a, default=ta))
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            if ea + eb < trunc:
                out[ea + eb] = out.get(ea + eb, ZERO) + ca * cb
    return _nonzero(out), trunc


def inverse(a, ta, n_den):
    """1/a for a nonzero series on the grid q^(1/n_den), by back-substitution:
    with a = c q^e (1 + ...), u_0 = 1 and u_n = -sum_(j=1..n) v_j u_(n-j)."""
    e = min(a)
    c_inv = ONE / a[e]
    v = {as_grid(x - e, n_den): cx * c_inv for x, cx in a.items()}
    u = [ONE]
    n = 1
    while qq(n, n_den) < ta - e:
        u.append(-sum((v.get(j, ZERO) * u[n - j] for j in range(1, n + 1)), ZERO))
        n += 1
    return _nonzero({qq(n, n_den) - e: c_inv * un for n, un in enumerate(u)}), ta - 2 * e


def power(a, ta, n_den, m):
    """a^m by |m| oracle products of a or of its inverse; a^0 = 1 known
    below ta."""
    if m == 0:
        return ({qq(0): ONE} if ta > 0 else {}), ta
    base, tb = (a, ta) if m > 0 else inverse(a, ta, n_den)
    out, trunc = base, tb
    for _ in range(abs(m) - 1):
        out, trunc = mul(out, trunc, base, tb)
    return out, trunc


def as_grid(x, n_den):
    scaled = x * n_den
    assert scaled.denominator == 1, (x, n_den)
    return int(scaled)


def eisenstein_level3(k, label, prec):
    """The level-3 Eisenstein expansion by trial division:
    sum over d | n of d^(k-1) [w^(a2 d) [n/d = a1] + (-1)^k w^(-a2 d) [n/d = -a1]]
    at q^(n/3), with the constant term -B_k (3^k - 1) / (2k) when a1 = 0;
    only exponents below prec are kept."""
    a1, a2 = label[0] % 3, label[1] % 3
    out = {}
    if a1 == 0 and 0 < prec:
        out[qq(0)] = ref(-BERNOULLI[k] * (3**k - 1) / (2 * k))
    n = 1
    while qq(n, 3) < prec:
        total = ZERO
        for d in range(1, n + 1):
            if n % d == 0:
                if (n // d) % 3 == a1:
                    total = total + d ** (k - 1) * OMEGA ** ((a2 * d) % 3)
                if (n // d) % 3 == (-a1) % 3:
                    total = total + (-1) ** k * d ** (k - 1) * OMEGA ** ((-a2 * d) % 3)
        out[qq(n, 3)] = total
        n += 1
    return _nonzero(out), qq(prec)
