"""Reference values computed apart from moduliq, and the checks against them.

Every expected value here comes from a classical formula, a brute-force
count, or a certified value of the paper; nothing calls into moduliq to
compute what it is compared with.  Program outputs are read only through
public attributes (``exponents()``, ``coeff()``, ``trunc``, ``as_dict()``,
the ``--json`` record) and converted to ``fractions.Fraction``, so the
checks hold for either scalar backend.

A check raises ``Mismatch`` when an output is wrong; the runner counts the
operation as failed.
"""

import json
import re
from fractions import Fraction as F
from functools import lru_cache
from typing import NamedTuple


class Mismatch(Exception):
    """An output differs from its reference."""


def want(got, expected, what):
    if got != expected:
        raise Mismatch(f"{what}: got {_short(got)}, want {_short(expected)}")


def _short(value, limit=160):
    text = repr(value)
    return text if len(text) <= limit else text[:limit] + "..."


def frac(x) -> F:
    """A backend rational (Fraction, mpq) or int as an exact Fraction."""
    return F(int(x.numerator), int(x.denominator))


# ---------------------------------------------------------------------------
# Q(w), w^2 + w + 1 = 0, as pairs (a, b) meaning a + b*w

ZERO = (F(0), F(0))
ONE = (F(1), F(0))


def qw(a, b=0):
    return (F(a), F(b))


def qw_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def qw_mul(x, y):
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def qw_scale(x, r):
    return (x[0] * r, x[1] * r)


def w_pow(k):
    return ((F(1), F(0)), (F(0), F(1)), (F(-1), F(-1)))[k % 3]


# ---------------------------------------------------------------------------
# truncated series: exponent (Fraction) -> Q(w) pair, known below trunc


class Series(NamedTuple):
    terms: dict
    trunc: F

    def lead(self):
        return min(self.terms) if self.terms else self.trunc


def series(terms, trunc) -> Series:
    trunc = F(trunc)
    return Series(
        {F(e): c for e, c in terms.items() if F(e) < trunc and c != ZERO}, trunc
    )


def ser_add(*parts) -> Series:
    trunc = min(p.trunc for p in parts)
    out = {}
    for p in parts:
        for e, c in p.terms.items():
            out[e] = qw_add(out.get(e, ZERO), c)
    return series(out, trunc)


def ser_scale(s: Series, c) -> Series:
    c = c if isinstance(c, tuple) else qw(c)
    return series({e: qw_mul(v, c) for e, v in s.terms.items()}, s.trunc)


def ser_mul(s: Series, t: Series) -> Series:
    trunc = min(s.trunc + t.lead(), t.trunc + s.lead())
    out = {}
    for e1, c1 in s.terms.items():
        for e2, c2 in t.terms.items():
            e = e1 + e2
            if e < trunc:
                out[e] = qw_add(out.get(e, ZERO), qw_mul(c1, c2))
    return series(out, trunc)


def ser_truncate(s: Series, trunc) -> Series:
    return series(s.terms, trunc)


def integer_series(coeffs, shift, trunc) -> Series:
    """sum_k coeffs[k] q^(shift + k) as a Series."""
    return series({F(shift) + k: qw(c) for k, c in enumerate(coeffs)}, trunc)


def program_series(s) -> Series:
    """A moduliq QSeries as a Series, through its public interface."""
    terms = {}
    for e in s.exponents():
        c = s.coeff(e)
        terms[frac(e)] = (frac(c.a), frac(c.b))
    return Series(terms, frac(s.trunc))


def check_series(out, ref: Series, what="series"):
    got = program_series(out)
    want(got.trunc, ref.trunc, f"{what} truncation")
    for e in sorted(set(got.terms) | set(ref.terms)):
        want(got.terms.get(e, ZERO), ref.terms.get(e, ZERO), f"{what} coefficient at q^{e}")


# ---------------------------------------------------------------------------
# integer power series (lists, index = exponent) and classical expansions


def int_mul(a, b, n):
    out = [0] * n
    for i, x in enumerate(a[:n]):
        if x:
            for j, y in enumerate(b[: n - i]):
                out[i + j] += x * y
    return out


def int_pow(a, m, n):
    out = [1] + [0] * (n - 1)
    for _ in range(m):
        out = int_mul(out, a, n)
    return out


def euler_product(n):
    """prod (1 - q^k) to q^(n-1), by Euler's pentagonal number theorem."""
    out = [0] * n
    k = 0
    while True:
        hit = False
        for j in ((k, -k) if k else (0,)):
            e = j * (3 * j - 1) // 2
            if e < n:
                out[e] += -1 if j % 2 else 1
                hit = True
        if not hit and k:
            return out
        k += 1


def jacobi_cube(n):
    """prod (1 - q^k)^3 = sum_m (-1)^m (2m+1) q^(m(m+1)/2) (Jacobi)."""
    out = [0] * n
    m = 0
    while m * (m + 1) // 2 < n:
        out[m * (m + 1) // 2] = (-1) ** m * (2 * m + 1)
        m += 1
    return out


def sigma(n, k):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def chi3(d):
    return (0, 1, -1)[d % 3]


@lru_cache(maxsize=None)
def delta_coeffs(n):
    """prod (1 - q^k)^24 to q^(n-1) as (prod (1 - q^k)^3)^8, from Jacobi's series."""
    return tuple(int_pow(jacobi_cube(n), 8, n))


def delta_ref(prec) -> Series:
    return integer_series(delta_coeffs(prec), 1, prec)


def inverse_delta_ref(prec) -> Series:
    """q^-1 / prod (1 - q^k)^24 by the triangular recurrence e_k = -sum d_j e_(k-j)."""
    n = prec + 1
    d = delta_coeffs(n)
    e = [1] + [0] * (n - 1)
    for k in range(1, n):
        e[k] = -sum(d[j] * e[k - j] for j in range(1, k + 1))
    if int_mul(list(d), e, n) != [1] + [0] * (n - 1):
        raise AssertionError("reference 1/Delta does not invert Delta")
    return integer_series(e, -1, prec)


def check_inverse_delta(out, ref: Series):
    """1/Delta matches the recurrence, and Delta * (1/Delta) = 1 where known."""
    check_series(out, ref, "1/Delta")
    got = program_series(out)
    n = int(got.trunc) + 1
    e = [int(got.terms.get(F(k - 1), ZERO)[0]) for k in range(n)]
    want(int_mul(list(delta_coeffs(n)), e, n), [1] + [0] * (n - 1), "Delta * (1/Delta)")


def eta_power_ref(m, prec) -> Series:
    """q^(m/24) prod (1 - q^k)^m from the pentagonal expansion."""
    n = max(int(F(prec) - F(m, 24)) + 2, 1)
    return integer_series(int_pow(euler_product(n), m, n), F(m, 24), prec)


# ---------------------------------------------------------------------------
# theta series of E8, A2, E6 and their cosets


def theta_e8(prec) -> Series:
    """Weight-4 Eisenstein series 1 + 240 sum sigma_3(n) q^n."""
    return integer_series([1] + [240 * sigma(n, 3) for n in range(1, prec)], 0, prec)


def theta_a2(prec) -> Series:
    """1 + 6 sum_n (sum_(d|n) chi_-3(d)) q^n."""
    return integer_series(
        [1] + [6 * sum(chi3(d) for d in range(1, n + 1) if n % d == 0) for n in range(1, prec)],
        0,
        prec,
    )


def theta_a2_coset(prec) -> Series:
    """The nonzero coset of A2 by brute force.

    A2 is Z[w] with norm 2 N(z); its dual is z / sqrt(-3) with norm
    2 N(z) / 3, and a dual vector lies in the class of a + b (mod 3).  The
    coset with a + b = 1 (mod 3) contributes q^(N(z)/3).
    """
    bound = 3 * prec
    r = int(2 * (bound**0.5)) + 2
    out = {}
    for a in range(-r, r + 1):
        for b in range(-r, r + 1):
            norm = a * a - a * b + b * b
            if (a + b) % 3 == 1 and norm < bound:
                e = F(norm, 3)
                out[e] = out.get(e, 0) + 1
    return series({e: qw(c) for e, c in out.items()}, prec)


def theta_e6(prec) -> Series:
    """E6 as the weight-3 level-3 form -9 sum chi(d) d^2 + 81 sum chi(n/d) d^2.

    Matches the published 1, 72, 270, 720, 936, 2160, ...
    """
    coeffs = [1]
    for n in range(1, prec):
        divs = [d for d in range(1, n + 1) if n % d == 0]
        coeffs.append(
            -9 * sum(chi3(d) * d * d for d in divs) + 81 * sum(chi3(n // d) * d * d for d in divs)
        )
    if coeffs[:4] != [1, 72, 270, 720][:prec]:
        raise AssertionError("E6 reference disagrees with the published 1, 72, 270, 720")
    return integer_series(coeffs, 0, prec)


@lru_cache(maxsize=None)
def theta_e6_coset(prec) -> Series:
    """The nonzero cosets of E6, solved from the glue identity

        theta_E8 = theta_E6 theta_A2 + 2 theta_(E6+[1]) theta_(A2+[1]),

    which is triangular because theta_(A2+[1]) starts 3 q^(1/3).
    """
    top = prec + 2
    rest = ser_add(theta_e8(top), ser_scale(ser_mul(theta_e6(top), theta_a2(top)), -1))
    g = theta_a2_coset(top)
    r = {e: c[0] / 2 for e, c in rest.terms.items()}
    gk = {int(e * 3): c[0] for e, c in g.terms.items()}
    f = {}
    k = 2  # exponents of f are 2/3 + Z, in units of 1/3
    while F(k, 3) < prec:
        acc = r.get(F(k + 1, 3), F(0))
        for j, fj in f.items():
            acc -= fj * gk.get(k + 1 - j, 0)
        value = acc / gk[1]
        if value.denominator != 1:
            raise AssertionError("glue identity gave a non-integral coset count")
        f[k] = value
        k += 3
    return series({F(k, 3): qw(v) for k, v in f.items()}, prec)


def e6_coset_by_class(index, prec) -> Series:
    return theta_e6(prec) if index % 3 == 0 else theta_e6_coset(prec)


def a2_coset_by_class(index, prec) -> Series:
    return theta_a2(prec) if index % 3 == 0 else theta_a2_coset(prec)


def e6a2_coset_candidates(prec):
    """theta_(E6+[i]) theta_(A2+[j]) for the four {+-} classes of (i, j)."""
    return [
        ser_truncate(ser_mul(e6_coset_by_class(i, prec + 1), a2_coset_by_class(j, prec + 1)), prec)
        for i, j in ((0, 0), (1, 0), (0, 1), (1, 1))
    ]


def check_theta_one_of(out, candidates, what):
    got = program_series(out)
    for ref in candidates:
        ref = ser_truncate(ref, got.trunc)
        if got == ref:
            return
    raise Mismatch(f"{what}: {_short(got.terms)} matches no product of coset series")


def coefficient(ref: Series, exponent) -> int:
    c = ref.terms.get(F(exponent), ZERO)
    return int(c[0])


# ---------------------------------------------------------------------------
# level-3 Eisenstein series and the obstruction tuples

BERNOULLI = {2: F(1, 6), 6: F(1, 42), 10: F(5, 66)}


def eisenstein_ref(k, label, prec) -> Series:
    """Direct divisor sums: the coefficient of q^(n/3) is

    sum_(d | n) d^(k-1) [w^(a2 d) [n/d = a1] + (-1)^k w^(-a2 d) [n/d = -a1]]

    with constant term -B_k (3^k - 1) / (2k) when a1 = 0.
    """
    a1, a2 = label[0] % 3, label[1] % 3
    prec = F(prec)
    terms = {}
    if a1 == 0:
        terms[F(0)] = qw(-BERNOULLI[k] * (3**k - 1) / (2 * k))
    n = 1
    while F(n, 3) < prec:
        total = ZERO
        for d in range(1, n + 1):
            if n % d:
                continue
            if (n // d) % 3 == a1:
                total = qw_add(total, qw_scale(w_pow(a2 * d), d ** (k - 1)))
            if (n // d) % 3 == (-a1) % 3:
                total = qw_add(total, qw_scale(w_pow(-a2 * d), (-1) ** k * d ** (k - 1)))
        terms[F(n, 3)] = total
        n += 1
    return series(terms, prec)


LABELS = tuple((a1, a2) for a1 in range(3) for a2 in range(3) if (a1, a2) != (0, 0))
TYPE_EXPONENT_CLASS = {"00": F(0), "0": F(0), "4/3": F(1, 3), "2/3": F(2, 3)}


def obstruction_eisenstein_ref(prec) -> dict:
    """The weight-10 Eisenstein tuple with h_00(infinity) = -1/2."""
    e1, e2, e3, e4 = (eisenstein_ref(10, lab, prec) for lab in ((0, 1), (1, 0), (1, 1), (1, 2)))
    s = F(-1, 2) / e1.terms[F(0)][0]
    w, w2 = w_pow(1), w_pow(2)
    rest = ser_add(e2, e3, e4)
    return {
        "00": ser_scale(ser_add(e1, ser_scale(rest, F(1, 3))), s),
        "0": ser_scale(rest, s * F(4, 3)),
        "4/3": ser_scale(ser_add(e2, ser_scale(e3, w2), ser_scale(e4, w)), s * F(2, 3)),
        "2/3": ser_scale(ser_add(e2, ser_scale(e3, w), ser_scale(e4, w2)), s * F(2, 3)),
    }


def obstruction_cusp_ref(prec):
    """eta^8 times weight-6 and eta^16 times weight-2 level-3 combinations."""
    w, w2 = w_pow(1), w_pow(2)
    eta8 = eta_power_ref(8, F(prec) + F(2, 3))
    f1, f2, f3, f4 = (eisenstein_ref(6, lab, prec) for lab in ((0, 1), (1, 0), (1, 1), (1, 2)))
    combo_w = ser_add(f2, ser_scale(f3, w), ser_scale(f4, w2))
    combo_w2 = ser_add(f2, ser_scale(f3, w2), ser_scale(f4, w))
    combo_1 = ser_add(ser_scale(f1, 3), ser_scale(ser_add(f2, f3, f4), -1))
    a = {
        "00": ser_truncate(ser_mul(eta8, combo_w), prec),
        "0": ser_truncate(ser_scale(ser_mul(eta8, combo_w), -2), prec),
        "4/3": ser_truncate(ser_mul(eta8, combo_1), prec),
        "2/3": ser_truncate(ser_scale(ser_mul(eta8, combo_w2), 2), prec),
    }
    eta16 = eta_power_ref(16, F(prec) + F(1, 3))
    g1, g2, g3, g4 = (eisenstein_ref(2, lab, prec) for lab in ((0, 1), (1, 0), (1, 1), (1, 2)))
    g00 = ser_add(g2, ser_scale(g3, w2), ser_scale(g4, w))
    g43 = ser_add(g2, ser_scale(g3, w), ser_scale(g4, w2))
    g23 = ser_add(ser_scale(g1, 3), ser_scale(ser_add(g2, g3, g4), -1))
    b = {
        "00": ser_truncate(ser_mul(eta16, g00), prec),
        "0": ser_truncate(ser_scale(ser_mul(eta16, g00), -2), prec),
        "4/3": ser_truncate(ser_scale(ser_mul(eta16, g43), 2), prec),
        "2/3": ser_truncate(ser_mul(eta16, g23), prec),
    }
    return a, b


def check_translation_law(components: dict, what):
    """Each component of a dual-type tuple sits on -q/2 + Z."""
    for label, s in components.items():
        for e in s.terms:
            if (e - TYPE_EXPONENT_CLASS[label]).denominator != 1:
                raise Mismatch(f"{what}: exponent {e} of component {label} breaks the translation law")


def check_vvform(out, ref: dict, what, cusp=False):
    got = {label: program_series(s) for label, s in out.components.items()}
    want(sorted(got), sorted(ref), f"{what} component labels")
    check_translation_law(got, what)
    if cusp:
        for label, s in got.items():
            if s.terms and min(s.terms) <= 0:
                raise Mismatch(f"{what}: component {label} is not cuspidal")
    else:
        want(got["00"].terms.get(F(0)), qw(F(-1, 2)), f"{what} h_00(infinity)")
    for label in ref:
        check_series(out.components[label], ref[label], f"{what} component {label}")


def check_cusp_basis(out, refs):
    want(len(out), len(refs), "number of cusp tuples")
    for i, (form, ref) in enumerate(zip(out, refs)):
        check_vvform(form, ref, f"cusp tuple {i}", cusp=True)


# ---------------------------------------------------------------------------
# lattices: exact determinant and inertia of integer Gram matrices


def int_det(rows):
    """Bareiss fraction-free determinant."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def inertia(rows):
    """(positive, negative) eigenvalue counts of a symmetric integer matrix.

    The characteristic polynomial (Faddeev-LeVerrier, exact integers) has
    only real roots, so Descartes' rule of signs counts them exactly.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        am = [[sum(a[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        c = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(c)
        m = [[am[i][j] + (c if i == j else 0) for j in range(n)] for i in range(n)]

    def sign_changes(cs):
        signs = [c > 0 for c in cs if c]
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    # coeffs[k] multiplies x^(n-k)
    pos = sign_changes(coeffs)
    neg = sign_changes([c * (-1) ** (n - k) for k, c in enumerate(coeffs)])
    return pos, neg


def gram_ints(lattice):
    rows = []
    for row in lattice.gram:
        vals = [frac(x) for x in row]
        if any(v.denominator != 1 for v in vals):
            raise Mismatch("Gram matrix is not integral")
        rows.append([int(v) for v in vals])
    return rows


def check_trace_lattice(out):
    rows = gram_ints(out)
    want(len(rows), 20, "trace lattice rank")
    want(all(rows[i][i] % 2 == 0 for i in range(20)), True, "trace lattice even")
    want(all(rows[i][j] == rows[j][i] for i in range(20) for j in range(20)), True, "symmetric")
    want(abs(int_det(rows)), 1, "trace lattice |det|")
    want(inertia(rows), (2, 18), "trace lattice signature")


def check_reflection(out, order, lattice_ok):
    """A unitary reflection always preserves the form and has the order of xi;
    it maps the lattice to itself exactly when sqrt(-3) divides 1 - xi."""
    want(out.preserves_form, True, "reflection preserves the form")
    want(out.order, order, "reflection order")
    want(out.preserves_lattice, lattice_ok, "reflection preserves the lattice")


def combo_dict(combo) -> dict:
    return {(label, frac(norm)): frac(m) for (label, norm), m in combo.as_dict().items()}


def check_quasi_pullback(out, weight, divisor):
    got_weight, combo = out
    want(frac(got_weight), F(weight), "quasi-pullback weight")
    want(combo_dict(combo), divisor, "quasi-pullback divisor")


# ---------------------------------------------------------------------------
# the discriminant form of U(3), modelling A_(L_dm) = (Z/3)^2


def u3_model():
    """Elements (x, y) with q = 2xy/3 (mod 2) and b = (x y' + x' y)/3 (mod 1)."""
    els = [(x, y) for x in range(3) for y in range(3)]

    def q(e):
        return F(2 * e[0] * e[1], 3) % 2

    def b(e, f):
        return F(e[0] * f[1] + f[0] * e[1], 3) % 1

    def label(e):
        if e == (0, 0):
            return "00"
        return "0" if q(e) == 0 else str(q(e))

    return els, q, b, label


def u3_census():
    els, _q, _b, label = u3_model()
    out = {}
    for e in els:
        out[label(e)] = out.get(label(e), 0) + 1
    return out


def u3_pairing_table():
    els, _q, b, label = u3_model()
    groups = {}
    for e in els:
        groups.setdefault(label(e), []).append(e)
    table = {}
    for u, us in groups.items():
        for v, vs in groups.items():
            counts = [0, 0, 0]
            for f in vs:
                counts[int(b(us[0], f) * 3)] += 1
            table[f"{u}|{v}"] = counts
    return table


def u3_dual_weil():
    """Symmetrized dual Weil pair on the type classes (00, 0, 4/3, 2/3).

    T = e(-q/2) on each class; S row s, column t = (1/3) sum_(a in t) e(b(beta, a)).
    """
    els, q, b, label = u3_model()
    order = ("00", "0", "4/3", "2/3")
    groups = {lab: [e for e in els if label(e) == lab] for lab in order}

    def e3(x):
        return w_pow(int((x % 1) * 3))

    t = [[e3(-q(groups[s][0]) / 2) if s == u else ZERO for u in order] for s in order]
    s_rows = []
    for s in order:
        beta = groups[s][0]
        row = []
        for u in order:
            total = ZERO
            for a in groups[u]:
                total = qw_add(total, e3(b(beta, a)))
            row.append(qw_scale(total, F(1, 3)))
        s_rows.append(row)
    return list(order), t, s_rows


# ---------------------------------------------------------------------------
# parsing the CLI's rendering of rationals, Q(w) and series


def _split_top(text):
    """Split 'x + y - z' at top-level ' + ' / ' - ' into signed parts."""
    parts, sign, depth, start, i = [], 1, 0, 0, 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith((" + ", " - "), i):
            parts.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            i += 3
            start = i
            continue
        i += 1
    parts.append((sign, text[start:]))
    return parts


def parse_qw(text):
    """'p/q', 'w', '-w', 'b*w', 'a + w', 'a - b*w' as a Q(w) pair."""
    total = ZERO
    for sign, part in _split_top(text.strip()):
        part = part.strip()
        if part.endswith("w"):
            head = part[:-1].rstrip("*")
            coeff = F(1) if head in ("", "+") else F(-1) if head == "-" else F(head)
            total = qw_add(total, (F(0), sign * coeff))
        else:
            total = qw_add(total, (sign * F(part), F(0)))
    return total


def _parse_coeff(head):
    if head == "":
        return ONE
    if head == "-":
        return (F(-1), F(0))
    if head.startswith("("):
        return parse_qw(head[1:-1])
    return (F(head), F(0))


def parse_series(text, var="q") -> dict:
    """Invert the CLI's series rendering (QSeries, or PoincarePoly with var='t')."""
    text = text.strip()
    if text == "0":
        return {}
    term = re.compile(rf"(.*?)\*?{var}(?:\^\(?(-?\d+(?:/\d+)?)\)?)?")
    out = {}
    for sign, part in _split_top(text):
        part = part.strip()
        m = term.fullmatch(part)
        if m:
            coeff, exp = _parse_coeff(m.group(1)), F(m.group(2) or 1)
        else:
            coeff, exp = _parse_coeff(part), F(0)
        out[exp] = qw_add(out.get(exp, ZERO), qw_scale(coeff, sign))
    return {e: c for e, c in out.items() if c != ZERO}


def parse_divisor(text) -> dict:
    out = {}
    for mult, label, norm in re.findall(r"(-?\d+(?:/\d+)?)\*D\[([^,\]]+), (-?\d+(?:/\d+)?)\]", text):
        out[(label, F(norm))] = F(mult)
    return out


# ---------------------------------------------------------------------------
# CLI records


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


class Record:
    """A parsed --json record that remembers which fields a check read."""

    def __init__(self, data):
        self.data = data
        self.read = []

    def get(self, *path):
        self.read.append(path)
        node = self.data
        for key in path:
            node = node[key]
        return node


def check_cli(result: CliResult, spec):
    """Exit 0 and a record that satisfies spec(record); returns the record."""
    if result.code != 0:
        tail = result.stderr.strip().splitlines()[-1:] or [""]
        raise Mismatch(f"exit {result.code}: {tail[0]}")
    try:
        record = Record(json.loads(result.stdout))
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not a JSON record: {exc}") from None
    try:
        spec(record)
    except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise Mismatch(f"malformed record: {exc!r}") from None
    return record


def check_usage_error(result: CliResult):
    """Malformed input: exit 1, one 'error:' line on stderr, no traceback."""
    lines = result.stderr.strip().splitlines()
    if result.code != 1:
        raise Mismatch(f"exit {result.code}, want 1")
    if "Traceback" in result.stderr:
        raise Mismatch(f"traceback on stderr: {lines[-1] if lines else ''}")
    if len(lines) != 1 or not lines[0].startswith("error:"):
        raise Mismatch(f"stderr is not one 'error:' line: {_short(lines)}")


def cli_series(record, *path):
    return parse_series(record.get(*path))


def want_series_text(record, path, ref: Series, what):
    got = cli_series(record, *path)
    want(got, {e: c for e, c in ref.terms.items()}, what)


BETTI_MK = [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]
CITED_TABLES = {
    "IH_BB": [1, 1, 2, 2, 3, 3, 2, 2, 1, 1],
    "H_ordered_K": [1, 474, 991, 1618, 2410, 2410, 1618, 991, 474, 1],
    "IH_ordered_GIT": [1, 12, 67, 232, 562, 562, 232, 67, 12, 1],
}


def boundary_betti():
    """Invariant Betti numbers of (P^4 x P^4)/swap: pairs {i, j}, i + j = k."""
    return [sum(1 for i in range(5) for j in range(i, 5) if i + j == k) for k in range(9)]


def ma_input_ref(prec) -> dict:
    """theta * theta / Delta on the type classes, from the references above."""
    top = prec + 2
    inv = inverse_delta_ref(top)
    a2, a21 = theta_a2(top), theta_a2_coset(top)
    e6, e61 = theta_e6(top), theta_e6_coset(top)
    return {
        "00": ser_truncate(ser_mul(ser_mul(a2, e6), inv), prec),
        "0": ser_truncate(ser_mul(ser_mul(e61, a21), inv), prec),
        "4/3": ser_truncate(ser_mul(e61, inv), prec),
        "2/3": ser_truncate(ser_mul(a21, inv), prec),
    }


def ma_divisor():
    """D[00,-2] + 27 D[4/3,-2/3] + 3 D[2/3,-4/3]: the minimal coset counts of E6 and A2."""
    return {
        ("00", F(-2)): F(1),
        ("4/3", F(-2, 3)): F(coefficient(theta_e6_coset(1), F(2, 3))),
        ("2/3", F(-4, 3)): F(coefficient(theta_a2_coset(1), F(1, 3))),
    }


def spec_lattice(r):
    want(r.get("outputs", "rank"), 20, "rank")
    want(F(r.get("outputs", "det")), F(9), "det")
    want(r.get("outputs", "even"), True, "even")
    want(r.get("outputs", "signature"), [2, 18], "signature")
    want(r.get("outputs", "invariant_factors"), [3, 3], "invariant factors")
    want(r.get("outputs", "census"), u3_census(), "census")
    want(r.get("outputs", "pairing_table"), u3_pairing_table(), "pairing table")


def spec_theta_e6(r):
    want_series_text(r, ("outputs", "series"), theta_e6_coset(3), "theta E6+[1]")


def spec_weil(r):
    labels, t, s = u3_dual_weil()
    want(r.get("outputs", "labels"), labels, "labels")
    want([[parse_qw(x) for x in row] for row in r.get("outputs", "T")], t, "T")
    want([[parse_qw(x) for x in row] for row in r.get("outputs", "S")], s, "S")


def spec_dimension(r):
    want(r.get("outputs", "total"), 4, "dimension")
    want(r.get("outputs", "eisenstein"), 2, "Eisenstein part")
    want(r.get("outputs", "cusp"), 2, "cusp part")


def spec_eisenstein(r):
    want_series_text(r, ("outputs", "series"), eisenstein_ref(10, (1, 0), 2), "E_10,(1,0)")


def spec_obstruction(r):
    eis = obstruction_eisenstein_ref(2)
    case_a, case_b = obstruction_cusp_ref(2)
    for name, ref in (("eisenstein", eis), ("cusp_eta8", case_a), ("cusp_eta16", case_b)):
        got = {lab: Series(cli_series(r, "outputs", name, lab), F(2)) for lab in ref}
        check_translation_law(got, name)
        for lab in ref:
            want(got[lab].terms, ref[lab].terms, f"{name} component {lab}")
    want(parse_series(r.get("outputs", "eisenstein", "00")).get(F(0)), qw(F(-1, 2)), "h_00(infinity)")


def spec_borcherds_ma(r):
    ref = ma_input_ref(2)
    for lab in ref:
        want_series_text(r, ("outputs", "components", lab), ref[lab], f"ma input {lab}")
    want(F(r.get("outputs", "weight")), F(51), "weight")
    want(parse_divisor(r.get("outputs", "divisor")), ma_divisor(), "divisor")
    want(r.get("outputs", "certificate", "exists"), True, "certificate exists")
    want(F(r.get("outputs", "certificate", "weight")), F(51), "certificate weight")


def spec_borcherds_delta(r):
    want_series_text(r, ("outputs", "components", "00"), inverse_delta_ref(2), "1/Delta")
    want(F(r.get("outputs", "weight")), F(12), "weight")
    want(parse_divisor(r.get("outputs", "divisor")), {("00", F(-2)): F(1)}, "divisor")


def spec_quasi_pullback(r):
    want(F(r.get("outputs", "weight")), F(51), "weight")
    want(parse_divisor(r.get("outputs", "divisor")), ma_divisor(), "divisor")


def spec_kirwan(r):
    want(r.get("outputs", "weights"), [12 - 2 * i for i in range(13)], "weights of binary 12-ics")
    blowup = parse_series(r.get("outputs", "blowup_series"), var="t")
    want([int(blowup.get(F(2 * k), ZERO)[0]) for k in range(5)], BETTI_MK[:5], "blow-up series")
    total = {}
    for key in ("equivariant_series", "main_correction"):
        for e, c in parse_series(r.get("outputs", key), var="t").items():
            total[e] = qw_add(total.get(e, ZERO), c)
    want(total, blowup, "equivariant series + correction")


def spec_betti(table):
    def spec(r):
        want(r.get("outputs", "table"), table, "Betti table")

    return spec


def spec_ledger(r):
    want(F(r.get("outputs", "kirwan_exceptional_coefficient")), F(4), "exceptional coefficient")
    want(F(r.get("outputs", "discriminant_coefficient")), F(-2, 11), "discriminant coefficient")
    want(F(r.get("outputs", "pullback_multiplicity")), F(15), "pullback multiplicity")
    want([F(x) for x in r.get("outputs", "normal_bundle")], [F(-1), F(-1)], "normal bundle")
    want(F(r.get("outputs", "discrepancy")), F(2, 3), "discrepancy")
    want(r.get("outputs", "conflicts"), ["K_tor = pi*K_BB + 16T (as printed)"], "conflicts")
    repairs = r.get("outputs", "repairs")
    want([(x["class"], F(x["value"])) for x in repairs], [("T", F(-16))], "repair")


def spec_t9(r):
    want(F(r.get("outputs", "T9")), F(7, 103680), "T^9")


def spec_kequiv(r):
    want(r.get("outputs", "valuation_at_3"), -22, "3-adic valuation")
    want(r.get("outputs", "contradiction"), True, "contradiction")


def spec_luna(r):
    want(r.get("outputs", "epsilon5_coefficient"), -46656, "e^5 coefficient")
    want(r.get("outputs", "disc12_order"), 10, "vanishing order")
    want(r.get("outputs", "isobaric_weight"), [30], "isobaric weight")
    degrees = r.get("outputs", "total_degrees")
    want((degrees[0], min(degrees[1:]) >= 6), (5, True), "total degrees")


def spec_fixtures(r):
    for name, table in CITED_TABLES.items():
        want(r.get("outputs", name, "table"), table, f"cited table {name}")
