"""Hermitian lattices over Z[w], trace forms, and unitary reflections.

The Hermitian form is linear in the first argument and conjugate-linear in
the second; Gram entries lie in (1/sqrt(-3)) Z[w] with sqrt(-3) = 1 + 2w
held exactly.  No real radicals appear anywhere.  The trace form and the
reflections run on int pairs (x, y) = x + y w over one common denominator
of the Gram matrix, read from the ``CycNum`` triples, with w^2 = -1 - w; the
trace form is int rows over D, and each reflection entry one ``CycNum.of``.
"""

import math
from collections import namedtuple

from ._rational import Frozen
from .lattices import Lattice, _check_square, _lattice
from .scalars import CYC_ONE, CYC_ZERO, OMEGA, SQRT_M3, CycNum, cyc

__all__ = [
    "HermLattice",
    "ReflectionReport",
    "eisenstein_hermitian_lattice",
    "trace_lattice",
    "unitary_reflection",
]


class HermLattice(Frozen):
    """A Hermitian Z[w]-lattice, stored as its Gram of ``CycNum`` entries.
    ``HermLattice(gram)`` refuses a Gram that is not square or that is not
    its own conjugate transpose."""

    _fields = __slots__ = ("gram",)

    def __init__(self, gram: tuple):
        _check_square(gram)
        n = len(gram)
        if any(gram[i][j] != gram[j][i].conj() for i in range(n) for j in range(i, n)):
            raise ValueError("Gram matrix is not Hermitian")
        super().__init__(gram)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def signature(self):
        """Hermitian signature, from the exact inertia of the trace form."""
        pos, neg = trace_lattice(self).signature()
        assert pos % 2 == 0 and neg % 2 == 0
        return pos // 2, neg // 2


def _pair_rows(gram):
    """(D, rows) with gram[i][j] = (x + y w) / D for the int pair (x, y) at
    rows[i][j], over the one common denominator D."""
    d = math.lcm(*(c.d for row in gram for c in row))
    return d, [[(c.x * (d // c.d), c.y * (d // c.d)) for c in row] for row in gram]


def _pair_mul(u, v):
    """(x + y w)(a + b w) on int pairs, with w^2 = -1 - w."""
    (x, y), (a, b) = u, v
    return x * a - y * b, x * b + y * a - y * b


def _pair_dot(u, v):
    """sum_k u_k v_k over two vectors of int pairs."""
    products = [_pair_mul(a, b) for a, b in zip(u, v)]
    return sum(x for x, _ in products), sum(y for _, y in products)


def _pair_mat_mul(a, b):
    """Product of two square matrices of int pairs (x, y) = x + y w, with
    w^2 = -1 - w; zero entries of a are skipped."""
    n = len(b)
    out = []
    for row in a:
        re, im = [0] * n, [0] * n
        for (xa, ya), brow in zip(row, b):
            if xa or ya:
                for j, (xb, yb) in enumerate(brow):
                    yy = ya * yb
                    re[j] += xa * xb - yy
                    im[j] += xa * yb + ya * xb - yy
        out.append(list(zip(re, im)))
    return out


def eisenstein_hermitian_lattice() -> HermLattice:
    """The rank-10 Hermitian Z[w]-lattice of signature (1,9).

    Built as a 2x2 hyperbolic block scaled by 1/sqrt(-3) plus two copies of
    a 4x4 block scaled by -1/sqrt(-3); its trace form is the even unimodular
    lattice of signature (2,18).
    """
    inv = CYC_ONE / SQRT_M3
    r3 = SQRT_M3
    one = CYC_ONE
    zero = CYC_ZERO
    block2 = [
        [zero, inv],
        [-inv, zero],
    ]
    b4 = [
        [r3, zero, -one, -one],
        [zero, r3, -one, one],
        [one, one, r3, zero],
        [one, -one, zero, r3],
    ]
    block4 = [[-inv * x for x in row] for row in b4]
    n = 10
    rows = [[zero] * n for _ in range(n)]
    for i in range(2):
        for j in range(2):
            rows[i][j] = block2[i][j]
    for off in (2, 6):
        for i in range(4):
            for j in range(4):
                rows[off + i][off + j] = block4[i][j]
    return HermLattice(tuple(tuple(row) for row in rows))


def trace_lattice(h: HermLattice) -> Lattice:
    """Underlying Z-lattice on the basis (v1, w*v1, v2, w*v2, ...).

    The bilinear form is Tr of the Hermitian form, read in closed form from
    h_ij = (a + b*w) / D: Tr(h) = Tr(w h conj(w)) = (2a - b) / D, and the
    twists give Tr(w h) = (-a - b) / D and Tr(h conj(w)) = (2b - a) / D.
    """
    d, rows = _pair_rows(h.gram)
    out = []
    for row in rows:
        out.append([x for a, b in row for x in (2 * a - b, 2 * b - a)])
        out.append([x for a, b in row for x in (-a - b, 2 * a - b)])
    return _lattice(out, d)


# order: int or None
ReflectionReport = namedtuple("ReflectionReport", "preserves_lattice preserves_form order matrix")


_UNITS = tuple(s * OMEGA**k for s in (CYC_ONE, -CYC_ONE) for k in range(3))


def unitary_reflection(h: HermLattice, ell, xi) -> ReflectionReport:
    """Analyze r -> r - (1 - xi) * h(r, ell)/h(ell, ell) * ell on the lattice.

    ell: coordinate vector with Z[w] entries, of norm -1; xi: a unit != 1.
    The map fixes the orthogonal complement of ell and scales ell by xi; the
    report states whether it maps the lattice into itself, preserves the
    form, and its multiplicative order on the ambient space.
    """
    xi = cyc(xi)
    if xi == CYC_ONE or xi not in _UNITS:
        raise ValueError("xi must be a unit of Z[w] different from 1")
    ell = tuple(cyc(x) for x in ell)
    if not all(x.is_integral() for x in ell):
        raise ValueError("ell must have Z[w] coordinates")
    # On int pairs over the denominator D of the Gram H / D: with
    # P_j = sum_k H_jk conj(ell_k) = D h(e_j, ell) and h(ell, ell) = -1, the
    # matrix is S / D with S_ij = D delta_ij + (1 - xi) P_j ell_i.
    d, gram = _pair_rows(h.gram)
    ell = [(x.x, x.y) for x in ell]
    conj_ell = [(a - b, -b) for a, b in ell]
    p = [_pair_dot(row, conj_ell) for row in gram]
    if _pair_dot(ell, p) != (-d, 0):
        raise ValueError("ell must be a (-1)-vector")
    twist = (1 - xi.x, -xi.y)  # 1 - xi
    up = [_pair_mul(twist, x) for x in p]
    s = [[_pair_mul(e, x) for x in up] for e in ell]
    n = h.rank
    for i in range(n):
        s[i][i] = (s[i][i][0] + d, s[i][i][1])
    matrix = tuple(tuple(CycNum.of(x, y, d) for x, y in row) for row in s)
    preserves_lattice = all(x % d == 0 and y % d == 0 for row in s for x, y in row)
    # form preservation, h(sigma e_i, sigma e_j) = h(e_i, e_j): S^T H conj(S) = D^2 H
    form = _pair_mat_mul(
        [list(col) for col in zip(*s)],
        _pair_mat_mul(gram, [[(x - y, -y) for x, y in row] for row in s]),
    )
    preserves_form = form == [[(d * d * x, d * d * y) for x, y in row] for row in gram]
    # the order is the least k <= 12 with S^k = D^k I
    order, power = None, s
    for k in range(1, 13):
        scalar = d**k
        if all(power[i][j] == ((scalar if i == j else 0), 0) for i in range(n) for j in range(n)):
            order = k
            break
        power = _pair_mat_mul(power, s)
    return ReflectionReport(preserves_lattice, preserves_form, order, matrix)


def basis_minus_one_vector(h: HermLattice):
    """Coordinates of a basis vector of norm -1, if one exists."""
    n = h.rank
    for k in range(n):
        if h.gram[k][k] == -CYC_ONE:
            return tuple(CYC_ONE if i == k else CYC_ZERO for i in range(n))
    raise ValueError("no basis vector of norm -1")
