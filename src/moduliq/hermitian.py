"""Hermitian lattices over Z[w], trace forms, and unitary reflections.

The Hermitian form is linear in the first argument and conjugate-linear in
the second; Gram entries lie in (1/sqrt(-3)) Z[w] with sqrt(-3) = 1 + 2w
held exactly.  No real radicals appear anywhere.
"""

from dataclasses import dataclass

from . import _linalg
from ._rational import qq
from .lattices import Lattice
from .scalars import CYC_ONE, CYC_ZERO, OMEGA, SQRT_M3, CycNum, cyc

__all__ = [
    "HermLattice",
    "ReflectionReport",
    "eisenstein_hermitian_lattice",
    "trace_lattice",
    "unitary_reflection",
]


@dataclass(frozen=True)
class HermLattice:
    gram: tuple  # CycNum entries, equal to its own conjugate transpose

    @property
    def rank(self) -> int:
        return len(self.gram)

    def is_hermitian(self) -> bool:
        n = self.rank
        return all(
            self.gram[i][j] == self.gram[j][i].conj() for i in range(n) for j in range(n)
        )

    def entries_in_scaled_eisenstein(self) -> bool:
        """All entries lie in (1/(1+2w)) Z[w]."""
        return all((x * SQRT_M3).is_integral() for row in self.gram for x in row)

    def inner(self, x, y) -> CycNum:
        """h(x, y), conjugate-linear in y; coordinates are CycNum vectors."""
        return _herm_inner(self.gram, x, y)

    def signature(self):
        """Hermitian signature, from the exact inertia of the trace form."""
        pos, neg = trace_lattice(self).signature()
        assert pos % 2 == 0 and neg % 2 == 0
        return pos // 2, neg // 2


def _herm_inner(gram, x, y) -> CycNum:
    s = CYC_ZERO
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if not yj.is_zero():
                s = s + xi * yj.conj() * gram[i][j]
    return s


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
    lat = HermLattice(tuple(tuple(row) for row in rows))
    assert lat.is_hermitian()
    return lat


def trace_lattice(h: HermLattice) -> Lattice:
    """Underlying Z-lattice on the basis (v1, w*v1, v2, w*v2, ...).

    The bilinear form is Tr of the Hermitian form, Tr(a + b*w) = 2a - b.
    """
    n = h.rank
    omega_powers = (CYC_ONE, OMEGA)

    def tr(z: CycNum):
        return 2 * z.a - z.b

    rows = []
    for i in range(n):
        for s in range(2):
            row = []
            for j in range(n):
                for t in range(2):
                    val = omega_powers[s] * omega_powers[t].conj() * h.gram[i][j]
                    row.append(tr(val))
            rows.append(row)
    return Lattice(tuple(tuple(qq(x) for x in row) for row in rows))


@dataclass(frozen=True)
class ReflectionReport:
    preserves_lattice: bool
    preserves_form: bool
    order: object  # int or None
    matrix: tuple


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
    norm_ell = _herm_inner(h.gram, ell, ell)
    if norm_ell != -CYC_ONE:
        raise ValueError("ell must be a (-1)-vector")
    n = h.rank
    basis = [
        tuple(CYC_ONE if i == j else CYC_ZERO for i in range(n)) for j in range(n)
    ]
    one_minus_xi = CYC_ONE - xi
    cols = []
    for j, e in enumerate(basis):
        coeff = one_minus_xi * _herm_inner(h.gram, e, ell) / norm_ell
        col = [e[i] - coeff * ell[i] for i in range(n)]
        cols.append(col)
    matrix = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    preserves_lattice = all(x.is_integral() for row in matrix for x in row)
    # form preservation: h(sigma e_i, sigma e_j) == h(e_i, e_j)
    images = [tuple(matrix[i][j] for i in range(n)) for j in range(n)]
    preserves_form = all(
        _herm_inner(h.gram, images[i], images[j]) == h.gram[i][j]
        for i in range(n)
        for j in range(n)
    )
    order = _linalg.mat_pow_order(
        [list(row) for row in matrix], CYC_ONE, CYC_ZERO, cap=12
    )
    return ReflectionReport(preserves_lattice, preserves_form, order, matrix)


def basis_minus_one_vector(h: HermLattice):
    """Coordinates of a basis vector of norm -1, if one exists."""
    n = h.rank
    for k in range(n):
        if h.gram[k][k] == -CYC_ONE:
            return tuple(CYC_ONE if i == k else CYC_ZERO for i in range(n))
    raise ValueError("no basis vector of norm -1")
