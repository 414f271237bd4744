"""Plain Q(w) oracle for the Hermitian layer, shared by the test modules.

It computes unitary reflections and trace forms with the plain reference
``Cyc`` of ``cyc_oracle`` and shares nothing with the int-pair kernels of
``moduliq.hermitian`` or with ``moduliq.scalars.CycNum``: the inputs are
turned into ``Cyc`` first, the form check is h(sigma e_i, sigma e_j) ==
h(e_i, e_j) term by term, the order comes from ``mat_pow_order`` on ``Cyc``
matrices, and each trace entry is Tr of a ``Cyc`` product.
"""

from cyc_oracle import OMEGA, ONE, ZERO, ref
from moduliq._linalg import mat_pow_order


def ref_matrix(rows):
    """A matrix of Q(w) entries as a tuple of tuples of Cyc."""
    return tuple(tuple(ref(x) for x in row) for row in rows)


def herm_inner(gram, x, y):
    """h(x, y) = sum x_i conj(y_j) h_ij, as a Cyc."""
    gram, x, y = ref_matrix(gram), [ref(c) for c in x], [ref(c) for c in y]
    s = ZERO
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if not yj.is_zero():
                s = s + xi * yj.conj() * gram[i][j]
    return s


def reflection(gram, ell, xi):
    """(preserves_lattice, preserves_form, order, matrix) of
    r -> r - (1 - xi) h(r, ell) / h(ell, ell) ell, with a matrix of Cyc."""
    gram, ell, xi = ref_matrix(gram), [ref(c) for c in ell], ref(xi)
    n = len(gram)
    basis = [tuple(ONE if i == j else ZERO for i in range(n)) for j in range(n)]
    norm_ell = herm_inner(gram, ell, ell)
    cols = []
    for e in basis:
        coeff = (ONE - xi) * herm_inner(gram, e, ell) / norm_ell
        cols.append([e[i] - coeff * ell[i] for i in range(n)])
    matrix = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    preserves_lattice = all(x.is_integral() for row in matrix for x in row)
    preserves_form = all(
        herm_inner(gram, cols[i], cols[j]) == gram[i][j] for i in range(n) for j in range(n)
    )
    order = mat_pow_order([list(row) for row in matrix], ONE, ZERO, cap=12)
    return preserves_lattice, preserves_form, order, matrix


def trace_gram(gram):
    """Tr(w^s conj(w)^t h_ij) on the basis (v1, w v1, v2, w v2, ...)."""
    gram = ref_matrix(gram)
    powers = (ONE, OMEGA)
    n = len(gram)
    return tuple(
        tuple(
            2 * z.a - z.b
            for j in range(n)
            for t in range(2)
            for z in [powers[s] * powers[t].conj() * gram[i][j]]
        )
        for i in range(n)
        for s in range(2)
    )
