"""CycNum oracle for the Hermitian layer, shared by the test modules.

It computes unitary reflections and trace forms with plain ``CycNum``
arithmetic and shares nothing with the int-pair kernels of
``moduliq.hermitian``: the form check is h(sigma e_i, sigma e_j) ==
h(e_i, e_j) term by term, the order comes from ``mat_pow_order`` on CycNum
matrices, and each trace entry is Tr of a CycNum product.
"""

from moduliq import qq
from moduliq._linalg import mat_pow_order
from moduliq.scalars import CYC_ONE, CYC_ZERO, OMEGA


def herm_inner(gram, x, y):
    """h(x, y) = sum x_i conj(y_j) h_ij."""
    s = CYC_ZERO
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if not yj.is_zero():
                s = s + xi * yj.conj() * gram[i][j]
    return s


def reflection(gram, ell, xi):
    """(preserves_lattice, preserves_form, order, matrix) of
    r -> r - (1 - xi) h(r, ell) / h(ell, ell) ell."""
    n = len(gram)
    basis = [tuple(CYC_ONE if i == j else CYC_ZERO for i in range(n)) for j in range(n)]
    norm_ell = herm_inner(gram, ell, ell)
    cols = []
    for e in basis:
        coeff = (CYC_ONE - xi) * herm_inner(gram, e, ell) / norm_ell
        cols.append([e[i] - coeff * ell[i] for i in range(n)])
    matrix = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    preserves_lattice = all(x.is_integral() for row in matrix for x in row)
    preserves_form = all(
        herm_inner(gram, cols[i], cols[j]) == gram[i][j] for i in range(n) for j in range(n)
    )
    order = mat_pow_order([list(row) for row in matrix], CYC_ONE, CYC_ZERO, cap=12)
    return preserves_lattice, preserves_form, order, matrix


def trace_gram(gram):
    """Tr(w^s conj(w)^t h_ij) on the basis (v1, w v1, v2, w v2, ...)."""
    powers = (CYC_ONE, OMEGA)
    n = len(gram)
    return tuple(
        tuple(
            qq(2) * z.a - z.b
            for j in range(n)
            for t in range(2)
            for z in [powers[s] * powers[t].conj() * gram[i][j]]
        )
        for i in range(n)
        for s in range(2)
    )
