"""The Weil representation on all of C[A_M], kept as a plain reference.

The library builds only the symmetrized pair, one row and column per type
class, from the pairing census of ``lattices``.  This module builds the
full |A_M| x |A_M| matrices the textbook way (Scheithauer, "The Weil
representation of SL2(Z) and some applications", IMRN 2009) from the
discriminant form's ``q`` and ``b``:

    T e_a = e(+-q(a)/2) e_a,    S e_a = (1/sqrt|A_M|) sum_b e(-+b(a, b)) e_b,

with the upper signs for the plain representation and the lower ones for
the dual, and sums them class by class itself.  It shares no code with the
library's construction beyond the discriminant form.
"""

import math

from moduliq import qq
from moduliq._rational import fmt_q
from moduliq.lattices import discriminant_group
from moduliq.modforms import MatrixRep
from moduliq.scalars import CYC_ZERO, OMEGA_POWERS


def _e(x):
    """exp(2 pi i x) for a rational x in (1/3)Z."""
    scaled = x * 3
    assert scaled.denominator == 1, x
    return OMEGA_POWERS[scaled.numerator % 3]


def _type(disc, el):
    if not any(el):
        return "00"
    qv = disc.q(el)
    return "0" if qv == 0 else fmt_q(qv)


def full_weil(lattice, dual=False) -> MatrixRep:
    """T and S on C[A_M]; the labels are the elements of A_M in iteration
    order.  Only for exponent-3 groups of square order and signatures with
    pos - neg divisible by 8, where every entry lies in Q(w)."""
    disc = discriminant_group(lattice)
    root = math.isqrt(disc.order)
    assert root * root == disc.order
    assert all(d == 3 for d in disc.invariant_factors)
    pos, neg = lattice.signature()
    assert (pos - neg) % 8 == 0  # so the scalar i^((pos - neg)/2) is 1
    sign = -1 if dual else 1
    elements = tuple(disc.elements())
    mat_t = tuple(
        tuple(_e(sign * disc.q(a) / 2) if a == b else CYC_ZERO for b in elements)
        for a in elements
    )
    mat_s = tuple(
        tuple(_e(-sign * disc.b(a, b)) * qq(1, root) for b in elements) for a in elements
    )
    return MatrixRep(elements, mat_t, mat_s)


def symmetrized(lattice, dual=False) -> MatrixRep:
    """The full pair restricted to the summed vectors u_t (sum of e_a over a
    of type t): entry (s, t) is the u_s coefficient of the image of u_t, read
    off at the first element of class s.  Labels in the order 00, 0, 4/3,
    2/3, restricted to the types that occur."""
    disc = discriminant_group(lattice)
    full = full_weil(lattice, dual)
    index = {el: i for i, el in enumerate(full.labels)}
    classes = {}
    for el in full.labels:
        classes.setdefault(_type(disc, el), []).append(index[el])
    labels = tuple(t for t in ("00", "0", "4/3", "2/3") if t in classes)
    assert len(labels) == len(classes), sorted(classes)
    first = {t: classes[t][0] for t in labels}
    mat_t = tuple(
        tuple(full.mat_t[first[s]][first[s]] if s == t else CYC_ZERO for t in labels)
        for s in labels
    )
    mat_s = tuple(
        tuple(sum((full.mat_s[first[s]][j] for j in classes[t]), CYC_ZERO) for t in labels)
        for s in labels
    )
    return MatrixRep(labels, mat_t, mat_s)
