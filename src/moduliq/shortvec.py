"""Exact enumeration of dual-coset vectors in definite lattices (Fincke-Pohst).

Every entry point walks the coset once.  The negated Gram, scaled to ints,
is LLL-reduced by ``_linalg.lll``; the coset lift moves into the reduced
basis with the exact inverse transform, and the walk reads its pivots
d[i+1] / d[i] and coefficients lam[j][i] / d[i+1] from the LLL's own
integral Gram-Schmidt data, so no rational elimination runs per walk.  One
walk visits each coset vector x with bound <= <x, x>: single-norm counts
and sorted vector lists keep one shell of that ball, ``coset_norm_counts``
keeps the whole {norm: count} histogram, so a theta series to any precision
costs one enumeration.  When the coset is its own negative (2c in M, the
zero coset among them) the walk keeps only the vectors whose outermost
nonzero Gram-Schmidt coordinate is positive, and each stands for itself and
its negative.  The walk scales everything by one common denominator and
then runs on Python ints alone: each loop range is an exact ``math.isqrt``
bracket, every value in it is a vector of the ball, and each leaf carries
an int key from which its norm is read back once per distinct key.  No
walk visits more than ``lattices.WALK_LIMIT`` leaves, counted once per
level-1 range.  No floating point is used.
"""

import math
from collections import Counter
from functools import lru_cache
from operator import mul

from . import _linalg
from ._rational import den, mod_q, num, qq
from .lattices import WALK_LIMIT, DiscGroup, Lattice, discriminant_group

__all__ = ["coset_norm_counts", "count_coset_vectors", "coset_vectors", "root_data"]


def _walk(lattice: Lattice, center, bound):
    """(scale, basis, leaves) for the vectors x = z + center, z integral,
    with bound <= <x, x>.

    The walk runs in the LLL-reduced basis whose vectors are the rows of the
    unimodular matrix basis.  leaves yields (y, key, weight): y is integral
    with x = y basis + center, the int key is scale (<x, x> - bound), and
    weight is 2 when the leaf also stands for -x (then x != -x), else 1.
    y is one buffer, overwritten between yields: copy it to keep it.
    """
    # s (-G) is an int Gram; its reduced basis comes with the integral
    # Gram-Schmidt data d, lam of the LLL
    s = math.lcm(*(den(a) for row in lattice.gram for a in row))
    try:
        _gram, basis, inverse, d, lam = _linalg.lll(
            [[-num(a) * (s // den(a)) for a in row] for row in lattice.gram]
        )
    except ValueError:
        raise ValueError("enumeration needs a negative definite lattice") from None
    n = len(basis)
    # the lift is c = C / m, and c basis^-1 = C basis^-1 / m in the reduced basis
    m = math.lcm(*map(den, center))
    lift = [num(c) * (m // den(c)) for c in center]
    lift = [sum(map(mul, lift, col)) for col in zip(*inverse)]
    # s <x, x> = -sum_i d_i (x_i + sum_j>i u_ij x_j)^2 with pivots
    # d_i = d[i+1] / d[i] and u_ij = lam[j][i] / d[i+1].  With one
    # denominator q, D_i = q d_i, U_ij = q u_ij and C_i = q c_i are ints, and
    # so are X_j = q x_j and W_i = q X_i + sum_{j>i} U_ij X_j =
    # q^2 (x_i + sum_{j>i} u_ij x_j).  Then q^5 s (-<x, x>) = sum_i D_i W_i^2,
    # and the budget q^5 s (-bound) - sum_{j>=i} D_j W_j^2 stays an int >= 0.
    q = math.lcm(
        den(bound),
        m,
        *(d[i] // math.gcd(d[i], d[i + 1]) for i in range(n)),
        *(d[i + 1] // math.gcd(lam[j][i], d[i + 1]) for i in range(n) for j in range(i + 1, n)),
    )
    q2 = q * q
    dd = [q * d[i + 1] // d[i] for i in range(n)]
    uu = [[q * lam[j][i] // d[i + 1] for j in range(i + 1, n)] for i in range(n)]
    cc = [q * c // m for c in lift]
    vec = [0] * n
    xx = [0] * n
    work = 0

    def charge(leaves):
        nonlocal work
        work += leaves
        if work > WALK_LIMIT:
            raise ValueError(f"{work} walk leaves exceed WALK_LIMIT = {WALK_LIMIT}")

    def rec(i, budget, weight):
        # W = q^2 z + t, and D_i W^2 <= budget iff |W| <= isqrt(budget // D_i)
        t = q * cc[i] + sum(map(mul, uu[i], xx[i + 1 :]))
        r = math.isqrt(budget // dd[i])
        if i == 1:
            # the leaves under a level-1 range: at most its length times the
            # widest level-0 range
            charge(((r - t) // q2 + (r + t) // q2 + 1) * (2 * math.isqrt(budget // dd[0]) // q2 + 1))
        # Weight 0 marks the fold: when 2c is in M, x -> -x maps the coset to
        # itself and every W to -W, so only W_i >= 0 is walked while the
        # outer W are 0.  A leaf below some W > 0 stands for x and -x, and
        # the leaf with every W = 0 is the zero vector.
        for z in range(-(t // q2) if weight == 0 else -((r + t) // q2), (r - t) // q2 + 1):
            w = q2 * z + t
            rest = budget - dd[i] * w * w
            vec[i] = z
            if i:
                xx[i] = q * z + cc[i]
                yield from rec(i - 1, rest, weight or (2 if w else 0))
            else:
                yield vec, rest, weight or (2 if w else 1)

    scale = q**5 * s
    top = -num(bound) * (scale // den(bound))
    if n == 0:
        return scale, basis, iter([(vec, top, 1)])
    if n == 1:
        charge(2 * math.isqrt(top // dd[0]) // q2 + 1)
    return scale, basis, rec(n - 1, top, 0 if 2 % m == 0 else 1)


def _resolve_coset(disc: DiscGroup, coset):
    if coset is None or coset == 0:
        return disc.zero()
    coset = tuple(coset)
    if len(coset) != len(disc.invariant_factors):
        raise ValueError("coset coordinates do not match the invariant factors")
    return tuple(a % d for a, d in zip(coset, disc.invariant_factors))


def _check_spec(lattice: Lattice, coset, norm, shell=True):
    """(lift of the coset, norm) after the boundary checks; a shell norm must
    also match q(coset) mod 2."""
    norm = qq(norm)
    if norm > 0:
        raise ValueError("norm must be non-positive for a negative definite lattice")
    disc = discriminant_group(lattice)
    el = _resolve_coset(disc, coset)
    if shell and mod_q(norm, qq(2)) != disc.q(el):
        raise ValueError("norm does not match q(coset) mod 2")
    return disc.lift(el), norm


def coset_vectors(lattice: Lattice, coset, norm):
    """Sorted list of x in M* with x + M = coset and <x, x> = norm."""
    center, norm = _check_spec(lattice, coset, norm)
    _scale, basis, leaves = _walk(lattice, center, norm)
    cols = list(zip(zip(*basis), center))
    vectors = []
    for y, key, weight in leaves:
        if key == 0:
            x = tuple(sum(map(mul, y, col)) + c for col, c in cols)
            vectors.append(x)
            if weight == 2:
                vectors.append(tuple(-a for a in x))
    return sorted(vectors)


def count_coset_vectors(lattice: Lattice, coset, norm) -> int:
    """Exact number of x in M* with x + M = coset and <x, x> = norm."""
    center, norm = _check_spec(lattice, coset, norm)
    _scale, _basis, leaves = _walk(lattice, center, norm)
    return sum(weight for _y, key, weight in leaves if key == 0)


def coset_norm_counts(lattice: Lattice, coset, bound) -> dict:
    """{norm: number of x in M* with x + M = coset and <x, x> = norm} over
    bound <= norm <= 0, norms in decreasing order, from one enumeration."""
    center, bound = _check_spec(lattice, coset, bound, shell=False)
    scale, _basis, leaves = _walk(lattice, center, bound)
    counts = Counter()
    for _y, key, weight in leaves:
        counts[key] += weight
    return {bound + qq(key, scale): c for key, c in sorted(counts.items(), reverse=True)}


@lru_cache(maxsize=None)
def root_data(lattice: Lattice):
    """(root_count, positive_root_count) for an even negative definite lattice."""
    if lattice.rank == 0:
        return (0, 0)
    if not lattice.is_even():
        raise ValueError("root data needs an even lattice")
    roots = count_coset_vectors(lattice, None, qq(-2))
    if roots % 2:
        raise AssertionError("odd root count")
    return roots, roots // 2
