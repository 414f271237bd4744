"""Exact enumeration of dual-coset vectors in definite lattices (Fincke-Pohst).

Every entry point walks the coset once.  The negated Gram is split as
U^T D U by ``_linalg.ldl``, the same elimination that ``inertia`` reads its
signs from, and one walk visits each coset vector x with bound <= <x, x>:
single-norm counts and sorted vector lists keep one shell of that ball,
``coset_norm_counts`` keeps the whole {norm: count} histogram, so a theta
series to any precision costs one enumeration.  The walk scales D, U, the
coset lift and the bound by one common denominator and then runs on Python
ints alone: each loop range is an exact ``math.isqrt`` bracket, every value
in it is a vector of the ball, and each leaf carries an int key from which
its norm is read back once per distinct key.  No floating point is used.
"""

import math
from collections import Counter
from functools import lru_cache
from operator import mul

from . import _linalg
from ._rational import den, mod_q, num, qq
from .lattices import DiscGroup, Lattice, discriminant_group

__all__ = ["coset_norm_counts", "count_coset_vectors", "coset_vectors", "root_data"]


def _walk(lattice: Lattice, center, bound):
    """(scale, leaves), where leaves yields (z, key) for every integer z with
    x = z + center and bound <= <x, x>; the int key is scale (<x, x> - bound).

    z is one buffer, overwritten between yields: copy it to keep it.
    """
    d, u = _linalg.ldl([[-x for x in row] for row in lattice.gram])
    if any(p <= 0 for p in d):
        raise ValueError("enumeration needs a negative definite lattice")
    n = len(d)
    # With one denominator q, D_i = q d_i, U_ij = q u_ij and C_i = q c_i are
    # ints, and so are X_j = q x_j and W_i = q X_i + sum_{j>i} U_ij X_j =
    # q^2 (x_i + sum_{j>i} u_ij x_j).  Then q^5 (-<x, x>) = sum_i D_i W_i^2,
    # and the budget q^5 (-bound) - sum_{j>=i} D_j W_j^2 stays an int >= 0.
    q = math.lcm(den(bound), *map(den, center), *map(den, d), *(den(a) for row in u for a in row))
    q2 = q * q
    dd = [num(q * p) for p in d]
    uu = [[num(q * a) for a in row[i + 1 :]] for i, row in enumerate(u)]
    cc = [num(q * c) for c in center]
    vec = [0] * n
    xx = [0] * n

    def rec(i, budget):
        # W = q^2 z + t, and D_i W^2 <= budget iff |W| <= isqrt(budget // D_i)
        t = q * cc[i] + sum(map(mul, uu[i], xx[i + 1 :]))
        s = math.isqrt(budget // dd[i])
        for z in range(-((s + t) // q2), (s - t) // q2 + 1):
            w = q2 * z + t
            rest = budget - dd[i] * w * w
            vec[i] = z
            if i:
                xx[i] = q * z + cc[i]
                yield from rec(i - 1, rest)
            else:
                yield vec, rest

    scale = q**5
    top = num(-scale * bound)
    return scale, (rec(n - 1, top) if n else iter([(vec, top)]))


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
    _scale, leaves = _walk(lattice, center, norm)
    return sorted(tuple(z + c for z, c in zip(zvec, center)) for zvec, key in leaves if key == 0)


def count_coset_vectors(lattice: Lattice, coset, norm) -> int:
    """Exact number of x in M* with x + M = coset and <x, x> = norm."""
    center, norm = _check_spec(lattice, coset, norm)
    _scale, leaves = _walk(lattice, center, norm)
    return sum(1 for _z, key in leaves if key == 0)


def coset_norm_counts(lattice: Lattice, coset, bound) -> dict:
    """{norm: number of x in M* with x + M = coset and <x, x> = norm} over
    bound <= norm <= 0, norms in decreasing order, from one enumeration."""
    center, bound = _check_spec(lattice, coset, bound, shell=False)
    scale, leaves = _walk(lattice, center, bound)
    counts = Counter(key for _z, key in leaves)
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
