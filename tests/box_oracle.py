"""Box-search oracle for coset vector counts, shared by the test modules.

It counts by brute force over a box that holds the whole ellipsoid and
shares nothing with the Fincke-Pohst walk of ``moduliq.shortvec``: no LDL
and no square-root bracket per level.
"""

import itertools
import math
from collections import Counter

from field_oracle import lift, mat_inverse
from moduliq import qq
from moduliq._rational import as_int, den, floor_q, num
from moduliq.lattices import discriminant_group


def floor_sqrt(x) -> int:
    """Largest integer k >= 0 with k*k <= x, for a rational x >= 0:
    floor(sqrt(x)) = isqrt(floor(x))."""
    return math.isqrt(num(x) // den(x))


def box_norm_counts(lattice, coset, lowest):
    """{norm: count} over the vectors x of the coset with lowest <= <x, x>.

    One box holds them all: x_i^2 <= -lowest * (Q^-1)_ii with Q = -G.  Each
    box point x = z + c (c the coset lift reduced mod 1, so 0 <= c_i < 1,
    and z integral) becomes the integer vector y = N x, N the lift
    denominator, and is bucketed by the integer y G y = N^2 <x, x>.
    """
    disc = discriminant_group(lattice)
    coset_lift = lift(disc, disc.zero() if coset is None else tuple(coset))
    center = [c - floor_q(c) for c in coset_lift]
    n_den = math.lcm(*(den(c) for c in center))
    gram = [[as_int(x) for x in row] for row in lattice.gram]
    qinv = mat_inverse([[-x for x in row] for row in lattice.gram], qq(1), qq(0))
    ranges = []
    for i, c in enumerate(center):
        # |z_i + c_i| <= floor_sqrt(..) = r with 0 <= c_i < 1 gives |z_i| <= r + 1
        bound = floor_sqrt(-qq(lowest) * qinv[i][i]) + 1
        shift = as_int(n_den * c)
        ranges.append(range(shift - n_den * bound, shift + n_den * bound + 1, n_den))
    terms = [
        (i, j, gram[i][j] if i == j else 2 * gram[i][j])
        for i in range(lattice.rank)
        for j in range(i, lattice.rank)
    ]
    cutoff = math.ceil(qq(lowest) * n_den**2)
    keys = Counter()
    for y in itertools.product(*ranges):
        key = sum(g * y[i] * y[j] for i, j, g in terms)
        if key >= cutoff:
            keys[key] += 1
    return {qq(key, n_den**2): count for key, count in keys.items()}


def norm_ladder(top, lowest):
    """top, top - 2, top - 4, ... down to lowest: the norms of one coset."""
    norms = []
    while top >= lowest:
        norms.append(top)
        top -= 2
    return norms
