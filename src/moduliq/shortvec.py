"""Exact enumeration of dual-coset vectors in definite lattices (Fincke-Pohst).

Every entry point runs one walk on Python ints: in the basis of
``_linalg.lll`` of the negated ``Lattice.int_gram``, with pivots and
coefficients from the LLL's integral Gram-Schmidt data, and each loop range
an exact ``math.isqrt`` bracket.  That lattice-only part, the walk's plan,
is built by the first walk of a ``DiscGroup`` and kept in its ``walk_plan``
slot; every entry point gets its group from the cached
``lattices.discriminant_group``, so a plan lives as long as that cache
entry, and ``DiscGroup.center`` gives the coset's centre as ints over one
denominator.  The walk builds the histogram {int key: count} of the coset
vectors x with bound <= <x, x>, the key scaling <x, x> - bound: a count
reads key 0, a theta series every key, and ``coset_vectors`` collects the
key-0 vectors.  It walks one sign of each pair {x, -x} on a coset that is
its own negative (2c in M), runs its last two levels as two nested loops in
one frame, hands each level its centre from the level above
(Schnorr-Euchner partial sums), and stops at ``lattices.WALK_LIMIT``
leaves, counted once per level-1 range.  No floating point is used.
"""

import math
from functools import lru_cache
from operator import mul

from . import _linalg
from ._rational import den, mod_q, num, qq
from .lattices import WALK_LIMIT, DiscGroup, Lattice, discriminant_group

__all__ = ["coset_norm_counts", "count_coset_vectors", "coset_vectors", "root_data"]


def _walk(disc: DiscGroup, center, bound, vectors=None):
    """(scale, counts) over the x = z + C / m in disc.lattice, z integral,
    for the centre (C, m) from ``disc.center``, with bound <= <x, x>: counts
    maps each int key scale (<x, x> - bound) to the number of those x.  A
    list vectors gets every x of key 0 appended.

    One recursive function walks the reduced basis from level n-1; levels 1
    and 0 are two nested loops in one frame.
    """
    try:
        cols, inverse, q_l, plan_d, plan_u = disc.walk_plan
    except AttributeError:
        # the first walk of disc builds its plan: the LLL of -G (G the int
        # Gram, s = 1 in a discriminant group) also gives the integral data d, lam
        try:
            _gram, basis, inverse, d, lam = _linalg.lll([[-a for a in row] for row in disc.lattice.int_gram])
        except ValueError:
            raise ValueError("enumeration needs a negative definite lattice") from None
        n = len(basis)
        # pivots d_i = d[i+1] / d[i], u_ij = lam[j][i] / d[i+1] times their lcm denominator q_L
        q_l = math.lcm(
            *(d[i] // math.gcd(d[i], d[i + 1]) for i in range(n)),
            *(d[i + 1] // math.gcd(lam[j][i], d[i + 1]) for i in range(n) for j in range(i + 1, n)),
        )
        cols, inverse = tuple(zip(*basis)), tuple(zip(*inverse))
        plan_d = tuple(q_l * d[i + 1] // d[i] for i in range(n))
        plan_u = tuple(tuple(q_l * lam[j][i] // d[i + 1] for j in range(i + 1, n)) for i in range(n))
        object.__setattr__(disc, "walk_plan", (cols, inverse, q_l, plan_d, plan_u))
    # the centre is c = C / m, and c basis^-1 = C basis^-1 / m in the reduced basis
    ints, m = center
    lift = [sum(map(mul, ints, col)) for col in inverse]
    # <x, x> = -sum_i d_i (x_i + sum_j>i u_ij x_j)^2.  With one denominator
    # q = lcm(q_L, den(bound), m), D_i = q d_i, U_ij = q u_ij and C_i = q c_i
    # are ints, and so are X_j = q x_j and W_i = q X_i + sum_{j>i} U_ij X_j =
    # q^2 (x_i + sum_{j>i} u_ij x_j).  Then q^5 (-<x, x>) = sum_i D_i W_i^2,
    # and the budget q^5 (-bound) - sum_{j>=i} D_j W_j^2 stays an int >= 0.
    q = math.lcm(q_l, den(bound), m)
    q2, r = q * q, q // q_l
    dd = [r * x for x in plan_d]
    uu = [[r * x for x in row] for row in plan_u]
    cc = [q * c // m for c in lift]
    scale = q**5
    top = -num(bound) * (scale // den(bound))
    while len(dd) < 2:
        # ranks 0 and 1 get outer levels of centre 0 and range {0} (new lists: the plan stays)
        dd.append(top + 1)
        cc.append(0)
        uu = [row + [0] for row in uu] + [[]]
    # X_i = q z_i + C_i; a leaf x is X basis / q in lattice coordinates
    xx = [0] * len(dd)
    counts = {}
    get = counts.get
    # the centre q C_i-1 + sum_j>=i U_i-1,j X_j of level i-1 sums its terms j > i once
    # per level-i range and steps by U_i-1,i q per X_i (Schnorr-Euchner partial sums)
    qcc = [q * c for c in cc]
    lead, tail = [row[0] for row in uu[:-1]], [row[1:] for row in uu]
    d0, d1 = dd[0], dd[1]
    work = 0

    def rec(i, budget, weight, t):
        # level i has centre t: W = q^2 z + t, and D_i W^2 <= budget iff
        # |W| <= isqrt(budget // D_i)
        nonlocal work
        r = math.isqrt(budget // dd[i])
        # Weight 0 marks the fold: when 2c is in M, x -> -x maps the coset to
        # itself and every W to -W, so only W_i >= 0 is walked while the
        # outer W are 0.  A leaf below some W > 0 stands for x and -x, and
        # the leaf with every W = 0 is the zero vector.
        lo = -(t // q2) if weight == 0 else -((r + t) // q2)
        w = q2 * lo + t
        x = q * lo + cc[i]
        tc = qcc[i - 1] + sum(map(mul, tail[i - 1], xx[i + 1 :])) + lead[i - 1] * x
        step = lead[i - 1] * q
        if i > 1:
            while w <= r:
                xx[i] = x
                rec(i - 1, budget - dd[i] * w * w, weight or (2 if w else 0), tc)
                w += q2
                x += q
                tc += step
            return
        # charge the leaves under this level-1 range: its length times the widest level-0 range
        work += ((r - t) // q2 + (r + t) // q2 + 1) * (2 * math.isqrt(budget // d0) // q2 + 1)
        if work > WALK_LIMIT:
            raise ValueError(f"{work} walk leaves exceed WALK_LIMIT = {WALK_LIMIT}")
        while w <= r:
            rest = budget - d1 * w * w
            r0 = math.isqrt(rest // d0)
            weight0 = weight or (2 if w else 0)
            # the least W_0 = q^2 z_0 + tc of the range: >= -r0, or >= 0 under
            # the fold; the leaf of W_0 has key rest - D_0 W_0^2
            w0 = (r0 + tc) % q2 - r0 if weight0 else tc % q2
            if vectors is not None:
                xx[1] = (w - t) // q + cc[1]
                for v0 in range(w0, r0 + 1, q2):
                    if d0 * v0 * v0 == rest:
                        xx[0] = (v0 - tc) // q + cc[0]
                        v = tuple(qq(sum(map(mul, xx, col)), q) for col in cols)
                        vectors.append(v)
                        if weight0 == 2 or (weight0 == 0 and v0):
                            vectors.append(tuple(-a for a in v))
            w += q2
            tc += step
            if weight0 == 0:
                if w0 == 0:
                    # the zero vector stands for itself alone
                    counts[rest] = get(rest, 0) + 1
                    w0 = q2
                weight0 = 2
            while w0 <= r0:
                key = rest - d0 * w0 * w0
                counts[key] = get(key, 0) + weight0
                w0 += q2

    rec(len(dd) - 1, top, 0 if 2 % m == 0 else 1, qcc[-1])
    return scale, counts


def _resolve_coset(disc: DiscGroup, coset):
    if coset is None or coset == 0:
        return disc.zero()
    coset = tuple(coset)
    if len(coset) != len(disc.invariant_factors):
        raise ValueError("coset coordinates do not match the invariant factors")
    return tuple(a % d for a, d in zip(coset, disc.invariant_factors))


def _check_spec(lattice: Lattice, coset, norm, shell=True):
    """(discriminant group, centre of the coset, norm) after the boundary
    checks; a shell norm must also match q(coset) mod 2."""
    norm = qq(norm)
    if norm > 0:
        raise ValueError("norm must be non-positive for a negative definite lattice")
    disc = discriminant_group(lattice)
    el = _resolve_coset(disc, coset)
    if shell and mod_q(norm, qq(2)) != disc.q(el):
        raise ValueError("norm does not match q(coset) mod 2")
    return disc, disc.center(el), norm


def coset_vectors(lattice: Lattice, coset, norm):
    """Sorted list of x in M* with x + M = coset and <x, x> = norm."""
    disc, center, norm = _check_spec(lattice, coset, norm)
    vectors = []
    _walk(disc, center, norm, vectors)
    return sorted(vectors)


def count_coset_vectors(lattice: Lattice, coset, norm) -> int:
    """Exact number of x in M* with x + M = coset and <x, x> = norm."""
    disc, center, norm = _check_spec(lattice, coset, norm)
    _scale, counts = _walk(disc, center, norm)
    return counts.get(0, 0)


def coset_norm_counts(lattice: Lattice, coset, bound) -> dict:
    """{norm: number of x in M* with x + M = coset and <x, x> = norm} over
    bound <= norm <= 0, norms in decreasing order, from one enumeration."""
    disc, center, bound = _check_spec(lattice, coset, bound, shell=False)
    scale, counts = _walk(disc, center, bound)
    return {bound + qq(key, scale): c for key, c in sorted(counts.items(), reverse=True)}


@lru_cache(maxsize=None)
def root_data(lattice: Lattice):
    """(root_count, positive_root_count) for an even negative definite lattice."""
    if not lattice.is_even():
        raise ValueError("root data needs an even lattice")
    roots = count_coset_vectors(lattice, None, qq(-2))
    if roots % 2:
        raise AssertionError("odd root count")
    return roots, roots // 2
