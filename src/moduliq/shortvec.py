"""Exact enumeration of dual-coset vectors in definite lattices (Fincke-Pohst).

Every entry point walks the coset once.  The negated Gram is split as
U^T D U by ``_linalg.ldl``, the same elimination that ``inertia`` reads its
signs from, and one walk visits each coset vector x with bound <= <x, x>:
single-norm counts and sorted vector lists keep one shell of that ball,
``coset_norm_counts`` keeps the whole {norm: count} histogram, so a theta
series to any precision costs one enumeration.  Loop ranges are bracketed by
an exact integer floor square root and every step is tested in exact
rationals; no floating point is used.
"""

from collections import Counter
from functools import lru_cache

from . import _linalg
from ._rational import floor_q, floor_sqrt, mod_q, qq
from .lattices import DiscGroup, Lattice, discriminant_group

__all__ = ["coset_norm_counts", "count_coset_vectors", "coset_vectors", "root_data"]


def _walk(lattice: Lattice, center, bound):
    """Yield (z, <x, x>) for every integer z with x = z + center and bound <= <x, x>.

    z is one buffer, overwritten between yields: copy it to keep it.
    """
    d, u = _linalg.ldl([[-x for x in row] for row in lattice.gram])
    if any(p <= 0 for p in d):
        raise ValueError("enumeration needs a negative definite lattice")
    n = len(d)
    vec = [0] * n

    # -<x, x> = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 <= -bound
    def rec(i, left):
        if i < 0:
            yield vec, bound + left
            return
        shift = center[i]
        for j in range(i + 1, n):
            shift = shift + u[i][j] * (vec[j] + center[j])
        # |t + shift| <= sqrt(left / d_i) < s + 1
        s = floor_sqrt(left / d[i])
        for t in range(-floor_q(shift) - s - 1, floor_q(-shift) + s + 2):
            step = t + shift
            rest = left - d[i] * step * step
            if rest >= 0:
                vec[i] = t
                yield from rec(i - 1, rest)

    yield from rec(n - 1, -bound)


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
    return sorted(
        tuple(z + c for z, c in zip(zvec, center))
        for zvec, m in _walk(lattice, center, norm)
        if m == norm
    )


def count_coset_vectors(lattice: Lattice, coset, norm) -> int:
    """Exact number of x in M* with x + M = coset and <x, x> = norm."""
    center, norm = _check_spec(lattice, coset, norm)
    return sum(1 for _z, m in _walk(lattice, center, norm) if m == norm)


def coset_norm_counts(lattice: Lattice, coset, bound) -> dict:
    """{norm: number of x in M* with x + M = coset and <x, x> = norm} over
    bound <= norm <= 0, norms in decreasing order, from one enumeration."""
    center, bound = _check_spec(lattice, coset, bound, shell=False)
    counts = Counter(m for _z, m in _walk(lattice, center, bound))
    return dict(sorted(counts.items(), reverse=True))


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
