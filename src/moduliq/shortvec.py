"""Exact counting of dual-coset vectors of prescribed norm in definite lattices.

The enumeration runs on the negated (positive definite) Gram with an exact
rational UDU^T decomposition; loop ranges are bracketed by an exact integer
floor square root, and every candidate is accepted or rejected by an exact
rational test.  No floating point is used.
"""

from dataclasses import dataclass
from functools import lru_cache

from ._rational import den, floor_sqrt, mod_q, num, qq
from .lattices import DiscGroup, Lattice, discriminant_group

__all__ = ["CosetSpec", "count_coset_vectors", "coset_vectors", "root_data"]


@dataclass(frozen=True)
class CosetSpec:
    lattice: Lattice
    coset: tuple  # element of A_M in invariant-factor coordinates
    norm: object  # negative rational, norm = <x, x>

    def vectors(self):
        return coset_vectors(self.lattice, self.coset, self.norm)

    def count(self) -> int:
        return count_coset_vectors(self.lattice, self.coset, self.norm)


def _udu(q):
    """q = U^T D U with U unit upper triangular, D positive diagonal."""
    n = len(q)
    a = [[qq(x) for x in row] for row in q]
    d = [qq(0)] * n
    u = [[qq(1) if i == j else qq(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        if d[i] <= 0:
            raise ValueError("form is not positive definite")
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / d[i]
        for r in range(i + 1, n):
            for c in range(r, n):
                a[r][c] = a[r][c] - a[i][r] * a[i][c] / d[i]
                a[c][r] = a[r][c]
    return d, u


def _int_range_for(d_i, center, budget):
    """Integers t with d_i * (t + center)^2 <= budget, by exact check."""
    if budget < 0:
        return []
    # |t + center| <= sqrt(budget / d_i); bracket with the exact floor sqrt
    s = floor_sqrt(budget / d_i)
    lo_f = -center - s - 1
    hi_f = -center + s + 1
    lo = num(lo_f) // den(lo_f)
    hi = -((-num(hi_f)) // den(hi_f))  # ceil
    out = []
    for t in range(lo, hi + 1):
        step = t + center
        if d_i * step * step <= budget:
            out.append(t)
    return out


def _enumerate(q, center, target):
    """All integer vectors z with (z + center)^T q (z + center) == target."""
    n = len(q)
    if n == 0:
        if target == 0:
            yield ()
        return
    d, u = _udu(q)
    zero = qq(0)
    vec = [0] * n
    # Q(x) = sum_i d_i (x_i + sum_{j>i} u_ij x_j)^2 with x = z + center
    def rec(i, remaining):
        if i < 0:
            if remaining == 0:
                yield tuple(vec)
            return
        shift = center[i]
        for j in range(i + 1, n):
            shift = shift + u[i][j] * (vec[j] + center[j])
        for t in _int_range_for(d[i], shift, remaining):
            step = t + shift
            used = d[i] * step * step
            vec[i] = t
            yield from rec(i - 1, remaining - used)

    yield from rec(n - 1, target)


def _resolve_coset(disc: DiscGroup, coset):
    if coset is None or coset == 0:
        return disc.zero()
    coset = tuple(coset)
    if len(coset) != len(disc.invariant_factors):
        raise ValueError("coset coordinates do not match the invariant factors")
    return tuple(a % d for a, d in zip(coset, disc.invariant_factors))


def _check_spec(lattice: Lattice, coset, norm):
    if lattice.rank and not lattice.is_negative_definite():
        raise ValueError("enumeration needs a negative definite lattice")
    norm = qq(norm)
    if norm > 0:
        raise ValueError("norm must be non-positive for a negative definite lattice")
    disc = discriminant_group(lattice)
    el = _resolve_coset(disc, coset)
    if mod_q(norm, qq(2)) != disc.q(el):
        raise ValueError("norm does not match q(coset) mod 2")
    return disc, el, norm


def coset_vectors(lattice: Lattice, coset, norm):
    """Sorted list of x in M* with x + M = coset and <x, x> = norm."""
    disc, el, norm = _check_spec(lattice, coset, norm)
    if lattice.rank == 0:
        return [()] if norm == 0 else []
    center = list(disc.lift(el))
    q = [[-x for x in row] for row in lattice.gram]
    found = [
        tuple(z + c for z, c in zip(zvec, center))
        for zvec in _enumerate(q, center, -norm)
    ]
    found.sort()
    return found


def count_coset_vectors(lattice: Lattice, coset, norm) -> int:
    """Exact number of x in M* with x + M = coset and <x, x> = norm."""
    return len(coset_vectors(lattice, coset, norm))


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
