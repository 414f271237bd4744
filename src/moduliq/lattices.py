"""Integral quadratic lattices, discriminant forms, isometries, and glue.

Conventions: a lattice is a free Z-module with an exact symmetric Gram
matrix; root lattices (A2, E6, E8) are negative definite.  The discriminant
group A_M = M*/M is presented on ints through the Smith normal form of the
int Gram matrix: generator i has order d_i and is the class of g_i = C_i / d_i
for an int column C_i in lattice coordinates.  The forms are read from one
int table, a finite quadratic module in the sense of Nikulin (1979): with N
the exponent of A_M, Q_i = N <g_i, g_i> mod 2N and B_ij = N <g_i, g_j> mod N,
so the quadratic form q (valued in Q/2Z) and the bilinear form b (valued in
Q/Z) of every element are int sums mod 2N and N.  Both equal <x, x> and
<x, y> of the unreduced centres x = sum a_i g_i, odd lattices included.
"""

import itertools
import math
from collections import namedtuple
from functools import lru_cache
from operator import mul

from . import _linalg
from ._rational import QQ, Frozen, as_int, den, det_bareiss, fmt_q, mod_q, num, qq

__all__ = [
    "Lattice",
    "DiscGroup",
    "IsometryReport",
    "analyze_isometry",
    "build_standard",
    "classify_disc_elements",
    "direct_sum",
    "disc_forms_isomorphic",
    "discriminant_group",
    "overlattice",
    "pairing_census",
    "theta1_isometry_matrix",
]

CENSUS_LIMIT = 10_000
ISO_LIMIT = 1_000
PAIRING_LIMIT = 243  # |A_M| for pairing_census, which makes |A_M|^2 pairings
WALK_LIMIT = 200_000  # leaves of one shortvec walk, counted per level-1 range; about 0.3 s


def _check_square(gram):
    n = len(gram)
    short = next((len(row) for row in gram if len(row) != n), None)
    if short is not None:
        raise ValueError(f"Gram matrix is not square: a row has {short} entries, not {n}")


class Lattice(Frozen):
    """A lattice stored as its int Gram: the Gram matrix G is int_gram / s
    for the least s = ``gram_scale`` > 0 with s G integral, and ``int_gram``
    is a tuple of tuples of Python ints.  Every kernel, ``==`` and ``hash``
    read these ints (and the name).  ``Lattice(gram, name)`` scans a
    rational Gram once for them, and refuses one that is not square or not
    symmetric; the builders hand over ints directly.
    ``gram``, a tuple of tuples of rationals, is built on its first read.
    """

    _fields = ("int_gram", "gram_scale", "name")
    __slots__ = _fields + ("_gram",)

    def __init__(self, gram: tuple, name: str = ""):
        _check_square(gram)
        s = math.lcm(*[x.denominator for row in gram for x in row])
        # the usual, integral case reads the numerators alone
        scaled = num if s == 1 else (lambda x: num(x) * (s // den(x)))
        rows = [tuple(map(scaled, row)) for row in gram]
        if rows != list(zip(*rows)):
            raise ValueError("Gram matrix is not symmetric")
        self._set(rows, s, name)

    def _set(self, rows, scale: int, name: str) -> "Lattice":
        # the one constructor path: dividing out gcd(scale, rows) makes the scale least
        if scale != 1:
            g = math.gcd(scale, *itertools.chain.from_iterable(rows))
            if g != 1:
                rows, scale = [[x // g for x in row] for row in rows], scale // g
        super().__init__(tuple(map(tuple, rows)), scale, name)
        return self

    @property
    def gram(self) -> tuple:
        if not hasattr(self, "_gram"):
            # one rational per distinct entry, shared: a Gram has few of them
            q = {x: QQ(x, self.gram_scale) for x in set(itertools.chain.from_iterable(self.int_gram))}
            object.__setattr__(self, "_gram", tuple(tuple(map(q.__getitem__, row)) for row in self.int_gram))
        return self._gram

    @property
    def rank(self) -> int:
        return len(self.int_gram)

    def det(self):
        # det(s G) / s^n on ints; rank 0 gives 1
        return qq(det_bareiss(self.int_gram), self.gram_scale**self.rank)

    def is_integral(self) -> bool:
        return self.gram_scale == 1

    def is_even(self) -> bool:
        return self.gram_scale == 1 and all(row[i] % 2 == 0 for i, row in enumerate(self.int_gram))

    def signature(self):
        pos, neg, null = _linalg.inertia(self.int_gram)
        if null:
            raise ValueError("degenerate form")
        return pos, neg

    def rescale(self, n) -> "Lattice":
        # n G = p int_gram / (q s) for n = p / q
        n = qq(n)
        return _lattice(
            [[num(n) * x for x in row] for row in self.int_gram],
            self.gram_scale * den(n),
            f"{self.name}({fmt_q(n)})" if self.name else "",
        )

    def __repr__(self):
        return f"Lattice(gram={self.gram!r}, name={self.name!r})"

    def __str__(self):
        return self.name or f"<lattice rank {self.rank}>"


def _lattice(rows, scale: int = 1, name: str = "") -> Lattice:
    """The Lattice with Gram rows / scale, for int rows and an int scale > 0."""
    return object.__new__(Lattice)._set(rows, scale, name)


def direct_sum(*lattices: Lattice, name: str = None) -> Lattice:
    """Orthogonal sum, named ``name`` or else by its named summands joined
    with '+'.  Each block is put over the lcm of the summands' scales."""
    s = math.lcm(*[lat.gram_scale for lat in lattices])
    n = sum(lat.rank for lat in lattices)
    rows = []
    for lat in lattices:
        k = s // lat.gram_scale
        left, right = (0,) * len(rows), (0,) * (n - len(rows) - lat.rank)
        rows += [left + tuple([k * x for x in row]) + right for row in lat.int_gram]
    if name is None:
        name = "+".join(lat.name for lat in lattices if lat.name)
    return _lattice(rows, s, name)


def _cartan_negative(edges, n) -> list:
    rows = [[-2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in edges:
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = 1
    return rows


_BASE = {
    "U": [[0, 1], [1, 0]],
    "A1": [[-2]],
    "A2": [[-2, 1], [1, -2]],
    "E6": _cartan_negative([(1, 3), (3, 4), (4, 5), (5, 6), (2, 4)], 6),
    "E8": _cartan_negative([(1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (2, 4)], 8),
    "0": [],
}


def _parse_token(token: str) -> Lattice:
    token = token.strip()
    if token.endswith(")") and "(" in token:
        base, _, scale = token[:-1].rpartition("(")
        try:
            n = qq(scale)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in the scale of {token!r}") from None
        return _parse_token(base).rescale(n)
    if token in _BASE:
        return _lattice(_BASE[token], name=token)
    raise ValueError(f"unknown lattice name {token!r}")


def build_standard(name: str) -> Lattice:
    """Construct a named lattice; '+' forms direct sums of summands.

    A summand is an atom U, A1, A2, E6, E8 or 0, followed by any number of
    rescales (n), each by a rational n such as 3, -1 or 1/2; they
    apply left to right, so A2(3)(2) is A2(6) under the name A2(3)(2).  The
    whole name may instead be one of the aliases II_2_18 = U+U+E8+E8,
    II_2_26 = U+U+E8+E8+E8 and L_dm = U+U(3)+E8+E8.
    """
    aliases = {
        "II_2_18": "U+U+E8+E8",
        "II_2_26": "U+U+E8+E8+E8",
        "L_dm": "U+U(3)+E8+E8",
    }
    parts = aliases.get(name, name).split("+")
    if not all(p.strip() for p in parts):
        raise ValueError(f"empty summand in {name!r}")
    return direct_sum(*[_parse_token(p) for p in parts], name=name)


# ---------------------------------------------------------------------------
# discriminant groups


class DiscGroup(Frozen):
    """A_M = M*/M on ints: the invariant factors d_i, the int Smith columns
    C_i with 0 <= C_i < d_i, whose g_i = C_i / d_i generate A_M, and the int
    table of its forms: exponent N, q_table[i] = N <g_i, g_i> mod 2N and
    b_table[i][j] = N <g_i, g_j> mod N.

    ``walk_plan`` is a slot but not a field: ``shortvec`` stores the
    lattice-only part of its walk there on the first walk, so the plan lives
    exactly as long as this group in the ``discriminant_group`` cache, and
    ``==``, ``hash`` and ``repr`` never read it."""

    _fields = ("invariant_factors", "columns", "lattice", "exponent", "q_table", "b_table")
    __slots__ = _fields + ("walk_plan",)

    def __init__(self, invariant_factors: tuple, columns: tuple, lattice: Lattice):
        # N <g_i, g_j> is the int N C_i^T G C_j / (d_i d_j) over the int Gram G
        n = math.lcm(*invariant_factors)
        gc = [[sum(map(mul, row, c)) for row in lattice.int_gram] for c in columns]
        pairs = []
        for ci, di in zip(columns, invariant_factors):
            row = []
            for gcj, dj in zip(gc, invariant_factors):
                t, dd = n * sum(map(mul, ci, gcj)), di * dj
                if t % dd:
                    raise ValueError(f"{qq(t, dd)} is not an integer")
                row.append(t // dd)
            pairs.append(row)
        super().__init__(
            invariant_factors,
            columns,
            lattice,
            n,
            tuple(row[i] % (2 * n) for i, row in enumerate(pairs)),
            tuple(tuple(x % n for x in row) for row in pairs),
        )

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariant_factors:
            n *= d
        return n

    def elements(self):
        ranges = [range(d) for d in self.invariant_factors]
        return itertools.product(*ranges)

    def zero(self):
        return tuple(0 for _ in self.invariant_factors)

    def neg(self, el):
        return tuple((-a) % d for a, d in zip(el, self.invariant_factors))

    def add(self, e1, e2):
        return tuple(
            (a + b) % d for a, b, d in zip(e1, e2, self.invariant_factors)
        )

    def center(self, el):
        """(ints, m) with ints / m = sum a_i g_i in lowest terms: the centre x
        of the coset el, whose <x, x> and <x, y> the table reduces."""
        n = self.exponent
        ints = [0] * self.lattice.rank
        for a, col, d in zip(el, self.columns, self.invariant_factors):
            if a:
                k = a * (n // d)
                ints = [x + k * c for x, c in zip(ints, col)]
        g = math.gcd(n, *ints)
        return tuple(x // g for x in ints), n // g

    def q(self, el):
        """Quadratic form value in [0, 2): <x, x> mod 2 for the centre x of el."""
        q, b = self.q_table, self.b_table
        s = 0
        for i, a in enumerate(el):
            if a:
                s += a * (a * q[i] + 2 * sum(map(mul, el[i + 1 :], b[i][i + 1 :])))
        n = self.exponent
        return qq(s % (2 * n), n)

    def b(self, e1, e2):
        """Bilinear form value in [0, 1): <x1, x2> mod 1 for the centres of e1, e2."""
        s = 0
        for a, row in zip(e1, self.b_table):
            if a:
                s += a * sum(map(mul, e2, row))
        n = self.exponent
        return qq(s % n, n)

    def reduce_vector(self, v):
        """Class of a dual vector (rational coordinates) in A_M."""
        # v = w / m in lowest terms lies in the coset whose centre is w' / m
        # with w = w' mod m; a scan over the group, which is small here
        if len(v) != self.lattice.rank:
            raise ValueError(f"vector has {len(v)} coordinates, not the rank {self.lattice.rank}")
        v = [qq(x) for x in v]
        m = math.lcm(*map(den, v))
        w = [num(x) * (m // den(x)) for x in v]
        for el in self.elements():
            ints, m_el = self.center(el)
            if m_el == m and all((x - y) % m == 0 for x, y in zip(w, ints)):
                return el
        raise ValueError("vector does not lie in the dual lattice")

    def orbit_representatives(self):
        """One representative per {el, -el} orbit, in iteration order."""
        seen = set()
        reps = []
        for el in self.elements():
            if el in seen:
                continue
            seen.add(el)
            seen.add(self.neg(el))
            reps.append(el)
        return reps


@lru_cache(maxsize=None)
def discriminant_group(lattice: Lattice) -> DiscGroup:
    if not lattice.is_integral():
        raise ValueError("discriminant group needs an integral lattice")
    n = lattice.rank
    d = abs(det_bareiss(lattice.int_gram))
    if d == 0:
        raise ValueError("degenerate Gram matrix")
    invariant, v = _linalg.smith_normal_form(lattice.int_gram, d)
    factors, columns = [], []
    for i, di in enumerate(invariant):
        if di > 1:
            factors.append(di)
            # U G V = S mod |det G| with d_i | S_ii: column i of V over d_i is
            # in G^-1 Z^n, the generator in lattice coordinates, taken mod 1
            # as the int column C_i mod d_i
            columns.append(tuple(v[r][i] % di for r in range(n)))
    group = DiscGroup(tuple(factors), tuple(columns), lattice)
    assert group.order == d
    return group


def classify_disc_elements(lattice: Lattice) -> dict:
    """Census of A_M by q-value: '00' for 0, '0' for nonzero isotropic, else q."""
    return {label: len(els) for label, els in elements_by_type(lattice).items()}


def elements_by_type(lattice: Lattice) -> dict:
    """A_M by type label: '00' for 0, '0' for nonzero isotropic, else q."""
    disc = discriminant_group(lattice)
    if disc.order > CENSUS_LIMIT:
        raise ValueError(f"|A_M| = {disc.order} exceeds CENSUS_LIMIT = {CENSUS_LIMIT}")
    groups = {}
    for el in disc.elements():
        qv = disc.q(el)
        label = "00" if not any(el) else "0" if qv == 0 else fmt_q(qv)
        groups.setdefault(label, []).append(el)
    return groups


def pairing_census(lattice: Lattice) -> dict:
    """For u, v ranging over type classes: counts of b(u,v) = 0, 1/3, 2/3.

    The counts must not depend on the representative u; that uniformity is
    asserted.  Only defined when all pairing values are thirds.  The census
    makes |A_M|^2 pairings, so |A_M| above PAIRING_LIMIT is refused.
    """
    disc = discriminant_group(lattice)
    groups = elements_by_type(lattice)
    if disc.order > PAIRING_LIMIT:
        raise ValueError(f"|A_M| = {disc.order} exceeds PAIRING_LIMIT = {PAIRING_LIMIT}")
    thirds = (qq(0), qq(1, 3), qq(2, 3))
    table = {}
    for ulabel, us in groups.items():
        for vlabel, vs in groups.items():
            counts = None
            for u in us:
                cnt = [0, 0, 0]
                for v in vs:
                    bval = disc.b(u, v)
                    if bval not in thirds:
                        raise ValueError("pairing values are not thirds")
                    cnt[thirds.index(bval)] += 1
                cnt = tuple(cnt)
                if counts is None:
                    counts = cnt
                elif counts != cnt:
                    raise ValueError(
                        f"pairing census depends on the representative of {ulabel}"
                    )
            table[(ulabel, vlabel)] = counts
    return table


# ---------------------------------------------------------------------------
# isometries


# order: int or None; min_poly_check: g^2 + g + 1 = 0
IsometryReport = namedtuple(
    "IsometryReport", "is_isometry order fixed_rank disc_action_trivial min_poly_check"
)


def analyze_isometry(lattice: Lattice, matrix) -> IsometryReport:
    """Analyze an integer matrix acting on the lattice basis (columns = images)."""
    n = lattice.rank
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValueError("dimension mismatch")
    g = [[as_int(qq(x)) for x in row] for row in matrix]
    gram = lattice.int_gram
    gtg = _linalg.mat_mul(_linalg.mat_mul(_linalg.mat_transpose(g), gram, 0), g, 0)
    is_isometry = _linalg.mat_eq(gtg, gram)
    order = _linalg.mat_pow_order(g, 1, 0, cap=120) if is_isometry else None
    g_minus_1 = [[x - (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(g)]
    fixed_rank = n - _linalg.rank_field(g_minus_1, qq(1), 0)
    # discriminant action: g fixes A_M iff (g - 1) g_i is in M for every
    # generator g_i = C_i / d_i, that is (g - 1) C_i = 0 mod d_i
    disc = discriminant_group(lattice)
    trivial = all(
        x % d == 0
        for col, d in zip(disc.columns, disc.invariant_factors)
        for x in _linalg.mat_vec(g_minus_1, col, 0)
    )
    g2 = _linalg.mat_mul(g, g, 0)
    min_poly = all(
        g2[i][j] + x + (1 if i == j else 0) == 0
        for i, row in enumerate(g)
        for j, x in enumerate(row)
    )
    return IsometryReport(is_isometry, order, fixed_rank, trivial, min_poly)


def theta1_isometry_matrix():
    """Order-3 fixed-point-free isometry of U(3)+U (basis e, f, e', f').

    e -> -2e + 3e', f -> f + 3f', e' -> -e + e', f' -> -f - 2f'.
    """
    return (
        (-2, 0, -1, 0),
        (0, 1, 0, -1),
        (3, 0, 1, 0),
        (0, 3, 0, -2),
    )


# ---------------------------------------------------------------------------
# overlattices (glue)


def _subgroup_closure(disc: DiscGroup, gens):
    elems = {disc.zero()}
    frontier = [disc.zero()]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                s = disc.add(e, g)
                if s not in elems:
                    elems.add(s)
                    nxt.append(s)
        frontier = nxt
    return elems


def overlattice(lattice: Lattice, glue_vectors) -> Lattice:
    """Even overlattice generated by M and dual vectors spanning an isotropic glue.

    glue_vectors: rational coordinate vectors (in the basis of M) lying in M*.
    Raises if the generated subgroup of A_M is not isotropic for q.
    """
    disc = discriminant_group(lattice)
    n, big_n = lattice.rank, disc.exponent
    for v in glue_vectors:
        if len(v) != n:
            raise ValueError(f"glue vector has {len(v)} coordinates, not the rank {n}")
    gens = [disc.reduce_vector(v) for v in glue_vectors]
    subgroup = _subgroup_closure(disc, gens)
    for el in subgroup:
        if disc.q(el) != 0:
            raise ValueError("glue subgroup is not isotropic")
    # Hermite basis B of N times the overlattice, stacked from N e_i and the
    # N v, which are integral since N kills A_M; its Gram is B G B^T / N^2
    rows = [[big_n if i == j else 0 for j in range(n)] for i in range(n)]
    rows += [[as_int(big_n * qq(x)) for x in v] for v in glue_vectors]
    basis = _linalg.hermite_row_basis(rows, n)
    if len(basis) != n:
        raise ValueError("glue vectors do not span a finite-index overlattice")
    gram = _linalg.mat_mul(_linalg.mat_mul(basis, lattice.int_gram, 0), _linalg.mat_transpose(basis), 0)
    out = _lattice(gram, big_n * big_n, f"{lattice.name}^glue" if lattice.name else "")
    if not out.is_even():
        raise ValueError("overlattice is not even")
    h = len(subgroup)
    assert abs(as_int(out.det())) * h * h == abs(as_int(lattice.det()))
    return out


# ---------------------------------------------------------------------------
# discriminant-form isomorphism (backtracking search)


def disc_forms_isomorphic(m1: Lattice, m2: Lattice, flip_sign: bool = False) -> bool:
    """Search for a q-preserving isomorphism A_{M1} -> A_{M2} (or q -> -q).

    Generator images are placed one at a time, each with the order and q of
    its generator and its pairing b with every image already placed; each
    complete choice is checked on all of A_{M1}.
    """
    d1 = discriminant_group(m1)
    d2 = discriminant_group(m2)
    if d1.order != d2.order:
        return False
    if d1.order > ISO_LIMIT:
        raise ValueError(f"|A_M| = {d1.order} exceeds ISO_LIMIT = {ISO_LIMIT}")
    if sorted(d1.invariant_factors) != sorted(d2.invariant_factors):
        return False

    def target(value, modulus):
        return mod_q(-value, qq(modulus)) if flip_sign else value

    elems2 = list(d2.elements())
    orders2 = {el: _element_order(d2, el) for el in elems2}
    q2 = {el: d2.q(el) for el in elems2}
    gens1 = [
        tuple(1 if i == j else 0 for j in range(len(d1.invariant_factors)))
        for i in range(len(d1.invariant_factors))
    ]

    def extend(idx, images):
        if idx == len(gens1):
            return _is_isomorphism(d1, d2, gens1, images, flip_sign)
        g = gens1[idx]
        want_order = d1.invariant_factors[idx]
        want_q = target(d1.q(g), 2)
        want_b = [target(d1.b(g, h), 1) for h in gens1[:idx]]
        for cand in elems2:
            if orders2[cand] != want_order or q2[cand] != want_q:
                continue
            if any(d2.b(cand, im) != b for im, b in zip(images, want_b)):
                continue
            if extend(idx + 1, images + [cand]):
                return True
        return False

    return extend(0, [])


def _element_order(disc: DiscGroup, el) -> int:
    order = 1
    for a, d in zip(el, disc.invariant_factors):
        if a:
            order = math.lcm(order, d // math.gcd(d, a))
    return order


def _is_isomorphism(d1, d2, gens1, images, flip_sign) -> bool:
    # the candidate map sends sum a_i g_i to sum a_i images_i
    seen = set()
    for el in d1.elements():
        im = d2.zero()
        for a, img in zip(el, images):
            for _ in range(a):
                im = d2.add(im, img)
        if im in seen:
            return False
        seen.add(im)
        q1 = d1.q(el)
        want = mod_q(-q1, qq(2)) if flip_sign else q1
        if d2.q(im) != want:
            return False
    return True
