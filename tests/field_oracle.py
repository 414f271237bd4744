"""Field eliminations and Fraction lattice vectors kept as plain references
for the tests.

The library computes lattice determinants and signatures on ints
(``_rational.det_bareiss`` and the fraction-free ``_linalg.inertia``).  The
routines here do the same jobs the textbook way, over any field given by
its one and zero samples: a row echelon form for the determinant and the
inverse, and a symmetric LDL elimination for the inertia.  They share no
code with the library's eliminations.

The library's discriminant groups are int data too: the int Smith columns
C_i and the int centre of each coset (``DiscGroup.center``).  ``lift``,
``inner`` and ``coset_of`` read the same group in Fraction coordinates,
sharing no code with the centres: the lift sum a_i C_i / d_i, the Gram
pairing term by term, and the coset of a dual vector by a scan for the
element whose lift differs from it by an integral vector.
``translation_law_holds`` reads the q-value of each type class of a
vector-valued form from the same lift and pairing.
"""

from moduliq import qq
from moduliq._rational import is_integer
from moduliq.lattices import discriminant_group, elements_by_type


def lift(disc, el):
    """sum_i a_i C_i / d_i, the unreduced lift of the element el of disc, in
    Fraction lattice coordinates."""
    v = [qq(0)] * disc.lattice.rank
    for a, col, d in zip(el, disc.columns, disc.invariant_factors):
        if a:
            v = [x + qq(a * c, d) for x, c in zip(v, col)]
    return tuple(v)


def inner(gram, u, v):
    """u^T gram v, summed term by term over the nonzero coordinates."""
    s = qq(0)
    for x, row in zip(u, gram):
        if x:
            for g, y in zip(row, v):
                if y:
                    s += x * g * y
    return s


def coset_of(disc, v):
    """The element of disc whose lift differs from the dual vector v by an
    integral vector, by a scan over the group."""
    for el in disc.elements():
        if all(is_integer(a - b) for a, b in zip(v, lift(disc, el))):
            return el
    raise ValueError("vector does not lie in the dual lattice")


def translation_law_holds(form, lattice):
    """True when every exponent of each component of the VVForm form is
    -q/2 (rep rho*) or q/2 (rep rho) mod 1, with q = <x, x> for the lift x
    of the first element of the component's type class in A_M of lattice."""
    disc = discriminant_group(lattice)
    groups = elements_by_type(lattice)
    sign = -1 if form.rep == "rho*" else 1
    for label, series in form.components.items():
        x = lift(disc, groups[label][0])
        want = sign * inner(lattice.gram, x, x) / 2
        if not all(is_integer(e - want) for e in series.exponents()):
            return False
    return True


def _echelon(a, one, zero):
    """Forward elimination over a field: (rows, pivots, sign).

    rows is a row echelon form of a, reached by row swaps and by adding
    multiples of a pivot row to the rows below it; row i carries its pivot in
    column pivots[i], and sign is (-1)^(number of swaps).
    """
    rows = [list(row) for row in a]
    n = len(rows)
    pivots = []
    sign = 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        piv = next((r for r in range(top, n) if rows[r][col] != zero), None)
        if piv is None:
            continue
        if piv != top:
            rows[top], rows[piv] = rows[piv], rows[top]
            sign = -sign
        inv = one / rows[top][col]
        for r in range(top + 1, n):
            if rows[r][col] != zero:
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[top])]
        pivots.append(col)
        if len(pivots) == n:
            break
    return rows, pivots, sign


def det_field(a, one, zero):
    # a row echelon form is upper triangular, with a zero last row if singular
    rows, _pivots, sign = _echelon(a, one, zero)
    det = one if sign == 1 else -one
    for i, row in enumerate(rows):
        det = det * row[i]
    return det


def mat_inverse(a, one, zero):
    """Inverse over a field, by elimination on [A | I] and back-substitution;
    raises on singular input."""
    n = len(a)
    ident = [[one if i == j else zero for j in range(n)] for i in range(n)]
    rows, pivots, _sign = _echelon([list(row) + irow for row, irow in zip(a, ident)], one, zero)
    if pivots != list(range(n)):
        raise ValueError("singular matrix")
    for col in reversed(range(n)):
        inv = one / rows[col][col]
        rows[col] = [x * inv for x in rows[col]]
        for r in range(col):
            if rows[r][col] != zero:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def inertia(gram):
    """(positive, negative, zero) counts for a symmetric rational matrix, by
    a Fraction LDL: a zero pivot with a nonzero row is first made nonzero by
    the congruence e_i -> e_i +- e_j."""
    n = len(gram)
    a = [[qq(x) for x in row] for row in gram]
    pos = neg = 0
    for i in range(n):
        if a[i][i] == 0:
            j = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
            if j is not None:
                # the new pivot is 2 s a_ij + a_jj, nonzero for one sign s
                s = 1 if 2 * a[i][j] + a[j][j] != 0 else -1
                for c in range(i, n):
                    a[i][c] = a[i][c] + s * a[j][c]
                for r in range(i, n):
                    a[r][i] = a[r][i] + s * a[r][j]
        p = a[i][i]
        if p == 0:
            continue  # the whole row is zero: nothing to eliminate
        if p > 0:
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            f = a[i][r] / p
            if f:
                for c in range(r, n):
                    a[r][c] = a[r][c] - f * a[i][c]
                    a[c][r] = a[r][c]
    return pos, neg, n - pos - neg
