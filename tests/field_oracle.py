"""Field eliminations kept as plain references for the tests.

The library computes lattice determinants and signatures on ints
(``_rational.det_bareiss`` and the fraction-free ``_linalg.inertia``).  The
routines here do the same jobs the textbook way, over any field given by
its one and zero samples: a row echelon form for the determinant and the
inverse, and a symmetric LDL elimination for the inertia.  They share no
code with the library's eliminations.
"""

from moduliq import qq


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
