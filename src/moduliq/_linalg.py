"""Small exact linear algebra helpers: a field rank by forward
elimination, the fraction-free symmetric elimination (``inertia``) that
gives a lattice its signature, the integral LLL that the short-vector walk
reduces and reads its Gram-Schmidt pivots from, and Smith/Hermite forms.

Matrices are tuples of tuples (immutable) or lists of lists (work buffers).
The field routines are generic over any type supporting +,-,*,/ and == 0
comparison through the supplied zero/one samples, so they serve both the
rational backend and Q(w).  Lattice invariants are computed on ints: the
elimination, the LLL and the Smith form read the int Gram that
``lattices.Lattice`` stores, s * G with s the lcm of G's denominators.
"""

import math

# ---------------------------------------------------------------------------
# generic field routines


def mat_identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, zero):
    n, k, m = len(a), len(b), len(b[0])
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x == zero:
                continue
            bt = b[t]
            for j in range(m):
                oi[j] = oi[j] + x * bt[j]
    return out

def mat_vec(a, v, zero):
    out = []
    for row in a:
        s = zero
        for x, y in zip(row, v):
            s = s + x * y
        out.append(s)
    return out


def mat_transpose(a):
    return [list(col) for col in zip(*a)]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_pow_order(m, one, zero, cap=200):
    """Multiplicative order of a square matrix, or None if above cap."""
    ident = mat_identity(len(m), one, zero)
    acc = m
    for k in range(1, cap + 1):
        if mat_eq(acc, ident):
            return k
        acc = mat_mul(acc, m, zero)
    return None


def rank_field(a, one, zero):
    """Rank over a field: the number of pivots of a forward elimination."""
    rows = [list(row) for row in a]
    n = len(rows)
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, n) if rows[r][col] != zero), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        top = rows[rank]
        inv = one / top[col]
        for r in range(rank + 1, n):
            if rows[r][col] != zero:
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], top)]
        rank += 1
        if rank == n:
            break
    return rank


# ---------------------------------------------------------------------------
# integer routines


def inertia(gram):
    """(positive, negative, zero) counts for a symmetric int matrix.

    A fraction-free symmetric elimination of a copy of gram (Bareiss): every
    update divides exactly by the previous pivot, so pivot i is a leading
    principal minor and its LDL pivot, pivot i / previous pivot, is positive
    when the two have the same sign.  A zero pivot with a nonzero row is
    first made nonzero by the congruence e_i -> e_i +- e_j; a zero row is
    skipped and leaves the divisor as it is.  So the pivot signs give the
    inertia of any symmetric form, degenerate or indefinite.
    """
    n = len(gram)
    a = [list(row) for row in gram]
    pos = neg = 0
    prev = 1
    for i in range(n):
        ai = a[i]
        if ai[i] == 0:
            j = next((j for j in range(i + 1, n) if ai[j]), None)
            if j is None:
                continue  # the whole row is zero: nothing to eliminate
            # the new pivot is 2 s a_ij + a_jj, nonzero for one sign s
            s = 1 if 2 * ai[j] + a[j][j] else -1
            aj = a[j]
            for c in range(i, n):
                ai[c] += s * aj[c]
            for r in range(i, n):
                a[r][i] += s * a[r][j]
        p = ai[i]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for r in range(i + 1, n):
            ar, f = a[r], ai[r]
            for c in range(r, n):
                ar[c] = a[c][r] = (p * ar[c] - f * ai[c]) // prev
        prev = p
    return pos, neg, n - pos - neg


def lll(gram):
    """Integral LLL reduction (delta = 3/4) of a positive definite int Gram.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7,
    run on the Gram matrix alone.  Returns (reduced, t, t_inv, d, lam): the
    rows of the unimodular t give the reduced basis, reduced = t G t^T and
    t_inv = t^-1.  d[i] is the Gram determinant of the first i reduced
    vectors (d[0] = 1), and lam[k][j] = d[j+1] mu_kj (j < k) holds the
    Gram-Schmidt coefficients, so vector i has Gram-Schmidt norm
    d[i+1] / d[i].  Every quantity is an int.  Raises ValueError when G is
    not positive definite.
    """
    g = [[int(x) for x in row] for row in gram]
    n = len(g)
    t = mat_identity(n, 1, 0)
    t_inv = mat_identity(n, 1, 0)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def redi(k, l):
        # size-reduce vector k against vector l: b_k -= r b_l, r the nearest
        # integer to mu_kl, unless |mu_kl| <= 1/2 already
        if 2 * abs(lam[k][l]) <= d[l + 1]:
            return
        r = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
        gk, gl = g[k], g[l]
        for c in range(n):
            gk[c] -= r * gl[c]
        for row in g:
            row[k] -= r * row[l]
        t[k] = [x - r * y for x, y in zip(t[k], t[l])]
        for row in t_inv:
            row[l] += r * row[k]
        lam[k][l] -= r * d[l + 1]
        for i in range(l):
            lam[k][i] -= r * lam[l][i]

    def swap(k, kmax):
        # exchange vectors k - 1 and k, and update d[k] and lam (Cohen's SWAPI)
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        t[k - 1], t[k] = t[k], t[k - 1]
        for row in t_inv:
            row[k - 1], row[k] = row[k], row[k - 1]
        lam[k - 1][: k - 1], lam[k][: k - 1] = lam[k][: k - 1], lam[k - 1][: k - 1]
        m = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + m * m) // d[k]
        for i in range(k + 1, kmax + 1):
            s = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * s) // d[k]
            lam[i][k - 1] = (b * s + m * lam[i][k]) // d[k + 1]
        d[k] = b

    k, kmax = 0, -1
    while k < n:
        if k > kmax:
            # incremental Gram-Schmidt of the new vector k
            kmax = k
            for j in range(k + 1):
                u = g[k][j]
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                elif u <= 0:
                    raise ValueError("Gram matrix is not positive definite")
                else:
                    d[k + 1] = u
        if k == 0:
            k = 1
            continue
        redi(k, k - 1)
        # Lovasz: d_k+1 d_k-1 >= (3/4) d_k^2 - lam_k,k-1^2, else swap and step back
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lam[k][k - 1] ** 2:
            swap(k, kmax)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                redi(k, l)
            k += 1
    return g, t, t_inv, d, lam


def smith_normal_form(a, mod):
    """(d, V): the invariant factors d1 | d2 | ... of a nonsingular square
    int A, mod = |det A|, and V with U*A*V = S mod ``mod`` diagonal for some
    unimodular U.

    The working matrix is kept reduced mod ``mod``, as V is (Cohen, GTM 138,
    2.4.3): A and A mod |det A| have the same cokernel, so d_i is
    gcd(S_ii, mod), a zero S_ii counting as mod, and A (column i of V) / d_i
    is integral.
    """
    a = [[x % mod for x in row] for row in a]
    n = len(a)
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        a[dst] = [(x + f * y) % mod for x, y in zip(a[dst], a[src])]

    def add_col(dst, src, f):
        for row in a:
            row[dst] = (row[dst] + f * row[src]) % mod
        for row in v:
            row[dst] = (row[dst] + f * row[src]) % mod

    for t in range(n):
        # a least nonzero entry of the trailing block, all in [0, mod), as pivot
        block = range(t, n)
        piv = min(((a[i][j], i, j) for i in block for j in block if a[i][j]), default=None)
        if piv is None:
            break
        a[t], a[piv[1]] = a[piv[1]], a[t]
        swap_cols(t, piv[2])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    add_row(i, t, -(a[i][t] // a[t][t]))
                    if a[i][t] != 0:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(j, t, -(a[t][j] // a[t][t]))
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # pivot must divide the whole trailing block
                rest = range(t + 1, n)
                i = next((i for i in rest for j in rest if a[i][j] % a[t][t]), None)
                if i is not None:
                    add_row(t, i, 1)
                    dirty = True
    return [math.gcd(a[i][i], mod) for i in range(n)], v


def hermite_row_basis(rows, n):
    """Row Hermite basis of the subgroup of Z^n generated by integer rows."""
    work = [list(r) for r in rows if any(r)]
    basis = []
    col = 0
    while col < n and work:
        work.sort(key=lambda r: (r[col] == 0, abs(r[col]) if r[col] else 0))
        if work[0][col] == 0:
            col += 1
            continue
        # reduce all other rows against the smallest pivot until column clears
        while True:
            pivot = work[0]
            done = True
            for r in work[1:]:
                if r[col] != 0:
                    f = r[col] // pivot[col]
                    for j in range(n):
                        r[j] -= f * pivot[j]
                    if r[col] != 0:
                        done = False
            work.sort(key=lambda r: (r[col] == 0, abs(r[col]) if r[col] else 0))
            if done and all(r[col] == 0 for r in work[1:]):
                break
        pivot = work.pop(0)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = [r for r in work if any(r)]
        col += 1
    # reduce above pivots
    for i in reversed(range(len(basis))):
        lead = next(j for j in range(n) if basis[i][j] != 0)
        for k in range(i):
            if basis[k][lead] != 0:
                f = basis[k][lead] // basis[i][lead]
                basis[k] = [x - f * y for x, y in zip(basis[k], basis[i])]
    return basis
