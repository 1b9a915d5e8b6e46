"""Small linear algebra over exact rationals, dense and sparse.

A dense matrix is a list of lists of Fraction (or int, coerced on entry).
Sizes in this package stay below ~150 rows, so plain Gauss-Jordan
elimination over Fractions is plenty fast and keeps every result exact.  A
sparse matrix is a list of its (row, col, value) entries, and a sparse
product is a {(row, col): value} dict without zeros.
"""

from fractions import Fraction


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def matmul(a, b):
    rb = len(b)
    cb = len(b[0])
    out = zeros(len(a), cb)
    for i, arow in enumerate(a):
        orow = out[i]
        for k in range(rb):
            aik = arow[k]
            if aik:
                brow = b[k]
                for j in range(cb):
                    if brow[j]:
                        orow[j] += aik * brow[j]
    return out


def matsub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def matadd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scalarmul(c, a):
    c = Fraction(c)
    return [[c * x for x in row] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def sparse_add(out, key, value):
    """out[key] += value, keeping only nonzero entries."""
    s = out.get(key, 0) + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def sparse_mul(a_entries, b_entries):
    """Product of two matrices given as (row, col, value) entries, where a
    position may repeat and its values add, as a {(row, col): value} dict
    without zeros."""
    b_by_row = {}
    for r, c, v in b_entries:
        b_by_row.setdefault(r, []).append((c, v))
    out = {}
    for r, k, va in a_entries:
        for c, vb in b_by_row.get(k, ()):
            sparse_add(out, (r, c), va * vb)
    return out


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def rref(a):
    """Reduced row echelon form of a matrix of Fractions (ints and other
    rationals are coerced); returns (rref, pivot column list).

    Scaling the pivot row and subtracting multiples of it touch only the
    pivot row's nonzero entries, the only columns they change."""
    m = [[x if type(x) is Fraction else Fraction(x) for x in row] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        inv = Fraction(1) / prow[c]
        support = [j for j, y in enumerate(prow) if y]
        for j in support:
            prow[j] *= inv
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if i != r and f:
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(a):
    if not a:
        return 0
    return len(rref(a)[1])


def inverse(a):
    n = len(a)
    ident = identity(n)
    aug = [list(row) + ident[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in red]


def solve(a, b):
    """Solve a x = b exactly (b a vector); None when inconsistent.

    For underdetermined systems returns the solution with free variables 0.
    """
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(map(Fraction, a[i])) + [Fraction(b[i])] for i in range(nrows)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x

