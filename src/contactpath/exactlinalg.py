"""Small dense linear algebra over exact rationals.

Matrices are lists of lists of Fraction (or int, coerced on entry).  Sizes in
this package stay below ~150 rows, so plain Gauss-Jordan elimination over
Fractions is plenty fast and keeps every result exact.
"""

from fractions import Fraction


def fmat(rows):
    return [[Fraction(x) for x in row] for row in rows]


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


def trace(a):
    return sum(a[i][i] for i in range(len(a)))


def is_zero_matrix(a):
    return all(not x for row in a for x in row)


def mat_eq(a, b):
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))


def rref(a):
    """Reduced row echelon form; returns (rref, pivot column list)."""
    m = [row[:] for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
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
    aug = [row + ident[i] for i, row in enumerate(fmat(a))]
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

