"""Split quaternion arithmetic and module theory on A^n.

A is generated over the scalars by 1, j, e, f with -j^2 = e^2 = f^2 = 1 and
ef = j (hence fe = -j).  Scalars are generic: exact rationals for identity
testing, floats for geometric consumers.  norm2 is the determinant of the
standard 2x2 matrix representation and has signature (2, 2) as a quadratic
form on the algebra.
"""

from fractions import Fraction

from .exactlinalg import rank as exact_rank


class SplitQuaternion:
    """a + b j + c e + d f."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @staticmethod
    def coerce(x):
        if isinstance(x, SplitQuaternion):
            return x
        return SplitQuaternion(x)

    def components(self):
        return (self.a, self.b, self.c, self.d)

    def __eq__(self, other):
        other = SplitQuaternion.coerce(other)
        return self.components() == other.components()

    def __hash__(self):
        return hash(self.components())

    def __add__(self, other):
        o = SplitQuaternion.coerce(other)
        return SplitQuaternion(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return SplitQuaternion(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        return self + (-SplitQuaternion.coerce(other))

    def __rsub__(self, other):
        return SplitQuaternion.coerce(other) - self

    def __mul__(self, other):
        o = SplitQuaternion.coerce(other)
        a, b, c, d = self.components()
        x, y, z, w = o.components()
        return SplitQuaternion(
            a * x - b * y + c * z + d * w,
            a * y + b * x + c * w - d * z,
            a * z + c * x + b * w - d * y,
            a * w + d * x - b * z + c * y,
        )

    def __rmul__(self, other):
        return SplitQuaternion.coerce(other) * self

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        out = SplitQuaternion(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self):
        return SplitQuaternion(self.a, -self.b, -self.c, -self.d)

    def norm2(self):
        return self.a * self.a + self.b * self.b - self.c * self.c - self.d * self.d

    def re(self):
        return self.a

    def im(self):
        return SplitQuaternion(0, self.b, self.c, self.d)

    def inverse(self):
        n2 = self.norm2()
        if n2 == 0:
            raise ZeroDivisionError("element of norm 0 has no inverse")
        cj = self.conj()
        if isinstance(n2, Fraction) or isinstance(n2, int):
            inv = Fraction(1, 1) / Fraction(n2)
        else:
            inv = 1.0 / n2
        return SplitQuaternion(cj.a * inv, cj.b * inv, cj.c * inv, cj.d * inv)

    def __truediv__(self, other):
        return self * SplitQuaternion.coerce(other).inverse()

    def matrix_rep(self):
        a, b, c, d = self.components()
        return ((a + d, c - b), (b + c, a - d))

    def __repr__(self):
        return f"SplitQuaternion{self.components()}"

    def __str__(self):
        parts = []
        for coef, unit in zip(self.components(), ("", "j", "e", "f")):
            if coef == 0:
                continue
            if unit and coef == 1:
                term = unit
            elif unit and coef == -1:
                term = "-" + unit
            else:
                term = f"{coef}{unit}"
            parts.append(term)
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out


ONE = SplitQuaternion(1)
J = SplitQuaternion(0, 1)
E = SplitQuaternion(0, 0, 1)
F = SplitQuaternion(0, 0, 0, 1)


def mul(p, q):
    return SplitQuaternion.coerce(p) * SplitQuaternion.coerce(q)


def conj(p):
    return SplitQuaternion.coerce(p).conj()


def norm2(p):
    return SplitQuaternion.coerce(p).norm2()


def re(p):
    return SplitQuaternion.coerce(p).re()


def im(p):
    return SplitQuaternion.coerce(p).im()


def matrix_rep(p):
    return SplitQuaternion.coerce(p).matrix_rep()


def bracket(p, q):
    p, q = SplitQuaternion.coerce(p), SplitQuaternion.coerce(q)
    return p * q - q * p


def gram(p, q):
    """Symmetric bilinear form Re(conj(p) q); signature (2, 2)."""
    return (SplitQuaternion.coerce(p).conj() * SplitQuaternion.coerce(q)).re()


REFLECTION = "reflection"
COMPLEX_STRUCTURE = "complex-structure"
NULL = "null"


def classify_imaginary(p):
    """Type of an imaginary element by the sign of its norm.

    For imaginary p one has p^2 = -norm2(p) * 1, so negative norm means p
    squares to a positive multiple of the identity (a reflection after
    scaling, exactly a reflection when norm2 = -1), positive norm means a
    complex structure up to scale, and norm 0 is null.
    """
    p = SplitQuaternion.coerce(p)
    if p.re() != 0:
        raise ValueError("classify_imaginary requires a purely imaginary element")
    n2 = p.norm2()
    if n2 == 0:
        return NULL
    return REFLECTION if n2 < 0 else COMPLEX_STRUCTURE


def module_rank(xs):
    """Rank in {0, 1, 2} of an element of A^n viewed as a linear map L -> V."""
    rows = [row for x in xs for row in SplitQuaternion.coerce(x).matrix_rep()]
    if all(isinstance(v, (int, Fraction)) for row in rows for v in row):
        return exact_rank([[Fraction(v) for v in row] for row in rows])
    import numpy as np

    return int(np.linalg.matrix_rank(np.array(rows, dtype=float), tol=1e-9))


def submodule_dimension(x):
    """Real dimension of the right A-module generated by a single element."""
    x = SplitQuaternion.coerce(x)
    vectors = [(x * g).components() for g in (ONE, J, E, F)]
    return exact_rank([[Fraction(v) for v in row] for row in vectors])


def module_norm2(xs):
    """Norm of an element of A^n: the symplectic pairing of its two columns.

    Vanishes exactly on rank <= 1 elements and on rank 2 elements with
    isotropic image.
    """
    total = 0
    for x in xs:
        total = total + SplitQuaternion.coerce(x).norm2()
    return total
