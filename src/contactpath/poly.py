"""Sparse multivariate polynomials over exact rationals.

Monomials are tuples of (variable, exponent) pairs sorted by variable name.
A coefficient is stored as an int while it is integral and as a Fraction
otherwise, since int arithmetic is far cheaper than Fraction arithmetic; every
operation restores that form for the coefficients it makes.  At the ring's
edges the exact type is Fraction: `constant_value` returns one, and so does
`evaluate` at an exact point.  This is the workhorse behind every symbolic
identity check in the package: all flat-model data is polynomial, so "equals
zero symbolically" reduces to an exact coefficient comparison here.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def _exact(c):
    """A rational coefficient in stored form: int when integral."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _mono_mul(m1, m2):
    if not m1:
        return m2
    if not m2:
        return m1
    out = dict(m1)
    for v, e in m2:
        out[v] = out.get(v, 0) + e
    return tuple(sorted(out.items()))


class Polynomial:
    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: dict monomial -> int or non-integral Fraction, zeros removed
        self.terms = terms or {}

    @staticmethod
    def constant(c):
        c = c if type(c) is int else _exact(Fraction(c))
        return Polynomial({(): c} if c else {})

    @staticmethod
    def variable(name):
        return Polynomial({((name, 1),): 1})

    @staticmethod
    def coerce(x):
        if isinstance(x, Polynomial):
            return x
        return Polynomial.constant(x)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return Fraction(self.terms.get((), 0))

    def variables(self):
        seen = set()
        for mono in self.terms:
            for v, _ in mono:
                seen.add(v)
        return seen

    def __add__(self, other):
        other = Polynomial.coerce(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = _exact(out.get(mono, 0) + c)
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-Polynomial.coerce(other))

    def __rsub__(self, other):
        return Polynomial.coerce(other) - self

    def __mul__(self, other):
        other = Polynomial.coerce(other)
        if not self.terms or not other.terms:
            return Polynomial()
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                s = _exact(out.get(m, 0) + c1 * c2)
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Polynomial.constant(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def diff(self, var):
        out = {}
        for mono, c in self.terms.items():
            for idx, (v, e) in enumerate(mono):
                if v == var:
                    if e == 1:
                        new = mono[:idx] + mono[idx + 1:]
                    else:
                        new = mono[:idx] + ((v, e - 1),) + mono[idx + 1:]
                    s = _exact(out.get(new, 0) + c * e)
                    if s:
                        out[new] = s
                    else:
                        out.pop(new, None)
                    break
        return Polynomial(out)

    def evaluate(self, env):
        total = None
        for mono, c in self.terms.items():
            val = c
            for v, e in mono:
                val = val * env[v] ** e
            total = val if total is None else total + val
        if total is None:
            return _ZERO
        return Fraction(total) if type(total) is int else total

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        from .expr import poly_to_expr  # expr builds on this module

        return str(poly_to_expr(self))
