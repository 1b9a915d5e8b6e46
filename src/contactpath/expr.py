"""Expression language for user-supplied defining functions.

Grammar (whitespace insignificant, '^' binds tighter than unary minus):

    expr   := term (('+'|'-') term)*
    term   := unary (('*'|'/') unary)*
    unary  := '-'? power
    power  := atom ('^' intlit)?
    atom   := number | name | name '(' expr ')' | '(' expr ')'

Integer literals become exact rationals, decimal/exponent literals become
floats.  The parser keeps the shape of the source text, so a parsed
expression prints as written.  Everything else that builds a tree (the
arithmetic operators, `diff`, `simplify`) builds it simplified: constants
folded, 0/1 identities applied, double negation removed.  Differentiation is
exact on the tree; evaluation follows standard semantics and raises on
division by zero or log of a non-positive number.  Trees answer the ring
interface `Polynomial` has (`diff`, `evaluate`, `is_zero`, `variables`),
plus `children`, so fields and forms hold either ring without asking which.
"""

import math
from fractions import Fraction

from .errors import ExprEvalError, ExprNameError, ExprSyntaxError
from .poly import Polynomial

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": None,  # domain-checked in evaluate
}


class Expr:
    """Immutable expression tree node."""

    __slots__ = ()

    # --- construction helpers -------------------------------------------
    @staticmethod
    def coerce(x):
        if isinstance(x, Expr):
            return x
        if isinstance(x, Polynomial):
            return poly_to_expr(x)
        return Num(Fraction(x) if not isinstance(x, float) else x)

    def __add__(self, other):
        return _bin("+", self, Expr.coerce(other))

    def __radd__(self, other):
        return _bin("+", Expr.coerce(other), self)

    def __sub__(self, other):
        return _bin("-", self, Expr.coerce(other))

    def __rsub__(self, other):
        return _bin("-", Expr.coerce(other), self)

    def __mul__(self, other):
        return _bin("*", self, Expr.coerce(other))

    def __rmul__(self, other):
        return _bin("*", Expr.coerce(other), self)

    def __truediv__(self, other):
        return _bin("/", self, Expr.coerce(other))

    def __rtruediv__(self, other):
        return _bin("/", Expr.coerce(other), self)

    def __neg__(self):
        return _neg(self)

    def __pow__(self, k):
        return _pow(self, int(k))

    # --- interface implemented by node classes --------------------------
    def diff(self, var):
        raise NotImplementedError

    def evaluate(self, env):
        raise NotImplementedError

    def to_str(self, prec=0):
        raise NotImplementedError

    # --- the ring interface Polynomial also has -----------------------------
    def children(self):
        """The direct subtrees, left to right."""
        return ()

    def is_zero(self):
        """True for the constant 0 only; no other tree is decided zero here."""
        return False

    def variables(self):
        """The names of the variables the tree mentions."""
        return set().union(*(c.variables() for c in self.children()))

    def __str__(self):
        return self.to_str()

    def __repr__(self):
        return f"Expr({self.to_str()})"

    def as_polynomial(self):
        """Exact Polynomial form, or None when the tree is not polynomial."""
        try:
            return self._poly()
        except _NotPolynomial:
            return None

    def __setattr__(self, *a):
        raise AttributeError("immutable")


class _NotPolynomial(Exception):
    pass


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        object.__setattr__(self, "value", value)

    def diff(self, var):
        return Num(Fraction(0))

    def evaluate(self, env):
        return self.value

    def is_zero(self):
        return self.value == 0

    def to_str(self, prec=0):
        v = self.value
        if isinstance(v, Fraction) and v.denominator != 1:
            s = f"{v.numerator}/{v.denominator}"
            return f"({s})" if prec >= 2 or v < 0 else s
        s = repr(float(v)) if isinstance(v, float) else str(v)
        return f"({s})" if v < 0 and prec > 0 else s

    def _poly(self):
        if isinstance(self.value, float):
            fr = Fraction(self.value)
        else:
            fr = self.value
        return Polynomial.constant(fr)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def diff(self, var):
        return Num(Fraction(1 if self.name == var else 0))

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise ExprNameError(f"unbound variable {self.name!r}") from None

    def variables(self):
        return {self.name}

    def to_str(self, prec=0):
        return self.name

    def _poly(self):
        return Polynomial.variable(self.name)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


class Bin(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def children(self):
        return (self.left, self.right)

    def diff(self, var):
        l, r = self.left, self.right
        dl, dr = l.diff(var), r.diff(var)
        if self.op in ("+", "-"):
            return _bin(self.op, dl, dr)
        if self.op == "*":
            return _bin("+", _bin("*", dl, r), _bin("*", l, dr))
        # quotient rule
        num = _bin("-", _bin("*", dl, r), _bin("*", l, dr))
        return _bin("/", num, _pow(r, 2))

    def evaluate(self, env):
        a = self.left.evaluate(env)
        b = self.right.evaluate(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if b == 0:
            raise ExprEvalError("division by zero")
        if isinstance(a, (Fraction, int)) and isinstance(b, (Fraction, int)):
            return Fraction(a) / Fraction(b)
        return a / b

    def to_str(self, prec=0):
        p = _PREC[self.op]
        # left-associative: right operand needs the tighter context
        s = f"{self.left.to_str(p)} {self.op} {self.right.to_str(p + 1)}"
        return f"({s})" if prec > p else s

    def _poly(self):
        a = self.left._poly()
        if self.op == "/":
            b = self.right._poly()
            if not b.is_constant() or b.is_zero():
                raise _NotPolynomial
            return a * Polynomial.constant(Fraction(1) / b.constant_value())
        b = self.right._poly()
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        return a * b


class Neg(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)

    def children(self):
        return (self.arg,)

    def diff(self, var):
        return _neg(self.arg.diff(var))

    def evaluate(self, env):
        return -self.arg.evaluate(env)

    def to_str(self, prec=0):
        s = f"-{self.arg.to_str(3)}"
        return f"({s})" if prec > 1 else s

    def _poly(self):
        return -self.arg._poly()


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base, exponent):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", exponent)

    def children(self):
        return (self.base,)

    def diff(self, var):
        k = self.exponent
        if k == 0:
            return Num(Fraction(0))
        inner = self.base.diff(var)
        return _bin("*", _bin("*", Num(Fraction(k)), _pow(self.base, k - 1)), inner)

    def evaluate(self, env):
        b = self.base.evaluate(env)
        if self.exponent < 0 and b == 0:
            raise ExprEvalError("zero raised to a negative power")
        return b ** self.exponent

    def to_str(self, prec=0):
        s = f"{self.base.to_str(5)}^{self.exponent}"
        return f"({s})" if prec >= 5 else s

    def _poly(self):
        if self.exponent < 0:
            b = self.base._poly()
            if not b.is_constant() or b.is_zero():
                raise _NotPolynomial
            return Polynomial.constant(b.constant_value() ** self.exponent)
        return self.base._poly() ** self.exponent


class Call(Expr):
    __slots__ = ("func", "arg")

    def __init__(self, func, arg):
        object.__setattr__(self, "func", func)
        object.__setattr__(self, "arg", arg)

    def children(self):
        return (self.arg,)

    def diff(self, var):
        inner = self.arg.diff(var)
        if self.func == "sin":
            outer = _call("cos", self.arg)
        elif self.func == "cos":
            outer = _neg(_call("sin", self.arg))
        elif self.func == "exp":
            outer = _call("exp", self.arg)
        else:  # log
            return _bin("/", inner, self.arg)
        return _bin("*", outer, inner)

    def evaluate(self, env):
        x = self.arg.evaluate(env)
        if self.func == "log":
            if x <= 0:
                raise ExprEvalError(f"log of non-positive value {x}")
            return math.log(x)
        return FUNCTIONS[self.func](x)

    def to_str(self, prec=0):
        return f"{self.func}({self.arg.to_str()})"

    def _poly(self):
        raise _NotPolynomial


# --- simplifying constructors ---------------------------------------------
#
# Every operator and derivative builds its nodes through these, so trees stay
# folded as they grow.  Each applies the local rules for one node kind to
# children that are already built: constant folding, the 0/1 identities,
# --a -> a, Pow at exponents 0 and 1 or with a numeric base, and sin/cos/exp
# at 0 and log at 1.  The parser builds raw nodes, so a spec keeps the shape
# of its source text.

def _is_num(e, v=None):
    return isinstance(e, Num) and (v is None or e.value == v)


def _bin(op, l, r):
    if isinstance(l, Num) and isinstance(r, Num):
        if op != "/" or r.value != 0:
            return Num(Bin(op, l, r).evaluate({}))
    if op == "+":
        if _is_num(l, 0):
            return r
        if _is_num(r, 0):
            return l
    elif op == "-":
        if _is_num(r, 0):
            return l
        if _is_num(l, 0):
            return _neg(r)
    elif op == "*":
        if _is_num(l, 0) or _is_num(r, 0):
            return Num(Fraction(0))
        if _is_num(l, 1):
            return r
        if _is_num(r, 1):
            return l
    elif op == "/":
        if _is_num(l, 0) and not _is_num(r, 0):
            return Num(Fraction(0))
        if _is_num(r, 1):
            return l
    return Bin(op, l, r)


def _neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def _pow(b, k):
    if k == 0:
        return Num(Fraction(1))
    if k == 1:
        return b
    if isinstance(b, Num) and not (b.value == 0 and k < 0):
        return Num(b.value ** k)
    return Pow(b, k)


def _call(f, a):
    if _is_num(a, 0) and f in ("sin", "exp", "cos"):
        return Num(Fraction({"sin": 0, "exp": 1, "cos": 1}[f]))
    if _is_num(a, 1) and f == "log":
        return Num(Fraction(0))
    return Call(f, a)


def simplify(e):
    """Constant folding and 0/1 identities; no canonicalization.

    Rebuilds the tree bottom-up through the simplifying constructors."""
    if isinstance(e, Bin):
        return _bin(e.op, simplify(e.left), simplify(e.right))
    if isinstance(e, Neg):
        return _neg(simplify(e.arg))
    if isinstance(e, Pow):
        return _pow(simplify(e.base), e.exponent)
    if isinstance(e, Call):
        return _call(e.func, simplify(e.arg))
    return e


def poly_to_expr(p):
    """Render a Polynomial as an Expr tree (used for reporting), with
    Fraction leaves whatever form the coefficients are stored in."""
    if p.is_zero():
        return Num(Fraction(0))
    total = None
    for mono in sorted(p.terms, key=lambda m: (-sum(e for _, e in m), m)):
        c = Fraction(p.terms[mono])
        factors = []
        for v, e in mono:
            factors.append(Var(v) if e == 1 else Pow(Var(v), e))
        term = None
        for f in factors:
            term = f if term is None else Bin("*", term, f)
        if term is None:
            term = Num(c)
        elif c == -1:
            term = Neg(term)
        elif c != 1:
            term = Bin("*", Num(abs(c)), term)
            if c < 0:
                term = Neg(term)
        total = term if total is None else Bin("+", total, term)
    return simplify(total)


# --- tokenizer / parser ---------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(src):
    tokens = []  # (kind, text_or_value, offset)
    i = 0
    n = len(src)
    while i < n:
        ch = src[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            seen_dot = seen_exp = False
            while j < n:
                c = src[j]
                if c.isdigit():
                    j += 1
                elif c == "." and not seen_dot and not seen_exp:
                    seen_dot = True
                    j += 1
                elif c in "eE" and not seen_exp and j + 1 < n and (src[j + 1].isdigit() or src[j + 1] in "+-"):
                    seen_exp = True
                    j += 2 if src[j + 1] in "+-" else 1
                else:
                    break
            text = src[i:j]
            value = float(text) if (seen_dot or seen_exp) else Fraction(int(text))
            tokens.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens, variables, functions=None):
        self.tokens = tokens
        self.pos = 0
        self.variables = set(variables)
        self.functions = set(FUNCTIONS) if functions is None else set(functions)

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse_expr(self):
        node = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            node = Bin(op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            node = Bin(op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.peek()[0] == "-":
            self.next()
            return Neg(self.parse_power())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.peek()[0] == "^":
            self.next()
            sign = 1
            if self.peek()[0] == "-":
                self.next()
                sign = -1
            tok = self.next()
            if tok[0] != "num" or isinstance(tok[1], float) or tok[1].denominator != 1:
                raise ExprSyntaxError("exponent must be an integer literal", tok[2])
            return Pow(base, sign * int(tok[1]))
        return base

    def parse_atom(self):
        kind, value, offset = self.next()
        if kind == "num":
            return Num(value)
        if kind == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if kind == "name":
            if self.peek()[0] == "(":
                if value not in self.functions:
                    raise ExprNameError(f"unknown function {value!r}")
                self.next()
                arg = self.parse_expr()
                self.expect(")")
                return Call(value, arg)
            if value not in self.variables:
                raise ExprNameError(f"unknown variable {value!r}")
            return Var(value)
        raise ExprSyntaxError(f"unexpected token {value!r}", offset)


def parse(src, variables, functions=None):
    """Parse `src` over the allowed variable names."""
    parser = _Parser(_tokenize(src), variables, functions)
    node = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ExprSyntaxError(f"trailing input {tok[1]!r}", tok[2])
    return node


def diff(e, var):
    return simplify(e.diff(var))
