"""Numeric forms of cached symbolic objects, built once and evaluated many times.

Two lowerings, each the float counterpart of a tree walk that stays the
reference evaluator:

* `MonomialTable` turns the polynomial components of vector fields or
  one-forms into an integer exponent matrix, float coefficients and a
  term-to-slot index, so a whole list of fields is evaluated at a point in
  one numpy pass instead of one `Polynomial.evaluate` per component.
* `compile_exprs` turns expression trees into one straight-line Python
  function over a list of chart values.  Every node is one operation, in the
  order `Expr.evaluate` visits it; variable-free subtrees are folded first,
  exactly, and any rational constant left inside a float operation becomes
  `float(c)`, which is what `Fraction op float` computes.  The result is
  therefore bitwise the tree walk's, and the function raises `ExprEvalError`
  wherever the tree walk would.
"""

import math

import numpy as np

from .errors import ExprEvalError
from .expr import Bin, Call, Neg, Num, Pow, Var
from .poly import Polynomial


class MonomialTable:
    """Polynomial components of fields or forms, evaluated in one numpy pass.

    `objects` have a `components` dict from chart coordinate to Polynomial
    (or exact scalar); calling the table at a point returns the (dim, k)
    matrix whose columns are the objects' values, as `evaluate` gives them.
    """

    def __init__(self, names, objects):
        self.names = tuple(names)
        dim = len(self.names)
        index = {nm: i for i, nm in enumerate(self.names)}
        distinct = list({id(obj): obj for obj in objects}.values())
        block = {id(obj): j for j, obj in enumerate(distinct)}
        self.columns = np.array([block[id(obj)] for obj in objects], dtype=np.intp)
        monomials = {}
        rows, coefs, slots = [], [], []
        for j, obj in enumerate(distinct):
            for coord, comp in obj.components.items():
                for mono, c in Polynomial.coerce(comp).terms.items():
                    rows.append(monomials.setdefault(mono, len(monomials)))
                    coefs.append(float(c))
                    slots.append(j * dim + index[coord])
        self.exponents = np.zeros((len(monomials), dim), dtype=np.int64)
        for mono, r in monomials.items():
            for var, e in mono:
                self.exponents[r, index[var]] = e
        self.rows = np.array(rows, dtype=np.intp)
        self.coefs = np.array(coefs)
        self.slots = np.array(slots, dtype=np.intp)
        self.shape = (len(distinct), dim)

    def __call__(self, point):
        x = np.array([point[nm] for nm in self.names], dtype=float)
        mono = np.prod(x ** self.exponents, axis=1)
        flat = np.bincount(self.slots, weights=self.coefs * mono[self.rows],
                           minlength=self.shape[0] * self.shape[1])
        return flat.reshape(self.shape).T[:, self.columns]


# --- expression trees -> straight-line float code ----------------------------

def _div_zero():
    raise ExprEvalError("division by zero")


def _zero_pow():
    raise ExprEvalError("zero raised to a negative power")


def _log(x):
    if x <= 0:
        raise ExprEvalError(f"log of non-positive value {x}")
    return math.log(x)


class _Emitter:
    """Writes one statement per tree node.  `operand` returns ("const",
    exact value) for a variable-free subtree, folded as the tree walk would,
    and otherwise ("code", text): a temporary, a chart value `v<i>`, or a
    float literal.  `_k<i>` names objects a literal cannot spell."""

    def __init__(self, index):
        self.index = index
        self.lines = []
        self.consts = []
        self.temps = 0

    def ref(self, obj):
        self.consts.append(obj)
        return f"_k{len(self.consts) - 1}"

    def code(self, part):
        kind, value = part
        if kind == "code":
            return value
        value = float(value)
        return repr(value) if math.isfinite(value) else self.ref(value)

    def assign(self, rhs):
        name = f"t{self.temps}"
        self.temps += 1
        self.lines.append(f"{name} = {rhs}")
        return "code", name

    def walk_raising(self, node):
        """The tree walk raises on this node; so does the generated code."""
        return self.assign(f"{self.ref(node)}.evaluate({{}})")

    def fold(self, node):
        try:
            return "const", node.evaluate({})
        except (ArithmeticError, ValueError):
            return self.walk_raising(node)

    def operand(self, node):
        if isinstance(node, Num):
            return "const", node.value
        if isinstance(node, Var):
            if node.name not in self.index:
                return self.walk_raising(node)
            return "code", f"v{self.index[node.name]}"
        if isinstance(node, Bin):
            a = self.operand(node.left)
            b = self.operand(node.right)
            if a[0] == b[0] == "const":
                return self.fold(Bin(node.op, Num(a[1]), Num(b[1])))
            if node.op != "/":
                return self.assign(f"{self.code(a)} {node.op} {self.code(b)}")
            if b[0] == "code":
                self.lines.append(f"if {b[1]} == 0: _div_zero()")
            elif b[1] == 0:
                self.lines.append("_div_zero()")
            return self.assign(f"{self.code(a)} / {self.code(b)}")
        if isinstance(node, Neg):
            a = self.operand(node.arg)
            if a[0] == "const":
                return "const", -a[1]
            return self.assign(f"-{a[1]}")
        if isinstance(node, Pow):
            b = self.operand(node.base)
            if b[0] == "const":
                return self.fold(Pow(Num(b[1]), node.exponent))
            if node.exponent < 0:
                self.lines.append(f"if {b[1]} == 0: _zero_pow()")
            return self.assign(f"{b[1]} ** {int(node.exponent)}")
        if isinstance(node, Call):
            a = self.operand(node.arg)
            if a[0] == "const":
                return self.fold(Call(node.func, Num(a[1])))
            if node.func not in ("sin", "cos", "exp", "log"):
                raise TypeError(f"cannot lower function {node.func!r}")
            return self.assign(f"_{node.func}({a[1]})")
        raise TypeError(f"cannot lower {type(node).__name__}")


# the rerun's functions: numpy's, on the float of a possibly exact argument
_NUMPY_FUNCTIONS = {
    "exp": lambda x: np.exp(float(x)),
    "sin": lambda x: np.sin(float(x)),
    "cos": lambda x: np.cos(float(x)),
}


def compile_exprs(exprs, names):
    """One function `values(s)` giving `[e.evaluate(env) for e in exprs]`,
    env the chart values `s` (a list of floats in `names` order), bitwise.

    A root with no variable gives `float` of its exact value, which
    `evaluate({})` returns.  Python floats raise OverflowError in `**`
    where numpy scalars give inf, and `math.exp` raises it where `np.exp`
    gives inf; the tree walk then reruns on numpy scalars, with numpy's
    `exp`, `sin` and `cos` and its floating-point warnings off, and returns
    `float` of each value (the same double).
    """
    names = tuple(names)
    em = _Emitter({nm: i for i, nm in enumerate(names)})
    parts = [em.operand(e) for e in exprs]
    roots = [em.code(part) for part in parts]
    chart = ", ".join(f"v{i}" for i in range(len(names)))
    body = [f"    {chart}, = s"] + [f"    {line}" for line in em.lines]
    body.append(f"    return [{', '.join(roots)}]")
    source = "def values(s):\n" + "\n".join(body) + "\n"
    namespace = {
        "_div_zero": _div_zero, "_zero_pow": _zero_pow, "_log": _log,
        "_sin": math.sin, "_cos": math.cos, "_exp": math.exp,
    }
    namespace.update((f"_k{i}", obj) for i, obj in enumerate(em.consts))
    exec(compile(source, "<lowered expressions>", "exec"), namespace)
    fast = namespace["values"]
    exprs = list(exprs)

    def values(s):
        try:
            return fast(s)
        except OverflowError:
            env = {nm: np.float64(v) for nm, v in zip(names, s)}
            env.update(_NUMPY_FUNCTIONS)
            with np.errstate(all="ignore"):
                return [float(e.evaluate(env)) for e in exprs]

    return values
