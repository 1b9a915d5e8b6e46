"""Property tests for the expression language: the simplifier, the
simplifying constructors behind the operators and `diff`, and the printer."""

import math
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contactpath import expr as ex
from contactpath.errors import ExprError

VARS = ("x", "y", "z")
FUNCS = ("sin", "cos", "exp", "log")

settings.register_profile("expr", max_examples=150, deadline=None, derandomize=True, database=None)
settings.load_profile("expr")


def _trees(literals):
    leaves = st.one_of(st.sampled_from(VARS).map(ex.Var), literals.map(ex.Num))
    return st.recursive(
        leaves,
        lambda kids: st.one_of(
            st.builds(ex.Bin, st.sampled_from("+-*/"), kids, kids),
            st.builds(ex.Neg, kids),
            st.builds(ex.Pow, kids, st.integers(-2, 3)),
            st.builds(ex.Call, st.sampled_from(FUNCS), kids),
        ),
        max_leaves=8,
    )


# the literals the parser produces: non-negative integers and decimals
parsed_trees = _trees(st.one_of(st.integers(0, 4).map(Fraction), st.sampled_from([0.0, 1.0, 0.5, 2.5, 0.1])))
# folded constants add negative and non-integer rationals and negative floats
trees = _trees(st.one_of(
    st.integers(-3, 4).map(Fraction),
    st.sampled_from([Fraction(1, 3), Fraction(-3, 2), 0.0, 1.0, -0.5, 2.5, 0.1]),
))
simplified = trees.map(ex.simplify)
variables = st.sampled_from(VARS)


def key(e, zeros_alike=False):
    """Structural identity, literal types included (with `zeros_alike`, all
    zero literals compare equal whatever their type and sign)."""
    if isinstance(e, ex.Num):
        if zeros_alike and e.value == 0:
            return ("num", "zero")
        return ("num", type(e.value).__name__, repr(e.value))
    if isinstance(e, ex.Var):
        return ("var", e.name)
    if isinstance(e, ex.Bin):
        return (e.op, key(e.left, zeros_alike), key(e.right, zeros_alike))
    if isinstance(e, ex.Neg):
        return ("neg", key(e.arg, zeros_alike))
    if isinstance(e, ex.Pow):
        return ("pow", key(e.base, zeros_alike), e.exponent)
    return (e.func, key(e.arg, zeros_alike))


def naive_diff(e, v):
    """Differentiation without any folding: the oracle for printed output."""
    if isinstance(e, ex.Num):
        return ex.Num(Fraction(0))
    if isinstance(e, ex.Var):
        return ex.Num(Fraction(1 if e.name == v else 0))
    if isinstance(e, ex.Bin):
        l, r = e.left, e.right
        dl, dr = naive_diff(l, v), naive_diff(r, v)
        if e.op in "+-":
            return ex.Bin(e.op, dl, dr)
        if e.op == "*":
            return ex.Bin("+", ex.Bin("*", dl, r), ex.Bin("*", l, dr))
        num = ex.Bin("-", ex.Bin("*", dl, r), ex.Bin("*", l, dr))
        return ex.Bin("/", num, ex.Pow(r, 2))
    if isinstance(e, ex.Neg):
        return ex.Neg(naive_diff(e.arg, v))
    if isinstance(e, ex.Pow):
        if e.exponent == 0:
            return ex.Num(Fraction(0))
        inner = naive_diff(e.base, v)
        return ex.Bin("*", ex.Bin("*", ex.Num(Fraction(e.exponent)), ex.Pow(e.base, e.exponent - 1)), inner)
    inner = naive_diff(e.arg, v)
    if e.func == "log":
        return ex.Bin("/", inner, e.arg)
    outer = {
        "sin": ex.Call("cos", e.arg),
        "cos": ex.Neg(ex.Call("sin", e.arg)),
        "exp": ex.Call("exp", e.arg),
    }[e.func]
    return ex.Bin("*", outer, inner)


@given(trees)
def test_simplify_is_idempotent(e):
    s = ex.simplify(e)
    assert key(ex.simplify(s)) == key(s)


@given(simplified, simplified, st.integers(-2, 3), variables)
def test_operators_and_diff_build_fixed_points(a, b, k, v):
    for built in (a + b, a - b, a * b, a / b, -a, a ** k, a.diff(v)):
        assert key(ex.simplify(built)) == key(built)


@given(simplified, variables)
def test_diff_prints_as_the_unfolded_derivative(e, v):
    folded, unfolded = ex.simplify(e.diff(v)), ex.simplify(naive_diff(e, v))
    assert key(folded) == key(unfolded)
    assert str(folded) == str(unfolded)


def _divides_by_folded_zero(e):
    """Whether some divisor of the tree or of its derivative (a right
    operand of `/`, an argument of log) is not a literal but folds to zero."""
    divisor = None
    if isinstance(e, ex.Bin) and e.op == "/":
        divisor = e.right
    elif isinstance(e, ex.Call) and e.func == "log":
        divisor = e.arg
    if divisor is not None and not isinstance(divisor, ex.Num):
        folded = ex.simplify(divisor)
        if isinstance(folded, ex.Num) and folded.value == 0:
            return True
    children = (getattr(e, slot, None) for slot in ("left", "right", "arg", "base"))
    return any(_divides_by_folded_zero(c) for c in children if isinstance(c, ex.Expr))


@given(parsed_trees, variables)
def test_diff_of_a_parsed_tree_folds_like_the_unfolded_one(e, v):
    # A parsed tree is not folded, so the constructors see a constant
    # subtree such as (1 - 1) or (0.5 * 2) as an opaque operand.  Against
    # simplifying the unfolded derivative this changes only zeros: `0 / d`
    # becomes 0 when d folds to zero (a tree that raises wherever it is
    # evaluated), and a zero may come out exact where folding made it 0.0
    # or -0.0.
    assume(not _divides_by_folded_zero(e))
    folded, unfolded = ex.simplify(e.diff(v)), ex.simplify(naive_diff(e, v))
    assert key(folded, zeros_alike=True) == key(unfolded, zeros_alike=True)


def _value(e, point):
    try:
        y = float(e.evaluate(point))
    except (ExprError, ArithmeticError, ValueError):
        return None
    return y if math.isfinite(y) else None


@given(trees, variables, st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3))
def test_diff_matches_central_differences(e, v, coords):
    point = dict(zip(VARS, coords))
    h = 1e-4

    def fd(step):
        hi = _value(e, {**point, v: point[v] + step})
        lo = _value(e, {**point, v: point[v] - step})
        return None if hi is None or lo is None else (hi - lo) / (2 * step)

    coarse, fine, here = fd(h), fd(h / 2), _value(e, point)
    assume(None not in (coarse, fine, here))
    scale = max(1.0, abs(here), abs(fine))
    # skip points where the function is not smooth on the scale of h
    assume(abs(coarse - fine) <= 1e-3 * scale)
    exact = _value(e.diff(v), point)
    assert exact is not None
    richardson = (4 * fine - coarse) / 3
    assert abs(exact - richardson) <= 1e-6 * scale


@given(parsed_trees)
def test_parse_prints_a_parsed_tree_back(e):
    assert str(ex.parse(str(e), VARS)) == str(e)


@given(simplified)
def test_parse_prints_a_simplified_tree_back(e):
    assert str(ex.simplify(ex.parse(str(e), VARS))) == str(e)
