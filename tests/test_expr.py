import math
import random
from fractions import Fraction

import pytest

from contactpath import expr as ex
from contactpath.errors import ExprEvalError, ExprNameError, ExprSyntaxError
from contactpath.poly import Polynomial


def test_product_plus_constant_tree():
    node = ex.parse("u1*u2 + 3", {"u1", "u2"})
    assert isinstance(node, ex.Bin) and node.op == "+"
    assert isinstance(node.left, ex.Bin) and node.left.op == "*"
    assert node.evaluate({"u1": 2, "u2": 5}) == 13


def test_unary_minus_precedence():
    node = ex.parse("u1^2 - -u2", {"u1", "u2"})
    # (u1^2) - (-u2)
    assert node.evaluate({"u1": 3, "u2": 4}) == 13
    node = ex.parse("-u1^2", {"u1"})
    assert node.evaluate({"u1": 3}) == -9


def test_unknown_variable_error():
    with pytest.raises(ExprNameError):
        ex.parse("sin(q)*x3", {"q"})


def test_unknown_function_error():
    with pytest.raises(ExprNameError):
        ex.parse("tanh(q)", {"q"})


def test_syntax_error_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse("u1 + ", {"u1"})
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError) as err:
        ex.parse("u1 $ u2", {"u1", "u2"})
    assert err.value.offset == 3


def test_integer_literals_are_exact():
    node = ex.parse("1/3", set())
    assert node.evaluate({}) == Fraction(1, 3)
    node = ex.parse("0.5", set())
    assert isinstance(node.value, float)


def test_power_requires_integer_literal():
    with pytest.raises(ExprSyntaxError):
        ex.parse("u1^u1", {"u1"})
    node = ex.parse("u1^-2", {"u1"})
    assert node.evaluate({"u1": 2.0}) == 0.25


def test_diff_product():
    node = ex.parse("u1*u2", {"u1", "u2"})
    d = ex.diff(node, "u1")
    assert str(d) == "u2"


def test_diff_quotient_and_chain():
    node = ex.parse("sin(u1^2)/u2", {"u1", "u2"})
    d = ex.diff(node, "u1")
    env = {"u1": 0.7, "u2": 1.3}
    want = math.cos(0.49) * 1.4 / 1.3
    assert abs(d.evaluate(env) - want) < 1e-12


def test_evaluate_exp_zero():
    assert ex.parse("exp(0)", set()).evaluate({}) == 1


def test_division_by_zero_raises():
    node = ex.parse("1/u1", {"u1"})
    with pytest.raises(ExprEvalError):
        node.evaluate({"u1": 0})


def test_log_domain_error():
    node = ex.parse("log(u1)", {"u1"})
    with pytest.raises(ExprEvalError):
        node.evaluate({"u1": -1.0})
    assert abs(node.evaluate({"u1": math.e}) - 1.0) < 1e-12


def _random_tree(rng, variables, depth):
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.55:
            return ex.Var(rng.choice(variables))
        return ex.Num(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    kind = rng.random()
    if kind < 0.6:
        op = rng.choice("+-*/")
        left = _random_tree(rng, variables, depth - 1)
        right = _random_tree(rng, variables, depth - 1)
        if op == "/":
            # keep denominators away from zero on the sampling box
            right = ex.Bin("+", ex.Bin("*", right, right), ex.Num(Fraction(1)))
        return ex.Bin(op, left, right)
    if kind < 0.72:
        return ex.Neg(_random_tree(rng, variables, depth - 1))
    if kind < 0.82:
        return ex.Pow(_random_tree(rng, variables, depth - 1), rng.randint(1, 3))
    func = rng.choice(["sin", "cos", "exp", "log"])
    arg = _random_tree(rng, variables, depth - 1)
    if func == "exp":
        arg = ex.Bin("*", ex.Num(Fraction(1, 4)), arg)
    if func == "log":
        arg = ex.Bin("+", ex.Bin("*", arg, arg), ex.Num(Fraction(1)))
    return ex.Call(func, arg)


def test_diff_matches_finite_differences():
    rng = random.Random(99)
    variables = ["x", "y", "z"]
    checked = 0
    trees = 0
    while checked < 1000 and trees < 400:
        trees += 1
        tree = _random_tree(rng, variables, 5)
        var = rng.choice(variables)
        deriv = tree.diff(var)
        for _ in range(5):
            env = {v: rng.uniform(-1.2, 1.2) for v in variables}
            h = 1e-6
            up = dict(env, **{var: env[var] + h})
            dn = dict(env, **{var: env[var] - h})
            try:
                fd = (tree.evaluate(up) - tree.evaluate(dn)) / (2 * h)
                exact = deriv.evaluate(env)
            except ExprEvalError:
                continue
            if not (math.isfinite(fd) and math.isfinite(exact)):
                continue
            if abs(exact) > 1e4:
                continue
            assert abs(fd - exact) <= 1e-6 * (1 + abs(exact)) + 1e-7, str(tree)
            checked += 1
    assert checked >= 1000


def test_print_parse_round_trip():
    rng = random.Random(7)
    variables = ["x", "y"]
    for _ in range(60):
        tree = _random_tree(rng, variables, 4)
        text = str(tree)
        back = ex.parse(text, variables)
        for _ in range(3):
            env = {v: rng.uniform(-1.1, 1.1) for v in variables}
            try:
                a = tree.evaluate(env)
                b = back.evaluate(env)
            except ExprEvalError:
                continue
            if math.isfinite(a) and abs(a) < 1e6:
                assert abs(a - b) <= 1e-12 * (1 + abs(a)), text


def test_diff_linearity(rng):
    a = ex.parse("sin(x)*y + x^3", {"x", "y"})
    b = ex.parse("exp(x/4) - y*y", {"x", "y"})
    combined = ex.diff(ex.Bin("+", a, b), "x")
    split = ex.Bin("+", ex.diff(a, "x"), ex.diff(b, "x"))
    for _ in range(100):
        env = {"x": rng.uniform(-2, 2), "y": rng.uniform(-2, 2)}
        assert abs(combined.evaluate(env) - split.evaluate(env)) < 1e-12


def test_simplifier_identities():
    x = ex.Var("x")
    zero = ex.Num(Fraction(0))
    one = ex.Num(Fraction(1))
    assert ex.simplify(ex.Bin("+", x, zero)) is x
    assert ex.simplify(ex.Bin("*", one, x)) is x
    assert ex.simplify(ex.Bin("*", zero, x)).value == 0
    assert ex.simplify(ex.Bin("-", zero, x)).arg is x
    assert ex.simplify(ex.Pow(x, 1)) is x
    folded = ex.simplify(ex.parse("2*3 + 1/2", set()))
    assert folded.value == Fraction(13, 2)


def test_as_polynomial():
    node = ex.parse("(x + 1)^2 - x^2 - 2*x - 1", {"x"})
    assert node.as_polynomial().is_zero()
    assert ex.parse("sin(x)", {"x"}).as_polynomial() is None
    p = ex.parse("x/2", {"x"}).as_polynomial()
    assert p.evaluate({"x": Fraction(3)}) == Fraction(3, 2)


def test_non_finite_literal_is_refused_at_its_offset():
    for src, offset in (("1e400", 0), ("u1*1e400", 3), ("sin(u1) - 2.5e309", 10)):
        with pytest.raises(ExprSyntaxError) as err:
            ex.parse(src, {"u1"})
        assert err.value.offset == offset
    # a literal that underflows is the float 0.0
    assert ex.parse("1e-400", set()).evaluate({}) == 0.0


def test_evaluate_applies_a_function_the_environment_binds():
    node = ex.parse("sin(u1) + twice(u1 - 1)", {"u1"}, functions={"sin", "twice"})
    assert node.evaluate({"u1": Fraction(3), "twice": lambda x: 2 * x,
                          "sin": lambda x: x}) == Fraction(7)
    # chart values alone leave the built-in functions in place
    assert ex.parse("sin(u1)", {"u1"}).evaluate({"u1": 0.5}) == math.sin(0.5)


@pytest.mark.parametrize("op", ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"])
def test_polynomials_and_trees_do_not_mix(op):
    # a geometry keeps its ring elements in one ring, so nothing converts
    # between the two; a mix is a TypeError either way round
    p, e = Polynomial.variable("x"), ex.parse("x", {"x"})
    with pytest.raises(TypeError):
        getattr(p, op)(e)
    with pytest.raises(TypeError):
        getattr(e, op)(p)
