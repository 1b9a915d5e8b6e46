import math
from fractions import Fraction

import pytest

from contactpath import expr as ex
from contactpath.errors import ExprEvalError
from contactpath.lowering import compile_exprs

NAMES = ("x", "y")
# division by a variable, negative powers, log, and variable-free subtrees
# (Neg, Pow, Call and Bin folds, and ones that raise wherever they are read)
EXPRESSIONS = [
    "x/y", "1/(x - y)", "x/(2 - 2)", "x^-2", "(x + y)^-3", "x^0",
    "log(x)", "log(x - 1)*y", "x*(2/3) + y/7", "-(1/3)^-2*x", "-(2^-1)",
    "sin(1/3)*x + cos(2)", "exp(-(1/2))*y", "log(2)", "exp(1/4) - y",
    "x + log(0)", "x + 1/(2 - 2)", "0^-1 + y", "-(x*y)", "(1.5*x - y/3)^-1",
]
POINTS = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (2.0, -3.0), (0.5, 1.5), (1.0, 1.0),
          (-1.0, 2.0), (1e-3, 7.25), (3.0, 3.0)]


@pytest.mark.parametrize("src", EXPRESSIONS)
def test_compiled_values_are_the_tree_walk_bit_for_bit(src):
    node = ex.parse(src, NAMES)
    values = compile_exprs([node], NAMES)
    for point in POINTS:
        try:
            want = node.evaluate(dict(zip(NAMES, point)))
        except ExprEvalError:
            with pytest.raises(ExprEvalError):
                values(list(point))
            continue
        got, = values(list(point))
        assert type(got) is float
        assert float.hex(got) == float.hex(float(want)), (src, point)


def test_every_guard_is_reached():
    # each kind of failure the compiled code raises, with the tree walk's message
    cases = [("x/y", (1.0, 0.0), "division by zero"),
             ("x/(2 - 2)", (1.0, 1.0), "division by zero"),
             ("x^-2", (0.0, 1.0), "zero raised to a negative power"),
             ("log(x)", (-1.0, 0.0), "log of non-positive value -1.0"),
             ("x + log(0)", (1.0, 1.0), "log of non-positive value 0")]
    for src, point, message in cases:
        with pytest.raises(ExprEvalError, match=f"^{message}$"):
            compile_exprs([ex.parse(src, NAMES)], NAMES)(list(point))


def test_variable_free_root_is_the_float_of_its_exact_value():
    node = ex.parse("-(1/3)^-2 + exp(0)", NAMES)
    assert node.evaluate({}) == Fraction(-8)
    assert compile_exprs([node], NAMES)([0.0, 0.0]) == [-8.0]
    assert compile_exprs([ex.parse("log(3)", NAMES)], NAMES)([0.0, 0.0]) == [math.log(3)]


def test_overflow_rerun_applies_numpy_functions():
    # math.exp raises at 1000 where np.exp gives inf, so 1/exp(x) is 0.0
    assert compile_exprs([ex.parse("1/exp(x)", NAMES)], NAMES)([1000.0, 0.0]) == [0.0]
