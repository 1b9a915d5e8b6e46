"""Property tests for the exact ring and the component algebra built on it:
`Polynomial` arithmetic, `diff` and `evaluate`, the conversion to `Expr`,
vector fields (`apply`, `lie_bracket`, `scale`) and `contract`."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from contactpath import expr as ex
from contactpath import flat_model as fm
from contactpath.poly import Polynomial

VARS = ("x", "y", "z")

exact = settings(max_examples=100, deadline=None, derandomize=True, database=None)

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero = coefficients.filter(bool)
monomials = st.tuples(*[st.integers(0, 2)] * len(VARS)).map(
    lambda exps: tuple((v, e) for v, e in zip(VARS, exps) if e)
)
polys = st.dictionaries(monomials, nonzero, max_size=4).map(Polynomial)
variables = st.sampled_from(VARS)
points = st.fixed_dictionaries({v: coefficients for v in VARS})
fields = st.dictionaries(variables, polys, max_size=3).map(fm.VectorField)


def is_zero_field(x):
    return not x.components


@exact
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    zero, one = Polynomial(), Polynomial.constant(1)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + zero == p and p * one == p and (p * zero).is_zero()
    assert (p - p).is_zero() and p - q == p + (-q)


@exact
@given(polys, coefficients)
def test_scalars_coerce_on_either_side(p, c):
    assert c * p == p * c == Polynomial.constant(c) * p
    assert p + c == c + p == p + Polynomial.constant(c)


@exact
@given(polys, polys, coefficients, variables)
def test_diff_is_linear_and_leibniz(p, q, c, v):
    assert (p + q * c).diff(v) == p.diff(v) + q.diff(v) * c
    assert (p * q).diff(v) == p.diff(v) * q + p * q.diff(v)


@exact
@given(polys, polys, points)
def test_evaluate_is_a_homomorphism(p, q, pt):
    assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
    assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)
    assert (-p).evaluate(pt) == -p.evaluate(pt)


@exact
@given(polys)
def test_poly_to_expr_round_trips(p):
    assert ex.poly_to_expr(p).as_polynomial() == p


@exact
@given(fields, fields)
def test_bracket_is_antisymmetric(x, y):
    assert is_zero_field(fm.lie_bracket(x, y) + fm.lie_bracket(y, x))


@exact
@given(fields, fields, fields)
def test_bracket_satisfies_jacobi(x, y, w):
    total = (fm.lie_bracket(x, fm.lie_bracket(y, w))
             + fm.lie_bracket(y, fm.lie_bracket(w, x))
             + fm.lie_bracket(w, fm.lie_bracket(x, y)))
    assert is_zero_field(total)


@exact
@given(fields, polys, polys)
def test_apply_obeys_leibniz(x, f, g):
    assert x.apply(f * g) == x.apply(f) * g + f * x.apply(g)


@exact
@given(fields, fields, polys, coefficients)
def test_scale_distributes_over_sums(x, y, p, c):
    for factor in (p, c):
        assert is_zero_field((x + y).scale(factor) - (x.scale(factor) + y.scale(factor)))
    assert is_zero_field(x.scale(p).scale(c) - x.scale(p * c))
    assert is_zero_field(x - y - (x + -y))


@exact
@given(st.integers(1, 4).flatmap(
    lambda size: st.tuples(st.lists(st.lists(coefficients, min_size=size, max_size=size),
                                    min_size=1, max_size=4),
                           st.lists(polys, min_size=size, max_size=size))))
def test_contract_is_the_double_sum(data):
    matrix, vec = data
    naive = [sum((w * v for w, v in zip(row, vec)), Polynomial()) for row in matrix]
    assert fm.contract(matrix, vec) == naive
