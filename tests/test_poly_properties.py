"""Property tests for the exact ring and the component algebra built on it:
`Polynomial` arithmetic, `diff` and `evaluate`, the conversion to `Expr`,
vector fields (`apply`, `lie_bracket`, `scale`) and `contract`, and exact
row reduction.  `apply` and the restricted `lie_bracket` are also checked on
expression-tree components, float constants included."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from contactpath import exactlinalg as ela
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


# expression-tree components: polynomials, a transcendental call, and
# rational and float constants, whose zero derivatives fold to Fraction 0
# or to float 0.0
expr_atoms = st.one_of(
    polys.map(ex.poly_to_expr),
    polys.map(lambda p: ex.simplify(ex.Call("sin", ex.poly_to_expr(p)))),
    st.sampled_from([ex.Num(Fraction(2)), ex.Num(Fraction(-1, 3)), ex.Num(0.5), ex.Num(2.5)]),
)
exprs = st.one_of(expr_atoms, st.builds(lambda a, b, c: a * b + c, expr_atoms, expr_atoms, expr_atoms))
expr_fields = st.dictionaries(variables, exprs, max_size=3).map(fm.VectorField)
coord_sets = st.frozensets(variables)


def shape(e):
    """Structural identity of a ring element, literal types included."""
    if isinstance(e, Polynomial):
        return ("poly", tuple(e.terms.items()))
    if isinstance(e, ex.Num):
        return ("num", type(e.value).__name__, repr(e.value))
    if isinstance(e, ex.Var):
        return ("var", e.name)
    if isinstance(e, ex.Bin):
        return (e.op, shape(e.left), shape(e.right))
    if isinstance(e, ex.Neg):
        return ("neg", shape(e.arg))
    if isinstance(e, ex.Pow):
        return ("pow", shape(e.base), e.exponent)
    return (e.func, shape(e.arg))


def field_shape(x):
    return [(k, shape(v)) for k, v in x.components.items()]


def plain_apply(x, func):
    """X(func) as the sum over every component, zero derivatives included."""
    total = None
    for coord, comp in x.components.items():
        term = comp * func.diff(coord)
        total = term if total is None else total + term
    return fm.PZERO if total is None else total


@exact
@given(fields, polys)
def test_apply_is_the_plain_sum(x, f):
    assert shape(x.apply(f)) == shape(plain_apply(x, f))


@exact
@given(expr_fields, exprs)
def test_apply_is_the_plain_sum_on_trees(x, f):
    assert shape(x.apply(f)) == shape(plain_apply(x, f))


def restricted(x, coords):
    return [(k, v) for k, v in field_shape(x) if k in coords]


@exact
@given(fields, fields, coord_sets)
def test_restricted_bracket_is_the_restriction(x, y, coords):
    assert field_shape(fm.lie_bracket(x, y, coords)) == restricted(fm.lie_bracket(x, y), coords)


@exact
@given(expr_fields, expr_fields, coord_sets)
def test_restricted_bracket_is_the_restriction_on_trees(x, y, coords):
    assert field_shape(fm.lie_bracket(x, y, coords)) == restricted(fm.lie_bracket(x, y), coords)


def dense_rref(a):
    """Gauss-Jordan elimination over every entry of every row."""
    m = [[Fraction(x) for x in row] for row in a]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


sparse_entries = st.one_of(st.just(0), st.just(Fraction(0)), coefficients)


@exact
@given(st.integers(1, 6).flatmap(
    lambda cols: st.lists(st.lists(sparse_entries, min_size=cols, max_size=cols), max_size=5)))
def test_rref_is_dense_gauss_jordan(a):
    red, pivots = ela.rref(a)
    assert (red, pivots) == dense_rref(a)
    assert all(type(x) is Fraction for row in red for x in row)
