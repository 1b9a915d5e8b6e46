"""Property tests for the exact ring and the component algebra built on it:
`Polynomial` arithmetic, `diff` and `evaluate`, the coefficient contract
(`int` while integral, `Fraction` at the ring's edges), the conversion to
`Expr`, vector fields (`apply`, `lie_bracket`, `scale`) and `contract`, and
exact row reduction.  `apply` and the restricted `lie_bracket` are also checked on
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


# the coefficient contract: int coefficients while integral, Fraction at the
# ring's edges; checked against a Fraction-only reference on plain dicts

def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def ref_mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            out = ref_add(out, {ref_mono_mul(m1, m2): c1 * c2})
    return out


def ref_pow(a, k):
    out = {(): Fraction(1)}
    for _ in range(k):
        out = ref_mul(out, a)
    return out


def ref_diff(a, var):
    out = {}
    for mono, c in a.items():
        exps = dict(mono)
        if var in exps:
            e = exps.pop(var)
            if e > 1:
                exps[var] = e - 1
            out = ref_add(out, {tuple(sorted(exps.items())): c * e})
    return out


def ref_evaluate(a, pt):
    total = None
    for mono, c in a.items():
        val = c
        for v, e in mono:
            val = val * pt[v] ** e
        total = val if total is None else total + val
    return Fraction(0) if total is None else total


def fraction_leaves(e):
    if isinstance(e, ex.Num):
        return [e.value]
    return [x for c in e.children() for x in fraction_leaves(c)]


# integral Fractions such as 6/3 among the draws
mixed = st.one_of(coefficients, st.integers(-3, 3),
                  st.sampled_from([Fraction(6, 3), Fraction(-4, 2), Fraction(0, 5)]))
term_lists = st.lists(st.tuples(monomials, mixed), max_size=4)
float_points = st.fixed_dictionaries({v: st.sampled_from([0.5, -1.25, 3.0, 0.1]) for v in VARS})


def built(terms):
    """(Polynomial built through the ring, Fraction-only reference dict)."""
    p, ref = Polynomial(), {}
    for mono, c in terms:
        m = Polynomial.constant(c)
        for v, e in mono:
            m = m * Polynomial.variable(v) ** e
        p = p + m
        ref = ref_add(ref, {mono: Fraction(c)} if c else {})
    return p, ref


def check_contract(p, ref, pt, fpt):
    assert p.terms == ref
    assert all(type(c) is int if Fraction(c).denominator == 1 else type(c) is Fraction
               for c in p.terms.values())
    if p.is_constant():
        value = p.constant_value()
        assert type(value) is Fraction and value == ref.get((), 0)
    for point in (pt, fpt):
        got, want = p.evaluate(point), ref_evaluate(ref, point)
        assert type(got) is type(want) and got == want
    assert type(p.evaluate(pt)) is Fraction
    assert type(p.evaluate(fpt)) is (Fraction if p.is_constant() else float)
    tree = ex.poly_to_expr(p)
    assert tree.to_str() == ex.poly_to_expr(Polynomial(ref)).to_str()
    assert all(type(x) is Fraction for x in fraction_leaves(tree))


@exact
@given(term_lists, term_lists, mixed, st.integers(0, 3), variables, points, float_points)
def test_integral_coefficients_are_ints_and_edges_stay_fraction(s, t, c, k, v, pt, fpt):
    (p, p_ref), (q, q_ref) = built(s), built(t)
    c_ref = {(): Fraction(c)} if c else {}
    results = [
        (p, p_ref),
        (p + q, ref_add(p_ref, q_ref)),
        (p - q, ref_add(p_ref, ref_neg(q_ref))),
        (-p, ref_neg(p_ref)),
        (p * q, ref_mul(p_ref, q_ref)),
        (p ** k, ref_pow(p_ref, k)),
        (p.diff(v), ref_diff(p_ref, v)),
        (p + c, ref_add(p_ref, c_ref)),
        (c - p, ref_add(c_ref, ref_neg(p_ref))),
        (c * p, ref_mul(c_ref, p_ref)),
        (Polynomial.constant(c), c_ref),
    ]
    for r, ref in results:
        check_contract(r, ref, pt, fpt)


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
