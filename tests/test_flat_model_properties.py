"""Property tests for the flat model's exact pairing code: `TwoForm.gram`
against the dense sum over every (component, row, column), and
`eval_wedge_of_two_forms` against the shuffle sum that defines the wedge of
two-forms, plus the verdicts of `qk_psi_power_nonzero` built on both."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactpath import flat_model as fm

exact = settings(max_examples=100, deadline=None, derandomize=True, database=None)

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def dense_gram(form, chart, fields, point):
    """The Gram matrix by the defining sum over every component and every
    (row, column) pair of fields."""
    vals = [f.evaluate(chart, point) for f in fields]
    idx = {nm: i for i, nm in enumerate(chart.names)}
    size = len(fields)
    out = [[0] * size for _ in range(size)]
    for (a, b), comp in form.components.items():
        cval = comp.evaluate(point)
        ia, ib = idx[a], idx[b]
        for r in range(size):
            for c in range(size):
                out[r][c] += cval * (vals[r][ia] * vals[c][ib] - vals[r][ib] * vals[c][ia])
    return out


QK_SMALL = [fm.qk_forms(n, k) for n in (3, 4, 5) for k in range(1, n)]


@exact
@given(st.sampled_from(QK_SMALL), st.data())
def test_sparse_gram_matches_the_dense_sum_off_the_origin(qk, data):
    chart = qk.chart
    point = chart.point(data.draw(st.lists(coefficients, min_size=chart.dim, max_size=chart.dim)))
    spanning = list(qk.fields.values())
    for form in qk.omega_forms.values():
        assert form.gram(chart, spanning, point) == dense_gram(form, chart, spanning, point)
    # a wedge of two contact forms has dy components, which read the
    # spanning fields' y values and the vertical fields
    a, b = data.draw(st.lists(st.sampled_from(sorted(qk.theta)), min_size=2, max_size=2))
    form, fields = fm.wedge(qk.theta[a], qk.theta[b]), spanning + list(qk.vertical.values())
    assert form.gram(chart, fields, point) == dense_gram(form, chart, fields, point)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_sparse_gram_matches_the_dense_sum_at_the_origin(n):
    for k in range(1, n):
        qk = fm.qk_forms(n, k)
        spanning, origin = list(qk.fields.values()), qk.chart.origin()
        for form in qk.omega_forms.values():
            assert form.gram(qk.chart, spanning, origin) == dense_gram(form, qk.chart, spanning, origin)


def shuffle_sum(factors, size):
    """(Omega_1 ^ ... ^ Omega_m)(v_1, ..., v_2m): the sum over orderings of
    the vectors in which each factor's two slots are increasing, of the
    ordering's sign times the product of the factors on their slots."""
    total = 0
    for perm in itertools.permutations(range(size)):
        slots = list(zip(perm[::2], perm[1::2]))
        if all(i < j for i, j in slots):
            sign = (-1) ** sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])
            prod = sign
            for g, (i, j) in zip(factors, slots):
                prod *= g[i][j]
            total += prod
    return total


@st.composite
def wedge_inputs(draw):
    """Antisymmetric integer Gram matrices on 2m vectors (m <= 3) with
    multiplicities summing to m, some entries zero."""
    m = draw(st.integers(1, 3))
    size = 2 * m
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        upper = draw(st.lists(st.integers(-2, 2), min_size=size * size, max_size=size * size))
        forms.append([[upper[i * size + j] if i < j else -upper[j * size + i] if i > j else 0
                       for j in range(size)] for i in range(size)])
    counts = [0] * len(forms)
    for t in draw(st.lists(st.integers(0, len(forms) - 1), min_size=m, max_size=m)):
        counts[t] += 1
    return forms, counts, size


@exact
@given(wedge_inputs(), st.randoms(use_true_random=False))
def test_wedge_matches_the_shuffle_sum_in_any_factor_order(inputs, rnd):
    forms, counts, size = inputs
    value = fm.eval_wedge_of_two_forms(forms, counts)
    factors = [g for g, c in zip(forms, counts) for _ in range(c)]
    assert value == shuffle_sum(factors, size)
    order = list(range(len(forms)))
    rnd.shuffle(order)
    assert fm.eval_wedge_of_two_forms([forms[t] for t in order],
                                      [counts[t] for t in order]) == value


def test_wedge_of_two_forms_commutes():
    # A ^ B = 14; a rule that gives the k-th factor only to the pair holding
    # the k-th smallest vector gives 0 on (A, B) and 14 on (B, A)
    a = [[0, 1, 2, 0], [-1, 0, 3, 1], [-2, -3, 0, 2], [0, -1, -2, 0]]
    b = [[0, 2, -1, 3], [-2, 0, 1, 1], [1, -1, 0, 2], [-3, -1, -2, 0]]
    ab = fm.eval_wedge_of_two_forms([a, b], [1, 1])
    assert ab == fm.eval_wedge_of_two_forms([b, a], [1, 1]) == shuffle_sum([a, b], 4) == 14


@pytest.mark.parametrize("n, k", [(3, 1), (4, 1), (4, 3), (5, 3), (5, 4)])
def test_psi_power_nonvanishing_at_every_k(n, k):
    assert fm.qk_psi_power_nonzero(n, k)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_psi_power_vanishes_without_omega12_and_omega22(monkeypatch, n):
    # at k = 2, Psi = 2 Omega11 ^ Omega22 - 2 Omega12 ^ Omega12
    qk_forms = fm.qk_forms

    def degenerate(n, k, omega=None):
        qk = qk_forms(n, k, omega)
        qk.omega_forms[(1, 2)] = qk.omega_forms[(2, 2)] = fm.TwoForm()
        return qk

    monkeypatch.setattr(fm, "qk_forms", degenerate)
    assert not fm.qk_psi_power_nonzero(n, 2)
