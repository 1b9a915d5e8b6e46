"""Property tests for the sparse expansion behind `GradedLieAlgebra.bracket`
and `expand`, at n = 3, 4 with the standard and a non-standard rational
omega: brackets agree with the dense matrix commutator, expansion inverts
`element_matrix`, and a matrix outside sp(n) is rejected."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactpath import exactlinalg as ela
from contactpath.errors import InconsistencyError
from contactpath.graded_sp import build

exact = settings(max_examples=100, deadline=None, derandomize=True, database=None)

OMEGA_3 = [[0, Fraction(3, 2)], [Fraction(-3, 2), 0]]
OMEGA_4 = [
    [0, Fraction(1, 2), 0, 1],
    [Fraction(-1, 2), 0, 3, 0],
    [0, -3, 0, -1],
    [-1, 0, 1, 0],
]
ALGEBRAS = [build(3), build(3, omega=OMEGA_3), build(4), build(4, omega=OMEGA_4)]
IDS = ["n3", "n3-omega", "n4", "n4-omega"]

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


def elements(algebra):
    names = st.sampled_from([b.name for b in algebra.basis])
    return st.dictionaries(names, coefficients, max_size=4)


algebra_and_pair = st.sampled_from(ALGEBRAS).flatmap(
    lambda g: st.tuples(st.just(g), elements(g), elements(g))
)


@exact
@given(algebra_and_pair)
def test_bracket_is_the_matrix_commutator(args):
    g, x, y = args
    mx, my = g.element_matrix(x), g.element_matrix(y)
    got = g.bracket(x, y)
    assert all(type(v) is Fraction and v for v in got.values())
    assert g.element_matrix(got) == ela.matsub(ela.matmul(mx, my), ela.matmul(my, mx))


@exact
@given(algebra_and_pair)
def test_expand_inverts_element_matrix(args):
    g, x, _ = args
    got = g.expand(g.element_matrix(x))
    assert got == {name: c for name, c in x.items() if c}
    assert all(type(v) is Fraction for v in got.values())


@pytest.mark.parametrize("g", ALGEBRAS, ids=IDS)
def test_expand_rejects_the_identity(g):
    # every basis element is traceless, so all trace pairings of the identity
    # vanish and only the reconstruction check can reject it
    with pytest.raises(InconsistencyError, match=r"\(entry 0,0\)$"):
        g.expand(ela.identity(2 * g.n))
