import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactpath.squat import (
    COMPLEX_STRUCTURE,
    E,
    F,
    J,
    NULL,
    ONE,
    REFLECTION,
    SplitQuaternion,
    bracket,
    classify_imaginary,
    conj,
    gram,
    matrix_rep,
    module_norm2,
    module_rank,
    mul,
    norm2,
    re,
    submodule_dimension,
)


def random_quat(rng):
    return SplitQuaternion(
        *[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
    )


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )


def test_generator_relations():
    minus_one = SplitQuaternion(-1)
    assert J * J == minus_one
    assert E * E == ONE
    assert F * F == ONE
    assert E * F == J
    assert F * E == -J
    assert mul(E, F) == J and mul(F, E) == -J


def test_trivial_norm_and_conj():
    assert norm2(ONE) == 1
    assert conj(ONE) == ONE
    assert re(ONE) == 1


def test_matrix_rep_j_squares_to_minus_identity():
    m = matrix_rep(J)
    assert mat_mul(m, m) == ((-1, 0), (0, -1))


def test_half_one_plus_f_idempotent():
    p = SplitQuaternion(Fraction(1, 2), 0, 0, Fraction(1, 2))
    assert p * p == p
    m = matrix_rep(p)
    assert mat_mul(m, m) == m


def test_matrix_rep_homomorphism_and_norm_multiplicativity(rng):
    for _ in range(10_000):
        p = random_quat(rng)
        q = random_quat(rng)
        assert matrix_rep(p * q) == mat_mul(matrix_rep(p), matrix_rep(q))
        assert norm2(p * q) == norm2(p) * norm2(q)


def test_conj_antihomomorphism_and_determinant(rng):
    for _ in range(300):
        p = random_quat(rng)
        q = random_quat(rng)
        assert conj(p * q) == conj(q) * conj(p)
        m = matrix_rep(p)
        assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == norm2(p)
        assert m[0][0] + m[1][1] == 2 * re(p)
    assert (mul(p, mul(q, p)) == mul(mul(p, q), p))  # associativity spot check


def test_classification_examples():
    assert classify_imaginary(E) == REFLECTION
    assert classify_imaginary(J) == COMPLEX_STRUCTURE
    assert classify_imaginary(E + J) == NULL
    with pytest.raises(ValueError):
        classify_imaginary(ONE + J)


def test_classification_trichotomy(rng):
    seen = {REFLECTION: 0, COMPLEX_STRUCTURE: 0, NULL: 0}
    for _ in range(1000):
        p = random_quat(rng).im()
        kind = classify_imaginary(p)
        seen[kind] += 1
        # imaginary p squares to -norm2(p) times the identity
        sq = p * p
        assert sq == SplitQuaternion(-norm2(p))
        if kind == REFLECTION:
            assert norm2(p) < 0
        elif kind == COMPLEX_STRUCTURE:
            assert norm2(p) > 0
        else:
            assert norm2(p) == 0
    assert seen[REFLECTION] > 0 and seen[COMPLEX_STRUCTURE] > 0
    seen[NULL] += sum(1 for _ in [0] if classify_imaginary(E + J) == NULL)
    assert seen[NULL] > 0


def test_module_rank_examples():
    zero = SplitQuaternion(0)
    half = SplitQuaternion(Fraction(1, 2), 0, 0, Fraction(1, 2))
    assert module_rank([half, zero, zero]) == 1
    assert module_rank([J, zero, zero]) == 2
    assert module_rank([zero, zero, zero]) == 0
    one_plus_f = SplitQuaternion(1, 0, 0, 1)
    assert submodule_dimension(one_plus_f) == 2
    assert submodule_dimension(J) == 4


def test_rank_norm_relations(rng):
    # rank 1 forces norm 0; rank 2 splits into isotropic (norm 0) and
    # symplectic (norm nonzero)
    zero = SplitQuaternion(0)
    seen_isotropic = seen_symplectic = 0
    for _ in range(400):
        xs = [random_quat(rng), random_quat(rng)]
        r = module_rank(xs)
        n2 = module_norm2(xs)
        if r <= 1:
            assert n2 == 0
        elif n2 == 0:
            seen_isotropic += 1
        else:
            seen_symplectic += 1
    # constructed cases for both rank-2 flavors
    half = SplitQuaternion(Fraction(1, 2), 0, 0, Fraction(1, 2))
    other = SplitQuaternion(Fraction(1, 2), 0, 0, Fraction(-1, 2))
    assert module_rank([half, other]) == 2 and module_norm2([half, other]) == 0
    assert module_rank([ONE, zero]) == 2 and module_norm2([ONE, zero]) == 1
    assert seen_symplectic > 0


def test_gram_signature():
    basis = [ONE, J, E, F]
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            want = 0
            if i == j:
                want = 1 if i < 2 else -1
            assert gram(x, y) == want


def test_imaginary_bracket_closes():
    # 2 im(ab) identity and closure in the imaginary part
    table = {
        (1, 2): -2 * F,
        (2, 3): 2 * J,
        (1, 3): 2 * E,
    }
    basis = [ONE, J, E, F]
    for (i, j), want in table.items():
        got = bracket(basis[i], basis[j])
        assert got == want
        assert re(got) == 0
        assert got == 2 * (basis[i] * basis[j]).im()


# any mix of ints, Fractions and floats; products over a common denominator
# must give the values and types the term-by-term formulas give
scalars = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.floats(-1e3, 1e3, allow_nan=False),
)
quats = st.tuples(scalars, scalars, scalars, scalars)


def plain_product(p, q):
    a, b, c, d = p
    x, y, z, w = q
    return (
        a * x - b * y + c * z + d * w,
        a * y + b * x + c * w - d * z,
        a * z + c * x + b * w - d * y,
        a * w + d * x - b * z + c * y,
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(quats, quats)
def test_product_and_norm_match_plain_formulas(p, q):
    got = (SplitQuaternion(*p) * SplitQuaternion(*q)).components()
    assert list(map(repr, got)) == list(map(repr, plain_product(p, q)))
    a, b, c, d = p
    assert repr(SplitQuaternion(*p).norm2()) == repr(a * a + b * b - c * c - d * d)


def test_module_rank_is_exact_on_float_entries():
    # a float counts as the rational it is: no tolerance decides a small
    # entry to be zero
    zero = SplitQuaternion(0)
    assert module_rank([1e-12 * J, zero]) == 2
    assert module_rank([SplitQuaternion(0.5, 0, 0, 0.5), zero]) == 1
    # a - d is one ulp of 0.1, far below any fixed tolerance, and nonzero
    assert module_rank([SplitQuaternion(0.1, 0, 0, math.nextafter(0.1, 1)), zero]) == 2


def test_scalar_divided_by_a_quaternion():
    assert 2 / J == SplitQuaternion(0, -2)
    assert Fraction(1, 2) / (1 + J) == SplitQuaternion(Fraction(1, 4), Fraction(-1, 4))
    with pytest.raises(ZeroDivisionError):
        1 / (1 + E)
