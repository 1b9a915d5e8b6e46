import pytest

from contactpath import exactlinalg as ela
from contactpath import graded_sp, kostant
from contactpath.errors import HousingAmbiguityError, UnsupportedDimensionError
from contactpath.graded_sp import build
from contactpath.lie_core import Weight, build_root_system


def pad(labels, n):
    return tuple(labels) + (0,) * (n - len(labels))


def expected_table(n, parabolic):
    """Golden component tables, as (labels, homogeneity, housing)."""
    if parabolic == "P1":
        return [
            (pad((-1, 2, 1), n), (2,), (-1, -1, 2)),
        ]
    if parabolic == "P2":
        if n == 3:
            # the (I, J, K) bookkeeping places the first row's target in
            # degree -2 = I + J + K
            return [
                ((5, -3, 1), (1,), (-1, -2, 1)),
                ((0, -3, 4), (2,), (-1, -1, 2)),
            ]
        return [
            (pad((4, -3, 0, 1), n), (0,), (-1, -1, 0)),
            (pad((0, -3, 4), n), (2,), (-1, -1, 2)),
        ]
    if n == 3:
        return [
            ((-5, 2, 1), (-2, 1), ((0, -1), (0, -2), (-2, 1))),
            ((5, -4, 1), (2, -1), ((-1, 0), (-1, -1), (2, -1))),
            ((0, -3, 4), (1, 2), ((0, -1), (-1, -1), (1, 2))),
        ]
    return [
        (pad((-4, 1, 0, 1), n), (-2, 0), ((0, -1), (0, -1), (-2, 0))),
        (pad((5, -4, 1), n), (2, -1), ((-1, 0), (-1, -1), (2, -1))),
        (pad((0, -3, 4), n), (1, 2), ((0, -1), (-1, -1), (1, 2))),
    ]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("parabolic", ["P1", "P2", "P12"])
def test_h2_matches_golden_tables(n, parabolic):
    got = kostant.h2(n, parabolic)
    want = expected_table(n, parabolic)
    assert len(got) == len(want)
    for comp, (labels, hom, housing) in zip(got, want):
        assert comp.labels.coeffs == labels
        assert comp.homogeneity == hom
        assert comp.housing == housing


@pytest.mark.parametrize("parabolic", ["P1", "P2", "P12"])
def test_h2_rejects_n2(parabolic):
    with pytest.raises(UnsupportedDimensionError):
        kostant.h2(2, parabolic)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_regularity_filter(n):
    # components of nonpositive Z-homogeneity: one per P12 run, one for P2
    # when n > 3, none otherwise
    for parabolic, expected_count in (("P1", 0), ("P2", 0 if n == 3 else 1), ("P12", 1)):
        comps = kostant.h2(n, parabolic)
        assert sum(1 for c in comps if c.z_homogeneity <= 0) == expected_count


@pytest.mark.parametrize("n", [3, 5])
def test_homogeneity_first_component_labels(n):
    rs = build_root_system(n)
    labels = Weight(pad((-1, 2, 1), n))
    assert kostant.homogeneity(rs, labels, 1) == 2


def test_homogeneity_second_node():
    rs = build_root_system(4)
    labels = Weight((4, -3, 0, 1))
    assert kostant.homogeneity(rs, labels, 2) == 0
    assert kostant.homogeneity(rs, Weight((0, 0, 0, 0)), 2) == 0


@pytest.mark.parametrize("n", range(3, 9))
def test_homogeneity_is_the_inverse_cartan_pairing(n, rng):
    # the reference pairs the labels with column k of the inverse Cartan
    # matrix, computed exactly here
    rs = build_root_system(n)
    inv = ela.inverse(rs.cartan)
    for _ in range(50):
        w = Weight(tuple(rng.randint(-9, 9) for _ in range(n)))
        for k in range(1, n):
            assert kostant.homogeneity(rs, w, k) == sum(c * row[k - 1] for c, row in zip(w.coeffs, inv))
    with pytest.raises(UnsupportedDimensionError):
        kostant.homogeneity(rs, w, n)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_root_data_and_h2_entries_are_ints(n):
    rs = build_root_system(n)
    values = [x for r in rs.simple_roots + rs.positive_roots() for x in r]
    values += [x for row in rs.cartan for x in row] + list(rs.to_epsilon(rs.rho))
    for parabolic in kostant.PARABOLIC_NODES:
        for c in kostant.h2(n, parabolic):
            values += list(c.labels.coeffs) + list(c.homogeneity)
            values += [x for part in c.housing for x in (part if isinstance(part, tuple) else (part,))]
    assert {type(x) for x in values} == {int}


def test_housing_examples_p12_n4():
    rs = build_root_system(4)
    algebra = build(4, "P12")
    cases = [
        ((-4, 1, 0, 1), (-2, 0), ((0, -1), (0, -1), (-2, 0))),
        ((5, -4, 1, 0), (2, -1), ((-1, 0), (-1, -1), (2, -1))),
        ((0, -3, 4, 0), (1, 2), ((0, -1), (-1, -1), (1, 2))),
    ]
    for labels, hom, want in cases:
        assert kostant.housing(rs, Weight(labels), hom, algebra) == want


def test_housing_ambiguity_error():
    rs = build_root_system(4)
    algebra = build(4, "P12")
    # a weight that no candidate subspace contains
    with pytest.raises(HousingAmbiguityError):
        kostant.housing(rs, Weight((9, 9, 9, 9)), (1, 2), algebra)


def test_housing_refuses_a_crossed_node_at_n():
    # at n = 2 node 2 is the long simple root: its coefficient is half the
    # sum of all eps, not the eps_1 + eps_2 that keys the other nodes
    rs = build_root_system(2)
    with pytest.raises(UnsupportedDimensionError):
        kostant.housing(rs, Weight((1, 1)), (1,), build(2, "P2"))


def matrix_component_weights(algebra):
    """Reference for `component_weights`: each grading component's weights
    read off the basis matrices as simultaneous ad-eigenvalues of the
    diagonal Cartan elements (default omega only)."""
    d = 2 * algebra.n
    half = algebra.m // 2
    # Cartan direction k has +1 in its slot and -1 in the dual slot
    slots = [(0, d - 1), (1, d - 2)] + [(2 + i, 2 + half + i) for i in range(half)]
    diags = []
    for pos, neg in slots:
        diag = [0] * d
        diag[pos], diag[neg] = 1, -1
        diags.append(diag)
    out = {}
    for b in algebra.basis:
        # every entry of a weight vector gives the same eigenvalues
        (weight,) = {tuple(diag[r] - diag[c] for diag in diags) for r, c, _ in b.entries}
        key = b.bidegree if algebra.parabolic == "P12" else (algebra.z_degree(b.bidegree),)
        out.setdefault(key, set()).add(weight)
    return out


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("parabolic", ["P1", "P2", "P12"])
def test_component_weights_match_the_matrix_realization(n, parabolic):
    got = kostant.component_weights(build_root_system(n), parabolic)
    want = matrix_component_weights(build(n, parabolic))
    assert {k: set(v) for k, v in got.items()} == want
    # one weight per root and the zero weight once
    assert sum(len(v) for v in got.values()) == 2 * n * n + 1


def test_h2_builds_no_matrix_algebra(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("kostant.h2 built a GradedLieAlgebra")

    monkeypatch.setattr(graded_sp, "GradedLieAlgebra", refuse)
    for parabolic in ("P1", "P2", "P12"):
        got = [c.housing for c in kostant.h2(4, parabolic)]
        assert got == [housing for _, _, housing in expected_table(4, parabolic)]


@pytest.mark.parametrize("parabolic,crossed", [("P1", (1,)), ("P2", (2,)), ("P12", (1, 2))])
def test_dual_diagram_involution(rng, parabolic, crossed):
    rs = build_root_system(5)
    for _ in range(40):
        w = Weight(tuple(rng.randint(-7, 7) for _ in range(5)))
        assert kostant.dual_diagram_labels(rs, crossed, kostant.dual_diagram_labels(rs, crossed, w)) == w


def test_dual_diagram_printed_formula(rng):
    # node-1 relation: hat mu_1 = -mu_1 - 2 sum(other labels)
    rs = build_root_system(5)
    for _ in range(25):
        w = Weight(tuple(rng.randint(-7, 7) for _ in range(5)))
        dual = kostant.dual_diagram_labels(rs, (1,), w)
        assert dual.coeffs[0] == -w.coeffs[0] - 2 * sum(w.coeffs[1:])
        assert dual.coeffs[1:] == w.coeffs[1:]
