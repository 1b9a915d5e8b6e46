"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is pinned here.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from contactpath import flat_model as fm
from contactpath import graded_sp, kostant
from contactpath.engine import (
    RankTable,
    TorsionReport,
    adapted_frame_check,
    characteristic_system_test,
    contact_torsion,
    filtration_ranks,
    flat_spec,
    geometry,
    partial_uw_vectors,
    random_polynomial_spec,
    secondary_torsion,
    seeded_points,
    skew_complement_W,
    spans_equal,
    spec_from_dict,
    torsion_free_representative,
    torsion_obstruction_values,
)
from contactpath.integrate import integrate
from contactpath.squat import (
    COMPLEX_STRUCTURE,
    E,
    F,
    J,
    NULL,
    ONE,
    REFLECTION,
    SplitQuaternion,
    classify_imaginary,
    matrix_rep,
    norm2,
    submodule_dimension,
)

from test_kostant import expected_table


def report(number, elapsed, message):
    print(f"PASS criterion {number:>2} ({elapsed:6.2f}s): {message}")


@pytest.fixture(scope="module")
def population():
    """50 seeded random polynomial specs, degree <= 3, n in {3, 4}."""
    specs = [random_polynomial_spec(3, seed) for seed in range(25)]
    specs += [random_polynomial_spec(4, 100 + seed) for seed in range(25)]
    return specs


@pytest.fixture(scope="module")
def torsion_free_population(population):
    """20 torsion-free specs: 19 population representatives plus the flat one."""
    picked = population[:10] + population[25:34]
    return [torsion_free_representative(s) for s in picked] + [flat_spec(3)]


@pytest.fixture(scope="module")
def cubic_torsion_spec():
    return spec_from_dict({"n": 3, "f0": "u1^3", "f": ["0", "0"]})


INIT3 = {
    "t": 0.0,
    "x0": 0.3,
    "x1": 0.1,
    "x2": -0.2,
    "z": 0.5,
    "u0": 0.7,
    "u1": 0.4,
    "u2": -0.3,
}


def test_criterion_1_table_reproduction():
    start = time.time()
    count = 0
    for n in (3, 4, 5, 6):
        for parabolic in ("P1", "P2", "P12"):
            got = kostant.h2(n, parabolic)
            want = expected_table(n, parabolic)
            assert len(got) == len(want), (n, parabolic)
            for comp, (labels, hom, housing) in zip(got, want):
                assert comp.labels.coeffs == labels, (n, parabolic)
                assert comp.homogeneity == hom, (n, parabolic)
                assert comp.housing == housing, (n, parabolic)
            count += len(got)
    elapsed = time.time() - start
    assert elapsed < 5.0
    report(1, elapsed, f"all golden component tables reproduced exactly ({count} rows)")


def test_criterion_2_structure_constants():
    start = time.time()
    for n in (3, 4, 5, 6):
        results = graded_sp.build(n).verify_structure_constants()
        assert len(results) == 9
        assert all(ok for _, ok in results), n
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(2, elapsed, "9/9 bracket relations verified exactly for n = 3..6")


def test_criterion_3_structure_equation():
    start = time.time()
    for n in (3, 4, 5):
        assert fm.residual_is_zero(fm.maurer_cartan_residual(n)), n
    theta = fm.theta_matrix(3)
    theta[2 * 3 - 2][1] = fm.OneForm({"u0": fm.PONE})
    assert not fm.residual_is_zero(fm.structure_equation_residual(theta))
    elapsed = time.time() - start
    assert elapsed < 10.0
    report(3, elapsed, "structure equation vanishes symbolically; negative control nonzero")


def test_criterion_4_flat_model_frames():
    start = time.time()
    for n in (3, 4, 5):
        algebra = graded_sp.build(n)
        names = algebra.negative_names()

        def cap(nm):
            return "T" + nm[1:] if nm.startswith("t") else nm[0].upper() + nm[1:]

        for frame in (fm.frame(n), fm.pdq_frame(n)):
            for i, na in enumerate(names):
                for nb in names[i + 1:]:
                    got = fm.lie_bracket(frame[cap(na)], frame[cap(nb)])
                    expect = fm.VectorField({})
                    for tgt, c in algebra.bracket_names(na, nb).items():
                        expect = expect + frame[cap(tgt)].scale(c)
                    assert not (got - expect).components, (n, na, nb)
    elapsed = time.time() - start
    report(4, elapsed, "frame brackets equal the model constants in both charts, n = 3..5")


def test_criterion_5_torsion_equivalence(population):
    start = time.time()
    for spec in population:
        rep = contact_torsion(spec)
        for closed, bracketed in zip(rep.tau_ring, geometry(spec).bracket_tau):
            assert (closed - bracketed).is_zero()
        fixed = torsion_free_representative(spec)
        assert contact_torsion(fixed).is_zero == TorsionReport.PROVED_ZERO
        twice = torsion_free_representative(fixed)
        for a, b in zip(fixed.f, twice.f):
            assert (a.as_polynomial() - b.as_polynomial()).is_zero()
    elapsed = time.time() - start
    assert elapsed < 30.0
    report(5, elapsed, "two torsion routes agree symbolically on 50 specs; representative idempotent")


def test_criterion_6_filtration_ranks(population):
    start = time.time()
    checked = 0
    for spec in population:
        expected = RankTable.expected(spec.n)
        for pt in seeded_points(spec, 20, seed=42):
            assert filtration_ranks(spec, pt).as_tuple() == expected
            checked += 1
    elapsed = time.time() - start
    report(6, elapsed, f"filtration ranks correct at {checked} sampled points")


def test_criterion_7_symplectic_suite(population, torsion_free_population, cubic_torsion_spec):
    start = time.time()
    rs_pairs = [(0, 1), (5, -2), (1, 1), (-3, Fraction(1, 2)), (2, -7)]
    for spec in population:
        for pt in seeded_points(spec, 20, seed=42):
            rep = skew_complement_W(spec, pt, 0, 1)
            assert rep.nondegenerate
            assert rep.lagrangian_v
            assert rep.u_complement_is_e
    for spec in torsion_free_population:
        for pt in seeded_points(spec, 20, seed=42):
            reps = [skew_complement_W(spec, pt, r, s) for r, s in rs_pairs]
            for other in reps[1:]:
                assert spans_equal(reps[0].basis, other.basis)
            # torsion-free: complement equals the bracket closure of U and W
            assert spans_equal(reps[0].basis, partial_uw_vectors(spec, pt))
    wit = contact_torsion(cubic_torsion_spec).witness
    rep = skew_complement_W(cubic_torsion_spec, wit, 0, 1)
    assert not spans_equal(rep.basis, partial_uw_vectors(cubic_torsion_spec, wit))
    elapsed = time.time() - start
    report(7, elapsed, "symplectic structure checks and both directions of the complement criterion")


def test_criterion_8_adapted_frame(torsion_free_population, cubic_torsion_spec):
    start = time.time()
    worst = 0.0
    for spec in torsion_free_population:
        for pt in seeded_points(spec, 20, seed=42):
            rep = adapted_frame_check(spec, pt)
            worst = max(worst, rep.max_residual)
            assert rep.max_residual <= 1e-9
    wit = contact_torsion(cubic_torsion_spec).witness
    obstruction = torsion_obstruction_values(cubic_torsion_spec, wit)
    assert max(abs(v) for v in obstruction) > 1e-6
    elapsed = time.time() - start
    report(8, elapsed, f"adapted frame residual <= 1e-9 (worst {worst:.2e}); obstruction nonzero with torsion")


def test_criterion_9_secondary_torsion_consistency(torsion_free_population):
    start = time.time()
    agreements = 0
    vanishing = 0
    for spec in torsion_free_population:
        for pt in seeded_points(spec, 20, seed=42):
            sec = secondary_torsion(spec, pt)
            contained, _ = characteristic_system_test(spec, pt)
            assert (np.max(np.abs(sec)) < 1e-7) == contained
            agreements += 1
            vanishing += bool(contained)
    # the agreement must be exercised in both directions
    assert 0 < vanishing < agreements
    elapsed = time.time() - start
    report(
        9,
        elapsed,
        f"bracket and characteristic-system routes agree at {agreements} points "
        f"({vanishing} vanishing, {agreements - vanishing} not)",
    )


def test_criterion_10_integration_conservation():
    start = time.time()
    traj = integrate(flat_spec(3), INIT3, 0.0, 1.0, 1e-3)
    flat_worst = float(np.max(np.abs(traj.contact_residual)))
    assert flat_worst <= 1e-10
    spec = spec_from_dict({"n": 3, "f0": "u1*u2 + x1", "f": ["u2^2 - x2", "u1*x1"]})
    coarse = integrate(spec, INIT3, 0.0, 1.0, 4e-3)
    fine = integrate(spec, INIT3, 0.0, 1.0, 2e-3)
    ratio = float(
        np.max(np.abs(coarse.contact_residual)) / np.max(np.abs(fine.contact_residual))
    )
    assert 12.0 <= ratio <= 20.0
    elapsed = time.time() - start
    report(10, elapsed, f"flat residual {flat_worst:.1e} <= 1e-10; step-halving ratio {ratio:.1f}")


def test_criterion_11_split_quaternions(rng):
    start = time.time()
    minus_one = SplitQuaternion(-1)
    assert J * J == minus_one and E * E == ONE and F * F == ONE
    assert E * F == J and F * E == -J

    scalars = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(512)]
    choice = rng.choice
    quats = [
        SplitQuaternion(choice(scalars), choice(scalars), choice(scalars), choice(scalars))
        for _ in range(512)
    ]

    def mat_mul(a, b):
        return (
            (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
            (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
        )

    for _ in range(10_000):
        p, q = choice(quats), choice(quats)
        pq = p * q
        assert matrix_rep(pq) == mat_mul(matrix_rep(p), matrix_rep(q))
        assert pq.norm2() == p.norm2() * q.norm2()
    half = SplitQuaternion(Fraction(1, 2), 0, 0, Fraction(1, 2))
    assert half * half == half
    assert submodule_dimension(SplitQuaternion(1, 0, 0, 1)) == 2
    assert submodule_dimension(J) == 4
    kinds = {REFLECTION: 0, COMPLEX_STRUCTURE: 0, NULL: 0}
    for _ in range(1000):
        p = choice(quats).im()
        kind = classify_imaginary(p)
        kinds[kind] += 1
        assert p * p == SplitQuaternion(-norm2(p))
    kinds[classify_imaginary(E + J)] += 1
    assert all(v > 0 for v in kinds.values())
    elapsed = time.time() - start
    assert elapsed < 2.0
    report(11, elapsed, "relations, representation, norms, module ranks, trichotomy verified")


def test_criterion_12_dimension_formulas():
    start = time.time()
    for n in (3, 4, 5, 6):
        for k in range(1, n + 1):
            rep = fm.dims(n, k)
            assert rep.dim_qk == k * (k + 1) // 2 + 2 * k * (n - k)
    assert fm.dims(5, 1).dim_qk == 2 * 5 - 1
    assert fm.dims(3, 2).dim_qk == 4 * 3 - 5
    assert fm.orbit_dim(4, 2, 0) == 12
    assert fm.orbit_dim(4, 2, 2) == 11
    for n in range(2, 7):
        g = graded_sp.build(n, "P1")
        total = sum(len(g.component(b)) for b in g.bidegrees())
        assert total == n * (2 * n + 1)
    elapsed = time.time() - start
    report(12, elapsed, "dimension formulas, specializations, orbit strata, graded sums")
