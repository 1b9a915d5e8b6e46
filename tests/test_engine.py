import dataclasses
import gc
import hashlib
import os
import subprocess
import sys
import weakref
from fractions import Fraction

import numpy as np
import pytest

import contactpath
from contactpath import engine
from contactpath import exactlinalg as ela
from contactpath import expr as ex
from contactpath import flat_model as fm
from contactpath import graded_sp
from contactpath.engine import (
    RankTable,
    TorsionReport,
    adapted_frame_check,
    characteristic_system_test,
    contact_torsion,
    filtration_ranks,
    flat_spec,
    generating_field,
    geometry,
    partial_uw_vectors,
    random_polynomial_spec,
    secondary_torsion,
    seeded_points,
    skew_complement_W,
    spans_equal,
    spec_from_dict,
    torsion_free_representative,
    torsion_point_reduction,
    torsion_obstruction_values,
    vertical_escape,
)
from contactpath.errors import (
    DegeneratePointError,
    ExprEvalError,
    SpecFormatError,
    TorsionPreconditionError,
)
from contactpath.graded_sp import standard_omega
from contactpath.poly import Polynomial

from conftest import RATIONAL_OMEGAS


# --- spec loading ----------------------------------------------------------

def test_minimal_flat_spec():
    spec = spec_from_dict({"n": 3, "f0": "0", "f": ["0", "0"]})
    assert spec.n == 3
    assert str(spec.C) == "1"
    assert contact_torsion(spec).is_zero == TorsionReport.PROVED_ZERO


def test_nonstandard_omega_scale_accepted():
    spec = spec_from_dict(
        {"n": 3, "omega": [[0, 2], [-2, 0]], "f0": "0", "f": ["0", "0"]}
    )
    assert spec.omega[0][1] == 2
    # torsion machinery stays consistent under the rescaled pairing
    spec2 = spec_from_dict(
        {"n": 3, "omega": [[0, 2], [-2, 0]], "f0": "u1*u2", "f": ["x1", "0"]}
    )
    report = contact_torsion(spec2)
    fixed = torsion_free_representative(spec2)
    assert contact_torsion(fixed).is_zero == TorsionReport.PROVED_ZERO


def test_string_rational_omega_entries():
    spec = spec_from_dict(
        {"n": 3, "omega": [["0", "1/2"], ["-1/2", "0"]], "f0": "0", "f": ["0", "0"]}
    )
    assert spec.omega[0][1] == Fraction(1, 2)


def test_degenerate_omega_rejected():
    with pytest.raises(SpecFormatError):
        spec_from_dict({"n": 3, "omega": [[0, 1], [0, 0]], "f0": "0", "f": ["0", "0"]})


def test_spec_validation_errors():
    with pytest.raises(SpecFormatError):
        spec_from_dict({"n": 3, "C": "0", "f0": "0", "f": ["0", "0"]})
    with pytest.raises(SpecFormatError):
        spec_from_dict({"n": 2, "f0": "0", "f": []})
    with pytest.raises(SpecFormatError):
        spec_from_dict({"n": 3, "f0": "0", "f": ["0"]})
    with pytest.raises(SpecFormatError):
        spec_from_dict({"n": 3, "f0": "0"})
    with pytest.raises(Exception):
        spec_from_dict({"n": 3, "f0": "q9 + 1", "f": ["0", "0"]})


def test_integral_n_loads_in_any_json_form():
    for n in (3, "3", 3.0):
        assert spec_from_dict({"n": n, "f0": "0", "f": ["0", "0"]}).n == 3
    for n in (3.9, float("inf"), float("nan"), "3.9"):
        with pytest.raises(SpecFormatError, match="integer field 'n'"):
            spec_from_dict({"n": n, "f0": "0", "f": ["0", "0"]})


def test_load_spec_round_trip(tmp_path):
    import json

    spec = spec_from_dict({"n": 3, "f0": "u1*u2", "f": ["x1", "0"]})
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    again = engine.load_spec(str(path))
    assert again.n == 3
    assert str(again.f0) == str(spec.f0)


# --- generating field --------------------------------------------------------

def test_geometry_lives_on_its_spec():
    spec = spec_from_dict({"n": 3, "f0": "u1^3", "f": ["0", "0"]})
    geo = geometry(spec)
    assert geometry(spec) is geo
    assert geometry(spec_from_dict(spec.to_dict())) is not geo
    ref = weakref.ref(geo)
    del spec, geo
    gc.collect()
    assert ref() is None


def test_specs_with_one_n_and_omega_share_a_read_only_frame():
    a = geometry(spec_from_dict({"n": 4, "f0": "u1^3", "f": ["0", "0", "0", "0"]}))
    b = geometry(spec_from_dict({"n": 4, "f0": "x1", "f": ["u2", "0", "1", "0"]}))
    assert a.frame is b.frame and a.coframe is b.coframe
    with pytest.raises(TypeError):
        a.frame["A1"] = a.frame["A2"]
    with pytest.raises(TypeError):
        a.coframe["theta1"] = a.coframe["theta2"]
    # None and the explicit standard omega are one cache entry
    assert fm.frame(4) is a.frame
    cf = fm.coframe(5)
    misses = fm._frame_and_coframe.cache_info().misses
    assert fm.coframe(5, standard_omega(6)) is cf
    assert fm._frame_and_coframe.cache_info().misses == misses


def test_omega_is_inverted_once_and_tree_frames_are_shared(monkeypatch):
    # an omega no other test uses, so that its inverse is not cached yet
    omega = [["0", "5/7"], ["-5/7", "0"]]
    exact = [[Fraction(x) for x in row] for row in omega]
    calls = []
    inverse = ela.inverse

    def counting(a):
        if [list(map(Fraction, row)) for row in a] == exact:
            calls.append(a)
        return inverse(a)

    monkeypatch.setattr(ela, "inverse", counting)
    a = spec_from_dict({"n": 3, "omega": omega, "f0": "sin(u1)*x1", "f": ["exp(u2/4)", "u1*z"]})
    b = spec_from_dict({"n": 3, "omega": omega, "f0": "cos(x2)", "f": ["u1", "log(1 + u2^2)"]})
    graded_sp.build(3, omega=exact)
    for spec in (a, b):
        torsion_free_representative(spec)  # raises the index of tau with omega^{ij}
    assert len(calls) == 1
    # both non-polynomial geometries read one read-only tree frame and coframe
    ga, gb = geometry(a), geometry(b)
    assert not ga.polynomial and not gb.polynomial
    assert ga.frame is gb.frame and ga.coframe is gb.coframe
    assert all(isinstance(comp, ex.Expr) for part in (ga.frame, ga.coframe)
               for field in part.values() for comp in field.components.values())
    with pytest.raises(TypeError):
        ga.frame["A1"] = ga.frame["A2"]
    with pytest.raises(TypeError):
        ga.coframe["theta1"] = ga.coframe["theta2"]
    assert ga.frame is not fm.frame(3, exact)


def test_flat_generating_field_is_the_horizontal_generator():
    spec = flat_spec(3)
    X = generating_field(spec)
    T = fm.frame(3)["T(-1,0)"]
    assert not (X - T).components


def test_generating_field_assembly():
    spec = spec_from_dict({"n": 3, "C": "1", "f0": "u1", "f": ["0", "0"]})
    X = generating_field(spec)
    fr = fm.frame(3)
    expect = fr["T(-1,0)"] + fr["T(0,-2)"].scale(Polynomial.variable("u1"))
    assert not (X - expect).components


@pytest.mark.parametrize("seed", [3, 17])
def test_generating_field_lies_in_contact_kernel(seed):
    # theta(-2,-2)(X) = 0 = theta(-1,-2)(X) symbolically
    spec = random_polynomial_spec(3, seed)
    geo = geometry(spec)
    X = geo.x_raw
    assert geo.coframe["theta(-2,-2)"].pair(X).is_zero()
    assert geo.coframe["theta(-1,-2)"].pair(X).is_zero()


# --- torsion -------------------------------------------------------------------

def test_flat_torsion_zero():
    report = contact_torsion(flat_spec(4))
    assert report.is_zero == TorsionReport.PROVED_ZERO
    assert all(str(t) == "0" for t in report.tau)


def test_hamiltonian_form_is_torsion_free():
    # f0 = u1*u2 with f^i = -(1/3) omega^{ip} A_p(f0)
    spec = spec_from_dict(
        {"n": 3, "f0": "u1*u2", "f": ["-(1/3)*u1", "(1/3)*u2"]}
    )
    assert contact_torsion(spec).is_zero == TorsionReport.PROVED_ZERO


def test_cubic_spec_torsion():
    spec = spec_from_dict({"n": 3, "f0": "u1^3", "f": ["0", "0"]})
    report = contact_torsion(spec)
    assert report.is_zero == TorsionReport.PROVED_NONZERO
    assert str(report.tau[0]) == "3 * u1^2"
    assert str(report.tau[1]) == "0"
    assert report.witness is not None
    vals = [t.evaluate(report.witness) for t in report.tau]
    assert any(v != 0 for v in vals)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_route_agreement_symbolic(n, seed):
    spec = random_polynomial_spec(n, seed)
    report = contact_torsion(spec)
    for closed, bracketed in zip(report.tau_ring, geometry(spec).bracket_tau):
        assert (closed - bracketed).is_zero()


@pytest.mark.parametrize("seed", [5, 12])
def test_single_bracket_expansion(seed):
    # [A_i, X] = E_i + (A_i(f0) + 2 f_i) T(0,-2) + A_i(f^p) A_p, symbolically
    spec = random_polynomial_spec(3, seed)
    geo = geometry(spec)
    f_low = geo.lower(geo.f_hat)
    for i in range(1, geo.m + 1):
        got = geo.ai_xhat[i - 1]
        coeff = geo.a_fields[i - 1].apply(geo.f0_hat) + 2 * f_low[i - 1]
        expect = geo.frame[f"E{i}"] + geo.frame["T(0,-2)"].scale(coeff)
        for p in range(1, geo.m + 1):
            expect = expect + geo.a_fields[p - 1].scale(geo.a_fields[i - 1].apply(geo.f_hat[p - 1]))
        assert not (got - expect).components, i


def test_point_reduction_matches_closed_form():
    spec = random_polynomial_spec(3, 5)
    report = contact_torsion(spec)
    for pt in seeded_points(spec, 4, seed=11):
        reduced = torsion_point_reduction(spec, pt)
        closed = [t.evaluate(pt) for t in report.tau_ring]
        assert reduced == closed  # exact rational route


def test_point_reduction_degenerate_point():
    spec = spec_from_dict({"n": 3, "C": "u1", "f0": "0", "f": ["0", "0"]})
    pt = spec.chart().origin()  # C = u1 vanishes at the origin
    with pytest.raises(DegeneratePointError):
        torsion_point_reduction(spec, pt)


def test_torsion_free_representative_examples():
    spec = spec_from_dict({"n": 3, "f0": "u1^3", "f": ["0", "0"]})
    fixed = torsion_free_representative(spec)
    assert contact_torsion(fixed).is_zero == TorsionReport.PROVED_ZERO
    # f0 unchanged, f corrected by -(1/3) of the raised torsion
    assert str(fixed.f0) == str(spec.f0)
    again = torsion_free_representative(fixed)
    assert [str(e) for e in again.f] == [str(e) for e in fixed.f]


@pytest.mark.parametrize("n", [3, 4])
def test_torsion_free_idempotence_sweep(n):
    for seed in range(25):
        spec = random_polynomial_spec(n, seed)
        fixed = torsion_free_representative(spec)
        assert contact_torsion(fixed).is_zero == TorsionReport.PROVED_ZERO
        twice = torsion_free_representative(fixed)
        for a, b in zip(fixed.f, twice.f):
            pa, pb = a.as_polynomial(), b.as_polynomial()
            assert (pa - pb).is_zero()


def test_already_torsion_free_unchanged():
    spec = flat_spec(3)
    fixed = torsion_free_representative(spec)
    for a, b in zip(spec.f, fixed.f):
        assert (a.as_polynomial() - b.as_polynomial()).is_zero()


def test_general_c_normalization():
    # scaling X by a constant leaves the torsion-free representative's span
    spec = spec_from_dict({"n": 3, "C": "2", "f0": "u1^3", "f": ["0", "0"]})
    report = contact_torsion(spec)
    assert report.is_zero == TorsionReport.PROVED_NONZERO
    fixed = torsion_free_representative(spec)
    assert contact_torsion(fixed).is_zero == TorsionReport.PROVED_ZERO


def test_nonpolynomial_torsion_undetermined_vs_nonzero():
    spec = spec_from_dict({"n": 3, "f0": "sin(u1)", "f": ["0", "0"]})
    report = contact_torsion(spec)
    assert report.is_zero == TorsionReport.PROVED_NONZERO
    fixed = torsion_free_representative(spec)
    report2 = contact_torsion(fixed)
    assert report2.is_zero == TorsionReport.UNDETERMINED


def test_nonpolynomial_spec_geometric_ops():
    # the expression-tree path must support the full pointwise toolchain
    spec = spec_from_dict({"n": 3, "f0": "sin(u1)*cos(x1)", "f": ["exp(u2/4)", "0"]})
    pt = seeded_points(spec, 1, seed=2)[0]
    assert filtration_ranks(spec, pt).as_tuple() == RankTable.expected(3)
    rep = skew_complement_W(spec, pt, 0, 1)
    assert rep.nondegenerate and rep.lagrangian_v and rep.u_complement_is_e
    reduced = np.array(torsion_point_reduction(spec, pt))
    fpt = {k: float(v) for k, v in pt.items()}
    closed = np.array([float(t.evaluate(fpt)) for t in contact_torsion(spec).tau])
    assert np.max(np.abs(reduced - closed)) < 1e-9


def test_pole_spec_torsion_completes():
    # 1/u1 raises at sample points with u1 = 0; those points are skipped
    spec = spec_from_dict({"n": 3, "f0": "u1*u2", "f": ["1/u1", "0"]})
    assert contact_torsion(spec).is_zero == TorsionReport.PROVED_NONZERO
    fixed = torsion_free_representative(spec)
    assert contact_torsion(fixed).is_zero != TorsionReport.PROVED_NONZERO


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_large_magnitude_representatives_are_not_proved_nonzero():
    # sympy gives tau = 0 for both representatives; at the float witnesses
    # (u2 = -6 and u2 = -5) the rounding error of the formally zero sum
    # exceeds the absolute 1e-9 the witness must beat
    verdicts = []
    for f0 in ("sin(u1)*exp(u2^2)", "x1^3*exp(2*u1)*u2^4"):
        spec = spec_from_dict({"n": 3, "f0": f0, "f": ["exp(2*u2)*x1", "u1^2*sin(u2)"]})
        verdicts.append(contact_torsion(torsion_free_representative(spec)).is_zero)
    assert TorsionReport.PROVED_NONZERO not in verdicts


def test_variable_c_torsion_removal():
    spec = spec_from_dict({"n": 3, "C": "1 + u1^2", "f0": "u1*u2", "f": ["0", "0"]})
    assert contact_torsion(spec).is_zero == TorsionReport.PROVED_NONZERO
    fixed = torsion_free_representative(spec)
    report = contact_torsion(fixed)
    assert report.is_zero == TorsionReport.UNDETERMINED  # trees, not polynomials
    for pt in seeded_points(fixed, 5, seed=4):
        fpt = {k: float(v) for k, v in pt.items()}
        assert max(abs(float(t.evaluate(fpt))) for t in report.tau) < 1e-12


# --- filtration ranks --------------------------------------------------------------

def test_flat_ranks_at_origin():
    spec = flat_spec(3)
    table = filtration_ranks(spec, spec.chart().origin())
    assert table.as_tuple() == (2, 3, 4, 5, 6, 7, 7, 8)
    assert table.as_tuple() == RankTable.expected(3)


@pytest.mark.parametrize("n", [3, 4])
def test_random_spec_ranks(n):
    for seed in (2, 9):
        spec = random_polynomial_spec(n, seed)
        for pt in seeded_points(spec, 5, seed=seed + 100):
            assert filtration_ranks(spec, pt).as_tuple() == RankTable.expected(n)


def test_ranks_degenerate_point():
    spec = spec_from_dict({"n": 3, "C": "u1", "f0": "0", "f": ["0", "0"]})
    with pytest.raises(DegeneratePointError):
        filtration_ranks(spec, spec.chart().origin())


_POINT_CHECKS = {
    "filtration_ranks": filtration_ranks,
    "semiregular_ranks": engine.semiregular_ranks,
    "vertical_escape": vertical_escape,
    "skew_complement_W": lambda spec, pt: skew_complement_W(spec, pt, 0, 1),
    "partial_uw_vectors": partial_uw_vectors,
    "secondary_torsion": secondary_torsion,
    "characteristic_system_test": characteristic_system_test,
    "adapted_frame_check": adapted_frame_check,
    "torsion_obstruction_values": torsion_obstruction_values,
    "torsion_point_reduction": torsion_point_reduction,
}

# (check, C, whether to take the torsion-free representative of a spec with
# nonzero data): every case is at the origin, where C = u1 vanishes, C = 1/u1
# has a pole and C = 1e-10 lies below RANK_TOL
_DEGENERATE_C = (
    [(name, "u1", False) for name in _POINT_CHECKS]
    + [(name, "1/u1", False) for name in _POINT_CHECKS]
    + [("adapted_frame_check", "u1", True)]
    + [(name, "1/10000000000", False)
       for name in ("secondary_torsion", "characteristic_system_test", "adapted_frame_check",
                    "torsion_point_reduction")]
)


@pytest.mark.parametrize(("name", "c", "representative"), _DEGENERATE_C,
                         ids=[f"{name}-C={c}{'-rep' if rep else ''}" for name, c, rep in _DEGENERATE_C])
def test_point_checks_refuse_a_point_where_c_vanishes_or_is_undefined(name, c, representative):
    if representative:
        spec = torsion_free_representative(
            spec_from_dict({"n": 3, "C": c, "f0": "u2*x1", "f": ["x2", "u1*u2"]}))
    else:
        spec = spec_from_dict({"n": 3, "C": c, "f0": "0", "f": ["0", "0"]})
    with pytest.raises(DegeneratePointError, match="C vanishes or is undefined"):
        _POINT_CHECKS[name](spec, spec.chart().origin())


# (check, spec, u1): f0 or the torsion overflows a float at the point, so
# the check refuses it as `eval_fields` does, not with a bare OverflowError
_OVERFLOWING = [
    ("skew_complement_W", {"n": 3, "f0": "sin(x1)*u1^200", "f": ["0", "0"]}, 1000),
    ("torsion_obstruction_values", {"n": 3, "f0": "sin(x1)*u1^200", "f": ["0", "0"]}, 1000),
    ("adapted_frame_check", {"n": 3, "f0": "sin(x1)*u1^5", "f": ["0", "0"]}, 10 ** 80),
]


@pytest.mark.parametrize(("name", "data", "u1"), _OVERFLOWING, ids=[c[0] for c in _OVERFLOWING])
def test_point_checks_refuse_a_point_where_a_value_overflows(name, data, u1):
    spec = spec_from_dict(data)
    if name == "adapted_frame_check":
        spec = torsion_free_representative(spec)
    point = spec.chart().origin()
    point["u1"] = Fraction(u1)
    with pytest.raises(ExprEvalError, match="overflows at the requested point"):
        _POINT_CHECKS[name](spec, point)


def test_sampler_follows_the_c_rule():
    # every rational point has C = 1e-10, below RANK_TOL, so no point can be
    # sampled that the float-point checks would accept
    spec = spec_from_dict({"n": 3, "C": "1/10000000000", "f0": "0", "f": ["0", "0"]})
    with pytest.raises(DegeneratePointError, match=r"\|C\| >= RANK_TOL"):
        seeded_points(spec, 3)


def test_vertical_direction_not_in_partial_uw():
    spec = random_polynomial_spec(3, 13)
    pt = seeded_points(spec, 1, seed=3)[0]
    assert vertical_escape(spec, pt)


@pytest.mark.parametrize("n", [3, 4])
def test_semiregular_generation_ranks(n):
    # the splitting line plus verticals generate the whole filtration:
    # successive bracket spans have ranks 4n-6, 4n-5, 4n-4
    spec = random_polynomial_spec(n, 41)
    for pt in seeded_points(spec, 4, seed=6):
        assert engine.semiregular_ranks(spec, pt) == (4 * n - 6, 4 * n - 5, 4 * n - 4)


@pytest.mark.parametrize("seed", [1, 8])
def test_aax_bracket_congruence(seed):
    # [A_i, [A_j, X]] + omega_ij T(-1,-2) lies in the vertical bundle,
    # checked symbolically through the coframe pairings
    spec = random_polynomial_spec(3, seed)
    geo = geometry(spec)
    m = geo.m
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            inner = fm.lie_bracket(geo.a_fields[j - 1], geo.x_hat)
            double = fm.lie_bracket(geo.a_fields[i - 1], inner)
            residual = double + geo.frame["T(-1,-2)"].scale(geo.omega[i - 1][j - 1])
            for key in ("theta(-1,0)", "theta(-1,-2)", "theta(-2,-2)", "eta1", "eta2"):
                assert geo.coframe[key].pair(residual).is_zero(), (i, j, key)


# --- symplectic structure on E-perp ---------------------------------------------------

def test_skew_complement_suite_torsion_free():
    spec = random_polynomial_spec(3, 21, torsion_free=True)
    for pt in seeded_points(spec, 5, seed=8):
        rep = skew_complement_W(spec, pt, 0, 1)
        assert rep.nondegenerate
        assert rep.lagrangian_v
        assert rep.u_complement_is_e
        other = skew_complement_W(spec, pt, 5, -2)
        assert spans_equal(rep.basis, other.basis)
        assert spans_equal(rep.basis, partial_uw_vectors(spec, pt))


def test_skew_complement_differs_for_torsion():
    spec = spec_from_dict({"n": 3, "f0": "u1^3", "f": ["0", "0"]})
    wit = contact_torsion(spec).witness
    rep = skew_complement_W(spec, wit, 1, 2)
    assert rep.nondegenerate
    assert not spans_equal(rep.basis, partial_uw_vectors(spec, wit))


def test_skew_complement_requires_s_nonzero():
    spec = flat_spec(3)
    with pytest.raises(SpecFormatError):
        skew_complement_W(spec, spec.chart().origin(), 1, 0)


# --- secondary torsion ------------------------------------------------------------------

def test_flat_secondary_torsion_zero():
    spec = flat_spec(3)
    sec = secondary_torsion(spec, spec.chart().origin())
    assert np.max(np.abs(sec)) < 1e-12
    contained, _ = characteristic_system_test(spec, spec.chart().origin())
    assert contained


def test_secondary_requires_torsion_free():
    spec = spec_from_dict({"n": 3, "f0": "u1^3", "f": ["0", "0"]})
    with pytest.raises(TorsionPreconditionError):
        secondary_torsion(spec, spec.chart().origin())


@pytest.mark.parametrize("n", [3, 4])
def test_secondary_consistency_with_characteristic_system(n):
    for seed in (4, 31):
        spec = random_polynomial_spec(n, seed, torsion_free=True)
        for pt in seeded_points(spec, 4, seed=seed):
            sec = secondary_torsion(spec, pt)
            contained, worst = characteristic_system_test(spec, pt)
            assert (np.max(np.abs(sec)) < 1e-7) == contained, (sec, worst)


def test_secondary_values_recorded_for_cubic_representative():
    # engine output on the torsion-free representative of f0 = u1^3; only
    # the vanishing pattern is invariant, values are chart data
    spec = torsion_free_representative(
        spec_from_dict({"n": 3, "f0": "u1^3", "f": ["0", "0"]})
    )
    vals = [secondary_torsion(spec, pt) for pt in seeded_points(spec, 20, seed=42)]
    assert all(np.all(np.isfinite(v)) for v in vals)


def test_pointwise_calls_build_the_torsion_once(monkeypatch):
    spec = random_polynomial_spec(3, 4, torsion_free=True)
    decided = []
    decide_zero = engine._decide_zero

    def counting(*args):
        decided.append(args)
        return decide_zero(*args)

    monkeypatch.setattr(engine, "_decide_zero", counting)
    for pt in seeded_points(spec, 3, seed=4):
        secondary_torsion(spec, pt)
        characteristic_system_test(spec, pt)
        adapted_frame_check(spec, pt)
    assert contact_torsion(spec) is contact_torsion(spec)
    assert len(decided) == 1


@pytest.mark.parametrize("data", [
    {"n": 4, "f0": "u1*u2*u3 - x4^2", "f": ["u2^2", "x1*u4", "3*u1^2 + z", "0"]},
    {"n": 3, "f0": "u1*u2 + sin(x1)", "f": ["u2^2 - x2 + exp(u1/4)", "u1*x1 - z"]},
], ids=["polynomial", "transcendental"])
def test_bracket_route_is_lazy_and_builds_only_the_paired_components(data):
    spec = spec_from_dict(data)
    geo = geometry(spec)
    contact_torsion(spec)
    # at a proved (n, omega) the closed form alone decides
    assert (geo.n, geo.omega) in engine.TORSION_IDENTITY_PROVED
    for name in ("ai_xhat", "torsion_brackets", "bracket_tau", "double_brackets"):
        assert name not in vars(geo), name
    point = seeded_points(spec, 1, seed=3)[0]
    values = torsion_obstruction_values(spec, point)
    assert "torsion_brackets" in vars(geo)
    assert "double_brackets" not in vars(geo)
    # the u components of [[A_i, X], X] are never built ...
    read = (geo.coframe["theta(-1,-2)"].components.keys()
            | geo.coframe["theta(-2,-2)"].components.keys())
    assert not any(c.startswith("u") for c in read)
    for b in geo.torsion_brackets:
        assert set(b.components) <= read
    # ... and the pairings with the whole double bracket are the same
    th = geo.coframe["theta(-1,-2)"]
    paired = [th.pair(double) for double in geo.double_brackets]
    for whole, tau in zip(paired, geo.bracket_tau):
        assert str(geo.as_expr(whole)) == str(geo.as_expr(tau))
    fpoint = {k: float(v) for k, v in point.items()}
    assert list(values) == pytest.approx([float(p.evaluate(fpoint)) for p in paired], rel=1e-12)


def test_torsion_cross_check_runs_only_outside_the_proved_set(monkeypatch):
    data = {"n": 3, "f0": "u1*u2 + x1^2", "f": ["u2^2", "x1*u1 - z"]}
    rational = {**data, "omega": [[str(w) for w in row] for row in RATIONAL_OMEGAS[0]]}
    assert (3, spec_from_dict(rational).omega) not in engine.TORSION_IDENTITY_PROVED
    # the engine's closed form passes the cross-check there
    contact_torsion(spec_from_dict(rational))
    closed_form = engine.closed_form_torsion

    def two_f(geo):
        # 2 f_i + A_i(f0) in place of 3 f_i + A_i(f0)
        return [t - fl for t, fl in zip(closed_form(geo), geo.lower(geo.f_hat))]

    monkeypatch.setattr(engine, "closed_form_torsion", two_f)
    with pytest.raises(TorsionPreconditionError, match="disagree"):
        contact_torsion(spec_from_dict(rational))

    def unreachable(geo):
        raise AssertionError("the bracket route ran at a proved (n, omega)")

    monkeypatch.setattr(engine, "bracket_torsion", unreachable)
    spec = spec_from_dict(data)
    contact_torsion(spec)
    assert "torsion_brackets" not in vars(geometry(spec))


class _CountingRandom(engine.Random):
    draws = 0

    def randint(self, a, b):
        type(self).draws += 1
        return super().randint(a, b)


def test_decide_zero_draws_only_the_points_it_needs(monkeypatch):
    # tau_1 = 2 u1 x1 + 4 u1 vanishes at the first sampled point (x1 = -2)
    spec = spec_from_dict({"n": 3, "f0": "(x1 + 2)*u1^2", "f": ["0", "0"]})
    geo = geometry(spec)
    report = contact_torsion(spec)
    points = seeded_points(spec, 40)
    needed = points.index(report.witness) + 1
    assert needed > 1
    monkeypatch.setattr(engine, "Random", _CountingRandom)
    _CountingRandom.draws = 0
    decided = engine._decide_zero(spec, list(report.tau_ring), geo, 42)
    assert decided == (TorsionReport.PROVED_NONZERO, report.witness)
    assert _CountingRandom.draws == needed * geo.chart.dim


# --- adapted frame -------------------------------------------------------------------------

def test_flat_adapted_frame_residual_zero():
    spec = flat_spec(3)
    rep = adapted_frame_check(spec, spec.chart().origin())
    assert rep.max_residual == 0.0


@pytest.mark.parametrize("n", [3, 4])
def test_adapted_frame_residual_torsion_free(n):
    spec = random_polynomial_spec(n, 77, torsion_free=True)
    for pt in seeded_points(spec, 5, seed=19):
        rep = adapted_frame_check(spec, pt)
        assert rep.max_residual <= 1e-9


def test_adapted_frame_with_scaled_omega():
    # index raising/lowering and the model constants must stay in sync when
    # the pairing is rescaled
    base = spec_from_dict(
        {"n": 3, "omega": [[0, 2], [-2, 0]], "f0": "u1*u2 + x1", "f": ["u2", "0"]}
    )
    spec = torsion_free_representative(base)
    assert contact_torsion(spec).is_zero == TorsionReport.PROVED_ZERO
    for pt in seeded_points(spec, 3, seed=23):
        assert adapted_frame_check(spec, pt).max_residual <= 1e-9
        assert filtration_ranks(spec, pt).as_tuple() == RankTable.expected(3)


def test_adapted_frame_refuses_torsion_and_obstruction_nonzero():
    spec = spec_from_dict({"n": 3, "f0": "u1^3", "f": ["0", "0"]})
    wit = contact_torsion(spec).witness
    with pytest.raises(TorsionPreconditionError):
        adapted_frame_check(spec, wit)
    obstruction = torsion_obstruction_values(spec, wit)
    assert max(abs(v) for v in obstruction) > 1e-6


# --- monomial tables against the tree walk -------------------------------------------

def _float_points(spec, count, seed):
    rng = np.random.default_rng(seed)
    return [dict(zip(spec.chart().names, rng.uniform(-2.0, 2.0, spec.chart().dim)))
            for _ in range(count)]


def _walked(geo, fields, point):
    return np.column_stack([geo.eval_field(f, point) for f in fields])


def _assert_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_monomial_tables_match_tree_walk(n):
    spec = random_polynomial_spec(n, 70 + n, degree=2, torsion_free=True)
    geo = geometry(spec)
    assert geo.polynomial
    spans, flat = geo.filtration
    u_fields, pairs, adapted, _ = geo.adapted_frame
    expected = RankTable.expected(n)
    for point in _float_points(spec, 3, seed=n):
        vals = geo.eval_fields(flat, point)
        start = 0
        walked_ranks = {}
        for key, flist in spans.items():
            want = _walked(geo, flist, point)
            _assert_close(vals[:, start:start + len(flist)], want)
            walked_ranks[key] = engine._nrank(want)
            start += len(flist)
        assert filtration_ranks(spec, point) == RankTable(**walked_ranks)
        assert filtration_ranks(spec, point).as_tuple() == expected
        _assert_close(geo.eval_fields(adapted, point), _walked(geo, adapted, point))
        assert len(adapted) == len(u_fields) + len(pairs)
        _assert_close(geo.eval_fields(geo.characteristic_fields, point),
                      _walked(geo, geo.characteristic_fields, point))


def test_each_field_list_gets_one_table(monkeypatch):
    spec = random_polynomial_spec(4, 77, torsion_free=True)
    geo = geometry(spec)
    assert geo.polynomial
    built = []

    class CountingTable(engine.MonomialTable):
        def __init__(self, names, objects):
            built.append(objects)
            super().__init__(names, objects)

    monkeypatch.setattr(engine, "MonomialTable", CountingTable)
    for pt in seeded_points(spec, 3, seed=19):
        filtration_ranks(spec, pt)
        engine.semiregular_ranks(spec, pt)
        vertical_escape(spec, pt)
        skew_complement_W(spec, pt, Fraction(1), Fraction(2))
        partial_uw_vectors(spec, pt)
        secondary_torsion(spec, pt)
        characteristic_system_test(spec, pt)
        adapted_frame_check(spec, pt)
        torsion_point_reduction(spec, {k: float(v) for k, v in pt.items()})
        torsion_obstruction_values(spec, pt)
    owned = [geo.filtration[1], geo.semiregular_levels[-1], geo.escape_fields, geo.e_perp,
             geo.partial_uw, geo.secondary_fields, geo.characteristic_fields,
             geo.adapted_frame[2], geo.reduction_fields]
    # one table per distinct field list, built on its first point
    assert len({id(fields) for fields in owned}) == len(owned)
    assert sorted(map(id, built)) == sorted(map(id, owned))
    # the derived objects are built once
    for name in ("x_hat", "x_raw", "ai_xhat", "double_brackets", "torsion_brackets", "bracket_tau",
                 "secondary_brackets", "nu", "filtration", "adapted_frame", "torsion"):
        assert getattr(geo, name) is getattr(geo, name), name
    # the escape list extends the partial_uw list by T(0,-2), on its own table
    tables = {id(fields): table for fields, table in geo._tables.values()}
    assert geo.escape_fields[:-1] == geo.partial_uw
    assert tables[id(geo.escape_fields)] is not tables[id(geo.partial_uw)]
    assert tables[id(geo.escape_fields)].shape[0] == tables[id(geo.partial_uw)].shape[0] + 1


def test_nonpolynomial_geometry_walks_trees(monkeypatch):
    spec = spec_from_dict({"n": 3, "f0": "sin(u1)*x1", "f": ["exp(u2/4)", "u1*z"]})
    geo = geometry(spec)
    assert not geo.polynomial
    walked = []
    eval_field = engine.Geometry.eval_field

    def counting(self, field, point):
        walked.append(field)
        return eval_field(self, field, point)

    monkeypatch.setattr(engine.Geometry, "eval_field", counting)
    for point in _float_points(spec, 2, seed=5):
        assert filtration_ranks(spec, point).as_tuple() == RankTable.expected(3)
    assert walked
    assert not geo._tables


def _tree_nodes(e):
    return 1 + sum(
        _tree_nodes(child)
        for child in (getattr(e, slot, None) for slot in ("left", "right", "arg", "base"))
        if isinstance(child, ex.Expr)
    )


def test_transcendental_filtration_fields_stay_small():
    # trees built without folding 0*x, x*1 and x+0 held about 200 000 nodes here
    spec = spec_from_dict({"n": 3, "f0": "u1*u2 + sin(x1)", "f": ["u2^2 - x2 + exp(u1/4)", "u1*x1 - z"]})
    rep = torsion_free_representative(spec)
    fields, _ = geometry(rep).filtration
    assert not geometry(rep).polynomial
    total = sum(
        _tree_nodes(comp) for span in fields.values() for field in span for comp in field.components.values()
    )
    assert total < 10_000
    for point in _float_points(rep, 2, seed=3):
        assert filtration_ranks(rep, point).as_tuple() == RankTable.expected(3)


_NU_PROBE = """
import hashlib
from contactpath import engine
spec = engine.spec_from_dict({
    "n": 4, "f0": "u1*u2 + x3^2*u4", "f": ["u3^2", "x2 - u1*u4", "2*u4*u2", "1/3*x1*u2"],
})
geo = engine.geometry(spec)
nu = geo.nu
point = {name: 0.1 * (k + 1) - 0.37 for k, name in enumerate(geo.chart.names)}
print(list(nu.components))
print(hashlib.sha256(geo.eval_fields([nu], point).tobytes()).hexdigest())
"""


def test_nu_form_independent_of_hash_seed():
    # the key order of nu, and with it the float summation order of its
    # values, must not follow the hash seed's set iteration order
    src = os.path.dirname(os.path.dirname(contactpath.__file__))
    outs = []
    for seed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        run = subprocess.run([sys.executable, "-c", _NU_PROBE], capture_output=True, env=env, text=True)
        assert run.returncode == 0, run.stderr
        outs.append(run.stdout)
    assert outs[0] == outs[1]


# --- pinned pointwise floats on tree geometries ----------------------------------------

_PINNED_SPECS = [
    {"n": 3, "f0": "sin(u1)*x1 + u2^2", "f": ["exp(u2/4) + x1", "u1*z"]},
    {"n": 3, "C": "1 + u1^2", "f0": "u1*u2", "f": ["x2", "0"]},
    {"n": 3, "f0": "0.5*u1*u2 + exp(0.25*x1)", "f": ["1.25*x2", "0.75*sin(u1)"]},
    {"n": 4, "omega": [[0, "1/2", 0, 1], ["-1/2", 0, 3, 0], [0, -3, 0, -1], [-1, 0, 1, 0]],
     "f0": "cos(x1)*u2 + u1*u3", "f": ["log(1 + u4^2)", "x3", "0.5*u1", "0"]},
]


def _canonical(value):
    """A text form of a check's result that tells every float by its bits."""
    if isinstance(value, (bool, np.bool_)):
        return repr(bool(value))
    if isinstance(value, (int, np.integer, Fraction)):
        return f"{type(value).__name__}:{value}"
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, dict):
        return "{" + ",".join(f"{_canonical(k)}:{_canonical(v)}" for k, v in value.items()) + "}"
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + _canonical([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, str):
        return repr(value)
    return "[" + ",".join(_canonical(v) for v in value) + "]"


def test_pointwise_floats_on_tree_geometries_pinned():
    # sha256 of every result, bit for bit, of the nine float-point checks and
    # torsion_point_reduction, on transcendental, variable-C and
    # decimal-literal specs and their torsion-free representatives at seeded
    # points; a refused point is recorded by its exception's name
    checks = [
        filtration_ranks, engine.semiregular_ranks, vertical_escape,
        lambda spec, pt: skew_complement_W(spec, pt, Fraction(1), Fraction(2)),
        partial_uw_vectors, secondary_torsion, characteristic_system_test,
        adapted_frame_check, torsion_obstruction_values, torsion_point_reduction,
    ]
    digest = hashlib.sha256()
    for data in _PINNED_SPECS:
        spec = spec_from_dict(data)
        for s in (spec, torsion_free_representative(spec)):
            assert not geometry(s).polynomial
            for pt in seeded_points(s, 2, seed=11):
                for check in checks:
                    try:
                        out = _canonical(check(s, pt))
                    except (DegeneratePointError, TorsionPreconditionError) as e:
                        out = type(e).__name__
                    digest.update(out.encode() + b"\n")
    assert digest.hexdigest() == "85c1ab4307f5fb431e0240fcfe1bd3922f3e833883f7945629ee24b9e80871ad"
