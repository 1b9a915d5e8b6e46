import hashlib
import io
from fractions import Fraction

import numpy as np
import pytest

from contactpath import integrate as integrate_mod
from contactpath.engine import flat_spec, geometry, spec_from_dict
from contactpath.errors import NonFiniteStateError, SingularArcError, StepUnderflowError
from contactpath.integrate import integrate

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


def test_flat_spec_conserves_contact_pairing():
    # constant u makes x affine in the parameter and z quadratic, so the
    # scheme is exact up to roundoff
    traj = integrate(flat_spec(3), INIT3, 0.0, 1.0, 1e-3)
    assert len(traj.t) == 1001
    assert np.max(np.abs(traj.contact_residual)) <= 1e-10
    assert np.max(np.abs(traj.secondary_residual)) <= 1e-10
    # x_inf coordinate advances with the parameter when C = 1
    assert abs(traj.states[-1][0] - 1.0) < 1e-12
    # u stays constant
    u_cols = traj.states[:, -3:]
    assert np.max(np.abs(u_cols - u_cols[0])) < 1e-12


def test_linear_f0_spec_conserves_contact_pairing():
    spec = spec_from_dict({"n": 3, "f0": "u1", "f": ["0", "0"]})
    traj = integrate(spec, INIT3, 0.0, 1.0, 1e-3)
    assert np.max(np.abs(traj.contact_residual)) <= 1e-8


def test_order_four_convergence():
    spec = spec_from_dict(
        {"n": 3, "f0": "u1*u2 + x1", "f": ["u2^2 - x2", "u1*x1"]}
    )
    coarse = integrate(spec, INIT3, 0.0, 1.0, 4e-3)
    fine = integrate(spec, INIT3, 0.0, 1.0, 2e-3)
    r_coarse = np.max(np.abs(coarse.contact_residual))
    r_fine = np.max(np.abs(fine.contact_residual))
    ratio = r_coarse / r_fine
    assert 12.0 <= ratio <= 20.0, ratio


def test_singular_arc_detection():
    spec = spec_from_dict({"n": 3, "C": "1 - 2*u1", "f0": "0", "f": ["1", "0"]})
    with pytest.raises(SingularArcError) as err:
        integrate(spec, INIT3, 0.0, 1.0, 1e-3)
    assert 0.0 < err.value.t < 0.2
    assert err.value.state is not None and len(err.value.state) == 8


def test_adaptive_integration_runs():
    spec = spec_from_dict({"n": 3, "f0": "u1*u2", "f": ["u2", "u1"]})
    fixed = integrate(spec, INIT3, 0.0, 1.0, 1e-3)
    adaptive = integrate(spec, INIT3, 0.0, 1.0, 1e-2, adaptive=True, rtol=1e-10)
    assert len(adaptive.t) < len(fixed.t)
    assert abs(adaptive.t[-1] - 1.0) < 1e-12
    # endpoints agree between the two step-control modes
    assert np.max(np.abs(adaptive.states[-1] - fixed.states[-1])) < 1e-7


def test_csv_output_schema():
    traj = integrate(flat_spec(3), INIT3, 0.0, 0.02, 1e-2)
    buf = io.StringIO()
    traj.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,x_inf,x0,x1,x2,z,u0,u1,u2,contact_residual,secondary_residual"
    assert len(lines) == 1 + len(traj.t)
    first = lines[1].split(",")
    assert len(first) == 11
    assert float(first[0]) == 0.0
    assert float(first[2]) == 0.3


@pytest.mark.parametrize("n, columns", [
    (3, "t x_inf x0 x1 x2 z u0 u1 u2"),
    (4, "t x_inf x0 x1 x2 x3 x4 z u0 u1 u2 u3 u4"),
    (5, "t x_inf x0 x1 x2 x3 x4 x5 x6 z u0 u1 u2 u3 u4 u5 u6"),
    (6, "t x_inf x0 x1 x2 x3 x4 x5 x6 x7 x8 z u0 u1 u2 u3 u4 u5 u6 u7 u8"),
])
def test_csv_header_is_the_chart_order(n, columns):
    traj = integrate_mod.Trajectory(flat_spec(n), None, None, None, None)
    assert traj.header() == columns.split() + ["contact_residual", "secondary_residual"]


def test_init_as_sequence_and_validation():
    traj = integrate(flat_spec(3), [0, 0.3, 0.1, -0.2, 0.5, 0.7, 0.4, -0.3], 0.0, 0.01, 1e-2)
    assert len(traj.t) == 2
    with pytest.raises(ValueError):
        integrate(flat_spec(3), [0.0, 1.0], 0.0, 1.0, 1e-2)
    with pytest.raises(ValueError):
        integrate(flat_spec(3), INIT3, 1.0, 0.0, 1e-2)


# sha256 of the CSV text of paths written by the tree-walking right-hand side
# and the per-sample residual loop; the lowered right-hand side, the reused
# first stage and the vectorised residuals must reproduce them byte for byte.
HALVING = {"n": 3, "f0": "u1*u2 + x1", "f": ["u2^2 - x2", "u1*x1"]}
GOLDEN_CSV = [
    (flat_spec(3), 1e-3, {},
     "a9d02d9eb7aace0b772365eec0d3d079a38367ed1d8c160da3ce456ff16377b4"),
    (HALVING, 4e-3, {},
     "b8bcb8fc33a1ebc32cbc05432a8361ec2e5d39ba8c92ae1183999e5c3bbf2533"),
    (HALVING, 2e-3, {},
     "4e7cc1d584bf2def3d9638be35d6dce5da760bdd24066ea8f325e7dedf26195d"),
    ({"n": 3, "f0": "u1*u2 + sin(x1)", "f": ["exp(u2/4) - x2", "cos(u1)*x1"]}, 1e-2, {},
     "6272dd4919c7b54f3954cd9379257f9c7d6d2d544b3105556248e919446779b1"),
    ({"n": 3, "C": "1 + u1^2", "f0": "u2*x1 - 1/3", "f": ["u2 + x2^2", "(2/3)*u1*z"]}, 1e-2, {},
     "e5da74ed29dc369929fbb749f0f0fb6ce87f48ee6307e9e1eff80483f3b42e5b"),
    ({"n": 3, "f0": "u1*u2", "f": ["u2", "u1"]}, 1e-2, {"adaptive": True, "rtol": 1e-10},
     "5a49647d05cdfdcf4af07de78ae895b44394903a9f3add4af50720af5e7963a0"),
]


@pytest.mark.parametrize(
    "spec, step, options, digest", GOLDEN_CSV,
    ids=["flat", "halving-coarse", "halving-fine", "transcendental", "poly-c", "adaptive"],
)
def test_csv_bytes_unchanged(spec, step, options, digest):
    if isinstance(spec, dict):
        spec = spec_from_dict(spec)
    traj = integrate(spec, INIT3, 0.0, 1.0, step, **options)
    buf = io.StringIO()
    traj.write_csv(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_singular_arc_state_unchanged():
    spec = spec_from_dict({"n": 3, "C": "1 - 2*u1", "f0": "0", "f": ["1", "0"]})
    with pytest.raises(SingularArcError) as err:
        integrate(spec, INIT3, 0.0, 1.0, 1e-3)
    assert repr(err.value.t) == "0.09900000000000007"
    assert [repr(float(v)) for v in err.value.state] == [
        "0.009998999999999987", "0.3068993298000001", "0.10433283400000003",
        "-0.20299969999999995", "0.5024331031999995", "0.6703000000000032",
        "0.4990000000000001", "-0.3",
    ]


def test_fixed_step_reuses_first_stage(monkeypatch):
    calls = []
    compile_rhs = integrate_mod._compile_rhs

    def counting_compile(spec):
        rhs = compile_rhs(spec)

        def counted(state):
            calls.append(1)
            return rhs(state)
        return counted

    monkeypatch.setattr(integrate_mod, "_compile_rhs", counting_compile)
    spec = spec_from_dict(HALVING)
    traj = integrate(spec, INIT3, 0.0, 0.1, 1e-2)
    steps = len(traj.t) - 1
    assert steps == 10
    # one evaluation at the initial point, then three stages and the check
    # at the new state, which is the next step's first stage
    assert len(calls) == 4 * steps + 1


# The right-hand side and the residual columns are written out by hand for
# speed; these specs tie them to the geometry's generating field and coframe.
OMEGA4 = [[0, 2, 0, 1], [-2, 0, 3, 0], [0, -3, 0, -1], [-1, 0, 1, 0]]
HAND_COPY_SPECS = [
    flat_spec(3),
    spec_from_dict({"n": 3, "f0": "2*u1*u2 + x1", "f": ["u2^2 - 3*x2", "u1*x1 - z"]}),
    spec_from_dict({"n": 3, "C": "2 + u1", "f0": "u2*t", "f": ["x0*u2", "-u1^2"]}),
    spec_from_dict({"n": 4, "omega": OMEGA4, "C": "3", "f0": "u1*u3 - x4",
                    "f": ["u2*x1", "2*u4", "x3*u1 + 1", "-u3^2"]}),
]


def _integer_states(spec, count, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(-3, 4, size=(count, spec.chart().dim))


@pytest.mark.parametrize("spec", HAND_COPY_SPECS, ids=["flat", "poly", "poly-c", "omega"])
def test_rhs_equals_generating_field(spec):
    # integer data and small integer states keep every float product exact
    rhs = integrate_mod._compile_rhs(spec)
    x_raw = geometry(spec).x_raw
    chart = spec.chart()
    for state in _integer_states(spec, 12, seed=3):
        point = {nm: Fraction(int(v)) for nm, v in zip(chart.names, state)}
        assert list(rhs(state.astype(float))[0]) == x_raw.evaluate(chart, point)


@pytest.mark.parametrize("spec", HAND_COPY_SPECS, ids=["flat", "poly", "poly-c", "omega"])
def test_residuals_equal_coframe_pairings(spec):
    # along a path linear in t the five-point velocity is the slope itself
    chart = spec.chart()
    start, slope = _integer_states(spec, 2, seed=5)
    ts = np.arange(9) / 8
    states = start + ts[:, None] * slope
    contact, secondary = integrate_mod._residuals(spec, ts, states.astype(float))
    coframe = geometry(spec).coframe
    for key, got in (("theta(-2,-2)", contact), ("theta(-1,-2)", secondary)):
        want = []
        for t in ts:
            point = {nm: Fraction(int(a)) + Fraction(t) * int(b)
                     for nm, a, b in zip(chart.names, start, slope)}
            form = coframe[key].evaluate(chart, point)
            want.append(float(sum(c * int(b) for c, b in zip(form, slope))))
        scale = max(1.0, max(abs(w) for w in want))
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=1e-12 * scale)


INIT3_SEQ = [0, 0.3, 0.1, -0.2, 0.5, 0.7, 0.4, -0.3]


def test_constant_c_is_compared_exactly_at_the_initial_point():
    # exactly 1e-8 lies below the double nearest 1e-8, which is C_MIN
    spec = spec_from_dict({"n": 3, "C": "1/100000000", "f0": "0", "f": ["0", "0"]})
    with pytest.raises(SingularArcError) as err:
        integrate(spec, INIT3_SEQ, 0.0, 1.0, 0.1)
    assert str(err.value) == "C vanishes at the initial point"
    assert err.value.t == 0.0
    spec = spec_from_dict({"n": 3, "C": "1/10000000", "f0": "0", "f": ["0", "0"]})
    assert len(integrate(spec, INIT3_SEQ, 0.0, 1.0, 0.1).t) == 11


def test_adaptive_rejects_non_finite_error_estimates():
    # u1' = u1^3 from u1 = 0.4 blows up at t = 3.125; near it the stages
    # overflow, the error estimate is inf or nan and every step is rejected
    spec = spec_from_dict({"n": 3, "f0": "0", "f": ["u1^3", "0"]})
    with pytest.raises(StepUnderflowError) as err:
        with np.errstate(all="ignore"):
            integrate(spec, INIT3_SEQ, 0.0, 10.0, 0.1, adaptive=True)
    assert str(err.value) == "step size underflow near t = 3.1249999976586658"


def test_error_norm_is_numpy_max_of_the_scaled_differences():
    # nan anywhere makes np.max nan, and so the step is rejected
    rng = np.random.default_rng(11)
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e308, -1e308]
    for _ in range(2000):
        two_half = rng.normal(size=6) * 10.0 ** rng.integers(-3, 4)
        full = two_half + rng.normal(size=6) * 1e-6
        for arr in (two_half, full):
            hit = rng.random(6) < 0.1
            arr[hit] = rng.choice(specials, size=hit.sum())
        with np.errstate(all="ignore"):
            want = np.max(np.abs(two_half - full)
                          / (1e-12 + 1e-9 * np.maximum(np.abs(two_half), 1.0)))
        got = integrate_mod._error_norm(two_half.tolist(), full.tolist(), 1e-12, 1e-9)
        assert repr(got) == repr(float(want))


def test_fixed_step_reaches_the_end_of_the_interval():
    # 100 steps of t += 0.1 end 2e-14 short of 10, below the step floor
    traj = integrate(flat_spec(3), INIT3, 0.0, 10.0, 0.1)
    assert len(traj.t) == 101
    assert abs(traj.t[-1] - 10.0) < 1e-12


@pytest.mark.parametrize("t0, t1", [(0.0, float("nan")), (float("nan"), 1.0), (0.0, float("inf")),
                                    (float("-inf"), 1.0)])
def test_non_finite_interval_is_refused(t0, t1):
    # nan compares false with everything, so `t1 <= t0` alone let it through
    with pytest.raises(ValueError, match="t0 and t1 must be finite"):
        integrate(flat_spec(3), INIT3, t0, t1, 1e-2)


@pytest.mark.parametrize("step", [-0.1, float("nan"), float("inf"), float("-inf")])
def test_negative_or_non_finite_step_is_refused(step):
    # -0.1 and nan ended in a step size underflow or a non-finite state, and
    # inf took one step over the whole interval
    with pytest.raises(ValueError, match="step must be finite and non-negative"):
        integrate(flat_spec(3), INIT3, 0.0, 1.0, step)


@pytest.mark.parametrize("step, samples, contact, secondary", [
    (1.0, 2, "2.472e-02", "7.599e-02"),
    (0.5, 3, "1.276e-02", "1.892e-03"),
])
def test_paths_of_fewer_than_five_samples_are_checked(step, samples, contact, secondary):
    # their residual columns were zero; the velocity is now read off the
    # interpolant through every sample
    spec = spec_from_dict({"n": 3, "f0": "u1^2", "f": ["u2*x1", "u1"]})
    traj = integrate(spec, INIT3, 0.0, 1.0, step)
    assert len(traj.t) == samples
    assert f"{np.max(np.abs(traj.contact_residual)):.3e}" == contact
    assert f"{np.max(np.abs(traj.secondary_residual)):.3e}" == secondary


@pytest.mark.parametrize("t0, t1", [(0.0, 1e-15), (0.0, 1e-14), (1.0, 0.0), (1.0, 1.0 + 2e-16)])
def test_interval_within_the_end_tolerance_is_refused(t0, t1):
    # 0 -> 1e-15 took no step and reported zero residuals for one sample
    spec = spec_from_dict({"n": 3, "f0": "u1^2", "f": ["u2*x1", "u1"]})
    with pytest.raises(ValueError, match="t1 must exceed t0 by more than the end tolerance"):
        integrate(spec, INIT3, t0, t1, 1e-3)


def test_adaptive_mode_needs_a_tolerance():
    with pytest.raises(ValueError):
        integrate(flat_spec(3), INIT3, 0.0, 1.0, 0.1, adaptive=True, rtol=0.0, atol=0.0)


# u1' = u1^3 blows up: from u1 = 0.4 at t = 3.125
BLOW_UP = {"n": 3, "f0": "0", "f": ["u1^3", "0"]}


def test_adaptive_nan_error_estimate_shrinks_the_step(run_python):
    # from u1 = 1e100 every stage overflows and the error estimate is nan; a
    # nan that grew the step instead would retry forever, so the run sits in
    # a child process under a timeout
    init = INIT3_SEQ[:6] + [1e100] + INIT3_SEQ[7:]
    done = run_python("-c", f"""
import numpy as np
from contactpath.engine import spec_from_dict
from contactpath.errors import StepUnderflowError
from contactpath.integrate import integrate
try:
    with np.errstate(all="ignore"):
        integrate(spec_from_dict({BLOW_UP!r}), {init!r}, 0.0, 1.0, 0.1, adaptive=True)
except StepUnderflowError as e:
    print(e)
""")
    assert (done.returncode, done.stdout) == (0, b"step size underflow near t = 0.0\n"), done.stderr


def test_fixed_step_blow_up_is_an_error():
    spec = spec_from_dict(BLOW_UP)
    with pytest.raises(NonFiniteStateError) as err:
        with np.errstate(all="ignore"):
            integrate(spec, INIT3_SEQ, 0.0, 5.0, 0.1)
    assert str(err.value) == "the state is not finite at t = 3.3000000000000016"
    assert err.value.t == 3.3000000000000016
    # the last finite sample, one step earlier: x_inf advances with t as C = 1
    state = err.value.state
    assert len(state) == 8 and np.isfinite(state).all()
    assert state[0] == pytest.approx(3.2)
    assert abs(state[6]) > 1e8
