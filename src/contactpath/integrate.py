"""Classical fourth-order integration of contact path systems.

The integral curves satisfy

    x_inf' = C,  x_alpha' = u_alpha C,  z' = C (x0 - u0 x_inf + omega_pq u^p x^q),
    u^p' = f^p,  u^0' = f^0 + omega_pq f^p u^q,

and conserve the contact pairing along exact solutions.  The right-hand side
is lowered once per path to straight-line float code (`lowering`), bitwise
equal to walking the spec's expression trees.  A fixed step makes four
right-hand-side calls: the call at the new state, which checks that C has
not vanished, is the next step's first stage.  The per-sample residual
columns are computed after the fact, for all samples at once, from a
five-point finite difference estimate of the velocity (fewer on a shorter
path), so they converge at the same fourth order as the scheme itself.

A step runs on lists of Python floats.  Each stage and the final combination
apply the operations of the array form `state + 0.5 * h * k1`,
`state + (h / 6) * (k1 + 2 k2 + 2 k3 + k4)` to each coordinate in the same
order, and numpy evaluates those elementwise as single IEEE double
operations, without fused multiply-add, so every float is bitwise what the
array form gives.  A constant C is compared with `C_MIN` exactly, once, at
the initial point; after that the float C is compared.  Both give one
verdict: rounding is monotone and `C_MIN` is a float, so an exact C at or
above `C_MIN` never rounds below it.
"""

import contextlib
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteStateError, SingularArcError, StepUnderflowError
from .lowering import compile_exprs, exact_constant

_CSV_BLOCK = 128
C_MIN = 1e-8  # |C| below this ends a path with SingularArcError
END_TOL = 1e-14  # a path ends within this of t1


@dataclass
class Trajectory:
    spec: object
    t: np.ndarray
    states: np.ndarray           # rows in chart order t(=x_inf), x0.., z, u0..
    contact_residual: np.ndarray
    secondary_residual: np.ndarray

    def header(self):
        m = self.spec.m
        cols = ["t", "x_inf", "x0"] + [f"x{i}" for i in range(1, m + 1)]
        cols += ["z", "u0"] + [f"u{i}" for i in range(1, m + 1)]
        cols += ["contact_residual", "secondary_residual"]
        return cols

    def write_csv(self, path_or_file):
        """CSV text as `csv.writer` writes it: `repr` of each float, CRLF line
        ends (a path is opened with newline="", so none are translated)."""
        table = np.column_stack([self.t, self.states, self.contact_residual,
                                 self.secondary_residual])
        if isinstance(path_or_file, (str, bytes)):
            target = open(path_or_file, "w", newline="", encoding="utf-8")
        else:
            target = contextlib.nullcontext(path_or_file)
        with target as fh:
            fh.write(",".join(self.header()) + "\r\n")
            # a block of rows at a time, so the whole table is never held as
            # Python floats and text at once
            for start in range(0, len(table), _CSV_BLOCK):
                rows = table[start:start + _CSV_BLOCK].tolist()
                fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in rows]))


def _compile_rhs(spec):
    """The generating field's right-hand side, lowered once: `rhs(state)`
    takes a list of floats and returns the derivative, as a list, and the
    float value of C at `state`."""
    names = spec.chart().names
    m = spec.m
    # the derivative is built in chart order: t, x0, x1..xm, z, u0, u1..um
    assert names == ("t", "x0", *[f"x{p}" for p in range(1, m + 1)],
                     "z", "u0", *[f"u{p}" for p in range(1, m + 1)])
    i_u0 = m + 3
    # the nonzero omega_pq in (p, q) order, with the slots their terms read
    omega = [(float(w), p, q) for p, row in enumerate(spec.omega) for q, w in enumerate(row) if w]
    z_terms = [(w, i_u0 + 1 + p, 2 + q) for w, p, q in omega]
    u0_terms = [(w, p, i_u0 + 1 + q) for w, p, q in omega]
    values = compile_exprs([spec.C, spec.f0, *spec.f], names)

    def rhs(s):
        c, f0, *fs = values(s)
        u0 = s[i_u0]
        acc = s[1] - u0 * s[0]
        for w, iup, ixq in z_terms:
            acc += w * s[iup] * s[ixq]
        du0 = f0
        for w, p, iuq in u0_terms:
            du0 += w * fs[p] * s[iuq]
        return [c, u0 * c, *[u * c for u in s[i_u0 + 1:]], c * acc, du0, *fs], c

    return rhs


def _rk4_step(rhs, state, h, first=None):
    """One classical step on a list of floats; `first` is rhs(state) when
    the caller has it."""
    k1, c = rhs(state) if first is None else first
    half = 0.5 * h
    k2, _ = rhs([s + half * k for s, k in zip(state, k1)])
    k3, _ = rhs([s + half * k for s, k in zip(state, k2)])
    k4, _ = rhs([s + h * k for s, k in zip(state, k3)])
    sixth = h / 6.0
    return [s + sixth * (p1 + 2.0 * p2 + 2.0 * p3 + p4)
            for s, p1, p2, p3, p4 in zip(state, k1, k2, k3, k4)], c


def _error_norm(two_half, full, atol, rtol):
    """The step-doubling error estimate, max |two_half - full| scaled by
    atol + rtol max(|two_half|, 1); nan when any term is nan, as `np.max`
    gives it, so a non-finite estimate rejects the step."""
    worst = 0.0
    for x, y in zip(two_half, full):
        e = abs(x - y) / (atol + rtol * max(abs(x), 1.0))
        if e != e:
            return e
        if e > worst:
            worst = e
    return worst


def _residuals(spec, ts, states):
    """Contact pairings of the finite-difference velocity, per sample.

    Each sample's velocity is the derivative at its time of the Lagrange
    interpolant through the min(5, N) nearest of the N samples, evaluated
    for all samples at once."""
    npts = len(ts)
    k = min(5, npts)
    lo = np.minimum(np.maximum(np.arange(npts) - 2, 0), npts - k)
    nodes = lo[:, None] + np.arange(k)
    T = ts[nodes]
    W = np.zeros((npts, k))
    for i in range(k):
        # derivative at ts of the i-th Lagrange basis polynomial
        total = np.zeros(npts)
        denom = np.ones(npts)
        for j in range(k):
            if j != i:
                denom *= T[:, i] - T[:, j]
        for j in range(k):
            if j == i:
                continue
            prod = np.ones(npts)
            for l in range(k):
                if l != i and l != j:
                    prod *= ts - T[:, l]
            total += prod
        W[:, i] = total / denom
    # stacked 1xk by kxdim products, bitwise the per-sample `w @ S`
    vel = np.matmul(W[:, None, :], states[nodes])[:, 0, :]
    names = spec.chart().names
    S = dict(zip(names, states.T))
    V = dict(zip(names, vel.T))
    omega = [(float(w), p, q)
             for p, row in enumerate(spec.omega, 1) for q, w in enumerate(row, 1) if w]
    # theta = dz + t dx0 - x0 dt + omega_pq x^p dx^q
    contact = V["z"] + S["t"] * V["x0"] - S["x0"] * V["t"]
    for w, p, q in omega:
        contact = contact + w * S[f"x{p}"] * V[f"x{q}"]
    # theta(-1,-2) = dx0 - u0 dt + omega_pq u^p dx^q
    secondary = V["x0"] - S["u0"] * V["t"]
    for w, p, q in omega:
        secondary = secondary + w * S[f"u{p}"] * V[f"x{q}"]
    return contact, secondary


def integrate(spec, init, t0, t1, step, adaptive=False, rtol=1e-9, atol=1e-12):
    """Integrate the generating field from a full coordinate point.

    `init` is a point dict or a sequence in chart order.  Fixed-step uses the
    classical fourth-order scheme; adaptive mode controls the error by step
    doubling.  Stops with SingularArcError if |C| falls below `C_MIN` along the
    arc, carrying the last good state, and with NonFiniteStateError if the
    path blows up, carrying the last finite state.  When C = 1 identically
    the x_inf coordinate advances with the parameter, matching the usual
    normalization.
    """
    chart = spec.chart()
    if isinstance(init, dict):
        state = [float(init[nm]) for nm in chart.names]
    else:
        init = list(init)
        if len(init) != chart.dim:
            raise ValueError(f"init must supply {chart.dim} coordinates")
        state = [float(v) for v in init]
    if not (np.isfinite(t0) and np.isfinite(t1)):
        raise ValueError("t0 and t1 must be finite")
    if not t0 < t1 - END_TOL:
        raise ValueError(f"t1 must exceed t0 by more than the end tolerance {END_TOL:g}")
    if not (np.isfinite(step) and step >= 0):
        # a zero step is a step size underflow, as any step too small is
        raise ValueError("step must be finite and non-negative")
    if adaptive and atol == 0 and rtol == 0:
        # every error estimate would be inf or nan, and no step accepted
        raise ValueError("adaptive mode needs atol or rtol nonzero")
    rhs = _compile_rhs(spec)
    first = rhs(state)
    c_start = exact_constant(spec.C)
    if abs(first[1] if c_start is None else c_start) < C_MIN:
        raise SingularArcError("C vanishes at the initial point", t0, np.array(state))
    ts = [t0]
    history = array("d", state)
    t = t0
    h = float(step)
    h_floor = 1e-13 * (t1 - t0)
    while t < t1 - END_TOL:
        if t1 - t < h_floor:
            # what is left is below the smallest step: t += h fell short of
            # t1 by rounding
            break
        h_eff = min(h, t1 - t)
        if h_eff < h_floor:
            raise StepUnderflowError(f"step size underflow near t = {t}")
        if not adaptive:
            new_state, _ = _rk4_step(rhs, state, h_eff, first)
            # the right-hand side at the new state, which checks C there,
            # is the next step's first stage
            first = rhs(new_state)
            if abs(first[1]) < C_MIN:
                raise SingularArcError("C vanished along the arc", t, np.array(state))
            state = new_state
            t += h_eff
            ts.append(t)
            history.extend(state)
            continue
        # step doubling: full step vs two half steps, sharing the first stage
        first = rhs(state)
        full, _ = _rk4_step(rhs, state, h_eff, first)
        half, _ = _rk4_step(rhs, state, h_eff / 2, first)
        two_half, c = _rk4_step(rhs, half, h_eff / 2)
        err = _error_norm(two_half, full, atol, rtol)
        if err <= 15.0:
            if abs(c) < C_MIN:
                raise SingularArcError("C vanished along the arc", t, np.array(state))
            t += h_eff
            state = [x + (x - y) / 15.0 for x, y in zip(two_half, full)]
            ts.append(t)
            history.extend(state)
        if err != err:
            factor = 0.1  # a nan estimate is a rejected step like any other
        else:
            factor = 0.9 * (15.0 / err) ** 0.2 if err > 0 else 4.0
        h = h_eff * min(4.0, max(0.1, factor))
    ts = np.array(ts)
    states = np.frombuffer(history).reshape(len(ts), chart.dim)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        t_bad = float(ts[bad])
        raise NonFiniteStateError(f"the state is not finite at t = {t_bad}",
                                  t_bad, states[bad - 1].copy() if bad else None)
    contact, secondary = _residuals(spec, ts, states)
    return Trajectory(spec, ts, states, contact, secondary)
