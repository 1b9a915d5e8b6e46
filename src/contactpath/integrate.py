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
five-point finite difference estimate of the velocity, so they converge at
the same fourth order as the scheme itself.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import SingularArcError, StepUnderflowError
from .lowering import compile_exprs


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
        close = False
        if isinstance(path_or_file, (str, bytes)):
            fh = open(path_or_file, "w", newline="", encoding="utf-8")
            close = True
        else:
            fh = path_or_file
        try:
            writer = csv.writer(fh)
            writer.writerow(self.header())
            table = np.column_stack([self.t, self.states, self.contact_residual,
                                     self.secondary_residual])
            writer.writerows([repr(v) for v in row.tolist()] for row in table)
        finally:
            if close:
                fh.close()


def _compile_rhs(spec):
    """The generating field's right-hand side, lowered once: `rhs(state)`
    returns the derivative and the value of C at `state`."""
    names = spec.chart().names
    m = spec.m
    ix = {nm: i for i, nm in enumerate(names)}
    i_t, i_x0, i_z, i_u0 = ix["t"], ix["x0"], ix["z"], ix["u0"]
    i_x = [ix[f"x{p}"] for p in range(1, m + 1)]
    i_u = [ix[f"u{p}"] for p in range(1, m + 1)]
    # the nonzero omega_pq in (p, q) order, with the slots their terms read
    omega = [(float(w), p, q) for p, row in enumerate(spec.omega) for q, w in enumerate(row) if w]
    z_terms = [(w, i_u[p], i_x[q]) for w, p, q in omega]
    u0_terms = [(w, p, i_u[q]) for w, p, q in omega]
    values = compile_exprs([spec.C, spec.f0, *spec.f], names)
    # a constant C is returned exact, as the tree walk gives it, for the
    # comparison against c_min
    c_exact = values.constants[0]
    dim = len(names)

    def rhs(state):
        s = state.tolist()
        c, f0, *fs = values(s)
        out = [0.0] * dim
        out[i_t] = c
        u0 = s[i_u0]
        out[i_x0] = u0 * c
        for ixp, iup in zip(i_x, i_u):
            out[ixp] = s[iup] * c
        acc = s[i_x0] - u0 * s[i_t]
        for w, iup, ixq in z_terms:
            acc += w * s[iup] * s[ixq]
        out[i_z] = c * acc
        du0 = f0
        for w, p, iuq in u0_terms:
            du0 += w * fs[p] * s[iuq]
        out[i_u0] = du0
        for iup, fp in zip(i_u, fs):
            out[iup] = fp
        return np.array(out, dtype=float), c if c_exact is None else c_exact

    return rhs


def _rk4_step(rhs, state, h, first=None):
    """One classical step; `first` is rhs(state) when the caller has it."""
    k1, c = rhs(state) if first is None else first
    k2, _ = rhs(state + 0.5 * h * k1)
    k3, _ = rhs(state + 0.5 * h * k2)
    k4, _ = rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), c


def _residuals(spec, ts, states):
    """Contact pairings of the finite-difference velocity, per sample.

    Each sample's velocity is the derivative at its time of the Lagrange
    interpolant through the five nearest samples, evaluated for all samples
    at once."""
    npts = len(ts)
    if npts < 5:
        return np.zeros(npts), np.zeros(npts)
    lo = np.minimum(np.maximum(np.arange(npts) - 2, 0), npts - 5)
    nodes = lo[:, None] + np.arange(5)
    T = ts[nodes]
    W = np.zeros((npts, 5))
    for i in range(5):
        # derivative at ts of the i-th Lagrange basis polynomial
        total = np.zeros(npts)
        denom = np.ones(npts)
        for j in range(5):
            if j != i:
                denom *= T[:, i] - T[:, j]
        for j in range(5):
            if j == i:
                continue
            prod = np.ones(npts)
            for l in range(5):
                if l != i and l != j:
                    prod *= ts - T[:, l]
            total += prod
        W[:, i] = total / denom
    # stacked 1x5 by 5xdim products, bitwise the per-sample `w @ S`
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


def integrate(spec, init, t0, t1, step, adaptive=False, rtol=1e-9, atol=1e-12, c_min=1e-8):
    """Integrate the generating field from a full coordinate point.

    `init` is a point dict or a sequence in chart order.  Fixed-step uses the
    classical fourth-order scheme; adaptive mode controls the error by step
    doubling.  Stops with SingularArcError if C falls below c_min along the
    arc, carrying the last good state.  When C = 1 identically the x_inf
    coordinate advances with the parameter, matching the usual normalization.
    """
    chart = spec.chart()
    if isinstance(init, dict):
        state = np.array([float(init[nm]) for nm in chart.names])
    else:
        init = list(init)
        if len(init) != chart.dim:
            raise ValueError(f"init must supply {chart.dim} coordinates")
        state = np.array([float(v) for v in init])
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    rhs = _compile_rhs(spec)
    first = rhs(state)
    if abs(first[1]) < c_min:
        raise SingularArcError("C vanishes at the initial point", t0, state.copy())
    ts = [t0]
    states = [state.copy()]
    t = t0
    h = float(step)
    h_floor = 1e-13 * (t1 - t0)
    while t < t1 - 1e-14:
        h_eff = min(h, t1 - t)
        if h_eff < h_floor:
            raise StepUnderflowError(f"step size underflow near t = {t}")
        if not adaptive:
            # the right-hand side at the new state, which checks C there,
            # is the next step's first stage
            state, first = _step_checked(rhs, state, h_eff, t, c_min, first)
            t += h_eff
            ts.append(t)
            states.append(state.copy())
            continue
        # step doubling: full step vs two half steps, sharing the first stage
        first = rhs(state)
        full, _ = _rk4_step(rhs, state, h_eff, first)
        half, _ = _rk4_step(rhs, state, h_eff / 2, first)
        two_half, c = _rk4_step(rhs, half, h_eff / 2)
        err = np.max(np.abs(two_half - full) / (atol + rtol * np.maximum(np.abs(two_half), 1.0)))
        if err <= 15.0:
            if abs(c) < c_min:
                raise SingularArcError("C vanished along the arc", t, state.copy())
            t += h_eff
            state = two_half + (two_half - full) / 15.0
            ts.append(t)
            states.append(state.copy())
        factor = 0.9 * (15.0 / err) ** 0.2 if err > 0 else 4.0
        h = h_eff * min(4.0, max(0.1, factor))
    ts = np.array(ts)
    states = np.array(states)
    contact, secondary = _residuals(spec, ts, states)
    return Trajectory(spec, ts, states, contact, secondary)


def _step_checked(rhs, state, h, t, c_min, first):
    new_state, c = _rk4_step(rhs, state, h, first)
    following = rhs(new_state)
    if abs(following[1]) < c_min or abs(c) < c_min:
        raise SingularArcError("C vanished along the arc", t, state.copy())
    return new_state, following
