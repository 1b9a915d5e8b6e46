"""Analysis engine for user-supplied contact path ODE systems.

An ODESpec fixes n, the skew matrix omega, and expressions C, f0, f^i; the
generating field is X = C T(-1,0) + f0 T(0,-2) + f^p A_p in the flat-model
frame.  Torsion computations normalize by C (the span of X is what matters,
and the torsion tensor of X rescales by C^2), so all closed forms below are
stated for the normalized field; for the default C = 1 they coincide with
the raw data.

Each Geometry settles its ring once, when it is built: polynomial
components when C is constant and C, f0 and every f are polynomial,
expression trees otherwise.  Everything it stores (the raw and normalized
data, the frame, the coframe, its zero) lives in that ring, so the methods
below compute without asking again.  The trees are built simplified, and
fields and forms drop components that fold to zero, so the brackets of a
non-polynomial spec stay small.

The float-point checks (`filtration_ranks`, `semiregular_ranks`,
`vertical_escape`, `skew_complement_W`, `partial_uw_vectors`,
`secondary_torsion`, `characteristic_system_test`, `adapted_frame_check`,
`torsion_obstruction_values`) and `torsion_point_reduction` share one
contract.  Each refuses, with `DegeneratePointError`, a point where C is
undefined (a pole, or a value that overflows) or |C| < RANK_TOL, and the
point sampler skips such points: one C rule, `_c_refused`.  Their ranks go
through `_nrank`, and ranks and vanishing tests read that one absolute
tolerance, RANK_TOL = 1e-9, scaled by the data where they say so; only
`secondary_torsion`'s guard against leaking out of E-perp uses its own
relative 1e-6.  No call takes a tolerance.  `torsion_point_reduction` is
exact at rational points of a polynomial spec.  At float points a
polynomial geometry evaluates its fields through monomial tables, built once
per geometry on first use (`Geometry.eval_fields`); other geometries walk
their trees.  A spec's Geometry is built on first use and kept on the spec
itself, together with its contact torsion reports, so it lives exactly as
long as the spec.
"""

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from random import Random

import numpy as np

from . import expr as ex
from . import flat_model as fm
from .errors import (
    DegeneratePointError,
    ExprError,
    ExprEvalError,
    SpecFormatError,
    TorsionPreconditionError,
)
from .exactlinalg import inverse as exact_inverse
from .exactlinalg import rank as exact_rank
from .exactlinalg import solve as exact_solve
from .graded_sp import GradedLieAlgebra, standard_omega
from .lowering import MonomialTable
from .poly import Polynomial

RANK_TOL = 1e-9


# --- spec ------------------------------------------------------------------

@dataclass(frozen=True)
class ODESpec:
    n: int
    omega: tuple          # (2n-4) x (2n-4) skew nondegenerate, Fractions
    C: object             # Expr
    f0: object            # Expr
    f: tuple              # 2n-4 Exprs

    @property
    def m(self):
        return 2 * self.n - 4

    def chart(self):
        return fm.projective_chart(self.n)

    def variables(self):
        return list(self.chart().names)

    @cached_property
    def _geometry(self):
        return Geometry(self)

    def to_dict(self):
        return {
            "n": self.n,
            "omega": [[str(x) if x.denominator != 1 else int(x) for x in row] for row in self.omega],
            "C": str(self.C),
            "f0": str(self.f0),
            "f": [str(e) for e in self.f],
        }


def _parse_rational(x):
    if isinstance(x, bool):
        raise SpecFormatError(f"invalid rational entry {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise SpecFormatError(f"invalid rational entry {x!r}") from e
    raise SpecFormatError(f"invalid rational entry {x!r}")


def spec_from_dict(data):
    if not isinstance(data, dict):
        raise SpecFormatError("spec must be a JSON object")
    try:
        n = int(data["n"])
    except (KeyError, TypeError, ValueError):
        raise SpecFormatError("spec requires an integer field 'n'") from None
    if n < 3:
        raise SpecFormatError(f"n must be >= 3, got {n}")
    m = 2 * n - 4
    if "omega" in data:
        om_rows = data["omega"]
        if not isinstance(om_rows, list) or len(om_rows) != m or any(
            not isinstance(r, list) or len(r) != m for r in om_rows
        ):
            raise SpecFormatError(f"omega must be {m}x{m}")
        omega = [[_parse_rational(x) for x in row] for row in om_rows]
    else:
        omega = standard_omega(m)
    for i in range(m):
        for j in range(m):
            if omega[i][j] != -omega[j][i]:
                raise SpecFormatError("omega must be skew-symmetric")
    if exact_rank(omega) != m:
        raise SpecFormatError("omega must be nondegenerate")
    variables = fm.projective_chart(n).names
    try:
        c_expr = ex.parse(str(data.get("C", "1")), variables)
        f0_expr = ex.parse(str(data["f0"]), variables)
        f_list = data["f"]
        if not isinstance(f_list, list) or len(f_list) != m:
            raise SpecFormatError(f"f must have {m} entries")
        f_exprs = tuple(ex.parse(str(s), variables) for s in f_list)
    except KeyError as e:
        raise SpecFormatError(f"missing field {e.args[0]!r}") from None
    c_poly = c_expr.as_polynomial()
    if c_poly is not None and c_poly.is_zero():
        raise SpecFormatError("C must not vanish identically")
    for name, e in [("C", c_expr), ("f0", f0_expr)] + [(f"f[{i}]", e) for i, e in enumerate(f_exprs)]:
        _reject_constant_zero_divisor(name, e)
    return ODESpec(n, tuple(tuple(row) for row in omega), c_expr, f0_expr, f_exprs)


def _reject_constant_zero_divisor(name, e):
    """A divisor or negative-power base without variables must evaluate
    exactly to a nonzero value, and one with variables must not be the zero
    polynomial; otherwise the expression is undefined at every point."""
    nodes = [e]
    while nodes:
        node = nodes.pop()
        if isinstance(node, ex.Bin) and node.op == "/":
            divisor = node.right
        elif isinstance(node, ex.Pow) and node.exponent < 0:
            divisor = node.base
        else:
            divisor = None
        if divisor is not None:
            if divisor.variables():
                poly = divisor.as_polynomial()
                ok = poly is None or not poly.is_zero()
            else:
                try:
                    ok = divisor.evaluate({}) != 0
                except (ExprError, ArithmeticError):
                    ok = False
            if not ok:
                raise SpecFormatError(f"{name} divides by '{divisor}', which is zero or undefined")
        nodes += node.children()


def load_spec(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise SpecFormatError(f"not valid JSON: {e}") from e
    return spec_from_dict(data)


def flat_spec(n):
    return spec_from_dict({"n": n, "f0": "0", "f": ["0"] * (2 * n - 4)})


# --- normalized data and cached geometry -------------------------------------

class Geometry:
    """Per-spec cache of frame fields, normalized data, and brackets."""

    def __init__(self, spec):
        self.spec = spec
        self.n = spec.n
        self.m = spec.m
        self.chart = spec.chart()
        self.omega = [list(row) for row in spec.omega]
        self.omega_upper = [[-v for v in row] for row in exact_inverse(self.omega)]
        # The ring is settled here, once: Polynomial when C is a constant and
        # C, f0 and every f are polynomial, expression trees otherwise.
        exprs = (spec.C, spec.f0, *spec.f)
        polys = [e.as_polynomial() for e in exprs]
        c = polys[0]
        c_const = c is not None and c.is_constant()
        self.polynomial = c_const and None not in polys
        # C = 0 never loads (spec_from_dict); C = 1 is the case inv = 1
        inv = 1 / c.constant_value() if c_const else None
        self.frame = fm.frame(self.n, self.omega)
        self.coframe = fm.coframe(self.n, self.omega)
        if self.polynomial:
            self.raw = tuple(polys)
            self.zero = Polynomial()
            self.as_expr = ex.poly_to_expr
            hat = [p * inv for p in polys[1:]]
        else:
            self.raw = exprs
            self.zero = ex.Num(Fraction(0))
            self.as_expr = ex.simplify
            if c_const:
                # scale before converting, which fixes how tau prints:
                # poly_to_expr(p * inv) for polynomials, e * inv for trees
                hat = [ex.poly_to_expr(p * inv) if p is not None else e * ex.Num(inv)
                       for p, e in zip(polys[1:], exprs[1:])]
            else:
                # general C: torsion data lives on the normalized span of X
                hat = [e / spec.C for e in exprs[1:]]
            self.frame = {k: v.map(ex.poly_to_expr) for k, v in self.frame.items()}
            self.coframe = {k: v.map(ex.poly_to_expr) for k, v in self.coframe.items()}
        self.f0_hat, *self.f_hat = hat
        self._cache = {}

    def _generating(self, key, c, f0, f):
        """c T(-1,0) + f0 T(0,-2) + f^p A_p, built once and kept under `key`."""
        if key not in self._cache:
            t = self.frame["T(-1,0)"]  # a scale by 1 would only redo its arithmetic
            x = (t if c == 1 else t.scale(c)) + self.frame["T(0,-2)"].scale(f0)
            for p in range(1, self.m + 1):
                x = x + self.frame[f"A{p}"].scale(f[p - 1])
            self._cache[key] = x
        return self._cache[key]

    def x_hat(self):
        """The normalized generating field, whose C is 1."""
        return self._generating("x_hat", 1, self.f0_hat, self.f_hat)

    def x_raw(self):
        c, f0, *f = self.raw
        return self._generating("x_raw", c, f0, f)

    def a_field(self, i):
        return self.frame[f"A{i}"]

    def ai_xhat(self, i):
        key = ("ai_x", i)
        if key not in self._cache:
            self._cache[key] = fm.lie_bracket(self.a_field(i), self.x_hat())
        return self._cache[key]

    def double_bracket(self, i):
        """[[A_i, X], X] for the normalized field, every component."""
        key = ("aixx", i)
        if key not in self._cache:
            self._cache[key] = fm.lie_bracket(self.ai_xhat(i), self.x_hat())
        return self._cache[key]

    def torsion_bracket(self, i):
        """[[A_i, X], X] restricted to the coordinates where theta(-1,-2)
        and theta(-2,-2) have components (t, x0, the x_q and z): their
        pairings with it equal their pairings with `double_bracket(i)`, and
        the u components, most of its polynomial work, are never built."""
        key = ("aixx-theta", i)
        if key not in self._cache:
            coords = (self.coframe["theta(-1,-2)"].components.keys()
                      | self.coframe["theta(-2,-2)"].components.keys())
            self._cache[key] = fm.lie_bracket(self.ai_xhat(i), self.x_hat(), coords)
        return self._cache[key]

    def secondary_bracket(self, i):
        """[X, [X, A_i]] for the normalized field."""
        key = ("xxa", i)
        if key not in self._cache:
            inner = fm.lie_bracket(self.x_hat(), self.a_field(i))
            self._cache[key] = fm.lie_bracket(self.x_hat(), inner)
        return self._cache[key]

    def filtration_fields(self):
        """Symbolic spanning fields for every filtration subbundle, cached."""
        if "filtration" not in self._cache:
            m = self.m
            A = [self.a_field(i) for i in range(1, m + 1)]
            T02 = self.frame["T(0,-2)"]
            Tm10 = self.frame["T(-1,0)"]
            E = [self.frame[f"E{i}"] for i in range(1, m + 1)]
            e_gens = A + [T02, self.x_hat()]
            partial_e, partial2_e = _bracket_levels(e_gens, 2)
            self._cache["filtration"] = {
                "u": A,
                "v": A + [T02],
                "e": e_gens,
                "partial_uw": _partial_uw_fields(self),
                "e_perp": _eperp_fields(self),
                "h": A + [T02, Tm10, self.frame["T(-1,-2)"]] + E,
                "partial_e": partial_e,
                "partial2_e": partial2_e,
            }
        return self._cache["filtration"]

    def nu_form(self):
        """i(X) d(i(X) d theta(-1,-2)), the characteristic-system functional."""
        if "nu" not in self._cache:
            x_hat = self.x_hat()
            mu = self.coframe["theta(-1,-2)"].d().interior(x_hat)
            self._cache["nu"] = mu.d().interior(x_hat)
        return self._cache["nu"]

    def dbeta_matrix(self, r, s):
        """Coordinate matrix of d(r theta(-2,-2) + s theta(-1,-2)); constant."""
        key = ("dbeta", float(r), float(s))
        if key not in self._cache:
            dim = self.chart.dim
            idx = {nm: i for i, nm in enumerate(self.chart.names)}
            out = np.zeros((dim, dim))
            for form, coef in (
                (self.coframe["theta(-2,-2)"].d(), float(r)),
                (self.coframe["theta(-1,-2)"].d(), float(s)),
            ):
                for (a, b), comp in form.components.items():
                    # d of a coframe form has constant components in either ring
                    val = float(comp.evaluate({}))
                    out[idx[a], idx[b]] += coef * val
                    out[idx[b], idx[a]] -= coef * val
            self._cache[key] = out
        return self._cache[key]

    def lower(self, vec):
        """f_i = f^p omega_{pi}."""
        return fm.contract(list(zip(*self.omega)), vec, self.zero)

    def raise_index(self, vec):
        """tau^i = omega^{ip} tau_p with omega^{ip} omega_{pj} = -delta^i_j."""
        return fm.contract(self.omega_upper, vec, self.zero)

    def eval_field(self, field, point):
        vals = field.evaluate(self.chart, point)
        return np.array([float(v) for v in vals])

    def eval_fields(self, key, fields, point):
        """The (dim, k) matrix of the fields' (or one-forms') values at a
        float point.  A polynomial geometry lowers `fields` to a monomial
        table on the first call with `key` and reuses it for every later
        point; each key must always name the same fields.  Other geometries
        walk the trees with `eval_field`.  A value that overflows to inf or
        nan raises `ExprEvalError`, as a pole does."""
        if self.polynomial:
            table = self._cache.get(("table", key))
            if table is None:
                table = self._cache[("table", key)] = MonomialTable(self.chart.names, fields)
            with np.errstate(over="ignore", invalid="ignore"):
                vals = table(point)
        else:
            try:
                vals = np.column_stack([self.eval_field(f, point) for f in fields])
            except OverflowError:
                vals = None
        if vals is None or not np.isfinite(vals).all():
            raise ExprEvalError("a field value overflows at the requested point")
        return vals


def geometry(spec):
    """The Geometry of a spec, built on first use and kept on the spec."""
    return spec._geometry


def generating_field(spec):
    """X = C T(-1,0) + f0 T(0,-2) + f^p A_p in the flat-model frame."""
    return geometry(spec).x_raw()


# --- contact torsion ----------------------------------------------------------

@dataclass(frozen=True)
class TorsionReport:
    tau: tuple            # Exprs, one per lowered index
    is_zero: str          # proved-zero | proved-nonzero | undetermined
    witness: object       # point dict where some tau_i != 0, when nonzero
    tau_ring: tuple       # internal ring elements (Polynomial or Expr)
    bracket_tau: tuple    # same components computed through double brackets

    PROVED_ZERO = "proved-zero"
    PROVED_NONZERO = "proved-nonzero"
    UNDETERMINED = "undetermined"


def _c_refused(spec, point):
    """The C rule: true where C is undefined (a pole, a log domain error or
    an overflow) or |C| < RANK_TOL.  Every float-point check refuses such a
    point, and the sampler skips it."""
    try:
        return abs(float(spec.C.evaluate(point))) < RANK_TOL
    except (ExprError, OverflowError):
        return True


def iter_seeded_points(spec, count, seed=42, avoid_c_zero=True):
    """Deterministic rational sample points in the chart of a spec, drawn
    one at a time from `Random(seed)`: a caller that stops early draws only
    the points it read, and the k-th point is the same however many follow.
    With `avoid_c_zero`, points the C rule refuses are skipped."""
    rng = Random(seed)
    names = spec.chart().names
    found = attempts = 0
    while found < count:
        attempts += 1
        if attempts > 200 * count + 200:
            raise DegeneratePointError(
                "could not sample points where C is defined and |C| >= RANK_TOL")
        pt = {
            nm: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            for nm in names
        }
        if avoid_c_zero and _c_refused(spec, pt):
            continue
        found += 1
        yield pt


def seeded_points(spec, count, seed=42):
    """Deterministic rational sample points in the chart of a spec: the
    first `count` points of `iter_seeded_points`, as a list."""
    return list(iter_seeded_points(spec, count, seed))


def contact_torsion(spec, seed=42):
    """Contact torsion through the closed form, cross-checked by brackets.

    tau_i = 3 f_i + A_i(f0) for the C-normalized data; the same components
    are recomputed as the theta(-1,-2) pairing of [[A_i, X], X] and the two
    routes must agree identically, while the theta(-2,-2) pairing must
    vanish.  The bracket route builds only the components those two forms
    read (`Geometry.torsion_bracket`).  The report is built once per
    geometry and seed.
    """
    geo = geometry(spec)
    key = ("torsion", seed)
    if key in geo._cache:
        return geo._cache[key]
    f_low = geo.lower(geo.f_hat)
    tau = []
    for i in range(1, geo.m + 1):
        tau.append(3 * f_low[i - 1] + geo.a_field(i).apply(geo.f0_hat))
    bracket_tau = []
    th = geo.coframe["theta(-1,-2)"]
    th_contact = geo.coframe["theta(-2,-2)"]
    for i in range(1, geo.m + 1):
        b = geo.torsion_bracket(i)
        bracket_tau.append(th.pair(b))
        contact_part = th_contact.pair(b)
        if geo.polynomial and not contact_part.is_zero():
            raise DegeneratePointError("double bracket escaped the contact hyperplane")
    if geo.polynomial:
        for a, b in zip(tau, bracket_tau):
            if not (a - b).is_zero():
                raise TorsionPreconditionError(
                    "closed-form and bracket torsion disagree; check omega conventions"
                )
    is_zero, witness = _decide_zero(spec, tau, geo, seed)
    tau_exprs = tuple(geo.as_expr(t) for t in tau)
    geo._cache[key] = TorsionReport(tau_exprs, is_zero, witness, tuple(tau), tuple(bracket_tau))
    return geo._cache[key]


def _decide_zero(spec, tau, geo, seed):
    if geo.polynomial:
        if all(t.is_zero() for t in tau):
            return TorsionReport.PROVED_ZERO, None
        # C is a nonzero constant here, so no point needs its check
        for pt in iter_seeded_points(spec, 40, seed=seed, avoid_c_zero=False):
            if any(t.evaluate(pt) != 0 for t in tau):
                return TorsionReport.PROVED_NONZERO, pt
        return TorsionReport.PROVED_NONZERO, None
    worst = 0.0
    witness = None
    for pt in iter_seeded_points(spec, 20, seed=seed):
        fpt = {k: float(v) for k, v in pt.items()}
        try:
            vals = [abs(float(t.evaluate(fpt))) for t in tau]
        except ExprError:
            continue
        big = max(vals) if vals else 0.0
        if big > worst:
            worst, witness = big, pt
    if worst > RANK_TOL:
        return TorsionReport.PROVED_NONZERO, witness
    return TorsionReport.UNDETERMINED, None


def torsion_point_reduction(spec, point):
    """Rank-based torsion extraction at a point: reduce [[A_i, X], X] modulo
    span{A_j, T(0,-2), X, E_j} and read the T(-1,-2) coefficient."""
    geo, _ = _float_point(spec, point)
    exact = geo.polynomial and all(isinstance(v, (int, Fraction)) for v in point.values())
    span_fields = (
        [geo.a_field(j) for j in range(1, geo.m + 1)]
        + [geo.frame["T(0,-2)"], geo.x_hat()]
        + [geo.frame[f"E{j}"] for j in range(1, geo.m + 1)]
    )
    tail = [geo.frame["T(-1,-2)"], geo.frame["T(-2,-2)"]]
    if exact:
        cols = [f.evaluate(geo.chart, point) for f in span_fields + tail]
        mat = [list(col) for col in zip(*cols)]
        if exact_rank([row[: len(span_fields)] for row in mat]) != 4 * geo.n - 6:
            raise DegeneratePointError("reduction span lost rank (C vanishes here?)")
        out = []
        for i in range(1, geo.m + 1):
            b = geo.double_bracket(i).evaluate(geo.chart, point)
            coeffs = exact_solve(mat, list(b))
            if coeffs is None:
                raise DegeneratePointError("double bracket not in the tangent span")
            out.append(coeffs[len(span_fields)])
        return out
    brackets = [geo.double_bracket(i) for i in range(1, geo.m + 1)]
    # `point`, not its float copy: a tree walk keeps rational arithmetic
    # where it can, which fixes the last bits of the result
    vals = geo.eval_fields("reduction", span_fields + tail + brackets, point)
    width = len(span_fields) + len(tail)
    mat = vals[:, :width]
    if _nrank(mat[:, : len(span_fields)]) != 4 * geo.n - 6:
        raise DegeneratePointError("reduction span lost rank (C vanishes here?)")
    out = []
    for i in range(geo.m):
        coeffs, *_ = np.linalg.lstsq(mat, vals[:, width + i], rcond=None)
        out.append(float(coeffs[len(span_fields)]))
    return out


def torsion_free_representative(spec, seed=42):
    """The unique spec with the same contact data and vanishing torsion.

    Replaces f^i by f^i - (C/3) tau^i, where tau is the normalized torsion
    and the index is raised with omega; idempotent by construction.
    """
    geo = geometry(spec)
    report = contact_torsion(spec, seed=seed)
    tau_up = geo.raise_index(list(report.tau_ring))
    c, _, *f = geo.raw
    new_f = tuple(geo.as_expr(fp - c * t * Fraction(1, 3)) for fp, t in zip(f, tau_up))
    return replace(spec, f=new_f)


# --- filtration ranks -----------------------------------------------------------

@dataclass(frozen=True)
class RankTable:
    u: int
    v: int
    e: int
    partial_uw: int
    e_perp: int
    h: int
    partial_e: int
    partial2_e: int

    def as_tuple(self):
        return (
            self.u,
            self.v,
            self.e,
            self.partial_uw,
            self.e_perp,
            self.h,
            self.partial_e,
            self.partial2_e,
        )

    @staticmethod
    def expected(n):
        return (
            2 * n - 4,
            2 * n - 3,
            2 * n - 2,
            4 * n - 7,
            4 * n - 6,
            4 * n - 5,
            4 * n - 5,
            4 * n - 4,
        )


def _float_point(spec, point):
    """(geometry, point as floats) for a float-point check, after the C rule:
    a point the C rule refuses raises `DegeneratePointError`."""
    if _c_refused(spec, point):
        raise DegeneratePointError("C vanishes or is undefined at the requested point")
    return geometry(spec), {k: float(v) for k, v in point.items()}


def _bracket_levels(gens, depth):
    """The first `depth` iterated bracket spans of `gens`, as field lists,
    each extending the one before it.  The first is the generators and
    their brackets [g_i, g_j], i < j; each next one appends [g, h] for every
    generator g and every field h the previous list added (for the first
    list, all of it)."""
    level = list(gens)
    for i, gi in enumerate(gens):
        for gj in gens[i + 1:]:
            level.append(fm.lie_bracket(gi, gj))
    levels, added = [level], level
    for _ in range(depth - 1):
        added = [fm.lie_bracket(g, h) for g in gens for h in added]
        levels.append(levels[-1] + added)
    return levels


def _nrank(mat):
    """Numeric rank of the span of a (dim, k) matrix's columns."""
    if not mat.shape[1]:
        return 0
    return int(np.linalg.matrix_rank(mat, tol=RANK_TOL))


def filtration_ranks(spec, point):
    """Numeric ranks at a point of the canonical filtration subbundles."""
    geo, fpoint = _float_point(spec, point)
    fields = geo.filtration_fields()
    vals = geo.eval_fields("filtration", [f for flist in fields.values() for f in flist], fpoint)
    ranks = {}
    start = 0
    for key, flist in fields.items():
        ranks[key] = _nrank(vals[:, start:start + len(flist)])
        start += len(flist)
    return RankTable(**ranks)


def semiregular_ranks(spec, point):
    """Ranks showing the splitting line and verticals generate the filtration.

    Returns the ranks of the iterated bracket spans of T^{-1} = U + W:
    expected (4n-6, 4n-5, 4n-4), i.e. the next three filtration levels.
    """
    geo, fpoint = _float_point(spec, point)
    key = "semiregular"
    if key not in geo._cache:
        gens = [geo.a_field(i) for i in range(1, geo.m + 1)] + [geo.x_hat()]
        geo._cache[key] = _bracket_levels(gens, 3)
    spans = geo._cache[key]
    vals = geo.eval_fields(key, spans[-1], fpoint)
    return tuple(_nrank(vals[:, :len(span)]) for span in spans)


def vertical_escape(spec, point):
    """True when T(0,-2) is not contained in the span of A_i, X, [A_i, X]."""
    geo, fpoint = _float_point(spec, point)
    vals = geo.eval_fields("escape", _partial_uw_fields(geo) + [geo.frame["T(0,-2)"]], fpoint)
    return _nrank(vals) == _nrank(vals[:, :-1]) + 1


# --- symplectic structure on E-perp ------------------------------------------------

@dataclass(frozen=True)
class SkewComplementReport:
    nondegenerate: bool
    basis: tuple              # chart vectors spanning the skew complement of W
    lagrangian_v: bool
    u_complement_is_e: bool


def _eperp_fields(geo):
    return (
        [geo.a_field(i) for i in range(1, geo.m + 1)]
        + [geo.frame["T(0,-2)"], geo.frame["T(-1,0)"]]
        + [geo.frame[f"E{i}"] for i in range(1, geo.m + 1)]
    )


def skew_complement_W(spec, point, r, s):
    """Skew complement of the generating line in E-perp for d(beta), beta the
    filtered frame r theta(-2,-2) + s theta(-1,-2)."""
    if s == 0:
        raise SpecFormatError("filtered frame requires s != 0")
    geo, fpoint = _float_point(spec, point)
    dbeta_mat = geo.dbeta_matrix(r, s)
    fields = _eperp_fields(geo)
    field_mat = geo.eval_fields("e_perp", fields, fpoint)
    gram = field_mat.T @ dbeta_mat @ field_mat
    size = len(fields)
    nondeg = _nrank(gram) == size
    # X coordinates in the E-perp basis are read off the normalized data
    xi = np.zeros(size)
    for p in range(1, geo.m + 1):
        xi[p - 1] = float(geo.f_hat[p - 1].evaluate(fpoint))
    xi[geo.m] = float(geo.f0_hat.evaluate(fpoint))
    xi[geo.m + 1] = 1.0
    functional = xi @ gram
    kernel = _nullspace_numeric(functional.reshape(1, -1))
    basis_vectors = [tuple(field_mat @ coeffs) for coeffs in kernel.T]
    # V = span{A_i, T(0,-2)} spans the first m+1 slots of the E-perp basis
    vblock = gram[: geo.m + 1, : geo.m + 1]
    lagrangian = bool(np.max(np.abs(vblock)) < RANK_TOL * (1 + np.max(np.abs(gram))))
    # skew complement of U: vectors pairing to zero with every A_i
    u_rows = gram[: geo.m, :]
    u_comp = _nullspace_numeric(u_rows)
    e_coords = np.eye(size, geo.m + 2)
    e_coords[:, geo.m + 1] = xi
    same = _same_span(u_comp, e_coords)
    return SkewComplementReport(bool(nondeg), tuple(basis_vectors), lagrangian, bool(same))


def _nullspace_numeric(mat):
    _, sing, vt = np.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(sing > RANK_TOL * max(mat.shape) * (sing[0] if len(sing) else 1.0)))
    return vt[rank:].T


def _same_span(a, b):
    if a.shape[1] != b.shape[1]:
        return False
    return _nrank(a) == _nrank(b) == _nrank(np.hstack([a, b]))


def _partial_uw_fields(geo):
    """A_i, X and [A_i, X]: the bracket closure of U and the generating line."""
    return (
        [geo.a_field(i) for i in range(1, geo.m + 1)]
        + [geo.x_hat()]
        + [geo.ai_xhat(i) for i in range(1, geo.m + 1)]
    )


def partial_uw_vectors(spec, point):
    """Chart vectors spanning the bracket closure of U and the generating line."""
    geo, fpoint = _float_point(spec, point)
    return list(geo.eval_fields("partial_uw", _partial_uw_fields(geo), fpoint).T)


def spans_equal(vectors_a, vectors_b):
    a = np.column_stack([np.asarray(v, dtype=float) for v in vectors_a])
    b = np.column_stack([np.asarray(v, dtype=float) for v in vectors_b])
    return _same_span(a, b)


# --- secondary torsion -----------------------------------------------------------

def _torsion_free_point(spec, point):
    """`_float_point`, for a spec whose contact torsion is proved zero."""
    geo_point = _float_point(spec, point)
    if contact_torsion(spec).is_zero != TorsionReport.PROVED_ZERO:
        raise TorsionPreconditionError(
            "secondary torsion and the characteristic test are defined only when "
            "the contact torsion vanishes")
    return geo_point


def secondary_torsion(spec, point):
    """Secondary contact torsion components at a point.

    Defined only for specs whose contact torsion vanishes identically; the
    value is the coefficient on the vertical complement direction of
    [X, [X, A_i]] modulo span{A_j, X, [A_j, X]}.  Only its vanishing is
    invariant; the numeric vector is chart-normalized.
    """
    geo, fpoint = _torsion_free_point(spec, point)
    cols = _partial_uw_fields(geo) + [geo.frame[k] for k in ("T(0,-2)", "T(-1,-2)", "T(-2,-2)")]
    brackets = [geo.secondary_bracket(i) for i in range(1, geo.m + 1)]
    vals = geo.eval_fields("secondary", cols + brackets, fpoint)
    mat = vals[:, :len(cols)]
    if _nrank(mat) != 4 * geo.n - 4:
        raise DegeneratePointError("tangent basis lost rank at the point")
    out = []
    scale = max(1.0, float(np.max(np.abs(mat))))
    for i in range(geo.m):
        b = vals[:, len(cols) + i]
        coeffs = np.linalg.solve(mat, b)
        leak = max(abs(coeffs[-2]), abs(coeffs[-1]))
        if leak > 1e-6 * scale * max(1.0, float(np.max(np.abs(b)))):
            raise TorsionPreconditionError(
                f"secondary bracket leaks outside E-perp (component {leak:g})"
            )
        out.append(float(coeffs[-3]))
    return np.array(out)


def characteristic_system_test(spec, point):
    """Whether the generating line is characteristic for the bracket closure.

    Implements the dual route: with mu = i(X) d theta(-1,-2), the test is
    whether i(X) d mu annihilates span{A_j, X, [A_j, X]} at the point.
    Returns (contained, max_pairing).
    """
    geo, fpoint = _torsion_free_point(spec, point)
    nu_vals = geo.eval_fields("nu", [geo.nu_form()], fpoint)[:, 0]
    worst = 0.0
    for v in geo.eval_fields("partial_uw", _partial_uw_fields(geo), fpoint).T:
        worst = max(worst, abs(float(np.dot(nu_vals, v))))
    scale = max(1.0, float(np.max(np.abs(nu_vals))))
    return worst <= RANK_TOL * scale * 10, worst


# --- adapted graded frame ---------------------------------------------------------

@dataclass(frozen=True)
class AdaptedFrameReport:
    max_residual: float
    residuals: dict


def _u_frame(geo):
    """The adapted graded frame for a (pointwise) torsion-free spec."""
    fields = {"t(-1,0)": geo.x_hat()}
    f_low = geo.lower(geo.f_hat)
    for i in range(1, geo.m + 1):
        fields[f"a{i}"] = geo.a_field(i)
        fields[f"e{i}"] = geo.frame[f"E{i}"] - geo.frame["T(0,-2)"].scale(f_low[i - 1])
    fields["t(0,-2)"] = geo.frame["T(0,-2)"]
    fields["t(-1,-2)"] = geo.frame["T(-1,-2)"]
    fields["t(-2,-2)"] = geo.frame["T(-2,-2)"]
    return fields


def _adapted_frame_data(geo):
    """Per-spec cache: adapted frame, pairwise bracket fields, model constants,
    the frame and bracket fields as one list, and per filtration level the
    positions in that list of the frame fields spanning it."""
    if "adapted" in geo._cache:
        return geo._cache["adapted"]
    algebra = GradedLieAlgebra(geo.n, "P12", geo.omega)
    u_fields = _u_frame(geo)
    names = list(u_fields)
    bidegree = {nm: algebra.basis[algebra.index[nm]].bidegree for nm in names}
    z_of = {nm: algebra.z_degree(b) for nm, b in bidegree.items()}
    pairs = []
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            level = z_of[na] + z_of[nb]
            if level < -4:
                continue
            bracket_field = fm.lie_bracket(u_fields[na], u_fields[nb])
            constants = algebra.bracket_names(na, nb)
            pairs.append((na, nb, level, bracket_field, constants))
    fields = list(u_fields.values()) + [pair[3] for pair in pairs]
    col = {nm: j for j, nm in enumerate(names)}
    # a level's span lists its fields by Z-degree, then by bidegree; the
    # column order fixes the least-squares residuals to the last bit
    order = sorted(names, key=lambda nm: (z_of[nm], bidegree[nm]), reverse=True)
    levels = {k: [col[nm] for nm in order if z_of[nm] >= k] for k in (-1, -2, -3)}
    geo._cache["adapted"] = (u_fields, pairs, fields, levels)
    return geo._cache["adapted"]


def adapted_frame_check(spec, point):
    """Compare brackets of the adapted frame against the model constants.

    Every pairwise bracket of the graded frame must equal the structure
    constant combination modulo the next filtration level; the maximum
    least-squares residual over all pairs is reported.
    """
    geo, fpoint = _float_point(spec, point)
    tau_vals = [abs(float(t.evaluate(fpoint))) for t in contact_torsion(spec).tau_ring]
    if max(tau_vals, default=0.0) > RANK_TOL:
        raise TorsionPreconditionError(
            "adapted frame is defined only where the contact torsion vanishes"
        )
    u_fields, pairs, fields, levels = _adapted_frame_data(geo)
    vals = geo.eval_fields("adapted", fields, fpoint)
    col = {nm: j for j, nm in enumerate(u_fields)}
    # filtration spans at the point, by level
    spans = {level: vals[:, idx] for level, idx in levels.items()}
    residuals = {}
    worst = 0.0
    for j, (na, nb, level, _, constants) in enumerate(pairs, start=len(u_fields)):
        gvals = vals[:, j]
        for tgt, c in constants.items():
            gvals = gvals - float(c) * vals[:, col[tgt]]
        span = spans[max(level + 1, -3)]
        if np.linalg.norm(gvals) > 0:
            sol, *_ = np.linalg.lstsq(span, gvals, rcond=None)
            res = float(np.linalg.norm(span @ sol - gvals))
        else:
            res = 0.0
        residuals[(na, nb)] = res
        worst = max(worst, res)
    return AdaptedFrameReport(worst, residuals)


def torsion_obstruction_values(spec, point):
    """theta(-1,-2) pairing of [[A_i, X], X] at a point (no precondition).

    Nonzero values witness that no graded frame can match the model
    brackets at the point.
    """
    _, fpoint = _float_point(spec, point)
    return [float(t.evaluate(fpoint)) for t in contact_torsion(spec).bracket_tau]


# --- random spec population --------------------------------------------------------

def random_polynomial_spec(n, rng_or_seed, degree=3, torsion_free=False):
    """Random sparse polynomial spec (C = 1) for sweeps and acceptance runs."""
    rng = rng_or_seed if isinstance(rng_or_seed, Random) else Random(rng_or_seed)
    m = 2 * n - 4
    chart = fm.projective_chart(n)
    names = list(chart.names)

    def rand_poly_src():
        parts = []
        for _ in range(rng.randint(1, 3)):
            coef = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            if coef == 0:
                coef = Fraction(1)
            deg = rng.randint(0, degree)
            factors = [str(coef) if coef.denominator == 1 else f"({coef.numerator}/{coef.denominator})"]
            for _ in range(deg):
                factors.append(rng.choice(names))
            parts.append("*".join(factors))
        return " + ".join(parts) if parts else "0"

    data = {
        "n": n,
        "f0": rand_poly_src(),
        "f": [rand_poly_src() for _ in range(m)],
    }
    spec = spec_from_dict(data)
    if torsion_free:
        spec = torsion_free_representative(spec)
    return spec
