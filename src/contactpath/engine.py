"""Analysis engine for user-supplied contact path ODE systems.

An ODESpec fixes n, the skew matrix omega, and expressions C, f0, f^i; the
generating field is X = C T(-1,0) + f0 T(0,-2) + f^p A_p in the flat-model
frame.  Torsion computations normalize by C (the span of X is what matters,
and the torsion tensor of X rescales by C^2), so all closed forms below are
stated for the normalized field; for the default C = 1 they coincide with
the raw data.

Each Geometry settles its ring once, when it is built: polynomial
components when C is constant and C, f0 and every f are polynomial,
expression trees otherwise; everything it stores lives in that ring.  Trees
are built simplified, and fields and forms drop components that fold to
zero.  A spec's Geometry is built on first use and kept on the spec; every
object derived from it is a cached attribute, built on first use.  The frame
and coframe depend only on (n, omega): `flat_model` builds them once per pair
in each ring, shared read-only, and omega^{ij} is `graded_sp.omega_upper`.

Contact torsion is the closed form tau_i = 3 f_i + A_i(f0).  The bracket
route pairs [[A_i, X], X] with theta(-1,-2), which gives tau again, and with
theta(-2,-2), which gives zero.  Both identities are proved over generic
2-jets of (f0, f) at each (n, omega) of `TORSION_IDENTITY_PROVED`, the
standard omega at n = 3 to 7; the bracket route is lazy, and it runs as
an exact cross-check of a polynomial spec only outside that set.

The float-point checks (`filtration_ranks`, `semiregular_ranks`,
`vertical_escape`, `skew_complement_W`, `partial_uw_vectors`,
`secondary_torsion`, `characteristic_system_test`, `adapted_frame_check`,
`torsion_obstruction_values`) and `torsion_point_reduction` share one
contract.  Each refuses, with `DegeneratePointError`, a point where C is
undefined (a pole, or a value that overflows) or |C| < RANK_TOL, and the
point sampler skips such points: one C rule, `_c_refused`.  Ranks go through
`_nrank`; ranks and vanishing tests read one absolute tolerance, RANK_TOL =
1e-9, scaled by the data where they say so; only `secondary_torsion`'s guard
against leaking out of E-perp uses its own relative 1e-6.  No call takes a
tolerance.  `torsion_point_reduction` is exact at rational points of a
polynomial spec.  At float points a polynomial geometry evaluates each field
list through one monomial table (`Geometry.eval_fields`); others walk trees.
"""

import json
import math
from dataclasses import astuple, dataclass, replace
from fractions import Fraction
from functools import cached_property
from random import Random

import numpy as np

from . import expr as ex
from . import flat_model as fm
from . import graded_sp
from .errors import (
    DegeneratePointError,
    ExprError,
    ExprEvalError,
    SpecFormatError,
    TorsionPreconditionError,
)
from .exactlinalg import rank as exact_rank
from .exactlinalg import solve as exact_solve
from .lowering import MonomialTable
from .poly import Polynomial

RANK_TOL = 1e-9
DEFAULT_SEED = 42  # the seed of every sampler and of `Geometry.torsion`


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
        if not math.isfinite(x):
            raise SpecFormatError(f"omega entries must be finite, got {x!r}")
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
        n = data["n"]
        if isinstance(n, float) and not n.is_integer():
            raise ValueError
        n = int(n)
    except (KeyError, TypeError, ValueError, OverflowError):
        raise SpecFormatError("spec requires an integer field 'n'") from None
    if n < 3:
        raise SpecFormatError(f"n must be >= 3, got {n}")
    m = 2 * n - 4
    omega = None
    if "omega" in data:
        om_rows = data["omega"]
        if not isinstance(om_rows, list) or len(om_rows) != m or any(
            not isinstance(r, list) or len(r) != m for r in om_rows
        ):
            raise SpecFormatError(f"omega must be {m}x{m}")
        omega = [[_parse_rational(x) for x in row] for row in om_rows]
    omega = graded_sp.middle_form(m, omega)
    try:
        graded_sp.omega_upper(omega)
    except ValueError as e:
        raise SpecFormatError(str(e)) from None
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
    return ODESpec(n, omega, c_expr, f0_expr, f_exprs)


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
    """Frame fields, normalized data and every derived object of one spec.

    The constructor settles the ring and keeps the raw and normalized data,
    the frame, the coframe and the lists `a_fields` (A_1..A_m) and
    `e_fields` (E_1..E_m).  Every derived object is a cached attribute,
    built on first use: the generating fields `x_hat` and `x_raw`; the
    bracket lists `ai_xhat` ([A_i, X]), `double_brackets` ([[A_i, X], X]),
    `torsion_brackets` (the part of it the coframe reads) and
    `secondary_brackets` ([X, [X, A_i]]); the contact torsion report
    `torsion` at the default seed and its lazy bracket route `bracket_tau`;
    the form `nu`; the constant `dtheta_entries` behind `dbeta_matrix`; and
    the field list each pointwise check evaluates (`filtration`,
    `semiregular_levels`, `escape_fields`, `e_perp`, `partial_uw`,
    `secondary_fields`, `characteristic_fields`, `reduction_fields`,
    `adapted_frame`).
    """

    def __init__(self, spec):
        self.spec = spec
        self.n = spec.n
        self.m = spec.m
        self.chart = spec.chart()
        self.omega = spec.omega
        # The ring is settled here, once: Polynomial when C is a constant and
        # C, f0 and every f are polynomial, expression trees otherwise.
        exprs = (spec.C, spec.f0, *spec.f)
        polys = [e.as_polynomial() for e in exprs]
        c = polys[0]
        c_const = c is not None and c.is_constant()
        self.polynomial = c_const and None not in polys
        # C = 0 never loads (spec_from_dict); C = 1 is the case inv = 1
        inv = 1 / c.constant_value() if c_const else None
        frames = fm._frame_and_coframe if self.polynomial else fm._tree_frame_and_coframe
        self.frame, self.coframe = frames(self.n, self.omega)
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
        self.f0_hat, *self.f_hat = hat
        self.a_fields = [self.frame[f"A{i}"] for i in range(1, self.m + 1)]
        self.e_fields = [self.frame[f"E{i}"] for i in range(1, self.m + 1)]
        # (field list, its monomial table) by the list's id; see eval_fields
        self._tables = {}

    def _generating(self, c, f0, f):
        """c T(-1,0) + f0 T(0,-2) + f^p A_p."""
        t = self.frame["T(-1,0)"]  # a scale by 1 would only redo its arithmetic
        x = (t if c == 1 else t.scale(c)) + self.frame["T(0,-2)"].scale(f0)
        for a, fp in zip(self.a_fields, f):
            x = x + a.scale(fp)
        return x

    @cached_property
    def x_hat(self):
        """The normalized generating field, whose C is 1."""
        return self._generating(1, self.f0_hat, self.f_hat)

    @cached_property
    def x_raw(self):
        c, f0, *f = self.raw
        return self._generating(c, f0, f)

    @cached_property
    def ai_xhat(self):
        """[A_i, X] for the normalized field, i = 1..m."""
        return [fm.lie_bracket(a, self.x_hat) for a in self.a_fields]

    @cached_property
    def double_brackets(self):
        """[[A_i, X], X] for the normalized field, every component."""
        return [fm.lie_bracket(b, self.x_hat) for b in self.ai_xhat]

    @cached_property
    def bracket_tau(self):
        """The theta(-1,-2) pairings of `torsion_brackets`."""
        return tuple(bracket_torsion(self)[0])

    @cached_property
    def torsion_brackets(self):
        """[[A_i, X], X] restricted to the coordinates where theta(-1,-2)
        and theta(-2,-2) have components (t, x0, the x_q and z): their
        pairings with it equal their pairings with `double_brackets`, and
        the u components, most of its polynomial work, are never built."""
        coords = (self.coframe["theta(-1,-2)"].components.keys()
                  | self.coframe["theta(-2,-2)"].components.keys())
        return [fm.lie_bracket(b, self.x_hat, coords) for b in self.ai_xhat]

    @cached_property
    def secondary_brackets(self):
        """[X, [X, A_i]] for the normalized field."""
        return [fm.lie_bracket(self.x_hat, fm.lie_bracket(self.x_hat, a)) for a in self.a_fields]

    @cached_property
    def torsion(self):
        """The contact torsion report at `DEFAULT_SEED`."""
        return _torsion_report(self, DEFAULT_SEED)

    def filtration_fields(self):
        """Symbolic spanning fields for every filtration subbundle, built
        on each call; the cached `filtration` keeps them."""
        e_gens = self.a_fields + [self.frame["T(0,-2)"], self.x_hat]
        partial_e, partial2_e = _bracket_levels(e_gens, 2)
        return {
            "u": self.a_fields,
            "v": self.a_fields + [self.frame["T(0,-2)"]],
            "e": e_gens,
            "partial_uw": self.partial_uw,
            "e_perp": self.e_perp,
            "h": (self.a_fields + [self.frame[k] for k in ("T(0,-2)", "T(-1,0)", "T(-1,-2)")]
                  + self.e_fields),
            "partial_e": partial_e,
            "partial2_e": partial2_e,
        }

    @cached_property
    def filtration(self):
        """(the filtration_fields dict, all its fields as one list)."""
        spans = self.filtration_fields()
        return spans, [f for flist in spans.values() for f in flist]

    @cached_property
    def semiregular_levels(self):
        """The iterated bracket spans of U + W, each extending the last."""
        return _bracket_levels(self.a_fields + [self.x_hat], 3)

    @cached_property
    def partial_uw(self):
        """A_i, X and [A_i, X]: the bracket closure of U and the generating line."""
        return self.a_fields + [self.x_hat] + self.ai_xhat

    @cached_property
    def escape_fields(self):
        return self.partial_uw + [self.frame["T(0,-2)"]]

    @cached_property
    def e_perp(self):
        return self.a_fields + [self.frame["T(0,-2)"], self.frame["T(-1,0)"]] + self.e_fields

    @cached_property
    def secondary_fields(self):
        """`partial_uw`, T(0,-2), T(-1,-2), T(-2,-2), then `secondary_brackets`."""
        tangent = [self.frame[k] for k in ("T(0,-2)", "T(-1,-2)", "T(-2,-2)")]
        return self.partial_uw + tangent + self.secondary_brackets

    @cached_property
    def nu(self):
        """i(X) d(i(X) d theta(-1,-2)), the characteristic-system functional."""
        mu = self.coframe["theta(-1,-2)"].d().interior(self.x_hat)
        return mu.d().interior(self.x_hat)

    @cached_property
    def characteristic_fields(self):
        return [self.nu] + self.partial_uw

    @cached_property
    def reduction_fields(self):
        """A_j, T(0,-2), X, E_j (the reduction span), T(-1,-2), T(-2,-2), then
        `double_brackets`."""
        return (self.a_fields + [self.frame["T(0,-2)"], self.x_hat] + self.e_fields
                + [self.frame["T(-1,-2)"], self.frame["T(-2,-2)"]] + self.double_brackets)

    @cached_property
    def adapted_frame(self):
        """Adapted graded frame, pairwise bracket fields with their model
        constants, the frame and bracket fields as one list, and per
        filtration level the positions in that list of the frame fields
        spanning it."""
        algebra = graded_sp.build(self.n, "P12", self.omega)
        # the adapted graded frame of a (pointwise) torsion-free spec
        u_fields = {"t(-1,0)": self.x_hat}
        f_low = self.lower(self.f_hat)
        for i, (a, e) in enumerate(zip(self.a_fields, self.e_fields), start=1):
            u_fields[f"a{i}"] = a
            u_fields[f"e{i}"] = e - self.frame["T(0,-2)"].scale(f_low[i - 1])
        for name in ("t(0,-2)", "t(-1,-2)", "t(-2,-2)"):
            u_fields[name] = self.frame[name.upper()]
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
        return u_fields, pairs, fields, levels

    @cached_property
    def dtheta_entries(self):
        """(row, col, value) of the constant components of d theta(-2,-2)
        and of d theta(-1,-2), in chart indices."""
        idx = {nm: i for i, nm in enumerate(self.chart.names)}
        # d of a coframe form has constant components in either ring
        return [[(idx[a], idx[b], float(comp.evaluate({})))
                 for (a, b), comp in self.coframe[key].d().components.items()]
                for key in ("theta(-2,-2)", "theta(-1,-2)")]

    def dbeta_matrix(self, r, s):
        """Coordinate matrix of d(r theta(-2,-2) + s theta(-1,-2)); constant."""
        out = np.zeros((self.chart.dim, self.chart.dim))
        for entries, coef in zip(self.dtheta_entries, (float(r), float(s))):
            for a, b, val in entries:
                out[a, b] += coef * val
                out[b, a] -= coef * val
        return out

    def lower(self, vec):
        """f_i = f^p omega_{pi}."""
        return fm.contract(list(zip(*self.omega)), vec, self.zero)

    def raise_index(self, vec):
        """tau^i = omega^{ip} tau_p with omega^{ip} omega_{pj} = -delta^i_j."""
        return fm.contract(graded_sp.omega_upper(self.omega), vec, self.zero)

    def eval_field(self, field, point):
        vals = field.evaluate(self.chart, point)
        return np.array([float(v) for v in vals])

    def eval_fields(self, fields, point):
        """The (dim, k) matrix of the fields' (or one-forms') values at a
        float point.  A polynomial geometry lowers the list `fields` to a
        monomial table on its first call and finds that table again by the
        list's id, so the geometry's own cached lists each get one table for
        every point; the table is kept with its list, so that id stays
        taken.  Other geometries walk the trees with `eval_field`.  A value
        that overflows to inf or nan raises `ExprEvalError`, as a pole does."""
        if self.polynomial:
            if id(fields) not in self._tables:
                self._tables[id(fields)] = (fields, MonomialTable(self.chart.names, fields))
            with np.errstate(over="ignore", invalid="ignore"):
                vals = self._tables[id(fields)][1](point)
        else:
            try:
                vals = np.column_stack([self.eval_field(f, point) for f in fields])
            except OverflowError:
                vals = None
        return _finite(vals)


def _finite(vals):
    """`vals` when every value is finite; `ExprEvalError` when one overflowed
    to inf or nan, or the evaluation raised and left None."""
    if vals is None or not np.isfinite(vals).all():
        raise ExprEvalError("a field value overflows at the requested point")
    return vals


def _float_values(elements, fpoint):
    """The float values of ring elements at a float point; an overflow
    raises `ExprEvalError`, as in `Geometry.eval_fields`."""
    try:
        vals = [float(e.evaluate(fpoint)) for e in elements]
    except OverflowError:
        vals = None
    return _finite(vals)


def geometry(spec):
    """The Geometry of a spec, built on first use and kept on the spec."""
    return spec._geometry


def generating_field(spec):
    """X = C T(-1,0) + f0 T(0,-2) + f^p A_p in the flat-model frame."""
    return geometry(spec).x_raw


# --- contact torsion ----------------------------------------------------------

@dataclass(frozen=True)
class TorsionReport:
    tau: tuple            # Exprs, one per lowered index
    is_zero: str          # proved-zero | proved-nonzero | undetermined
    witness: object       # point dict where some tau_i != 0, when nonzero
    tau_ring: tuple       # internal ring elements (Polynomial or Expr)

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


def iter_seeded_points(spec, count, seed=DEFAULT_SEED, avoid_c_zero=True):
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


def seeded_points(spec, count, seed=DEFAULT_SEED):
    """Deterministic rational sample points in the chart of a spec: the
    first `count` points of `iter_seeded_points`, as a list."""
    return list(iter_seeded_points(spec, count, seed))


def contact_torsion(spec, seed=DEFAULT_SEED):
    """Contact torsion through the closed form (`closed_form_torsion`).

    The bracket route (`bracket_torsion`) is proved over generic 2-jets at
    each (n, omega) of `TORSION_IDENTITY_PROVED` and is not run there;
    elsewhere it cross-checks a polynomial spec exactly.  The report at the
    default seed is built once per geometry (`Geometry.torsion`)."""
    geo = geometry(spec)
    return geo.torsion if seed == DEFAULT_SEED else _torsion_report(geo, seed)


# (n, omega) where the bracket route's identities are proved over 2-jets
TORSION_IDENTITY_PROVED = frozenset(
    (n, graded_sp.middle_form(2 * n - 4)) for n in (3, 4, 5, 6, 7))


def closed_form_torsion(geo):
    """tau_i = 3 f_i + A_i(f0) for the C-normalized data, in the geometry's ring."""
    f_low = geo.lower(geo.f_hat)
    return [3 * fl + a.apply(geo.f0_hat) for fl, a in zip(f_low, geo.a_fields)]


def bracket_torsion(geo):
    """The theta(-1,-2) pairings of `Geometry.torsion_brackets`, equal to
    `closed_form_torsion`, and its theta(-2,-2) pairings, all zero."""
    return tuple([geo.coframe[key].pair(b) for b in geo.torsion_brackets]
                 for key in ("theta(-1,-2)", "theta(-2,-2)"))


def _torsion_report(geo, seed):
    tau = closed_form_torsion(geo)
    if geo.polynomial and (geo.n, geo.omega) not in TORSION_IDENTITY_PROVED:
        bracket_tau, escape = bracket_torsion(geo)
        if any(not e.is_zero() for e in escape):
            raise DegeneratePointError("double bracket escaped the contact hyperplane")
        if any(not (a - b).is_zero() for a, b in zip(tau, bracket_tau)):
            raise TorsionPreconditionError(
                "closed-form and bracket torsion disagree; check omega conventions")
    is_zero, witness = _decide_zero(geo.spec, tau, geo, seed)
    return TorsionReport(tuple(geo.as_expr(t) for t in tau), is_zero, witness, tuple(tau))


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
    fields = geo.reduction_fields
    span = 2 * geo.m + 2
    if exact:
        cols = [f.evaluate(geo.chart, point) for f in fields[:-geo.m]]
        mat = [list(col) for col in zip(*cols)]
        if exact_rank([row[:span] for row in mat]) != 4 * geo.n - 6:
            raise DegeneratePointError("reduction span lost rank (C vanishes here?)")
        out = []
        for b in geo.double_brackets:
            coeffs = exact_solve(mat, list(b.evaluate(geo.chart, point)))
            if coeffs is None:
                raise DegeneratePointError("double bracket not in the tangent span")
            out.append(coeffs[span])
        return out
    # `point`, not its float copy: a tree walk keeps rational arithmetic
    # where it can, which fixes the last bits of the result
    vals = geo.eval_fields(fields, point)
    mat = vals[:, :-geo.m]
    if _nrank(mat[:, :span]) != 4 * geo.n - 6:
        raise DegeneratePointError("reduction span lost rank (C vanishes here?)")
    out = []
    for i in range(geo.m):
        coeffs, *_ = np.linalg.lstsq(mat, vals[:, span + 2 + i], rcond=None)
        out.append(float(coeffs[span]))
    return out


def torsion_free_representative(spec, seed=DEFAULT_SEED):
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
        return astuple(self)

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
    fields, flat = geo.filtration
    vals = geo.eval_fields(flat, fpoint)
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
    spans = geo.semiregular_levels
    vals = geo.eval_fields(spans[-1], fpoint)
    return tuple(_nrank(vals[:, :len(span)]) for span in spans)


def vertical_escape(spec, point):
    """True when T(0,-2) is not contained in the span of A_i, X, [A_i, X]."""
    geo, fpoint = _float_point(spec, point)
    vals = geo.eval_fields(geo.escape_fields, fpoint)
    return _nrank(vals) == _nrank(vals[:, :-1]) + 1


# --- symplectic structure on E-perp ------------------------------------------------

@dataclass(frozen=True)
class SkewComplementReport:
    nondegenerate: bool
    basis: tuple              # chart vectors spanning the skew complement of W
    lagrangian_v: bool
    u_complement_is_e: bool


def skew_complement_W(spec, point, r, s):
    """Skew complement of the generating line in E-perp for d(beta), beta the
    filtered frame r theta(-2,-2) + s theta(-1,-2)."""
    if s == 0:
        raise SpecFormatError("filtered frame requires s != 0")
    geo, fpoint = _float_point(spec, point)
    dbeta_mat = geo.dbeta_matrix(r, s)
    field_mat = geo.eval_fields(geo.e_perp, fpoint)
    gram = field_mat.T @ dbeta_mat @ field_mat
    size = len(geo.e_perp)
    nondeg = _nrank(gram) == size
    # X coordinates in the E-perp basis are read off the normalized data
    xi = np.zeros(size)
    xi[: geo.m + 1] = _float_values([*geo.f_hat, geo.f0_hat], fpoint)
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


def partial_uw_vectors(spec, point):
    """Chart vectors spanning the bracket closure of U and the generating line."""
    geo, fpoint = _float_point(spec, point)
    return list(geo.eval_fields(geo.partial_uw, fpoint).T)


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
    vals = geo.eval_fields(geo.secondary_fields, fpoint)
    mat = vals[:, :-geo.m]
    if _nrank(mat) != 4 * geo.n - 4:
        raise DegeneratePointError("tangent basis lost rank at the point")
    out = []
    scale = max(1.0, float(np.max(np.abs(mat))))
    for i in range(geo.m):
        b = vals[:, -geo.m + i]
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
    vals = geo.eval_fields(geo.characteristic_fields, fpoint)
    nu_vals = vals[:, 0]
    worst = 0.0
    for v in vals[:, 1:].T:
        worst = max(worst, abs(float(np.dot(nu_vals, v))))
    scale = max(1.0, float(np.max(np.abs(nu_vals))))
    return worst <= RANK_TOL * scale * 10, worst


# --- adapted graded frame ---------------------------------------------------------

@dataclass(frozen=True)
class AdaptedFrameReport:
    max_residual: float
    residuals: dict


def adapted_frame_check(spec, point):
    """Compare brackets of the adapted frame against the model constants.

    Every pairwise bracket of the graded frame must equal the structure
    constant combination modulo the next filtration level; the maximum
    least-squares residual over all pairs is reported.
    """
    geo, fpoint = _float_point(spec, point)
    tau_vals = [abs(v) for v in _float_values(contact_torsion(spec).tau_ring, fpoint)]
    if max(tau_vals, default=0.0) > RANK_TOL:
        raise TorsionPreconditionError(
            "adapted frame is defined only where the contact torsion vanishes"
        )
    u_fields, pairs, fields, levels = geo.adapted_frame
    vals = geo.eval_fields(fields, fpoint)
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
    geo, fpoint = _float_point(spec, point)
    return _float_values(geo.bracket_tau, fpoint)


# --- random spec population --------------------------------------------------------

def random_polynomial_spec(n, seed, degree=3, torsion_free=False):
    """Random sparse polynomial spec (C = 1) for sweeps and acceptance runs."""
    rng = Random(seed)
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
