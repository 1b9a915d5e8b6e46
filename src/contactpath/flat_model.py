"""Symbolic realization of the flat model in exponential coordinates.

Vector fields and differential forms live in a single chart and have
polynomial components (degree <= 2 for everything the model needs), so all
identities here — frame/coframe duality, the bracket table, the structure
equation d Theta + Theta ^ Theta = 0, the isotropic-Grassmannian contact
forms — are checked by exact coefficient arithmetic.  No atlas, no manifold
machinery: everything happens in one chart.

`VectorField`, `OneForm` and `TwoForm` share one sparse component algebra
(`_Components`: sum, difference, negation, `scale`, `map`) and add only their
geometry.  Every non-constant entry of the frame, the coframe and the
Grassmannian forms is an omega-contraction such as omega_ip u^p, computed once
per function by `contract`.  Components may also be expression trees, which
answer the same ring interface (`is_zero`, `variables`, `diff`, `evaluate`);
the engine maps the polynomial frame to trees for non-polynomial specs.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import exactlinalg as ela
from .errors import UnsupportedDimensionError
from .expr import Num
from .graded_sp import standard_omega
from .poly import Polynomial

PZERO = Polynomial()
PONE = Polynomial.constant(1)


def contract(matrix, vec, zero=PZERO):
    """The omega-contraction [sum_q matrix[i][q] vec[q]] over the nonzero
    entries of each row, each product written vec[q] * w; `zero` where a row
    has none."""
    out = []
    for row in matrix:
        acc = None
        for w, v in zip(row, vec):
            if w:
                term = v * w
                acc = term if acc is None else acc + term
        out.append(zero if acc is None else acc)
    return out


# --- chart ----------------------------------------------------------------

@dataclass(frozen=True)
class CoordChart:
    names: tuple

    @property
    def dim(self):
        return len(self.names)

    def index(self, name):
        return self.names.index(name)

    def origin(self):
        return {nm: Fraction(0) for nm in self.names}

    def point(self, values):
        values = list(values)
        if len(values) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(values)}")
        return dict(zip(self.names, values))


def projective_chart(n):
    """Coordinates on the projectivized contact bundle: t(=x^inf), x^alpha, z, u^alpha."""
    m = 2 * n - 4
    names = ["t", "x0"] + [f"x{i}" for i in range(1, m + 1)]
    names += ["z"] + ["u0"] + [f"u{i}" for i in range(1, m + 1)]
    return CoordChart(tuple(names))


def grassmann_chart(n, k):
    """Coordinates x{alpha}_{i}, y{alpha}{beta} (alpha <= beta) on the k-plane space."""
    w = 2 * (n - k)
    names = [f"x{a}_{i}" for a in range(1, k + 1) for i in range(1, w + 1)]
    names += [f"y{a}{b}" for a in range(1, k + 1) for b in range(a, k + 1)]
    return CoordChart(tuple(names))


# --- fields and forms -------------------------------------------------------

class _Components:
    """Sparse components keyed by coordinate (or coordinate pair), zero
    entries dropped: the module structure shared by fields and forms."""

    __slots__ = ("components",)

    def __init__(self, components=None):
        self.components = {k: v for k, v in (components or {}).items() if not v.is_zero()}

    def map(self, fn):
        return type(self)({k: fn(v) for k, v in self.components.items()})

    def __add__(self, other):
        out = dict(self.components)
        for k, v in other.components.items():
            out[k] = v if k not in out else out[k] + v
        return type(self)(out)

    def __sub__(self, other):
        out = dict(self.components)
        for k, v in other.components.items():
            out[k] = -v if k not in out else out[k] - v
        return type(self)(out)

    def __neg__(self):
        return self.map(lambda v: -v)

    def scale(self, factor):
        return self.map(lambda v: factor * v)

    __mul__ = scale  # `contract` writes its products as component * w


def _evaluate(self, chart, point):
    """Component values at a point, in chart order: the `evaluate` of fields
    and one-forms, held by each class under its own name so that
    `perfbench/tracer.py` counts the two apart."""
    return [self.components.get(nm, PZERO).evaluate(point) for nm in chart.names]


class VectorField(_Components):
    """Derivation with one component per coordinate; components are ring elements."""

    __slots__ = ()

    def apply(self, func):
        """Directional derivative of a ring element: the sum of comp * d func /
        d coord, with func and the components in one ring.  A coordinate
        whose derivative is an exact zero adds nothing to the sum and is
        skipped; when every one is, the zero the full sum gives is returned."""
        total = skipped = None
        for coord, comp in self.components.items():
            d = func.diff(coord)
            if _vanishing_term(comp, d):
                skipped = skipped or (comp, d)
                continue
            term = comp * d
            total = term if total is None else total + term
        if total is None:
            return PZERO if skipped is None else skipped[0] * skipped[1]
        return total

    evaluate = _evaluate

    def __repr__(self):
        body = ", ".join(f"d/d{k}: {v}" for k, v in sorted(self.components.items()))
        return f"VectorField({body})"


def _vanishing_term(comp, d):
    """True when comp * d is an exact zero of their ring, which leaves every
    sum unchanged: d is zero and neither is a float constant, whose 0.0
    would turn a sum of rational constants into a float."""
    return d.is_zero() and not (_float_constant(d) or _float_constant(comp))


def _float_constant(x):
    return isinstance(x, Num) and isinstance(x.value, float)


def lie_bracket(x, y, coords=None):
    """Coordinate Lie bracket [X, Y]; exact on polynomial components.

    With `coords`, a set of coordinate names, only those components are
    built, each by the same arithmetic as the full bracket, so the result is
    the full bracket restricted to `coords`: what a pairing with a form that
    reads only those coordinates needs."""
    out = {}
    for coord, comp in y.components.items():
        if coords is None or coord in coords:
            out[coord] = x.apply(comp)
    for coord, comp in x.components.items():
        if coords is None or coord in coords:
            term = y.apply(comp)
            out[coord] = -term if coord not in out else out[coord] - term
    return VectorField(out)


class OneForm(_Components):
    __slots__ = ()

    def pair(self, field):
        total = None
        for coord, comp in self.components.items():
            fc = field.components.get(coord)
            if fc is not None:
                term = comp * fc
                total = term if total is None else total + term
        return PZERO if total is None else total

    def d(self):
        """Exterior derivative."""
        out = {}
        for coord, comp in self.components.items():
            for var in sorted(comp.variables()):
                if var == coord:
                    continue
                key, sign = ((var, coord), 1) if var < coord else ((coord, var), -1)
                term = comp.diff(var)
                if sign < 0:
                    term = -term
                out[key] = term if key not in out else out[key] + term
        return TwoForm(out)

    evaluate = _evaluate

    def __repr__(self):
        body = " + ".join(f"({v}) d{k}" for k, v in sorted(self.components.items()))
        return f"OneForm({body or 0})"


class TwoForm(_Components):
    """Keys are coordinate pairs (a, b) with a < b lexicographically."""

    __slots__ = ()

    def is_zero(self):
        return not self.components

    def pair(self, x, y):
        total = None
        for (a, b), comp in self.components.items():
            xa = x.components.get(a)
            xb = x.components.get(b)
            ya = y.components.get(a)
            yb = y.components.get(b)
            if xa is not None and yb is not None:
                term = comp * xa * yb
                total = term if total is None else total + term
            if xb is not None and ya is not None:
                term = comp * xb * ya
                total = -term if total is None else total - term
        return PZERO if total is None else total

    def interior(self, field):
        """Interior product i(X) of a vector field."""
        out = {}
        for (a, b), comp in self.components.items():
            xa = field.components.get(a)
            xb = field.components.get(b)
            if xa is not None:
                term = comp * xa
                out[b] = term if b not in out else out[b] + term
            if xb is not None:
                term = comp * xb
                out[a] = -term if a not in out else out[a] - term
        return OneForm(out)

    def gram(self, chart, fields, point):
        """Matrix of pairings of the form on a list of fields at a point."""
        vals = [f.evaluate(chart, point) for f in fields]
        idx = {nm: i for i, nm in enumerate(chart.names)}
        size = len(fields)
        out = [[0] * size for _ in range(size)]
        for (a, b), comp in self.components.items():
            cval = comp.evaluate(point)
            ia, ib = idx[a], idx[b]
            for r in range(size):
                for c in range(size):
                    out[r][c] += cval * (vals[r][ia] * vals[c][ib] - vals[r][ib] * vals[c][ia])
        return out

    def __repr__(self):
        body = " + ".join(f"({v}) d{a}^d{b}" for (a, b), v in sorted(self.components.items()))
        return f"TwoForm({body or 0})"


def wedge(a, b):
    """Wedge of two one-forms."""
    out = {}
    for ca, va in a.components.items():
        for cb, vb in b.components.items():
            if ca == cb:
                continue
            key, sign = ((ca, cb), 1) if ca < cb else ((cb, ca), -1)
            term = va * vb
            if sign < 0:
                term = -term
            out[key] = term if key not in out else out[key] + term
    return TwoForm(out)


def eval_wedge_of_two_forms(gram_matrices, size):
    """Evaluate Omega_1 ^ ... ^ Omega_m on vectors v_1..v_{2m}.

    Each gram matrix holds Omega_k(v_i, v_j); the result sums over ordered
    partitions of the vector indices into one pair per form, with sign.
    """
    m = len(gram_matrices)
    assert size == 2 * m
    total = 0

    def rec(remaining, k, sign_acc, prod):
        nonlocal total
        if k == m:
            total += sign_acc * prod
            return
        first = remaining[0]
        rest = remaining[1:]
        for pos, second in enumerate(rest):
            others = rest[:pos] + rest[pos + 1:]
            # sign of moving (first, second) to the front of `remaining`
            sign = (-1) ** pos
            val = gram_matrices[k][first][second]
            if val:
                rec(others, k + 1, sign_acc * sign, prod * val)

    rec(tuple(range(size)), 0, 1, 1)
    return total


# --- the projectivized-contact-bundle frame --------------------------------

def _omega(size, omega=None):
    return [list(map(Fraction, row)) for row in (standard_omega(size) if omega is None else omega)]


def frame(n, omega=None):
    """Left-invariant frame on the projectivized contact bundle.

    Keys: 'T(-1,0)', 'A1'.., 'E1'.., 'T(0,-2)', 'T(-1,-2)', 'T(-2,-2)'.
    """
    if n < 3:
        raise UnsupportedDimensionError("frame requires n >= 3")
    m = 2 * n - 4
    om = _omega(m, omega)
    u = [Polynomial.variable(f"u{i}") for i in range(1, m + 1)]
    u0 = Polynomial.variable("u0")
    x = [Polynomial.variable(f"x{i}") for i in range(1, m + 1)]
    x0 = Polynomial.variable("x0")
    t = Polynomial.variable("t")

    ou = contract(om, u)  # omega_ip u^p
    ox = contract(om, x)  # omega_iq x^q

    X = [VectorField({f"x{i}": PONE, "z": ox[i - 1]}) for i in range(1, m + 1)]
    X_0 = VectorField({"x0": PONE, "z": -t})
    fields = {}
    for i in range(1, m + 1):
        fields[f"A{i}"] = VectorField({f"u{i}": PONE, "u0": ou[i - 1]})
    tm10 = VectorField({"t": PONE, "z": x0}) + X_0.scale(u0)
    for p in range(1, m + 1):
        tm10 = tm10 + X[p - 1].scale(u[p - 1])
    fields["T(-1,0)"] = tm10
    for i in range(1, m + 1):
        fields[f"E{i}"] = X[i - 1] + X_0.scale(ou[i - 1])
    fields["T(0,-2)"] = VectorField({"u0": PONE})
    fields["T(-1,-2)"] = X_0
    fields["T(-2,-2)"] = VectorField({"z": PONE})
    return fields


def coframe(n, omega=None):
    """Dual left-invariant coframe; keys mirror frame() plus theta/eta indices.

    'theta(-1,0)', 'theta1'.., 'eta1'.., 'theta(0,-2)', 'theta(-1,-2)',
    'theta(-2,-2)'.
    """
    if n < 3:
        raise UnsupportedDimensionError("coframe requires n >= 3")
    m = 2 * n - 4
    om = _omega(m, omega)
    u = [Polynomial.variable(f"u{i}") for i in range(1, m + 1)]
    u0 = Polynomial.variable("u0")
    x = [Polynomial.variable(f"x{i}") for i in range(1, m + 1)]
    x0 = Polynomial.variable("x0")
    t = Polynomial.variable("t")

    om_t = ela.transpose(om)
    uo = contract(om_t, u)  # omega_pq u^p
    xo = contract(om_t, x)  # omega_pq x^p

    forms = {"theta(-1,0)": OneForm({"t": PONE})}
    for i in range(1, m + 1):
        forms[f"theta{i}"] = OneForm({f"u{i}": PONE})
        forms[f"eta{i}"] = OneForm({f"x{i}": PONE, "t": -u[i - 1]})
    dx_uo = {f"x{q}": v for q, v in enumerate(uo, 1)}
    dx_xo = {f"x{q}": v for q, v in enumerate(xo, 1)}
    forms["theta(-1,-2)"] = OneForm({"x0": PONE, "t": -u0, **dx_uo})
    forms["theta(-2,-2)"] = OneForm({"z": PONE, "x0": t, "t": -x0, **dx_xo})
    forms["theta(0,-2)"] = OneForm({"u0": PONE, **{f"u{q}": v for q, v in enumerate(uo, 1)}})
    return forms


def frame_coframe_pairs(n):
    """Matching (frame key, coframe key) order for duality checks."""
    m = 2 * n - 4
    pairs = [("T(-1,0)", "theta(-1,0)")]
    pairs += [(f"A{i}", f"theta{i}") for i in range(1, m + 1)]
    pairs += [(f"E{i}", f"eta{i}") for i in range(1, m + 1)]
    pairs += [
        ("T(0,-2)", "theta(0,-2)"),
        ("T(-1,-2)", "theta(-1,-2)"),
        ("T(-2,-2)", "theta(-2,-2)"),
    ]
    return pairs


def pdq_frame(n):
    """Alternative frame from the (p, q) contactomorphism chart.

    Same keys as frame(); satisfies the same bracket relations.  Chart
    coordinates: q, p, x1.., z, u0, u1...
    """
    if n < 3:
        raise UnsupportedDimensionError("pdq_frame requires n >= 3")
    m = 2 * n - 4
    om = _omega(m)
    u = [Polynomial.variable(f"u{i}") for i in range(1, m + 1)]
    u0 = Polynomial.variable("u0")
    x = [Polynomial.variable(f"x{i}") for i in range(1, m + 1)]
    p = Polynomial.variable("p")

    ou = contract(om, u)  # omega_iq u^q
    # The 1/2 in the horizontal lift matches T(-2,-2) = (1/2) d/dz in this
    # chart; it is forced by [E_i, E_j] = -2 omega_ij T(-2,-2).
    hx = contract([[w / 2 for w in row] for row in om], x)
    X = [VectorField({f"x{i}": PONE, "z": hx[i - 1]}) for i in range(1, m + 1)]

    fields = {}
    for i in range(1, m + 1):
        fields[f"A{i}"] = VectorField({f"u{i}": PONE, "u0": ou[i - 1]})
    fields["T(0,-2)"] = VectorField({"u0": PONE})
    for i in range(1, m + 1):
        fields[f"E{i}"] = X[i - 1] + VectorField({"p": ou[i - 1]})
    fields["T(-1,-2)"] = VectorField({"p": PONE})
    fields["T(-2,-2)"] = VectorField({"z": Polynomial.constant(Fraction(1, 2))})
    tm = VectorField({"q": PONE, "z": p, "p": u0})
    for q_ in range(1, m + 1):
        tm = tm + X[q_ - 1].scale(u[q_ - 1])
    fields["T(-1,0)"] = tm
    return fields


# --- structure equation -----------------------------------------------------

def theta_matrix(n):
    """The flat-model connection form: a (2n) x (2n) matrix of one-forms."""
    cf = coframe(n)
    m = 2 * n - 4
    om = _omega(m)
    d = 2 * n
    zero = OneForm()
    theta = [[zero for _ in range(d)] for _ in range(d)]
    theta[1][0] = cf["theta(-1,0)"]
    for i in range(1, m + 1):
        theta[1 + i][0] = cf[f"eta{i}"]
        theta[1 + i][1] = cf[f"theta{i}"]
    theta[d - 2][0] = cf["theta(-1,-2)"]
    theta[d - 2][1] = cf["theta(0,-2)"]
    theta[d - 1][0] = cf["theta(-2,-2)"]
    theta[d - 1][1] = cf["theta(-1,-2)"]
    om_t = ela.transpose(om)
    lowered_theta = contract(om_t, [cf[f"theta{q}"] for q in range(1, m + 1)], zero)
    lowered_eta = contract(om_t, [cf[f"eta{q}"] for q in range(1, m + 1)], zero)
    for j in range(1, m + 1):
        theta[d - 2][1 + j] = -lowered_theta[j - 1]
        theta[d - 1][1 + j] = -lowered_eta[j - 1]
    theta[d - 1][d - 2] = -cf["theta(-1,0)"]
    return theta


def structure_equation_residual(theta):
    """d Theta + Theta ^ Theta, entrywise, as two-forms."""
    d = len(theta)
    out = []
    for i in range(d):
        row = []
        for k in range(d):
            acc = theta[i][k].d()
            for j in range(d):
                if theta[i][j].components and theta[j][k].components:
                    acc = acc + wedge(theta[i][j], theta[j][k])
            row.append(acc)
        out.append(row)
    return out


def maurer_cartan_residual(n):
    """Residual of the structure equation for the flat-model form."""
    return structure_equation_residual(theta_matrix(n))


def residual_is_zero(res):
    return all(entry.is_zero() for row in res for entry in row)


# --- isotropic Grassmannian charts ------------------------------------------

@dataclass
class QkForms:
    n: int
    k: int
    chart: CoordChart
    theta: dict      # (alpha, beta) alpha <= beta -> OneForm
    omega_forms: dict  # (alpha, beta) -> TwoForm
    fields: dict     # (i, alpha) -> VectorField
    vertical: dict   # (alpha, beta) alpha <= beta -> VectorField


def qk_forms(n, k, omega=None):
    """Contact forms, spanning fields and vertical fields on the k-plane chart."""
    if not 1 <= k <= n - 1:
        raise UnsupportedDimensionError(f"k must satisfy 1 <= k <= n-1, got {k}")
    w = 2 * (n - k)
    om = _omega(w, omega)
    chart = grassmann_chart(n, k)

    def ykey(a, b):
        return f"y{min(a, b)}{max(a, b)}"

    om_half_t = [[v / 2 for v in col] for col in ela.transpose(om)]
    xa = {a: [Polynomial.variable(f"x{a}_{p}") for p in range(1, w + 1)] for a in range(1, k + 1)}
    ox = {a: contract(om, xa[a]) for a in xa}  # omega_ip x_a^p
    hxo = {a: contract(om_half_t, xa[a]) for a in xa}  # (1/2) omega_pq x_a^p

    theta = {}
    for a in range(1, k + 1):
        for b in range(a, k + 1):
            # dy_ab + (1/2) omega_pq (x_a^p dx_b^q + x_b^p dx_a^q)
            comps = {ykey(a, b): PONE}
            for c, d in ((b, a), (a, b)):
                for q in range(1, w + 1):
                    comps[f"x{c}_{q}"] = comps.get(f"x{c}_{q}", PZERO) + hxo[d][q - 1]
            theta[(a, b)] = OneForm(comps)

    omega_forms = {key: form.d() for key, form in theta.items()}

    fields = {}
    for a in range(1, k + 1):
        for i in range(1, w + 1):
            comps = {f"x{a}_{i}": PONE}
            for s in range(1, k + 1):
                # symmetric-coordinate convention: off-diagonal pairs carry 1/2
                factor = PONE if s == a else Polynomial.constant(Fraction(1, 2))
                comps[ykey(s, a)] = factor * ox[s][i - 1]
            fields[(i, a)] = VectorField(comps)

    vertical = {}
    for a in range(1, k + 1):
        for b in range(a, k + 1):
            val = PONE if a == b else Polynomial.constant(Fraction(1, 2))
            vertical[(a, b)] = VectorField({ykey(a, b): val})

    return QkForms(n, k, chart, theta, omega_forms, fields, vertical)


def _origin_grams(qk):
    """{(a, b): the Gram matrix of Omega_ab} on the spanning fields (i, a),
    ordered by a, then i, at the chart origin."""
    w = 2 * (qk.n - qk.k)
    fields = [qk.fields[(i, a)] for a in range(1, qk.k + 1) for i in range(1, w + 1)]
    point = qk.chart.origin()
    return {key: form.gram(qk.chart, fields, point) for key, form in qk.omega_forms.items()}


def qk_psi_power_nonzero(n, k):
    """Whether Psi^{n-k} restricted to the multicontact bundle is nonzero.

    Psi is the eta-determinant of the matrix of two-forms; the power is
    evaluated on the full spanning set of fields at the chart origin.
    """
    grams = _origin_grams(qk_forms(n, k))
    grams.update({(b, a): g for (a, b), g in grams.items()})
    size = 2 * k * (n - k)
    perms = list(itertools.permutations(range(1, k + 1)))

    def sgn(perm):
        s = 1
        p = list(perm)
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    s = -s
        return s

    # Psi as a sum of wedge products of k two-forms, then expand the power
    psi_terms = []
    for alphas in perms:
        for betas in perms:
            coeff = sgn(alphas) * sgn(betas)
            psi_terms.append((coeff, [grams[(alphas[r], betas[r])] for r in range(k)]))
    total = 0
    for combo in itertools.product(psi_terms, repeat=n - k):
        coeff = 1
        stack = []
        for c, factors in combo:
            coeff *= c
            stack.extend(factors)
        total += coeff * eval_wedge_of_two_forms(stack, size)
    return total != 0


# --- Q2 endomorphisms --------------------------------------------------------

def efj_identity_check(n):
    """Exact residuals for the endomorphism identities on the k = 2 chart.

    Returns a dict of named residual magnitudes (max abs over entries); all
    must be exactly zero.
    """
    if n < 3:
        raise UnsupportedDimensionError("k = 2 chart requires n >= 3")
    k = 2
    w = 2 * (n - k)
    om = standard_omega(w)
    qk = qk_forms(n, k)
    idx = [(i, a) for a in (1, 2) for i in range(1, w + 1)]
    pos = {ia: r for r, ia in enumerate(idx)}
    size = len(idx)

    eta_upper = {(1, 2): 1, (2, 1): -1, (1, 1): 0, (2, 2): 0}
    g = [[eta_upper[(a, b)] * om[i - 1][j - 1] for (j, b) in idx] for (i, a) in idx]

    def endo(matrix_action):
        out = ela.zeros(size, size)
        for (i, a), r in pos.items():
            for (target, coeff) in matrix_action(i, a):
                out[pos[target]][r] += coeff
        return out

    E = endo(lambda i, a: [((i, 3 - a), 1)])
    F = endo(lambda i, a: [((i, a), 1 if a == 1 else -1)])
    J = endo(lambda i, a: [((i, 3 - a), 1 if a == 1 else -1)])
    one = ela.identity(size)

    def residual(M):
        return max((abs(x) for row in M for x in row), default=Fraction(0))

    def g_of(A):
        # g(A . , . ): entry (r, c) = g(A v_r, v_c)
        return ela.matmul(ela.transpose(A), g)

    omega = _origin_grams(qk)
    gE, gF, gJ = g_of(E), g_of(F), g_of(J)
    return {
        "E^2 - I": residual(ela.matsub(ela.matmul(E, E), one)),
        "F^2 - I": residual(ela.matsub(ela.matmul(F, F), one)),
        "J^2 + I": residual(ela.matadd(ela.matmul(J, J), one)),
        "EF - J": residual(ela.matsub(ela.matmul(E, F), J)),
        "g(E.,E.) + g": residual(ela.matadd(ela.matmul(gE, E), g)),
        "g(F.,F.) + g": residual(ela.matadd(ela.matmul(gF, F), g)),
        "g(J.,J.) - g": residual(ela.matsub(ela.matmul(gJ, J), g)),
        "Omega12 - g(F.,.)": residual(ela.matsub(omega[(1, 2)], gF)),
        "Omega11 + g(E.,.) + g(J.,.)": residual(ela.matadd(ela.matadd(omega[(1, 1)], gE), gJ)),
        "Omega22 - g(E.,.) + g(J.,.)": residual(ela.matadd(ela.matsub(omega[(2, 2)], gE), gJ)),
    }


# --- dimension formulas -------------------------------------------------------

@dataclass(frozen=True)
class DimensionReport:
    n: int
    k: int
    dim_qk: int
    rank_c: int
    corank: int


def dims(n, k):
    """Closed-form dimensions of the isotropic Grassmannian and its contact bundle."""
    if not 1 <= k <= n:
        raise UnsupportedDimensionError(f"k must satisfy 1 <= k <= n, got {k}")
    corank = k * (k + 1) // 2
    rank_c = 2 * k * (n - k)
    return DimensionReport(n, k, corank + rank_c, rank_c, corank)


def orbit_dim(n, k, s):
    """Dimension of the rank stratum labeled by radical dimension s."""
    if s < 0 or s > k or (k - s) % 2 != 0:
        raise UnsupportedDimensionError(
            f"s must lie in {{k, k-2, ...}} and be >= 0; got s={s} for k={k}"
        )
    return s * (s + 1) // 2 + 2 * s * (n - s) + (k - s) * (2 * n - k - s)
