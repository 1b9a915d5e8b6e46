"""Symbolic realization of the flat model, the homogeneous space of Sp(Omega).

Vector fields and differential forms live in a single chart and have
polynomial components (degree <= 2 for everything the model needs), so all
identities here — frame/coframe duality, the bracket table, the structure
equation d Theta + Theta ^ Theta = 0, the isotropic-Grassmannian contact
forms — are checked by exact coefficient arithmetic.  The chart is one
unitriangular g in Sp(Omega) (`model_element`), and the frame, the coframe
and Theta = g^-1 dg are read off g and the g_- basis of
`graded_sp.negative_part`, so omega enters only through `graded_sp`.  The
frame and the coframe are built once per (n, omega) and are read-only.

`VectorField`, `OneForm` and `TwoForm` share one sparse component algebra
(`_Components`: sum, difference, negation, `scale`, `map`) and add only their
geometry.  Every non-constant entry of the frame, the coframe and the
Grassmannian forms is an omega-contraction such as omega_ip u^p, computed once
per function by `contract`.  Components may also be expression trees, which
answer the same ring interface (`is_zero`, `variables`, `diff`, `evaluate`);
the frame and coframe are mapped to trees once per (n, omega), for the
engine's non-polynomial geometries.
"""

import functools
import itertools
import math
import types
from dataclasses import dataclass
from fractions import Fraction

from . import exactlinalg as ela
from . import squat
from .errors import UnsupportedDimensionError
from .expr import Num, poly_to_expr
from .graded_sp import middle_form, negative_names, negative_part, standard_omega
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
        skipped; when every one is, the zero the full sum gives is returned.
        A polynomial is differentiated only by the coordinates it contains,
        since by any other its derivative is that exact zero.  An expression
        tree is differentiated by every coordinate: there such a derivative
        can fold to the float 0.0, which enters the sum."""
        present = func.variables() if isinstance(func, Polynomial) else self.components
        total = skipped = None
        for coord, comp in self.components.items():
            if coord not in present:
                continue
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
                if var != coord:
                    _add_oriented(out, var, coord, comp.diff(var))
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
        """Matrix of pairings of the form on a list of fields at a point.

        A component (a, b) adds c X_r^a X_s^b at (r, s) and subtracts it at
        (s, r), so only the fields nonzero at a and at b are visited, and a
        component with none on either side is not evaluated."""
        vals = [f.evaluate(chart, point) for f in fields]
        idx = {nm: i for i, nm in enumerate(chart.names)}
        size = len(fields)
        out = [[0] * size for _ in range(size)]
        for (a, b), comp in self.components.items():
            ia, ib = idx[a], idx[b]
            at_a = [(r, v[ia]) for r, v in enumerate(vals) if v[ia]]
            at_b = [(c, v[ib]) for c, v in enumerate(vals) if v[ib]]
            if not (at_a and at_b):
                continue
            cval = comp.evaluate(point)
            for r, va in at_a:
                for c, vb in at_b:
                    term = cval * va * vb
                    out[r][c] += term
                    out[c][r] -= term
        return out

    def __repr__(self):
        body = " + ".join(f"({v}) d{a}^d{b}" for (a, b), v in sorted(self.components.items()))
        return f"TwoForm({body or 0})"


def wedge(a, b):
    """Wedge of two one-forms."""
    out = {}
    for ca, va in a.components.items():
        for cb, vb in b.components.items():
            if ca != cb:
                _add_oriented(out, ca, cb, va * vb)
    return TwoForm(out)


def _add_oriented(out, a, b, term):
    """Add term da ^ db to the TwoForm components `out`, keyed (a, b) with a < b."""
    key, term = ((a, b), term) if a < b else ((b, a), -term)
    out[key] = term if key not in out else out[key] + term


def eval_wedge_of_two_forms(forms, counts):
    """Evaluate forms[0]^counts[0] ^ forms[1]^counts[1] ^ ... on vectors
    v_1..v_size, size twice the number of factors; each form is given by its
    Gram matrix Omega(v_i, v_j).

    The wedge of m two-forms on 2m vectors is the sum, over the perfect
    matchings of the vectors and the ways to give each of the m factors its
    own pair (i < j), of the matching's sign times the product of the
    factors' values on their pairs.  The pairs are taken from the lowest
    unused vector, partnered through the nonzero Gram entries, and a form is
    chosen for each pair; a form left c times can fill it in c ways.  The
    sum is memoized on the used vectors and the factors left.
    """
    size = 2 * sum(counts)
    partners = [
        [(j, t, g[i][j]) for j in range(i + 1, size) for t, g in enumerate(forms) if g[i][j]]
        for i in range(size)
    ]

    @functools.cache
    def rec(used, left):
        if used == (1 << size) - 1:
            return 1
        i = (~used & (used + 1)).bit_length() - 1  # lowest unused vector
        total = 0
        for j, t, val in partners[i]:
            if left[t] and not used >> j & 1:
                # the matching's sign: (-1)^(unused vectors between i and j)
                between = bin(~used & ((1 << j) - (2 << i))).count("1")
                rest = rec(used | 1 << i | 1 << j, left[:t] + (left[t] - 1,) + left[t + 1:])
                total += (-1) ** between * left[t] * val * rest
        return total

    return rec(0, tuple(counts))


# --- the flat model: the chart as an element g of Sp(Omega) -------------------

def frame_keys(name):
    """(frame key, coframe key) of the g_- basis element `name`: t(i,j) ->
    T(i,j), theta(i,j); a_i -> A_i, theta_i; e_i -> E_i, eta_i."""
    if name.startswith("t("):
        return "T" + name[1:], "theta" + name[1:]
    return name[0].upper() + name[1:], ("theta" if name[0] == "a" else "eta") + name[1:]


def model_element(n, omega=None):
    """The chart as a lower unitriangular g in Sp(Omega), a (2n) x (2n)
    polynomial matrix whose first two columns span the isotropic 2-plane of
    a point: (1, t, x_1.., x0, z) and (0, 1, u_1.., u0, x0 - t u0 + u^j (omega x)_j)."""
    if n < 3:
        raise UnsupportedDimensionError("the flat model requires n >= 3")
    m, d = 2 * n - 4, 2 * n
    t, x0, z, u0 = map(Polynomial.variable, ("t", "x0", "z", "u0"))
    x, u = ([Polynomial.variable(f"{s}{i}") for i in range(1, m + 1)] for s in "xu")
    om = middle_form(m, omega)
    ox, ou = contract(om, x), contract(om, u)  # omega_iq x^q, omega_iq u^q
    g = [[PONE if r == c else PZERO for c in range(d)] for r in range(d)]
    for r, entry in enumerate([t, *x, x0, z], 1):
        g[r][0] = entry
    for r, entry in enumerate([*u, u0], 2):
        g[r][1] = entry
    g[d - 1][1] = x0 - t * u0 + sum((uj * oxj for uj, oxj in zip(u, ox)), PZERO)
    for j in range(m):
        g[d - 2][2 + j], g[d - 1][2 + j] = ou[j], ox[j] - t * ou[j]
    g[d - 1][d - 2] = -t
    return g


@functools.lru_cache(maxsize=16)
def _frame_and_coframe(n, omega):
    """Read-only frame and coframe for omega a tuple of Fraction rows.

    The coordinate dual to B in g_- is the entry of g at B's lead (see
    `graded_sp.negative_part`).  B's frame field is gB read at the leads;
    its coframe form theta_B is the lead entry (r, c) of Theta = g^-1 dg,
    sum_k (g^-1)[r][k] d g[k][c], with row r of g^-1 by forward substitution."""
    g = model_element(n, omega)
    part = negative_part(n, omega)
    coords = {(r, c): min(g[r][c].variables()) for r, c in (min(e) for _, e, _ in part)}
    fields, forms = {}, {}
    for name, entries, _ in part:
        fkey, ckey = frame_keys(name)
        fields[fkey] = VectorField({
            coord: sum((g[r][k] * v for (k, col), v in entries.items()
                        if col == c and not g[r][k].is_zero()), PZERO)
            for (r, c), coord in coords.items()})
        r, c = min(entries)
        inv_row = [PZERO] * r + [PONE]
        for k in range(r - 1, c, -1):
            inv_row[k] = -sum((inv_row[j] * g[j][k] for j in range(k + 1, r + 1)
                               if not g[j][k].is_zero()), PZERO)
        comps = {}
        for k in range(c + 1, r + 1):
            for var in sorted(g[k][c].variables()):
                term = inv_row[k] * g[k][c].diff(var)
                comps[var] = comps[var] + term if var in comps else term
        forms[ckey] = OneForm(comps)
    return types.MappingProxyType(fields), types.MappingProxyType(forms)


@functools.lru_cache(maxsize=16)
def _tree_frame_and_coframe(n, omega):
    """`_frame_and_coframe` with expression-tree components, for geometries
    in that ring: mapped once per (n, omega) and read-only."""
    return tuple(types.MappingProxyType({k: v.map(poly_to_expr) for k, v in part.items()})
                 for part in _frame_and_coframe(n, omega))


def _key(n, omega):
    """(n, omega as a tuple of Fraction rows), None read as the standard omega."""
    return n, middle_form(2 * n - 4, omega)


def frame(n, omega=None):
    """Left-invariant frame, read-only and built once per (n, omega).  Keys:
    'T(-1,0)', 'A1'.., 'E1'.., 'T(0,-2)', 'T(-1,-2)', 'T(-2,-2)'."""
    return _frame_and_coframe(*_key(n, omega))[0]


def coframe(n, omega=None):
    """Dual left-invariant coframe, read-only and built once per (n, omega).
    Keys: 'theta(-1,0)', 'theta1'.., 'eta1'.., 'theta(0,-2)', 'theta(-1,-2)',
    'theta(-2,-2)'."""
    return _frame_and_coframe(*_key(n, omega))[1]


def frame_coframe_pairs(n):
    """Matching (frame key, coframe key) order for duality checks."""
    return [frame_keys(name) for name in negative_names(n)]


def pdq_frame(n):
    """Alternative frame from the (p, q) contactomorphism chart.

    Same keys as frame(); satisfies the same bracket relations.  Chart
    coordinates: q, p, x1.., z, u0, u1...
    """
    if n < 3:
        raise UnsupportedDimensionError("pdq_frame requires n >= 3")
    m = 2 * n - 4
    om = standard_omega(m)
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

def theta_matrix(n, omega=None):
    """The flat-model connection form Theta = g^-1 dg = sum_B theta_B B over
    the g_- basis: a (2n) x (2n) matrix of one-forms, new on each call."""
    cf = coframe(n, omega)
    d = 2 * n
    theta = [[OneForm() for _ in range(d)] for _ in range(d)]
    for name, entries, _ in negative_part(*_key(n, omega)):
        form = cf[frame_keys(name)[1]]
        for (r, c), v in entries.items():
            theta[r][c] = theta[r][c] + form.scale(v)
    return theta


def structure_equation_residual(theta):
    """d Theta + Theta ^ Theta, entrywise, as two-forms."""
    d = range(len(theta))
    return [[sum((wedge(theta[i][j], theta[j][k]) for j in d
                  if theta[i][j].components and theta[j][k].components), theta[i][k].d())
             for k in d] for i in d]


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
    om = middle_form(w, omega)
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

    Psi = sum over permutations alpha, beta of {1..k} of sgn alpha sgn beta
    Omega_{alpha_1 beta_1} ^ ... ^ Omega_{alpha_k beta_k}, with Omega_ba =
    Omega_ab.  Two-forms commute under ^, so Psi and its power are
    polynomials in one variable per Omega_ab (a <= b): each monomial of
    Psi^{n-k} is evaluated once as a true wedge, its exponents the
    multiplicities, on the full spanning set of fields at the chart origin.
    """
    grams = _origin_grams(qk_forms(n, k))
    names = {key: f"Omega{key[0]}_{key[1]}" for key in grams}

    def sgn(perm):
        return (-1) ** sum(p > q for i, p in enumerate(perm) for q in perm[i + 1:])

    perms = list(itertools.permutations(range(1, k + 1)))
    psi = sum((sgn(alphas) * sgn(betas)
               * math.prod(Polynomial.variable(names[min(a, b), max(a, b)])
                           for a, b in zip(alphas, betas))
               for alphas in perms for betas in perms), PZERO)
    forms = list(grams.values())
    total = sum(c * eval_wedge_of_two_forms(forms, [dict(mono).get(names[key], 0) for key in grams])
                for mono, c in (psi ** (n - k)).terms.items())
    return total != 0


# --- Q2 endomorphisms --------------------------------------------------------

def efj_identity_check(n):
    """Exact residuals for the endomorphism identities on the k = 2 chart.

    Returns a dict of named residual magnitudes (max abs over entries); all
    must be exactly zero.  Matrices on the spanning fields (i, a), ordered by
    a, then i, are kept as (row, col, value) entries: E, F and J are
    `squat.matrix_rep` of e, f and j (x) I_w, and g is [[0, 1], [-1, 0]] (x)
    omega.
    """
    if n < 3:
        raise UnsupportedDimensionError("k = 2 chart requires n >= 3")
    w = 2 * (n - 2)

    def kron(m2, block):
        # the 2x2 matrix m2 (x) block, for block a {(i, j): value} dict
        return [(a * w + i, b * w + j, x * y) for a, row in enumerate(m2)
                for b, x in enumerate(row) if x for (i, j), y in block.items()]

    def mul(a, b):
        return [(r, c, v) for (r, c), v in ela.sparse_mul(a, b).items()]

    def residual(*terms):
        # max |entry| of the sum of the (sign, entries) terms
        total = {}
        for sign, entries in terms:
            for r, c, v in entries:
                ela.sparse_add(total, (r, c), sign * v)
        return Fraction(max(map(abs, total.values()), default=0))

    ident = {(i, i): 1 for i in range(w)}
    E, F, J = (kron(squat.matrix_rep(q), ident) for q in (squat.E, squat.F, squat.J))
    one = kron(((1, 0), (0, 1)), ident)
    om = standard_omega(w)
    g = kron(((0, 1), (-1, 0)), {(i, j): v for i, row in enumerate(om) for j, v in enumerate(row) if v})
    # g(A . , . ), with entry (r, c) = g(A v_r, v_c), is the product A^T g
    gE, gF, gJ = (mul([(c, r, v) for r, c, v in A], g) for A in (E, F, J))
    omega = {key: [(r, c, v) for r, row in enumerate(gram) for c, v in enumerate(row) if v]
             for key, gram in _origin_grams(qk_forms(n, 2)).items()}
    return {
        "E^2 - I": residual((1, mul(E, E)), (-1, one)),
        "F^2 - I": residual((1, mul(F, F)), (-1, one)),
        "J^2 + I": residual((1, mul(J, J)), (1, one)),
        "EF - J": residual((1, mul(E, F)), (-1, J)),
        "g(E.,E.) + g": residual((1, mul(gE, E)), (1, g)),
        "g(F.,F.) + g": residual((1, mul(gF, F)), (1, g)),
        "g(J.,J.) - g": residual((1, mul(gJ, J)), (-1, g)),
        "Omega12 - g(F.,.)": residual((1, omega[(1, 2)]), (-1, gF)),
        "Omega11 + g(E.,.) + g(J.,.)": residual((1, omega[(1, 1)]), (1, gE), (1, gJ)),
        "Omega22 - g(E.,.) + g(J.,.)": residual((1, omega[(2, 2)]), (-1, gE), (1, gJ)),
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
