"""Exact matrix realization of sp(n, R) with its Z^2-grading.

The symplectic vector space carries the ordered basis

    f_inf, e_inf, e_1, ..., e_{2n-4}, e_0, f_0

with Omega(f_inf, f_0) = 1 = Omega(e_inf, e_0) and Omega(e_i, e_j) =
omega_{ij}.  The two scaling elements are the diagonal matrices

    E1 = diag(1, 0, ..., 0, -1)        (in the f_inf / f_0 slots)
    E2 = diag(1, 1, 0, ..., 0, -1, -1) (f_inf, e_inf / e_0, f_0 slots)

and the bidegree of a basis element is its pair of ad-eigenvalues.  Lowercase
Latin indices are raised and lowered with omega_{ij} via x_i = x^p omega_{pi}
and omega^{ip} omega_{pj} = -delta^i_j; every torsion formula downstream
relies on exactly these conventions.  `omega_upper` is the one place omega is
checked and inverted, once per omega.

All arithmetic in this module is exact; there is no tolerance anywhere.
"""

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistencyError, InvalidParabolicError, UnsupportedDimensionError
from . import exactlinalg as ela

P1, P2, P12 = "P1", "P2", "P12"
_PARABOLICS = (P1, P2, P12)


def standard_omega(m):
    """Standard block form [[0, I], [-I, 0]] on m = 2k middle indices."""
    if m % 2:
        raise ValueError("middle dimension must be even")
    k = m // 2
    w = ela.zeros(m, m)
    for i in range(k):
        w[i][k + i] = Fraction(1)
        w[k + i][i] = Fraction(-1)
    return w


@functools.lru_cache(maxsize=16)
def omega_upper(omega):
    """omega^{ij} = -omega^{-1}, so that omega^{ip} omega_{pj} = -delta^i_j,
    for a middle form omega given as a tuple of Fraction rows; read-only.

    This is the one place omega is decided: a ValueError says it is not
    skew-symmetric, or not nondegenerate (it has no inverse).  Decided and
    inverted once per omega."""
    m = len(omega)
    if any(omega[i][j] != -omega[j][i] for i in range(m) for j in range(m)):
        raise ValueError("omega must be skew-symmetric")
    try:
        inv = ela.inverse([list(r) for r in omega])
    except ZeroDivisionError:
        raise ValueError("omega must be nondegenerate") from None
    return _freeze(ela.scalarmul(-1, inv))


@dataclass(frozen=True)
class BasisElement:
    name: str
    entries: tuple  # nonzero (row, col, value) entries in row-major order, Fractions
    bidegree: tuple  # (i1, i2) eigenvalues of ad(E1), ad(E2)


@dataclass(frozen=True)
class G0Element:
    """(C, c, d) in Sp(n-2) x GL(1) x GL(1), acting by the adjoint action."""

    C: tuple
    c: Fraction
    d: Fraction


def _freeze(m):
    return tuple(tuple(x if isinstance(x, Fraction) else Fraction(x) for x in row) for row in m)


def _element(name, entries, bidegree):
    """A BasisElement from its {(row, col): value} entries."""
    nonzero = tuple((r, c, Fraction(v)) for (r, c), v in sorted(entries.items()) if v)
    return BasisElement(name, nonzero, bidegree)


def negative_names(n):
    """Names of the g_- basis: t(-1,0), a_i, e_i, then the three t's."""
    m = 2 * n - 4
    return (["t(-1,0)"] + [f"a{i}" for i in range(1, m + 1)] + [f"e{i}" for i in range(1, m + 1)]
            + ["t(0,-2)", "t(-1,-2)", "t(-2,-2)"])


def negative_part(n, om):
    """(name, {(row, col): nonzero value}, bidegree) of each basis element of
    g_-, read off its general element for the middle form `om`.  The first
    entry of each in row-major order, its lead, has value 1, and no other
    element of g_- is nonzero there."""
    m = 2 * n - 4
    d = 2 * n
    out = [("t(-1,0)", {(1, 0): 1, (d - 1, d - 2): -1}, (-1, 0))]
    for p in range(1, m + 1):
        a = {(1 + p, 1): 1}
        a.update({(d - 2, 1 + q): -om[p - 1][q - 1] for q in range(1, m + 1) if om[p - 1][q - 1]})
        out.append((f"a{p}", a, (0, -1)))
    out.append(("t(0,-2)", {(d - 2, 1): 1}, (0, -2)))
    for p in range(1, m + 1):
        e = {(1 + p, 0): 1}
        e.update({(d - 1, 1 + q): -om[p - 1][q - 1] for q in range(1, m + 1) if om[p - 1][q - 1]})
        out.append((f"e{p}", e, (-1, -1)))
    out.append(("t(-1,-2)", {(d - 2, 0): 1, (d - 1, 1): 1}, (-1, -2)))
    out.append(("t(-2,-2)", {(d - 1, 0): 1}, (-2, -2)))
    return out


class GradedLieAlgebra:
    """Basis of sp(n, R), each element tagged with its Z^2-bidegree."""

    def __init__(self, n, parabolic=P12, omega=None):
        if parabolic not in _PARABOLICS:
            raise InvalidParabolicError(f"parabolic must be one of {_PARABOLICS}")
        if parabolic == P12 and n < 3:
            raise UnsupportedDimensionError(
                "P12 grading requires n >= 3 (the three-dimensional theory is excluded)"
            )
        if n < 2:
            raise UnsupportedDimensionError(f"n must be >= 2, got {n}")
        self.n = n
        self.parabolic = parabolic
        m = 2 * n - 4
        self.m = m
        self.omega = _freeze(standard_omega(m) if omega is None else omega)
        self.omega_upper = omega_upper(self.omega)
        self.symplectic_form = _freeze(self._big_omega())
        self.basis = self._build_basis()
        self.index = {b.name: i for i, b in enumerate(self.basis)}
        self._index_basis()

    # --- construction ------------------------------------------------------
    def _big_omega(self):
        n, m = self.n, self.m
        d = 2 * n
        big = ela.zeros(d, d)
        big[0][d - 1] = Fraction(1)
        big[d - 1][0] = Fraction(-1)
        big[1][d - 2] = Fraction(1)
        big[d - 2][1] = Fraction(-1)
        for i in range(m):
            for j in range(m):
                big[2 + i][2 + j] = self.omega[i][j]
        return big

    def _build_basis(self):
        d = 2 * self.n
        basis = [_element(name, entries, bideg)
                 for name, entries, bideg in negative_part(self.n, self.omega)]

        # positive part: X is in sp(Omega) iff X^T is in sp(Omega^{-1}), the
        # form with middle block omega^{ij} up to an overall sign, and
        # transposition negates the bidegree; so the transposes of the
        # negative part built on omega^{ij} span p^+ (for the standard omega,
        # omega^{ij} = omega_{ij})
        for name, entries, bideg in negative_part(self.n, self.omega_upper):
            if name.startswith("t("):
                pos = "t(" + ",".join(str(-int(x)) for x in name[2:-1].split(",")) + ")"
            else:
                pos = name[0] + "*" + name[1:]
            transposed = {(c, r): v for (r, c), v in entries.items()}
            basis.append(_element(pos, transposed, (-bideg[0], -bideg[1])))

        # g_{0,0}: two grading directions plus the middle sp(omega) block.  X
        # is in sp(omega) iff omega X is symmetric, so s_k = omega^{-1}(E_ij +
        # E_ji), i <= j, spans it exactly; omega^{-1} = -omega^{ij}, and
        # omega^{-1} E_ij is column i of omega^{-1} placed in column j
        basis.append(_element("h_c", {(0, 0): 1, (d - 1, d - 1): -1}, (0, 0)))
        basis.append(_element("h_d", {(1, 1): 1, (d - 2, d - 2): -1}, (0, 0)))
        self._s_pairs = [(i, j) for i in range(self.m) for j in range(i, self.m)]
        for k, (i, j) in enumerate(self._s_pairs, start=1):
            x = {}
            for r, row in enumerate(self.omega_upper):
                ela.sparse_add(x, (2 + r, 2 + j), -row[i])
                ela.sparse_add(x, (2 + r, 2 + i), -row[j])
            basis.append(_element(f"s{k}", x, (0, 0)))
        return basis

    def _index_basis(self):
        """Where `_expand_sparse` reads each coefficient of a matrix M:
        `_reads[(r, c)]` lists (i, w), coefficient_i = sum w * M[r][c].

        A g_- or g_+ element is read at its lead, its first entry, with value
        1, where no other basis element is nonzero (`negative_part`; the g_+
        leads are the transposes of those of `negative_part(n, omega^{ij})`).
        h_c is half of M[0][0] - M[d-1][d-1] and h_d half of M[1][1] -
        M[d-2][d-2].  s_k = omega^{-1}(E_ij + E_ji) is read as (omega X)_ij
        = sum_p omega_ip X_pj of the middle block X, halved when i = j.  The
        positions are rebuilt from `basis` on each call.
        """
        d = 2 * self.n
        self._reads = {}
        for i, b in enumerate(self.basis):
            if b.bidegree != (0, 0):
                self._reads[b.entries[0][:2]] = [(i, Fraction(1))]
        half = Fraction(1, 2)
        for name, (r, c) in (("h_c", (0, d - 1)), ("h_d", (1, d - 2))):
            self._reads[(r, r)] = [(self.index[name], half)]
            self._reads[(c, c)] = [(self.index[name], -half)]
        for k, (i, j) in enumerate(self._s_pairs, start=self.index["h_d"] + 1):
            for p, w in enumerate(self.omega[i]):
                if w:
                    self._reads.setdefault((2 + p, 2 + j), []).append((k, w / 2 if i == j else w))

    # --- basic queries -------------------------------------------------------
    @property
    def dimension(self):
        return len(self.basis)

    def bidegrees(self):
        return sorted({b.bidegree for b in self.basis})

    def component(self, bidegree):
        return [b for b in self.basis if b.bidegree == bidegree]

    def z_degree(self, bidegree):
        """Degree of a bidegree in the grading induced by this parabolic."""
        if self.parabolic == P1:
            return bidegree[0]
        if self.parabolic == P2:
            return bidegree[1]
        return bidegree[0] + bidegree[1]

    def element_matrix(self, coeffs):
        """Dense matrix of sum_i coeffs[name] * basis[name]."""
        d = 2 * self.n
        m = ela.zeros(d, d)
        for r, c, v in self._entries(coeffs):
            m[r][c] += v
        return m

    # --- expansion and brackets ----------------------------------------------
    def expand(self, matrix):
        """Expand a matrix in the stored basis; exact, raises if not in span."""
        return self._expand_sparse(
            {(r, c): v for r, row in enumerate(matrix) for c, v in enumerate(row) if v}
        )

    def _expand_sparse(self, entries):
        """Expand M = {(r, c): nonzero value}: each coefficient is read off
        M's entries at the positions `_index_basis` records."""
        coeffs = {}
        for pos, value in entries.items():
            for i, w in self._reads.get(pos, ()):
                ela.sparse_add(coeffs, i, w * value)
        # full verification: the reconstruction must reproduce the input
        recon = {}
        for i, coef in coeffs.items():
            for r, c, v in self.basis[i].entries:
                ela.sparse_add(recon, (r, c), coef * v)
        if recon != entries:
            r, c = min(k for k in recon.keys() | entries.keys() if recon.get(k, 0) != entries.get(k, 0))
            raise InconsistencyError(f"matrix is not in the span of the basis (entry {r},{c})")
        return {self.basis[i].name: coeffs[i] for i in sorted(coeffs)}

    def _entries(self, coeffs):
        """(row, col, value) entries of each term of sum coeffs[name] * basis[name]."""
        return [
            (r, c, Fraction(coef) * v)
            for name, coef in coeffs.items()
            for r, c, v in self.basis[self.index[name]].entries
        ]

    def bracket(self, a, b):
        """Bracket of two elements given as name->coefficient dicts."""
        entries_a = self._entries(a)
        entries_b = self._entries(b)
        ab = ela.sparse_mul(entries_a, entries_b)
        for key, v in ela.sparse_mul(entries_b, entries_a).items():
            ela.sparse_add(ab, key, -v)
        return self._expand_sparse(ab)

    def bracket_names(self, name_a, name_b):
        return self.bracket({name_a: 1}, {name_b: 1})

    # --- verification ----------------------------------------------------------
    def verify_structure_constants(self):
        """Check the tabulated bracket relations exactly.

        Returns a list of (relation, ok) pairs, one per tabulated relation,
        each quantified over all valid indices.
        """
        om = self.omega
        idx = range(1, self.m + 1)
        pairs = [(i, j) for i in idx for j in idx]
        table = [
            ("[a_i,a_j] = -2 omega_ij t(0,-2)",
             [(f"a{i}", f"a{j}", {"t(0,-2)": -2 * om[i - 1][j - 1]}) for i, j in pairs]),
            ("[a_i,t(-1,0)] = e_i", [(f"a{i}", "t(-1,0)", {f"e{i}": 1}) for i in idx]),
            ("[t(-1,0),t(0,-2)] = -t(-1,-2)", [("t(-1,0)", "t(0,-2)", {"t(-1,-2)": -1})]),
            ("[a_i,t(0,-2)] = 0", [(f"a{i}", "t(0,-2)", {}) for i in idx]),
            ("[a_i,e_j] = -omega_ij t(-1,-2)",
             [(f"a{i}", f"e{j}", {"t(-1,-2)": -om[i - 1][j - 1]}) for i, j in pairs]),
            ("[a_i,t(-1,-2)] = 0", [(f"a{i}", "t(-1,-2)", {}) for i in idx]),
            ("[t(-1,0),t(-1,-2)] = -2 t(-2,-2)", [("t(-1,0)", "t(-1,-2)", {"t(-2,-2)": -2})]),
            ("[t(-1,0),e_i] = 0", [("t(-1,0)", f"e{i}", {}) for i in idx]),
            ("[e_i,e_j] = -2 omega_ij t(-2,-2)",
             [(f"e{i}", f"e{j}", {"t(-2,-2)": -2 * om[i - 1][j - 1]}) for i, j in pairs]),
        ]
        return [(label, all(self._bracket_is(a, b, want) for a, b, want in cases))
                for label, cases in table]

    def _bracket_is(self, name_a, name_b, want):
        """Whether [name_a, name_b] expands to `want` (zero entries ignored)."""
        try:
            got = self.bracket_names(name_a, name_b)
        except InconsistencyError:
            return False
        return got == {k: v for k, v in want.items() if v}

    def killing(self, a, b):
        """Killing form B(X, Y) = (2n + 2) tr(XY) on coefficient dicts."""
        xy = ela.sparse_mul(self._entries(a), self._entries(b))
        return (2 * self.n + 2) * sum((v for (r, c), v in xy.items() if r == c), Fraction(0))

    # --- G0 action ---------------------------------------------------------------
    def g0_matrix(self, g):
        """Group element blockdiag(c, d, C, 1/d, 1/c) realizing (C, c, d)."""
        m = self.m
        d = 2 * self.n
        C = [list(map(Fraction, row)) for row in g.C]
        if m:
            lhs = ela.matmul(ela.matmul(ela.transpose(C), [list(r) for r in self.omega]), C)
            if not ela.mat_eq(lhs, [list(r) for r in self.omega]):
                raise ValueError("C must satisfy C^T omega C = omega exactly")
        if g.c == 0 or g.d == 0:
            raise ValueError("c and d must be nonzero")
        P = ela.zeros(d, d)
        P[0][0] = Fraction(g.c)
        P[1][1] = Fraction(g.d)
        # the transpose embedding makes the adjoint action transform the
        # a_i and e_i coefficient vectors by C in row-by-column indexing
        for i in range(m):
            for j in range(m):
                P[2 + i][2 + j] = C[j][i]
        P[d - 2][d - 2] = Fraction(1) / Fraction(g.d)
        P[d - 1][d - 1] = Fraction(1) / Fraction(g.c)
        return P

    def adjoint_g0(self, g, x):
        """Adjoint action of (C, c, d) on a coefficient dict supported in g_-."""
        P = self.g0_matrix(g)
        Pinv = ela.inverse(P)
        return self.expand(ela.matmul(ela.matmul(P, self.element_matrix(x)), Pinv))

    # --- graded automorphisms -------------------------------------------------
    def negative_names(self):
        return negative_names(self.n)

    def solve_graded_automorphism(self, candidate):
        """Decide whether a Z-graded linear map on g_- is a Lie automorphism.

        `candidate` maps basis names of g_- to coefficient dicts on g_-.  On
        acceptance returns (a, b, A) with A_i^p A_j^q omega_pq = b omega_ij,
        certifying along the way that the map respects the Z^2-grading; on
        rejection returns None together with a reason string.
        """
        m = self.m
        names = self.negative_names()
        z_of = {nm: self.z_degree(self.basis[self.index[nm]].bidegree) for nm in names}
        for nm in names:
            img = candidate.get(nm, {})
            for target, coef in img.items():
                if coef and z_of[target] != z_of[nm]:
                    return None, f"image of {nm} leaves its Z-graded block"

        def img(nm):
            return {k: Fraction(v) for k, v in candidate.get(nm, {}).items() if v}

        # Lie automorphism: phi([x, y]) = [phi x, phi y] on all basis pairs
        for i, nm_a in enumerate(names):
            for nm_b in names[i + 1:]:
                lhs = {}
                for ta, ca in img(nm_a).items():
                    for tb, cb in img(nm_b).items():
                        for t, c in self.bracket_names(ta, tb).items():
                            ela.sparse_add(lhs, t, ca * cb * c)
                rhs = {}
                for t, c in self.bracket_names(nm_a, nm_b).items():
                    for t2, c2 in img(t).items():
                        ela.sparse_add(rhs, t2, c * c2)
                if lhs != rhs:
                    return None, f"bracket relation fails on ({nm_a}, {nm_b})"

        a = img("t(-1,0)").get("t(-1,0)", Fraction(0))
        b = img("t(0,-2)").get("t(0,-2)", Fraction(0))
        if a == 0 or b == 0:
            return None, "degenerate diagonal action"
        A = [[img(f"a{i}").get(f"a{j}", Fraction(0)) for j in range(1, m + 1)] for i in range(1, m + 1)]
        # certify the Z^2-graded form of the map
        for i in range(1, m + 1):
            if img("t(-1,0)").get(f"a{i}", 0) or img(f"a{i}").get("t(-1,0)", 0):
                return None, "map mixes t(-1,0) with the a_i"
            if img("t(0,-2)").get(f"e{i}", 0) or img(f"e{i}").get("t(0,-2)", 0):
                return None, "map mixes t(0,-2) with the e_i"
            for j in range(1, m + 1):
                if img(f"e{i}").get(f"e{j}", Fraction(0)) != a * A[i - 1][j - 1]:
                    return None, "e-block is not a times the a-block"
        if img("t(-1,-2)").get("t(-1,-2)", Fraction(0)) != a * b:
            return None, "t(-1,-2) scale is not a*b"
        if img("t(-2,-2)").get("t(-2,-2)", Fraction(0)) != a * a * b:
            return None, "t(-2,-2) scale is not a^2 b"
        om = [list(r) for r in self.omega]
        lhs = ela.matmul(ela.matmul(A, om), ela.transpose(A))
        want = ela.scalarmul(b, om)
        # A_i^p A_j^q omega_pq = b omega_ij  reads (A omega A^T)_ij in matrix form
        if not ela.mat_eq(lhs, want):
            return None, "A does not scale omega by b"
        return (a, b, _freeze(A)), None


def build(n, parabolic=P12, omega=None):
    return GradedLieAlgebra(n, parabolic, omega)
