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
relies on exactly these conventions.

All arithmetic in this module is exact; there is no tolerance anywhere.
"""

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


def _add(out, key, value):
    """out[key] += value, keeping only nonzero entries."""
    s = out.get(key, 0) + value
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _sparse_mul(a_entries, b_entries):
    """Product of two matrices given as (row, col, value) entries, as a
    {(row, col): value} dict without zeros."""
    b_by_row = {}
    for r, c, v in b_entries:
        b_by_row.setdefault(r, []).append((c, v))
    out = {}
    for r, k, va in a_entries:
        for c, vb in b_by_row.get(k, ()):
            _add(out, (r, c), va * vb)
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
        self._check_omega()
        # omega^{ij} with omega^{ip} omega_{pj} = -delta^i_j
        self.omega_upper = _freeze(ela.scalarmul(-1, ela.inverse([list(r) for r in self.omega])))
        self.symplectic_form = _freeze(self._big_omega())
        self.basis = self._build_basis()
        self.index = {b.name: i for i, b in enumerate(self.basis)}
        self._index_basis()

    # --- construction ------------------------------------------------------
    def _check_omega(self):
        m = self.m
        for i in range(m):
            for j in range(m):
                if self.omega[i][j] != -self.omega[j][i]:
                    raise ValueError("omega must be skew-symmetric")
        if m and ela.rank([list(r) for r in self.omega]) != m:
            raise ValueError("omega must be nondegenerate")

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
                 for name, entries, bideg in self._negative_part(self.omega)]

        # positive part: X is in sp(Omega) iff X^T is in sp(Omega^{-1}), the
        # form with middle block omega^{ij} up to an overall sign, and
        # transposition negates the bidegree; so the transposes of the
        # negative part built on omega^{ij} span p^+ (for the standard omega,
        # omega^{ij} = omega_{ij})
        for name, entries, bideg in self._negative_part(self.omega_upper):
            if name.startswith("t("):
                pos = "t(" + ",".join(str(-int(x)) for x in name[2:-1].split(",")) + ")"
            else:
                pos = name[0] + "*" + name[1:]
            transposed = {(c, r): v for (r, c), v in entries.items()}
            basis.append(_element(pos, transposed, (-bideg[0], -bideg[1])))

        # g_{0,0}: two grading directions plus the middle sp(m) block
        basis.append(_element("h_c", {(0, 0): 1, (d - 1, d - 1): -1}, (0, 0)))
        basis.append(_element("h_d", {(1, 1): 1, (d - 2, d - 2): -1}, (0, 0)))
        for i, middle in enumerate(self._middle_sp_basis()):
            basis.append(_element(f"s{i + 1}", middle, (0, 0)))
        return basis

    def _negative_part(self, om):
        """(name, {(row, col): value}, bidegree) of g_-, read off its general
        element for the middle form `om`."""
        m = self.m
        d = 2 * self.n
        out = [("t(-1,0)", {(1, 0): 1, (d - 1, d - 2): -1}, (-1, 0))]
        for p in range(1, m + 1):
            a = {(d - 2, 1 + q): -om[p - 1][q - 1] for q in range(1, m + 1)}
            a[(1 + p, 1)] = 1
            out.append((f"a{p}", a, (0, -1)))
        out.append(("t(0,-2)", {(d - 2, 1): 1}, (0, -2)))
        for p in range(1, m + 1):
            e = {(d - 1, 1 + q): -om[p - 1][q - 1] for q in range(1, m + 1)}
            e[(1 + p, 0)] = 1
            out.append((f"e{p}", e, (-1, -1)))
        out.append(("t(-1,-2)", {(d - 2, 0): 1, (d - 1, 1): 1}, (-1, -2)))
        out.append(("t(-2,-2)", {(d - 1, 0): 1}, (-2, -2)))
        return out

    def _middle_sp_basis(self):
        """Basis of sp(omega) on the middle block, as {(row, col): value}
        entries at their place in the 2n x 2n matrix.

        X is in sp(omega) iff omega X is symmetric, so omega^{-1} applied to
        the standard symmetric basis spans it exactly: omega^{-1} times
        E_ij + E_ji adds column i of omega^{-1} to column j and column j of
        omega^{-1} to column i.
        """
        m = self.m
        if m == 0:
            return []
        om_inv = ela.inverse([list(r) for r in self.omega])
        basis = []
        for i in range(m):
            for j in range(i, m):
                x = {}
                for r in range(m):
                    _add(x, (2 + r, 2 + j), om_inv[r][i])
                    _add(x, (2 + r, 2 + i), om_inv[r][j])
                basis.append(x)
        return basis

    def _index_basis(self):
        """Position index and inverted Gram blocks of the trace form.

        `_at[(c, r)]` lists (j, B_j[r][c]), so the trace pairings
        tr(B_j M) = sum B_j[r][c] M[c][r] of a sparse M are read off its
        nonzero entries alone.  tr(XY) pairs g_I with g_{-I} only, so
        coefficient extraction reduces to block solves: `_solve_col[j]`
        lists (i, w) with coefficient_i = sum_j w * tr(B_j M), the nonzero
        entries of column j of the inverted Gram block of B_j's component.
        """
        self._at = {}
        for j, b in enumerate(self.basis):
            for r, c, v in b.entries:
                self._at.setdefault((c, r), []).append((j, v))
        groups = {}
        for i, b in enumerate(self.basis):
            groups.setdefault(b.bidegree, []).append(i)
        self._solve_col = {}
        for bideg, idxs in groups.items():
            dual_idxs = groups.get((-bideg[0], -bideg[1]))
            if dual_idxs is None:
                raise InconsistencyError(f"no dual component for bidegree {bideg}")
            # rows indexed by the dual component so that c = gram^{-1} rhs
            pairings = [self._pairings({(r, c): v for r, c, v in self.basis[i].entries}) for i in idxs]
            inv_gram = ela.inverse([[p.get(j, 0) for p in pairings] for j in dual_idxs])
            for col, j in enumerate(dual_idxs):
                self._solve_col[j] = [(i, row[col]) for row, i in zip(inv_gram, idxs) if row[col]]

    def _pairings(self, entries):
        """{j: tr(B_j M)} over the nonzero pairings of M = {(r, c): value}."""
        out = {}
        for pos, value in entries.items():
            for j, v in self._at.get(pos, ()):
                _add(out, j, v * value)
        return out

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
        """Expand M = {(r, c): nonzero value}; the trace pairings come from
        M's nonzero entries and only the Gram blocks they meet are solved."""
        coeffs = {}
        for j, rhs in self._pairings(entries).items():
            for i, w in self._solve_col[j]:
                _add(coeffs, i, w * rhs)
        # full verification: the reconstruction must reproduce the input
        recon = {}
        for i, coef in coeffs.items():
            for r, c, v in self.basis[i].entries:
                _add(recon, (r, c), coef * v)
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
        ab = _sparse_mul(entries_a, entries_b)
        for key, v in _sparse_mul(entries_b, entries_a).items():
            _add(ab, key, -v)
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
        xy = _sparse_mul(self._entries(a), self._entries(b))
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
        return (
            ["t(-1,0)"]
            + [f"a{i}" for i in range(1, self.m + 1)]
            + [f"e{i}" for i in range(1, self.m + 1)]
            + ["t(0,-2)", "t(-1,-2)", "t(-2,-2)"]
        )

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
                            _add(lhs, t, ca * cb * c)
                rhs = {}
                for t, c in self.bracket_names(nm_a, nm_b).items():
                    for t2, c2 in img(t).items():
                        _add(rhs, t2, c * c2)
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
