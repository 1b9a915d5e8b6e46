import hashlib
from fractions import Fraction

import pytest

from contactpath import exactlinalg as ela
from contactpath.errors import InconsistencyError, UnsupportedDimensionError
from contactpath.graded_sp import BasisElement, G0Element, build

from conftest import RATIONAL_OMEGAS


def random_sp_element(m, rng):
    """Exact random element of Sp(omega) for the standard block omega."""
    k = m // 2
    out = ela.identity(m)

    def times(mat):
        nonlocal out
        out = ela.matmul(out, mat)

    for _ in range(3):
        s = [[Fraction(rng.randint(-2, 2)) for _ in range(k)] for _ in range(k)]
        for i in range(k):
            for j in range(i):
                s[i][j] = s[j][i]
        upper = ela.identity(m)
        lower = ela.identity(m)
        for i in range(k):
            for j in range(k):
                upper[i][k + j] = s[i][j]
                lower[k + i][j] = s[i][j]
        times(upper if rng.random() < 0.5 else lower)
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_basis_in_sp(n):
    g = build(n)
    omega = [list(r) for r in g.symplectic_form]
    for b in g.basis:
        x = g.element_matrix({b.name: 1})
        lhs = ela.matadd(ela.matmul(ela.transpose(x), omega), ela.matmul(omega, x))
        assert ela.is_zero_matrix(lhs), b.name


@pytest.mark.parametrize("omega", RATIONAL_OMEGAS, ids=["n3", "n4"])
def test_basis_in_sp_with_rational_omega(omega):
    # for an omega with omega omega^T != 1 the transposes of g_- built on
    # omega_{ij} itself leave sp; the positive part is built on omega^{ij}
    g = build(len(omega) // 2 + 2, omega=omega)
    big = [list(r) for r in g.symplectic_form]
    for b in g.basis:
        x = g.element_matrix({b.name: 1})
        lhs = ela.matadd(ela.matmul(ela.transpose(x), big), ela.matmul(big, x))
        assert ela.is_zero_matrix(lhs), b.name


def _typed(value):
    return str(value), type(value).__name__


def test_basis_and_killing_form_pinned():
    # sha256 of each basis element's (name, entries, bidegree) and of the
    # Killing form on every ordered pair of basis names, every value with
    # its type name, for n = 3..6 under each parabolic and for both rational
    # omegas; recorded while each element still kept a dense matrix
    algebras = [build(n, p) for n in range(3, 7) for p in ("P1", "P2", "P12")]
    algebras += [build(len(om) // 2 + 2, omega=om) for om in RATIONAL_OMEGAS]
    digest = hashlib.sha256()
    for g in algebras:
        for b in g.basis:
            entries = tuple(tuple(map(_typed, entry)) for entry in b.entries)
            digest.update(repr((b.name, entries, tuple(map(_typed, b.bidegree)))).encode())
        names = [b.name for b in g.basis]
        for na in names:
            for nb in names:
                digest.update(repr(_typed(g.killing({na: 1}, {nb: 1}))).encode())
    assert digest.hexdigest() == "f557c082beba3ce1ae983e9230cf776d87fbc6c17ba08f07c7d1a80914021038"
    # an empty trace is still the Fraction 0
    assert type(build(3).killing({"t(-1,0)": 1}, {"a1": 1})) is Fraction


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_total_dimension(n):
    g = build(n, "P1")
    assert g.dimension == n * (2 * n + 1)


def test_component_dimensions():
    g = build(3)
    assert len(g.component((-1, -1))) == 2
    assert len(g.component((-2, -2))) == 1
    g = build(5)
    assert len(g.component((-1, -1))) == 2 * 5 - 4
    assert len(g.component((0, -1))) == 2 * 5 - 4
    assert len(g.component((-2, -2))) == 1
    assert build(4).dimension == 36


def test_p12_requires_n3():
    with pytest.raises(UnsupportedDimensionError):
        build(2, "P12")


@pytest.mark.parametrize("n", [3, 4])
def test_grading_compatibility(n):
    # bracket of components lands exactly in the summed bidegree
    g = build(n)
    by_bidegree = {}
    for b in g.basis:
        by_bidegree.setdefault(b.bidegree, []).append(b.name)
    for bi, names_i in by_bidegree.items():
        for bj, names_j in by_bidegree.items():
            target = (bi[0] + bj[0], bi[1] + bj[1])
            for na in names_i[:3]:
                for nb in names_j[:3]:
                    out = g.bracket_names(na, nb)
                    for name in out:
                        assert g.basis[g.index[name]].bidegree == target


def test_bracket_examples():
    g = build(4)
    m = g.m
    for i in range(1, m + 1):
        assert g.bracket_names(f"a{i}", "t(-1,0)") == {f"e{i}": Fraction(1)}
        for j in range(1, m + 1):
            want = {}
            if g.omega[i - 1][j - 1]:
                want = {"t(0,-2)": -2 * g.omega[i - 1][j - 1]}
            assert g.bracket_names(f"a{i}", f"a{j}") == want
            want = {}
            if g.omega[i - 1][j - 1]:
                want = {"t(-2,-2)": -2 * g.omega[i - 1][j - 1]}
            assert g.bracket_names(f"e{i}", f"e{j}") == want


@pytest.mark.parametrize("n", [3, 5])
def test_structure_constants_verified(n):
    results = build(n).verify_structure_constants()
    assert len(results) == 9
    assert all(ok for _, ok in results)


def test_structure_constants_negative_control():
    g = build(3)
    idx = g.index["e1"]
    spoiled = {(r, c): v for r, c, v in g.basis[idx].entries}
    spoiled[(2, 0)] = spoiled.get((2, 0), 0) + 1
    g.basis[idx] = BasisElement("e1", tuple((r, c, v) for (r, c), v in sorted(spoiled.items())), (-1, -1))
    g._index_basis()
    results = g.verify_structure_constants()
    assert any(not ok for _, ok in results)


PREMISE_ALGEBRAS = [(n, None) for n in range(3, 7)] + [(len(om) // 2 + 2, om) for om in RATIONAL_OMEGAS]


@pytest.mark.parametrize("n, omega", PREMISE_ALGEBRAS, ids=["n3", "n4", "n5", "n6", "omega-n3", "omega-n4"])
def test_each_coefficient_is_read_where_only_its_element_is(n, omega):
    g = build(n, omega=omega)
    # a g_- or g_+ element is 1 at its first entry, where no other is nonzero
    for b in g.basis:
        if b.bidegree != (0, 0):
            r, c, v = b.entries[0]
            assert v == 1, b.name
            touching = [o.name for o in g.basis if (r, c) in {e[:2] for e in o.entries}]
            assert touching == [b.name]
    # the reads of `_index_basis` give each basis element the coefficient
    # 1 on itself and 0 on every other element, h and s included
    for j, b in enumerate(g.basis):
        read = {}
        for r, c, v in b.entries:
            for i, w in g._reads.get((r, c), ()):
                read[i] = read.get(i, 0) + w * v
        assert {i: x for i, x in read.items() if x} == {j: 1}, b.name


@pytest.mark.parametrize("parabolic", ["P1", "P2"])
def test_n2_brackets_and_expansion_match_the_matrix_commutator(parabolic, rng):
    # at n = 2 the middle block is empty: only g_-, g_+, h_c and h_d
    g = build(2, parabolic)
    names = [b.name for b in g.basis]
    assert not any(nm.startswith("s") for nm in names)
    for na in names:
        a = g.element_matrix({na: 1})
        for nb in names:
            b = g.element_matrix({nb: 1})
            want = ela.matsub(ela.matmul(a, b), ela.matmul(b, a))
            assert ela.mat_eq(g.element_matrix(g.bracket_names(na, nb)), want), (na, nb)
    for _ in range(20):
        x = {nm: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for nm in rng.sample(names, 4)}
        assert g.expand(g.element_matrix(x)) == {nm: v for nm, v in x.items() if v}
    with pytest.raises(InconsistencyError, match=r"\(entry 0,0\)$"):
        g.expand(ela.identity(4))


def test_expand_rejects_outside_span():
    g = build(3)
    bad = ela.zeros(6, 6)
    bad[0][0] = Fraction(1)  # not in sp: fails the pairing with f_0/f_inf
    bad[1][2] = Fraction(1)
    with pytest.raises(InconsistencyError):
        g.expand(bad)


def test_killing_matches_adjoint_trace(rng):
    # independent oracle: B(X, Y) = tr(ad X o ad Y) computed from brackets
    g = build(3)
    names = [b.name for b in g.basis]

    def ad_matrix(coeffs):
        cols = []
        for nm in names:
            out = g.bracket(coeffs, {nm: 1})
            cols.append([out.get(t, Fraction(0)) for t in names])
        # columns are images of basis vectors; flip to row-major
        return [[cols[j][i] for j in range(len(names))] for i in range(len(names))]

    for _ in range(4):
        x = {rng.choice(names): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        y = {rng.choice(names): Fraction(rng.randint(-3, 3)) for _ in range(3)}
        adx = ad_matrix(x)
        ady = ad_matrix(y)
        trace = sum(
            sum(adx[i][k] * ady[k][i] for k in range(len(names)))
            for i in range(len(names))
        )
        assert g.killing(x, y) == trace


def test_structure_constants_with_scaled_omega():
    om = [[0, 2], [-2, 0]]
    g = build(3, omega=om)
    assert all(ok for _, ok in g.verify_structure_constants())
    assert g.bracket_names("a1", "a2") == {"t(0,-2)": Fraction(-4)}


@pytest.mark.parametrize("n", [3, 4])
def test_killing_orthogonality_and_pairing(n):
    g = build(n)
    comps = {}
    for b in g.basis:
        comps.setdefault(b.bidegree, []).append(b.name)
    for bi, names_i in comps.items():
        for bj, names_j in comps.items():
            vanish = (bi[0] + bj[0], bi[1] + bj[1]) != (0, 0)
            if vanish:
                for na in names_i:
                    for nb in names_j:
                        assert g.killing({na: 1}, {nb: 1}) == 0
        dual = (-bi[0], -bi[1])
        gram = [
            [g.killing({na: 1}, {nb: 1}) for nb in comps[dual]] for na in names_i
        ]
        assert ela.rank(gram) == len(names_i)


def test_adjoint_g0_identity_and_kernel():
    g = build(3)
    m = g.m
    ident = G0Element(tuple(tuple(r) for r in ela.identity(m)), Fraction(1), Fraction(1))
    minus = G0Element(
        tuple(tuple(-x for x in r) for r in ela.identity(m)), Fraction(-1), Fraction(-1)
    )
    for name in g.negative_names():
        assert g.adjoint_g0(ident, {name: 1}) == {name: Fraction(1)}
        assert g.adjoint_g0(minus, {name: 1}) == {name: Fraction(1)}


def test_adjoint_g0_scalings():
    g = build(3)
    m = g.m
    c = Fraction(3, 2)
    el = G0Element(tuple(tuple(r) for r in ela.identity(m)), c, Fraction(1))
    assert g.adjoint_g0(el, {"t(-2,-2)": 1}) == {"t(-2,-2)": c ** -2}
    for i in range(1, m + 1):
        assert g.adjoint_g0(el, {f"e{i}": 1}) == {f"e{i}": c ** -1}


def test_adjoint_g0_full_table(rng):
    g = build(4)
    m = g.m
    C = random_sp_element(m, rng)
    c = Fraction(5, 3)
    d = Fraction(-2, 7)
    el = G0Element(tuple(tuple(r) for r in C), c, d)
    assert g.adjoint_g0(el, {"t(-2,-2)": 1}) == {"t(-2,-2)": c ** -2}
    assert g.adjoint_g0(el, {"t(-1,-2)": 1}) == {"t(-1,-2)": c ** -1 * d ** -1}
    assert g.adjoint_g0(el, {"t(0,-2)": 1}) == {"t(0,-2)": d ** -2}
    assert g.adjoint_g0(el, {"t(-1,0)": 1}) == {"t(-1,0)": c ** -1 * d}
    for i in range(1, m + 1):
        got = g.adjoint_g0(el, {f"a{i}": 1})
        want = {
            f"a{j}": d ** -1 * C[i - 1][j - 1]
            for j in range(1, m + 1)
            if C[i - 1][j - 1]
        }
        assert got == want
        got = g.adjoint_g0(el, {f"e{i}": 1})
        want = {
            f"e{j}": c ** -1 * C[i - 1][j - 1]
            for j in range(1, m + 1)
            if C[i - 1][j - 1]
        }
        assert got == want


def zgrad_map(g, a, b, A):
    """Candidate map from the graded-automorphism normal form."""
    m = g.m
    cand = {"t(-1,0)": {"t(-1,0)": a}, "t(0,-2)": {"t(0,-2)": b}}
    cand["t(-1,-2)"] = {"t(-1,-2)": a * b}
    cand["t(-2,-2)"] = {"t(-2,-2)": a * a * b}
    for i in range(1, m + 1):
        cand[f"a{i}"] = {f"a{j}": A[i - 1][j - 1] for j in range(1, m + 1)}
        cand[f"e{i}"] = {f"e{j}": a * A[i - 1][j - 1] for j in range(1, m + 1)}
    return cand


def test_graded_automorphism_identity():
    g = build(3)
    params, reason = g.solve_graded_automorphism(
        zgrad_map(g, Fraction(1), Fraction(1), ela.identity(g.m))
    )
    assert reason is None
    a, b, A = params
    assert a == 1 and b == 1
    assert ela.mat_eq([list(r) for r in A], ela.identity(g.m))


def test_graded_automorphism_round_trip(rng):
    g = build(4)
    m = g.m
    for _ in range(5):
        S = random_sp_element(m, rng)
        a = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        mu = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        A = ela.scalarmul(mu, S)  # A omega A^T = mu^2 omega
        b = mu * mu
        params, reason = g.solve_graded_automorphism(zgrad_map(g, a, b, A))
        assert reason is None
        got_a, got_b, got_A = params
        assert got_a == a and got_b == b
        assert ela.mat_eq([list(r) for r in got_A], A)


def test_graded_automorphism_rejects_mixing():
    g = build(3)
    cand = zgrad_map(g, Fraction(1), Fraction(1), ela.identity(g.m))
    cand["t(-1,0)"]["a1"] = Fraction(1)  # forces A_0^i = 0, so must be rejected
    params, reason = g.solve_graded_automorphism(cand)
    assert params is None
    assert reason


def test_graded_automorphism_matches_adjoint_action(rng):
    # b > 0 with rational square root corresponds to an adjoint-group element
    # (C, c, d) with d = b^{-1/2}, c = d/a, C = c a A = d A
    g = build(3)
    m = g.m
    S = random_sp_element(m, rng)
    d = Fraction(2, 3)
    cval = Fraction(5, 4)
    a = d / cval
    b = d ** -2
    A = ela.scalarmul(Fraction(1) / d, S)  # C = d A recovers C = S
    params, reason = g.solve_graded_automorphism(zgrad_map(g, a, b, A))
    assert reason is None
    el = G0Element(tuple(tuple(r) for r in S), cval, d)
    cand = zgrad_map(g, a, b, A)
    for name in g.negative_names():
        assert g.adjoint_g0(el, {name: 1}) == {
            k: v for k, v in cand[name].items() if v
        }
