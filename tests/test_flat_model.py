import hashlib
import itertools
from fractions import Fraction

import pytest

from contactpath import flat_model as fm
from contactpath.errors import UnsupportedDimensionError
from contactpath.graded_sp import build, standard_omega
from contactpath.poly import Polynomial

from conftest import RATIONAL_OMEGAS, capitalized


def test_chart_dimensions():
    assert fm.projective_chart(3).dim == 8
    assert fm.projective_chart(5).dim == 16
    assert fm.grassmann_chart(4, 2).dim == 2 * 2 * 2 + 3
    assert len(set(fm.projective_chart(4).names)) == 12


def test_a_field_formula():
    fr = fm.frame(3)
    a1 = fr["A1"]
    # A_1 = d/du1 + omega_1p u^p d/du0 with the standard block omega
    assert a1.components["u1"] == Polynomial.constant(1)
    assert a1.components["u0"] == Polynomial.variable("u2")
    assert set(a1.components) == {"u1", "u0"}


def test_contact_form_and_kernel():
    cf = fm.coframe(3)
    theta = cf["theta(-2,-2)"]
    # theta = dz + t dx0 - x0 dt + omega_pq x^p dx^q
    assert theta.components["z"] == Polynomial.constant(1)
    assert theta.components["x0"] == Polynomial.variable("t")
    assert theta.components["t"] == -Polynomial.variable("x0")
    fr = fm.frame(3)
    for key in ("T(-1,0)", "E1", "E2", "T(-1,-2)"):
        assert theta.pair(fr[key]).is_zero()


@pytest.mark.parametrize("n", [3, 4])
def test_coframe_dual_to_frame(n):
    fr = fm.frame(n)
    cf = fm.coframe(n)
    pairs = fm.frame_coframe_pairs(n)
    for fk, ck in pairs:
        for fk2, _ in pairs:
            val = cf[ck].pair(fr[fk2])
            assert val == Polynomial.constant(1 if fk == fk2 else 0)


# sha256 of the sorted "key coordinate terms" lines of every component of
# frame(n, omega) and coframe(n, omega), the terms as sorted (monomial,
# Fraction) pairs; recorded from the hand-written frame and coframe
FRAME_COFRAME_SHA256 = {
    (3, None): "059e24309376e96cae63afc2d44c394c94357cc6d3e1ef412dc1fd9fd9084943",
    (4, None): "fd00a0ea3501b7f3a50b5246f7ebd128862901b179847ad9efb2349afc54c237",
    (5, None): "6dd873176256fecf12ebcf40fbb5f89a0458723b4369de35af7c9dc79c0a1357",
    (6, None): "d5d844b44b7d4e9cc4ca74e99f81273c6ec8e0d11dbcf8d9148474715a3fbf6b",
    (7, None): "924bde3bb885e46746d4ee878815a3ba08049a6a5d107017793f49d6e6951e94",
    (3, 0): "5de692853514f7e01d3a06257530d83121c4dd0944fcbcaf23afb0d665eb74e8",
    (4, 1): "a7b7f9cd39a3187bc73ea4a48d8418e48b43ab61a467ae8fb7c83b41956c52fc",
}


@pytest.mark.parametrize("n, which", FRAME_COFRAME_SHA256)
def test_frame_and_coframe_components_unchanged(n, which):
    omega = None if which is None else RATIONAL_OMEGAS[which]
    lines = sorted(
        f"{key} {coord} {sorted((mono, Fraction(c)) for mono, c in comp.terms.items())}"
        for objs in (fm.frame(n, omega), fm.coframe(n, omega))
        for key, obj in objs.items()
        for coord, comp in obj.components.items())
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == FRAME_COFRAME_SHA256[(n, which)]


def test_bracket_of_field_with_itself_vanishes():
    fr = fm.frame(3)
    x = fr["T(-1,0)"] + fr["A1"].scale(Polynomial.variable("u2"))
    assert not fm.lie_bracket(x, x).components


@pytest.mark.parametrize("n", [3, 4, 5])
def test_frame_brackets_realize_structure_constants(n):
    algebra = build(n)
    fr = fm.frame(n)
    names = algebra.negative_names()
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            got = fm.lie_bracket(fr[capitalized(na)], fr[capitalized(nb)])
            expect = fm.VectorField({})
            for tgt, c in algebra.bracket_names(na, nb).items():
                expect = expect + fr[capitalized(tgt)].scale(c)
            assert not (got - expect).components, (na, nb)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_alternative_chart_brackets(n):
    algebra = build(n)
    fr = fm.pdq_frame(n)
    names = algebra.negative_names()
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            got = fm.lie_bracket(fr[capitalized(na)], fr[capitalized(nb)])
            expect = fm.VectorField({})
            for tgt, c in algebra.bracket_names(na, nb).items():
                expect = expect + fr[capitalized(tgt)].scale(c)
            assert not (got - expect).components, (na, nb)


def test_specific_brackets():
    fr = fm.frame(4)
    om = standard_omega(4)
    for i in range(1, 5):
        for j in range(1, 5):
            got = fm.lie_bracket(fr[f"A{i}"], fr[f"A{j}"])
            expect = fr["T(0,-2)"].scale(-2 * om[i - 1][j - 1])
            assert not (got - expect).components
        assert not fm.lie_bracket(fr["T(-1,0)"], fr[f"E{i}"]).components


@pytest.mark.parametrize("n", [3, 4, 5])
def test_structure_equation(n):
    res = fm.maurer_cartan_residual(n)
    assert fm.residual_is_zero(res)


def test_structure_equation_negative_control():
    theta = fm.theta_matrix(3)
    # drop the omega_pq u^p du^q correction from the (0,-2) slot
    theta[2 * 3 - 2][1] = fm.OneForm({"u0": fm.PONE})
    res = fm.structure_equation_residual(theta)
    assert not fm.residual_is_zero(res)


def _model_element_identities(n, omega, g):
    """(g^T Omega g == Omega, dg/dc == g Theta(d/dc) for every chart
    coordinate c), with Theta = theta_matrix(n, omega)."""
    d = 2 * n
    big = build(n, omega=omega).symplectic_form
    form = [(k, l, v) for k, row in enumerate(big) for l, v in enumerate(row) if v]
    symplectic = all(
        sum((g[k][r] * v * g[l][c] for k, l, v in form), Polynomial()) == big[r][c]
        for r in range(d) for c in range(d))
    theta = fm.theta_matrix(n, omega)
    integrates = all(
        g[r][c].diff(coord) == sum((g[r][k] * theta[k][c].components.get(coord, fm.PZERO)
                                    for k in range(d)), Polynomial())
        for coord in fm.projective_chart(n).names for r in range(d) for c in range(d))
    return symplectic, integrates


@pytest.mark.parametrize("n, which", [(3, None), (4, None), (5, None), (3, 0), (4, 1)])
def test_model_element_is_symplectic_and_integrates_theta(n, which):
    omega = None if which is None else RATIONAL_OMEGAS[which]
    assert _model_element_identities(n, omega, fm.model_element(n, omega)) == (True, True)


@pytest.mark.parametrize("n, which", [(3, None), (4, 1)])
def test_model_element_negative_control(n, which):
    # flip the sign of the u^j (omega x)_j term of g[d-1][1]
    omega = None if which is None else RATIONAL_OMEGAS[which]
    g = fm.model_element(n, omega)
    t, x0, u0 = (Polynomial.variable(v) for v in ("t", "x0", "u0"))
    base = x0 - t * u0
    g[2 * n - 1][1] = base - (g[2 * n - 1][1] - base)
    assert _model_element_identities(n, omega, g) == (False, False)


def test_frame_requires_n3():
    with pytest.raises(UnsupportedDimensionError):
        fm.frame(2)


# --- isotropic Grassmannian charts ---------------------------------------------

@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2), (4, 3)])
def test_qk_theta_annihilates_fields(n, k):
    qk = fm.qk_forms(n, k)
    for th in qk.theta.values():
        for X in qk.fields.values():
            assert th.pair(X).is_zero()


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_qk_bracket_relations(n, k):
    qk = fm.qk_forms(n, k)
    om = standard_omega(2 * (n - k))
    for (i, a) in qk.fields:
        for (j, b) in qk.fields:
            got = fm.lie_bracket(qk.fields[(i, a)], qk.fields[(j, b)])
            expect = qk.vertical[(min(a, b), max(a, b))].scale(-2 * om[i - 1][j - 1])
            assert not (got - expect).components
    # brackets with vertical fields vanish
    for X in qk.fields.values():
        for V in qk.vertical.values():
            assert not fm.lie_bracket(X, V).components


def test_qk_theta_symmetry_and_omega():
    qk = fm.qk_forms(4, 2)
    # theta entries are stored for alpha <= beta; d theta = omega_ij dx^i_a ^ dx^j_b
    d12 = qk.theta[(1, 2)].d()
    om = standard_omega(4)
    for (i, a) in qk.fields:
        for (j, b) in qk.fields:
            val = d12.pair(qk.fields[(i, a)], qk.fields[(j, b)])
            want = 0
            if (a, b) == (1, 2):
                want = om[i - 1][j - 1]
            elif (a, b) == (2, 1):
                want = om[i - 1][j - 1]  # = -om[j-1][i-1]
            assert val == Polynomial.constant(want)


def test_isotropy_constraint_consistency():
    # y_ab = z_ab - (1/2) omega_pq x_a^p x_b^q is symmetric exactly when the
    # plane matrix is isotropic: z_12 - z_21 = omega_pq x_1^p x_2^q (the sign
    # is pinned by requiring the contact forms to annihilate plane motions)
    w = 4
    om = standard_omega(w)
    xs = {(a, i): Polynomial.variable(f"x{a}_{i}") for a in (1, 2) for i in range(1, w + 1)}
    z12 = Polynomial.variable("z12")
    corr = Polynomial()
    for p in range(1, w + 1):
        for q in range(1, w + 1):
            corr = corr + Fraction(1, 2) * om[p - 1][q - 1] * xs[(1, p)] * xs[(2, q)]
    y12 = z12 - corr
    z21 = z12 - 2 * corr
    corr21 = Polynomial()
    for p in range(1, w + 1):
        for q in range(1, w + 1):
            corr21 = corr21 + Fraction(1, 2) * om[p - 1][q - 1] * xs[(2, p)] * xs[(1, q)]
    y21 = z21 - corr21
    assert (corr21 + corr).is_zero()  # the correction is antisymmetric
    assert (y12 - y21).is_zero()


def test_psi_power_nonvanishing():
    assert fm.qk_psi_power_nonzero(3, 2)
    assert fm.qk_psi_power_nonzero(4, 2)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_efj_identities(n):
    res = fm.efj_identity_check(n)
    assert set(res.values()) == {0}
    assert "EF - J" in res and "g(J.,J.) - g" in res


# the residual names in order, as the dense-matrix check returned them, each
# residual an exact Fraction(0)
EFJ_NAMES = ["E^2 - I", "F^2 - I", "J^2 + I", "EF - J", "g(E.,E.) + g", "g(F.,F.) + g",
             "g(J.,J.) - g", "Omega12 - g(F.,.)", "Omega11 + g(E.,.) + g(J.,.)",
             "Omega22 - g(E.,.) + g(J.,.)"]


@pytest.mark.parametrize("n", range(3, 9))
def test_efj_identity_check_matches_the_recorded_dict(n):
    res = fm.efj_identity_check(n)
    assert list(res.items()) == [(name, Fraction(0)) for name in EFJ_NAMES]
    assert {type(v) for v in res.values()} == {Fraction}


@pytest.mark.parametrize("key, row", [
    ((1, 1), "Omega11 + g(E.,.) + g(J.,.)"),
    ((1, 2), "Omega12 - g(F.,.)"),
    ((2, 2), "Omega22 - g(E.,.) + g(J.,.)"),
])
def test_efj_check_detects_a_wrong_omega_form(monkeypatch, key, row):
    qk_forms = fm.qk_forms

    def doubled(n, k, omega=None):
        qk = qk_forms(n, k, omega)
        qk.omega_forms[key] = qk.omega_forms[key].scale(2)
        return qk

    monkeypatch.setattr(fm, "qk_forms", doubled)
    res = fm.efj_identity_check(4)
    assert res[row] != 0
    assert all(v == 0 for name, v in res.items() if name != row)


def test_dims_formulas():
    assert fm.dims(3, 2).dim_qk == 7             # 4n - 5 at n = 3
    assert fm.dims(6, 1).dim_qk == 11            # 2n - 1
    for n in (3, 4, 5):
        rep = fm.dims(n, 2)
        assert rep.dim_qk == 2 * 2 * (n - 2) + 3
        assert rep.corank == 3
    assert fm.orbit_dim(4, 2, 0) == 12           # symplectic 2-plane stratum
    assert fm.orbit_dim(4, 2, 2) == 11           # closed stratum, dim Q_2
    with pytest.raises(UnsupportedDimensionError):
        fm.orbit_dim(4, 2, 1)


def test_graded_component_sum_matches_dims():
    for n in range(3, 7):
        g = build(n)
        total = sum(len(g.component(b)) for b in g.bidegrees())
        assert total == n * (2 * n + 1)


# sha256 of the sorted "[a, b] coord: component" lines of every bracket of
# two frame(4) fields, as computed with a derivative by every coordinate
FRAME4_BRACKETS_SHA256 = "1e7b2ea38a1f1f32e70a27d4dbb902b6a09ce907a213f56751f95dd237488251"


def test_frame_brackets_differentiate_only_by_present_coordinates(monkeypatch):
    taken = []
    diff = Polynomial.diff

    def counted(p, var):
        taken.append((var, frozenset(p.variables())))
        return diff(p, var)

    monkeypatch.setattr(Polynomial, "diff", counted)
    frame = fm.frame(4)
    lines = sorted(f"[{a}, {b}] {coord}: {comp}"
                   for (a, x), (b, y) in itertools.product(frame.items(), repeat=2)
                   for coord, comp in fm.lie_bracket(x, y).components.items())
    assert taken and all(var in present for var, present in taken)
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == FRAME4_BRACKETS_SHA256
