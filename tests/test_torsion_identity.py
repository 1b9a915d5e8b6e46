"""The two bracket-route identities of contact torsion, proved over generic 2-jets.

For the C-normalized generating field X = T(-1,0) + f0 T(0,-2) + f^p A_p,
the theta(-1,-2) pairing of [[A_i, X], X] equals tau_i = 3 f_i + A_i(f0), and
the theta(-2,-2) pairing vanishes.  Both sides are polynomials in the 2-jet
of (f0, f) at a point, with coefficients polynomial in the chart coordinates.
Here f0 and every f^p are the general polynomial of degree <= 2 in the chart
coordinates, with one ring variable per coefficient.  Its Taylor polynomial of
degree 2 realises every 2-jet at every point, so a zero residual proves both
identities for every smooth f0 and f, hence for every spec with that
(n, omega): tree specs and non-constant C too, since X has the same shape with
f / C.  The engine skips its runtime cross-check exactly on these (n, omega).
"""

from dataclasses import replace
from itertools import combinations_with_replacement

import pytest

from contactpath import engine
from contactpath.poly import Polynomial


def generic_jet(names, label):
    """sum over monomials mu of degree <= 2 in `names` of c_mu * mu, with one
    fresh variable c_mu per monomial, named after `label`."""
    monomials = [()] + [(v,) for v in names] + list(combinations_with_replacement(names, 2))
    total = Polynomial()
    for k, mono in enumerate(monomials):
        term = Polynomial.variable(f"{label}_{k}")
        for v in mono:
            term = term * Polynomial.variable(v)
        total = total + term
    return total


def residuals(n, omega, closed_form=engine.closed_form_torsion):
    """(closed form minus the theta(-1,-2) pairing, the theta(-2,-2) pairing)
    of the engine's own two routes, on a geometry whose normalized data are
    generic 2-jets."""
    geo = engine.Geometry(replace(engine.flat_spec(n), omega=omega))
    geo.f0_hat = generic_jet(geo.chart.names, "c0")
    geo.f_hat = [generic_jet(geo.chart.names, f"c{p}") for p in range(1, geo.m + 1)]
    bracket_tau, escape = engine.bracket_torsion(geo)
    return [a - b for a, b in zip(closed_form(geo), bracket_tau)], escape


@pytest.mark.parametrize("n, omega", [pytest.param(n, omega, id=f"n{n}")
                                      for n, omega in sorted(engine.TORSION_IDENTITY_PROVED)])
def test_torsion_identities_hold_over_generic_two_jets(n, omega):
    differences, escape = residuals(n, omega)
    assert len(differences) == len(escape) == 2 * n - 4
    assert all(d.is_zero() for d in differences)
    assert all(e.is_zero() for e in escape)


def test_a_wrong_closed_form_is_caught():
    # 2 f_i + A_i(f0) in place of 3 f_i + A_i(f0)
    def wrong(geo):
        return [t - fl for t, fl in zip(engine.closed_form_torsion(geo), geo.lower(geo.f_hat))]

    omega = next(om for n, om in engine.TORSION_IDENTITY_PROVED if n == 3)
    differences, escape = residuals(3, omega, closed_form=wrong)
    assert all(e.is_zero() for e in escape)
    assert not any(d.is_zero() for d in differences)
