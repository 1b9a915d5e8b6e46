"""Degree-two Lie algebra homology of the nilradical, with gradings.

The pipeline per parabolic (crossed nodes S of C_n):

  1. enumerate the length-2 minimal coset representatives w;
  2. apply the rho-shifted action to the adjoint highest weight 2*lambda_1;
  3. convert through the diagram duality mu -> -w0(mu), where w0 is
     the longest Weyl element of the Levi factor (on uncrossed nodes);
  4. homogeneity over crossed node i is the inner product of the label
     vector with column i of the inverse Cartan matrix;
  5. the housing subspace (g_I* ^ g_J*) (x) g_{I+J+K} is the unique candidate
     whose weight content contains the label weight.

The label bookkeeping (homology vs cohomology, dualization) is fixed once
and validated end-to-end against the n = 3 and n = 4 component tables.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import graded_sp
from .errors import HousingAmbiguityError, InvalidParabolicError, UnsupportedDimensionError
from .lie_core import Weight, build_root_system

PARABOLIC_NODES = {"P1": (1,), "P2": (2,), "P12": (1, 2)}


@dataclass(frozen=True)
class H2Component:
    labels: Weight           # Dynkin diagram coefficients, dual convention
    homogeneity: tuple       # one entry per crossed node (P1/P2: length 1)
    housing: tuple           # (I, J, K); subspace is (g_I* ^ g_J*) (x) g_{I+J+K}

    @property
    def z_homogeneity(self):
        return sum(self.homogeneity)


def adjoint_highest_weight(n):
    """Highest weight of the adjoint representation: twice the first fundamental."""
    return Weight((2,) + (0,) * (n - 1))


def dual_diagram_labels(rs, crossed, labels):
    """Printed-diagram duality: mu -> -w0(mu) for the Levi longest element.

    The uncrossed nodes split into runs; a run containing node n is a
    C-type factor (w0 = -1 on its coordinates), any other run is an A-type
    factor (w0 reverses its coordinate block).
    """
    n = rs.n
    crossed = set(crossed)
    vec = list(rs.to_epsilon(labels))
    runs = []
    run = []
    for i in range(1, n + 1):
        if i in crossed:
            if run:
                runs.append(run)
                run = []
        else:
            run.append(i)
    if run:
        runs.append(run)
    # apply w0 block by block
    for r in runs:
        if r[-1] == n:
            for i in range(r[0], n + 1):
                vec[i - 1] = -vec[i - 1]
        else:
            lo, hi = r[0] - 1, r[-1]  # coordinate block lo..hi (0-based, inclusive)
            vec[lo:hi + 1] = vec[lo:hi + 1][::-1]
    vec = [-x for x in vec]
    return rs.from_epsilon(tuple(vec))


def homogeneity(rs, w, node):
    """Scaling-element eigenvalue: <labels, column `node` of inv Cartan>."""
    col = [row[node - 1] for row in rs.inv_cartan]
    val = sum(Fraction(c) * x for c, x in zip(w.coeffs, col))
    return val


def _weights_of_component(algebra, elements):
    """Epsilon-basis weight of each basis element (default omega only).

    Weights are read off as simultaneous ad-eigenvalues of the diagonal
    Cartan elements; a failure to be an eigenvector means a non-weight
    basis (non-block omega) was supplied.
    """
    n = algebra.n
    m = algebra.m
    d = 2 * n
    # Cartan direction k has +1 in its slot and -1 in the dual slot
    slots = [(0, d - 1), (1, d - 2)] + [(2 + i, 2 + m // 2 + i) for i in range(m // 2)]
    diags = []
    for pos, neg in slots:
        diag = [0] * d
        diag[pos] = 1
        diag[neg] = -1
        diags.append(diag)
    weights = []
    for b in elements:
        wt = []
        for diag in diags:
            entries = b.entries
            if not entries:
                wt.append(0)
                continue
            r0, c0, v0 = entries[0]
            lam = diag[r0] - diag[c0]
            for r, c, v in entries:
                if diag[r] - diag[c] != lam:
                    raise HousingAmbiguityError(
                        "basis element is not a weight vector; housing requires the default omega"
                    )
            wt.append(lam)
        weights.append(tuple(wt))
    return weights


def component_weights(algebra):
    """Map each grading component to the weights of its basis elements.

    Components are keyed by bidegree for P12 and by Z-degree otherwise.
    """
    comp_elements = {}
    for b in algebra.basis:
        key = b.bidegree if algebra.parabolic == "P12" else algebra.z_degree(b.bidegree)
        comp_elements.setdefault(key, []).append(b)
    return {k: _weights_of_component(algebra, v) for k, v in comp_elements.items()}


def housing(rs, labels, hom, algebra):
    """Locate the unique (I, J, K) whose subspace contains the label weight."""
    return _housing(rs.to_epsilon(labels), hom, algebra.parabolic, component_weights(algebra))


def _housing(target, hom, parabolic, comp_weights):
    if parabolic == "P12":
        def add(i, j, k):
            return tuple(a + b + c for a, b, c in zip(i, j, k))

        def negative(key):
            return (key[0] < 0 or key[1] < 0) and key[0] <= 0 and key[1] <= 0

        kval = tuple(hom)
    else:
        def add(i, j, k):
            return i + j + k

        def negative(key):
            return key < 0

        kval = hom[0]

    neg_keys = [k for k in comp_weights if negative(k)]
    matches = []
    for I, J in itertools.combinations_with_replacement(sorted(neg_keys, reverse=True), 2):
        M = add(I, J, kval)
        if M not in comp_weights:
            continue
        wi = comp_weights[I]
        if I == J:
            pairs = itertools.combinations(wi, 2)
        else:
            pairs = itertools.product(wi, comp_weights[J])
        # the pair weight is -(x + y); the target is it plus a weight of M
        m_weights = set(comp_weights[M])
        if any(tuple(t + a + b for t, a, b in zip(target, x, y)) in m_weights for x, y in pairs):
            matches.append((I, J, kval))
    if len(matches) != 1:
        raise HousingAmbiguityError(
            f"expected exactly one housing candidate, found {matches}"
        )
    return matches[0]


def h2(n, parabolic):
    """Components of the degree-two homology of the nilradical.

    Returns H2Component entries sorted by ascending Z-homogeneity (ties by
    first grading component).  Refuses n = 2, whose structure differs.
    """
    if parabolic not in PARABOLIC_NODES:
        raise InvalidParabolicError(f"parabolic must be one of {sorted(PARABOLIC_NODES)}")
    if n < 3:
        raise UnsupportedDimensionError("n must be >= 3; the n = 2 case is excluded")
    rs = build_root_system(n)
    crossed = PARABOLIC_NODES[parabolic]
    algebra = graded_sp.build(n, parabolic)
    comp_weights = component_weights(algebra)
    lam = adjoint_highest_weight(n)
    comps = []
    for word in rs.hasse_words(set(crossed), 2):
        if word.length != 2:
            continue
        raw = rs.affine_action(word, lam)
        dualized = dual_diagram_labels(rs, crossed, raw)
        hom = tuple(homogeneity(rs, dualized, node) for node in crossed)
        if any(h.denominator != 1 for h in hom):
            raise HousingAmbiguityError(f"non-integer homogeneity {hom} for labels {dualized}")
        hom = tuple(int(h) for h in hom)
        house = _housing(rs.to_epsilon(dualized), hom, parabolic, comp_weights)
        labels = Weight(tuple(int(c) for c in dualized.coeffs))
        comps.append(H2Component(labels, hom, house))
    comps.sort(key=lambda c: (c.z_homogeneity, c.homogeneity[0]))
    return comps
