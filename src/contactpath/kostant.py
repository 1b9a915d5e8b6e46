"""Degree-two Lie algebra homology of the nilradical, with gradings.

The pipeline per parabolic (crossed nodes S of C_n):

  1. enumerate the length-2 minimal coset representatives w;
  2. apply the rho-shifted action to the adjoint highest weight 2*lambda_1;
  3. convert through the diagram duality mu -> -w0(mu), where w0 is
     the longest Weyl element of the Levi factor (on uncrossed nodes);
  4. homogeneity over crossed node k < n is the label weight's coefficient
     on the simple root alpha_k, eps_1 + ... + eps_k of its epsilon
     coordinates (`grading_degrees`);
  5. the housing subspace (g_I* ^ g_J*) (x) g_{I+J+K} is the unique candidate
     whose weight content contains the label weight.

Every step reads Weyl-group and root data only: the weights of a grading
component are the roots of C_n (and zero) with the right coefficients on
the crossed simple roots, so no matrix realization of sp(n) is built.

The label bookkeeping (homology vs cohomology, dualization) is fixed once
and validated end-to-end against the n = 3 and n = 4 component tables.
"""

import itertools
from dataclasses import dataclass

from .errors import HousingAmbiguityError, InvalidParabolicError, UnsupportedDimensionError
from .graded_sp import PARABOLIC_NODES
from .lie_core import Weight, build_root_system


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


def grading_degrees(eps, crossed):
    """Degrees of the weight with epsilon coordinates `eps` over the crossed
    nodes k < n: its coefficients on the simple roots alpha_k, each
    eps_1 + ... + eps_k (at node n it is half the sum, not always integral)."""
    if max(crossed) >= len(eps):
        raise UnsupportedDimensionError("grading degrees need every crossed node below n")
    return tuple(sum(eps[:k]) for k in crossed)


def homogeneity(rs, w, node):
    """Scaling-element eigenvalue of the weight `w` over crossed node `node`."""
    return grading_degrees(rs.to_epsilon(w), (node,))[0]


def component_weights(rs, parabolic):
    """Map each grading component to the epsilon-basis weights of sp(n).

    The weights are the roots of C_n, each with multiplicity one, and zero.
    A component is keyed by the tuple of a weight's coefficients on the
    crossed simple roots, its `grading_degrees`.
    """
    crossed = PARABOLIC_NODES[parabolic]
    roots = rs.positive_roots()
    out = {}
    for w in [(0,) * rs.n] + roots + [tuple(-x for x in r) for r in roots]:
        out.setdefault(grading_degrees(w, crossed), []).append(w)
    return out


def housing(rs, labels, hom, algebra):
    """Locate the unique (I, J, K) whose subspace contains the label weight."""
    return _housing(rs.to_epsilon(labels), tuple(hom), component_weights(rs, algebra.parabolic))


def _housing(target, hom, comp_weights):
    neg_keys = [k for k in comp_weights if max(k) <= 0 and min(k) < 0]
    matches = []
    for I, J in itertools.combinations_with_replacement(sorted(neg_keys, reverse=True), 2):
        M = tuple(i + j + k for i, j, k in zip(I, J, hom))
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
            # a single crossed node reports plain degrees
            matches.append((I, J, hom) if len(hom) > 1 else (I[0], J[0], hom[0]))
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
    comp_weights = component_weights(rs, parabolic)
    lam = adjoint_highest_weight(n)
    comps = []
    for word in rs.hasse_words(set(crossed), 2):
        if word.length != 2:
            continue
        raw = rs.affine_action(word, lam)
        labels = dual_diagram_labels(rs, crossed, raw)
        eps = rs.to_epsilon(labels)
        hom = grading_degrees(eps, crossed)
        comps.append(H2Component(labels, hom, _housing(eps, hom, comp_weights)))
    comps.sort(key=lambda c: (c.z_homogeneity, c.homogeneity[0]))
    return comps
