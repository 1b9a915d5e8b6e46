"""Answers the benchmark checks against, derived without contactpath.

The closed-form tables restate the paper's results for every n the
workloads use.  Survey references come from sympy, on the defining formulas
of the contact torsion, so a defect in the package's rings or brackets
cannot hide in its own answer.
"""

from fractions import Fraction


def filtration_ranks(n):
    """Ranks of U, V, E, d(U,W), E-perp, H, dE, d2E on a contact path geometry."""
    return (2 * n - 4, 2 * n - 3, 2 * n - 2, 4 * n - 7, 4 * n - 6, 4 * n - 5, 4 * n - 5, 4 * n - 4)


BRACKET_RELATIONS = 9

# `flat-check` lines every n must print as ok; the Psi-power line may be
# added or dropped for n >= 5 without changing the verdict.
FLAT_CHECK_LINES = (
    "coframe dual to frame",
    "frame brackets match structure constants",
    "alternative (p,q) frame brackets",
    "structure equation dTheta + Theta^Theta = 0",
    "negative control (broken coframe) nonzero",
    "Q2 contact forms annihilate the spanning fields",
    "Q2 endomorphism identities",
)
PSI_LINE = "Psi power nonvanishing on the multicontact bundle"


def _pad(labels, n):
    return list(labels) + [0] * (n - len(labels))


def homology_rows(n, cross):
    """Degree-two homology rows as `homology --format json` prints them.

    Each row is (labels, homogeneity, housing I, J, K) of one component.
    """
    if cross == "1":
        rows = [(_pad((-1, 2, 1), n), [2], ([-1], [-1], [2]))]
    elif cross == "2" and n == 3:
        rows = [
            ([5, -3, 1], [1], ([-1], [-2], [1])),
            ([0, -3, 4], [2], ([-1], [-1], [2])),
        ]
    elif cross == "2":
        rows = [
            (_pad((4, -3, 0, 1), n), [0], ([-1], [-1], [0])),
            (_pad((0, -3, 4), n), [2], ([-1], [-1], [2])),
        ]
    elif n == 3:
        rows = [
            ([-5, 2, 1], [-2, 1], ([0, -1], [0, -2], [-2, 1])),
            ([5, -4, 1], [2, -1], ([-1, 0], [-1, -1], [2, -1])),
            ([0, -3, 4], [1, 2], ([0, -1], [-1, -1], [1, 2])),
        ]
    else:
        rows = [
            (_pad((-4, 1, 0, 1), n), [-2, 0], ([0, -1], [0, -1], [-2, 0])),
            (_pad((5, -4, 1), n), [2, -1], ([-1, 0], [-1, -1], [2, -1])),
            (_pad((0, -3, 4), n), [1, 2], ([0, -1], [-1, -1], [1, 2])),
        ]
    return [
        {"labels": lab, "homogeneity": hom, "housing": {"I": i, "J": j, "K": k}}
        for lab, hom, (i, j, k) in rows
    ]


def chart_names(n):
    m = 2 * n - 4
    return ["t", "x0"] + [f"x{i}" for i in range(1, m + 1)] + ["z", "u0"] + [
        f"u{i}" for i in range(1, m + 1)
    ]


def standard_omega(m):
    """[[0, I], [-I, 0]] on the m middle indices."""
    k = m // 2
    om = [[0] * m for _ in range(m)]
    for i in range(k):
        om[i][k + i] = 1
        om[k + i][i] = -1
    return om


def torsion_reference(spec, point):
    """Contact torsion of a spec dict and of its torsion-free representative.

    tau_i = 3 f_p omega_{pi} + A_i(f0) on the C-normalized data, with
    A_i = d/du^i + omega_{ip} u^p d/du^0; the representative replaces f^p by
    f^p - (C/3) tau^p, tau^p = -(omega^-1)^{pq} tau_q.  Returns whether tau
    vanishes identically, tau at `point`, and the representative's f at
    `point` (floats).
    """
    import sympy

    from sympy.parsing.sympy_parser import (
        convert_xor,
        parse_expr,
        standard_transformations,
    )

    n = spec["n"]
    m = 2 * n - 4
    syms = {nm: sympy.Symbol(nm) for nm in chart_names(n)}
    local = dict(syms, sin=sympy.sin, cos=sympy.cos, exp=sympy.exp, log=sympy.log)

    def parse(src):
        return parse_expr(str(src), local_dict=local,
                          transformations=standard_transformations + (convert_xor,))

    c = parse(spec.get("C", "1"))
    f0 = parse(spec["f0"])
    f = [parse(s) for s in spec["f"]]
    om = sympy.Matrix(standard_omega(m))
    om_inv = om.inv()
    u = [syms[f"u{p}"] for p in range(1, m + 1)]
    f0h = f0 / c
    fh = [fp / c for fp in f]
    tau = []
    for i in range(m):
        lowered = sum(fh[p] * om[p, i] for p in range(m))
        a_f0 = sympy.diff(f0h, u[i]) + sum(om[i, p] * u[p] for p in range(m)) * sympy.diff(f0h, syms["u0"])
        tau.append(3 * lowered + a_f0)
    tau_up = [sum(-om_inv[p, q] * tau[q] for q in range(m)) for p in range(m)]
    rep_f = [f[p] - c * tau_up[p] / 3 for p in range(m)]

    subs = {syms[k]: sympy.Rational(Fraction(v).numerator, Fraction(v).denominator)
            for k, v in point.items()}
    tau_at = [complex(sympy.N(t.subs(subs), 30)) for t in tau]
    rep_at = [complex(sympy.N(r.subs(subs), 30)) for r in rep_f]
    if any(abs(v.imag) > 0 for v in tau_at + rep_at):
        raise ValueError("check point left the real domain of the spec")
    nonzero = any(abs(v) > 0 for v in tau_at) or any(sympy.simplify(t) != 0 for t in tau)
    return {
        "tau_nonzero": bool(nonzero),
        "tau_at": [v.real for v in tau_at],
        "rep_f_at": [v.real for v in rep_at],
    }
