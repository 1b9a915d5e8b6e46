"""Seeded inputs of the three workloads, with the answers each op must give.

Everything here runs in the benchmark's own process, before the workload
process starts; the package under test is never imported.  The same seed
gives the same inputs.
"""

import json
import os
from fractions import Fraction
from random import Random

import reference

DESIGN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "design.json")


def load_design():
    with open(DESIGN, encoding="utf-8") as fh:
        return json.load(fh)


# The acceptance population's coefficients, Fraction(k, q) with
# 1 <= |k| <= 4 and q in {1, 2, 3}, less +-1, which the simplifier folds
# away: every draw of a shape then builds trees of one size, and allocates,
# and collects, alike.
COEFFICIENTS = sorted({Fraction(p, q) for p in (1, 2, 3, 4) for q in (1, 2, 3)} - {1})


def _rational(rng):
    c = rng.choice(COEFFICIENTS) * rng.choice((1, -1))
    return str(c) if c.denominator == 1 else f"({c.numerator}/{c.denominator})"


class Draw:
    """Two random streams: `shape` fixes which monomials and functions a
    spec has, `value` draws its coefficients and constants.  The shape stream
    is seeded from design.json, so every seed runs specs of the same form
    (and nearly the same cost) with different numbers."""

    def __init__(self, shape_seed, value_seed):
        self.shape = Random(shape_seed)
        self.value = Random(value_seed)

    def polynomial(self, names, terms, degree):
        """Sparse polynomial source text: 1..terms monomials of degree <= degree."""
        parts = []
        for _ in range(self.shape.randint(1, terms)):
            monomial = [self.shape.choice(names) for _ in range(self.shape.randint(0, degree))]
            parts.append("*".join([_rational(self.value)] + monomial))
        return " + ".join(parts)

    def spec(self, n, terms=3, degree=3):
        names = reference.chart_names(n)
        return {
            "n": n,
            "f0": self.polynomial(names, terms, degree),
            "f": [self.polynomial(names, terms, degree) for _ in range(2 * n - 4)],
        }


# One transcendental spec per function the parser knows, in f0 and in f^1.
FUNCTIONS = ("sin({})", "cos({})", "exp({}/2)", "log(1 + {}^2)")
# The two pole forms, on a variable that is zero (1/v) or negative (log v)
# at one of the engine's fixed sample points, so each reaches the crash.
POLES = (" + 1/{}", " + log({})")


def survey_spec(draw, cls, n, index):
    """The index-th spec dict of a survey class (see design.json)."""
    spec = draw.spec(n)
    names = reference.chart_names(n)
    shape = draw.shape
    if cls == "const_c":
        spec["C"] = draw.value.choice(["2", "3", "-1", "1/2", "-3/2", "5/3"])
    elif cls == "poly_c":
        spec["C"] = f"1 + {shape.choice(names)}^2"
    elif cls == "transcendental":
        fn = FUNCTIONS[index % len(FUNCTIONS)]
        spec["f0"] += " + " + fn.format(shape.choice(names))
        spec["f"][0] += " + " + fn.format(shape.choice(names))
    elif cls == "pole":
        spec["f"][0] += POLES[index % len(POLES)].format("u1")
    elif cls != "poly":
        raise ValueError(f"unknown survey class {cls!r}")
    return spec


def _positive_point(rng, n):
    """A check point inside every class's domain (all coordinates in [1/2, 2])."""
    return {nm: str(Fraction(rng.randint(2, 8), 4)) for nm in reference.chart_names(n)}


def survey_inputs(seed, design):
    """The spec population of one pass, in a seeded order, with sympy answers."""
    draw = Draw(design["shape_seed"], seed)
    rng = draw.value
    ops = []
    for cls in design["classes"]:
        index = 0
        for n, count in cls["count_by_n"].items():
            for _ in range(count):
                spec = survey_spec(draw, cls["name"], int(n), index)
                index += 1
                point = _positive_point(rng, int(n))
                ref = reference.torsion_reference(spec, point)
                op = {"class": cls["name"], "spec": spec, "point": point, **ref}
                if "known_failure" in cls:
                    op["known_failure"] = cls["known_failure"]
                ops.append(op)
    rng.shuffle(ops)
    for i, op in enumerate(ops):
        op["key"] = f"spec{i:03d}.{op['class']}.n{op['spec']['n']}"
    return ops


def flat_model_inputs(seed, design):
    """Every CLI call of one pass, in a seeded order."""
    ops = []
    for n in design["n"]:
        ops.append({"argv": ["flat-check", "--n", str(n)], "check": "flat-check", "n": n})
        ops.append({"argv": ["brackets", "--n", str(n)], "check": "brackets", "n": n})
        for cross in ("1", "2", "1,2"):
            ops.append({
                "argv": ["homology", "--n", str(n), "--cross", cross, "--format", "json"],
                "check": "homology", "n": n,
                "rows": reference.homology_rows(n, cross),
            })
    Random(seed).shuffle(ops)
    for op in ops:
        op["key"] = " ".join(op["argv"])
    return ops


def _sample_point(rng, n):
    return {nm: str(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))))
            for nm in reference.chart_names(n)}


def system_inputs(seed, design):
    """A few specs, their check points and path initial conditions."""
    draw = Draw(design["shape_seed"], seed)
    rng = draw.value
    specs = []
    for entry in design["specs"]:
        n = entry["n"]
        spec = draw.spec(n, terms=3, degree=entry["degree"])
        if entry.get("transcendental"):
            names = reference.chart_names(n)
            spec["f0"] += f" + sin({draw.shape.choice(names)})"
            spec["f"][0] += f" + exp({draw.shape.choice(names)}/4)"
        specs.append({
            "key": f"n{n}" + (".transcendental" if entry.get("transcendental") else ""),
            "spec": spec,
            "ranks": list(reference.filtration_ranks(n)),
            "points": [_sample_point(rng, n) for _ in range(entry["points"])],
            "inits": [[round(rng.uniform(-0.3, 0.3), 6) for _ in reference.chart_names(n)]
                      for _ in range(design["inits_per_spec"])],
            "polynomial": not entry.get("transcendental"),
        })
    return {"specs": specs, "path": design["path"], "rs": design["rs"]}


def make_inputs(workload, seed):
    design = load_design()["workloads"][workload]["inputs"]
    if workload == "flat-model":
        return flat_model_inputs(seed, design)
    if workload == "spec-survey":
        return survey_inputs(seed, design)
    return system_inputs(seed, design)
