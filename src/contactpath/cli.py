"""Command line front end.

Exit codes: 0 on success, 1 when a verification suite fails, 2 on usage or
I/O errors, 3 on an internal error (a bug in the package; its traceback goes
to stderr).  Results go to stdout, diagnostics to stderr; all randomness is
funneled through --seed, so output is byte-identical across runs for fixed
flags.
"""

import argparse
import functools
import json
import math
import sys
import traceback
from dataclasses import asdict
from fractions import Fraction

from . import engine, flat_model, graded_sp, integrate as integrate_mod, kostant
from . import expr as ex
from .errors import (
    ContactPathError,
    ExprError,
    InvalidParabolicError,
    InvalidRankError,
    SingularArcError,
    SpecFormatError,
    UnsupportedDimensionError,
)
from .squat import SplitQuaternion, J, E, F, conj, norm2

USAGE_ERROR = 2
VERIFY_FAIL = 1
INTERNAL_ERROR = 3


def _fail(msg):
    print(msg, file=sys.stderr)
    return USAGE_ERROR


# --- homology ----------------------------------------------------------------

_CROSS_TO_PARABOLIC = {nodes: name for name, nodes in kostant.PARABOLIC_NODES.items()}


def _housing_parts(housing):
    """(I, J, K) of a housing with each part a tuple of degrees: one per
    crossed node (kostant gives a single node's as plain degrees)."""
    return tuple(b if isinstance(b, tuple) else (b,) for b in housing)


def _housing_str(housing):
    i, j, k = _housing_parts(housing)

    def comp(b):
        return f"g({','.join(map(str, b))})"

    target = tuple(a + b + c for a, b, c in zip(i, j, k))
    if i == j:
        wedge = f"L2({comp(i)}*)"
    else:
        wedge = f"({comp(i)}* ^ {comp(j)}*)"
    return f"{wedge} (x) {comp(target)}"


def cmd_homology(args):
    try:
        cross = tuple(sorted(int(x) for x in args.cross.split(",")))
    except ValueError:
        return _fail(f"--cross expects comma-separated node numbers, got {args.cross!r}")
    parabolic = _CROSS_TO_PARABOLIC.get(cross)
    if parabolic is None:
        return _fail(f"unsupported crossed set {list(cross)}; use 1 | 2 | 1,2")
    comps = kostant.h2(args.n, parabolic)
    if args.format == "json":
        out = []
        for c in comps:
            i, j, k = _housing_parts(c.housing)
            out.append(
                {
                    "labels": list(c.labels.coeffs),
                    "homogeneity": list(c.homogeneity),
                    "housing": {"I": list(i), "J": list(j), "K": list(k)},
                }
            )
        print(json.dumps(out, indent=2))
        return 0
    width = max(24, 3 * args.n + 8)
    print(f"Degree-two homology components: n={args.n}, parabolic {parabolic}")
    print(f"{'Labels':<{width}}{'Homogeneity':<16}Contained in")
    for c in comps:
        labels = "(" + ",".join(str(x) for x in c.labels.coeffs) + ")"
        hom = ",".join(str(h) for h in c.homogeneity)
        if len(c.homogeneity) > 1:
            hom = "(" + hom + ")"
        print(f"{labels:<{width}}{hom:<16}{_housing_str(c.housing)}")
    return 0


# --- brackets ------------------------------------------------------------------

def cmd_brackets(args):
    algebra = graded_sp.build(args.n, "P12")
    results = algebra.verify_structure_constants()
    passed = sum(1 for _, ok in results if ok)
    if args.format == "json":
        print(json.dumps([{"relation": name, "ok": ok} for name, ok in results], indent=2))
    else:
        for name, ok in results:
            print(f"  {'ok  ' if ok else 'FAIL'} {name}")
        print(f"{passed}/{len(results)} relations verified")
    return 0 if passed == len(results) else VERIFY_FAIL


# --- flat model ------------------------------------------------------------------

def cmd_flat_check(args):
    n = args.n
    checks = []

    fr = flat_model.frame(n)
    cf = flat_model.coframe(n)
    pairs = flat_model.frame_coframe_pairs(n)
    ok = all(cf[ck].pair(fr[fk2]) == int(fk == fk2) for fk, ck in pairs for fk2, _ in pairs)
    checks.append(("coframe dual to frame", ok))

    algebra = graded_sp.build(n, "P12")
    names = algebra.negative_names()
    cap = {nm: flat_model.frame_keys(nm)[0] for nm in names}
    constants = {
        (na, nb): algebra.bracket_names(na, nb) for i, na in enumerate(names) for nb in names[i + 1:]
    }
    for frame_fields, label in ((fr, "frame brackets match structure constants"),
                                (flat_model.pdq_frame(n), "alternative (p,q) frame brackets")):
        ok = True
        for (na, nb), want in constants.items():
            got = flat_model.lie_bracket(frame_fields[cap[na]], frame_fields[cap[nb]])
            expect = flat_model.VectorField({})
            for tgt, c in want.items():
                expect = expect + frame_fields[cap[tgt]].scale(c)
            if (got - expect).components:
                ok = False
        checks.append((label, ok))

    theta = flat_model.theta_matrix(n)
    res = flat_model.structure_equation_residual(theta)
    checks.append(("structure equation dTheta + Theta^Theta = 0", flat_model.residual_is_zero(res)))
    theta[2 * n - 2][1] = flat_model.OneForm({"u0": flat_model.PONE})
    res = flat_model.structure_equation_residual(theta)
    checks.append(("negative control (broken coframe) nonzero", not flat_model.residual_is_zero(res)))

    qk = flat_model.qk_forms(n, 2)
    ok = all(th.pair(X).is_zero() for th in qk.theta.values() for X in qk.fields.values())
    checks.append(("Q2 contact forms annihilate the spanning fields", ok))
    efj = flat_model.efj_identity_check(n)
    checks.append(("Q2 endomorphism identities", all(v == 0 for v in efj.values())))
    checks.append(
        ("Psi power nonvanishing on the multicontact bundle", flat_model.qk_psi_power_nonzero(n, 2))
    )

    all_ok = all(ok for _, ok in checks)
    for name, ok in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}")
    print(("all checks passed" if all_ok else "FAILURES detected") + f" (n={n})")
    return 0 if all_ok else VERIFY_FAIL


# --- dims -------------------------------------------------------------------------

def cmd_dims(args):
    rep = flat_model.dims(args.n, args.k)
    orbits = {str(s): flat_model.orbit_dim(args.n, args.k, s) for s in range(args.k, -1, -2)}
    out = {**asdict(rep), "orbit_dims": orbits}
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        print(f"dim Q_k      = {rep.dim_qk}   (n={rep.n}, k={rep.k})")
        print(f"rank of C    = {rep.rank_c}")
        print(f"corank of C  = {rep.corank}")
        for s, d in orbits.items():
            print(f"orbit s={s}    dim = {d}")
    return 0


# --- torsion ------------------------------------------------------------------------

def _load(path):
    try:
        return engine.load_spec(path)
    except (OSError, SpecFormatError, ExprError) as e:
        raise SystemExit(_fail(f"cannot load spec: {e}"))


def cmd_torsion(args):
    spec = _load(args.spec)
    report = engine.contact_torsion(spec, seed=args.seed)
    if args.json:
        out = {
            "tau": [str(t) for t in report.tau],
            "is_zero": report.is_zero,
            "witness": None
            if report.witness is None
            else {k: str(v) for k, v in report.witness.items()},
        }
        print(json.dumps(out, indent=2))
    else:
        for i, t in enumerate(report.tau, start=1):
            print(f"tau_{i} = {t}")
        print(f"contact torsion: {report.is_zero}")
        if report.witness is not None:
            pt = ", ".join(f"{k}={v}" for k, v in report.witness.items())
            print(f"witness point: {pt}")
    return 0


def cmd_torsion_free(args):
    spec = _load(args.spec)
    fixed = engine.torsion_free_representative(spec, seed=args.seed)
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(fixed.to_dict(), fh, indent=2)
        fh.write("\n")
    check = engine.contact_torsion(fixed, seed=args.seed)
    print(f"wrote {args.output}; torsion of output: {check.is_zero}")
    return 0 if check.is_zero == engine.TorsionReport.PROVED_ZERO else VERIFY_FAIL


def _parse_point(spec, text):
    chart = spec.chart()
    try:
        vals = [Fraction(v) for v in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise SystemExit(_fail(f"could not parse point {text!r} as comma-separated rationals"))
    if len(vals) != chart.dim:
        raise SystemExit(_fail(f"point must have {chart.dim} coordinates ({','.join(chart.names)})"))
    return chart.point(vals)


def cmd_ranks(args):
    if args.count < 1:
        return _fail("--count must be at least 1")
    spec = _load(args.spec)
    if args.point:
        points = [_parse_point(spec, args.point)]
    else:
        points = engine.seeded_points(spec, args.count, seed=args.seed)
    expected = engine.RankTable.expected(spec.n)
    names = ("U", "V", "E", "d(U,W)", "E-perp", "H", "dE", "d2E")
    ok = True
    for pt in points:
        table = engine.filtration_ranks(spec, pt)
        got = table.as_tuple()
        status = "ok" if got == expected else "MISMATCH"
        ok = ok and got == expected
        row = " ".join(f"{nm}={v}" for nm, v in zip(names, got))
        print(f"{status}: {row}")
    print(f"expected: {expected}")
    return 0 if ok else VERIFY_FAIL


def cmd_integrate(args):
    spec = _load(args.spec)
    init = _parse_point(spec, args.init)
    if not (math.isfinite(args.t0) and math.isfinite(args.t1)):
        return _fail("--t0 and --t1 must be finite")
    if args.t1 <= args.t0:
        return _fail("--t1 must exceed --t0")
    if not args.t0 < args.t1 - integrate_mod.END_TOL:
        return _fail(f"--t1 must exceed --t0 by more than {integrate_mod.END_TOL:g}")
    if not (math.isfinite(args.step) and args.step >= 0):
        return _fail("--step must be finite and non-negative")
    try:
        traj = integrate_mod.integrate(
            spec, init, args.t0, args.t1, args.step, adaptive=args.adaptive
        )
    except SingularArcError as e:
        print(f"singular arc: C vanished near t = {e.t}", file=sys.stderr)
        return VERIFY_FAIL
    traj.write_csv(args.output)
    import numpy as np

    print(
        f"wrote {args.output}: {len(traj.t)} samples, "
        f"max|contact| = {np.max(np.abs(traj.contact_residual)):.3e}, "
        f"max|secondary| = {np.max(np.abs(traj.secondary_residual)):.3e}"
    )
    return 0


# --- quaternion calculator --------------------------------------------------------

# `Expr.evaluate` over split quaternions; squat's functions coerce a scalar
# argument, and norm2 gives its value back as a quaternion
_QUAT_ENV = {"j": J, "e": E, "f": F, "conj": conj, "norm2": lambda p: SplitQuaternion(norm2(p))}


def cmd_quat(args):
    try:
        node = ex.parse(args.expression, {"j", "e", "f"}, functions={"conj", "norm2"})
        value = SplitQuaternion.coerce(node.evaluate(_QUAT_ENV))
        if any(isinstance(c, float) and not math.isfinite(c) for c in value.components()):
            raise OverflowError
    except OverflowError:
        return _fail("quat: the value overflows a float")
    except (ExprError, ArithmeticError) as e:
        return _fail(f"quat: {e}")
    if args.json:
        m = value.matrix_rep()
        print(
            json.dumps(
                {
                    "pretty": str(value),
                    "components": [str(c) for c in value.components()],
                    "matrix": [[str(x) for x in row] for row in m],
                },
                indent=2,
            )
        )
        return 0
    print(str(value))
    print("components (1, j, e, f):", tuple(str(c) for c in value.components()))
    m = value.matrix_rep()
    print(f"matrix [[{m[0][0]}, {m[0][1]}], [{m[1][0]}, {m[1][1]}]]")
    return 0


# --- argument plumbing ---------------------------------------------------------------

@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="contactpath",
        description="Exact Lie-theoretic and symbolic analysis of contact path geometries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="degree-two homology components with gradings")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cross", required=True, help="crossed Dynkin nodes, e.g. 1,2")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("brackets", help="verify the graded bracket relations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_brackets)

    p = sub.add_parser("flat-check", help="run all flat-model identity suites")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_flat_check)

    p = sub.add_parser("dims", help="dimension formulas for the k-plane spaces")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("torsion", help="contact torsion of an ODE spec")
    p.add_argument("spec")
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=engine.DEFAULT_SEED)
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("torsion-free", help="write the torsion-free representative")
    p.add_argument("spec")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=engine.DEFAULT_SEED)
    p.set_defaults(func=cmd_torsion_free)

    p = sub.add_parser("ranks", help="filtration ranks at a point")
    p.add_argument("spec")
    p.add_argument("--point", help="comma-separated chart coordinates")
    p.add_argument("--count", type=int, default=5, help="number of seeded points")
    p.add_argument("--seed", type=int, default=engine.DEFAULT_SEED)
    p.set_defaults(func=cmd_ranks)

    p = sub.add_parser("integrate", help="integrate contact paths to CSV")
    p.add_argument("spec")
    p.add_argument("--init", required=True, help="comma-separated chart coordinates")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("quat", help="split quaternion calculator")
    p.add_argument("expression")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_quat)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors already
        return int(e.code or 0)
    try:
        return args.func(args)
    except SystemExit as e:
        return int(e.code or 0)
    except (
        SpecFormatError,
        ExprError,
        OSError,
        InvalidParabolicError,
        InvalidRankError,
        UnsupportedDimensionError,
    ) as e:
        return _fail(str(e))
    except ContactPathError as e:  # verification-level failures from the library
        print(f"error: {e}", file=sys.stderr)
        return VERIFY_FAIL
    except Exception:  # anything else is a bug in the package
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
