"""Workload process: one closed-loop client calling the package in ./src.

Reads one pass of inputs as JSON on stdin, runs its ops one after another,
checks every answer against the reference that came with the inputs, and
prints one JSON line of samples.  An op returns its time and a check; the
check runs after the op, outside its time and, in a traced pass, with the
tracer paused.  An op that raises or exits non-zero is wrong, unless the
inputs mark the error as a known defect of the package: then it is failed.
"""

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from fractions import Fraction

import calibration
import reference

OK, FAILED, WRONG = "ok", "failed", "wrong"


def _done(status, detail=None):
    return lambda: (status, detail)


def _close(got, want):
    return abs(got - want) <= 1e-8 * max(1.0, abs(want))


def _point(raw):
    return {k: Fraction(v) for k, v in raw.items()}


class FlatModel:
    """`cli.main` calls for the exact half; no spec parsing, no integrator."""

    def __init__(self, cp, inputs):
        self.cli = cp.cli
        self.inputs = inputs

    def ops(self):
        return [(op["key"], "latency", f"cli.{op['argv'][0]}", lambda op=op: self.run(op), None)
                for op in self.inputs]

    def run(self, op):
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            rc = self.cli.main(op["argv"])
        dt = time.perf_counter() - t0
        if rc != 0:
            return dt, _done(WRONG, f"exit {rc}")
        return dt, lambda: (self.check(op, out.getvalue()), None)

    @staticmethod
    def check(op, text):
        lines = text.splitlines()
        n = op["n"]
        if op["check"] == "homology":
            return OK if json.loads(text) == op["rows"] else WRONG
        if op["check"] == "brackets":
            oks = [ln for ln in lines if ln.startswith("  ok  ")]
            last = f"{reference.BRACKET_RELATIONS}/{reference.BRACKET_RELATIONS} relations verified"
            return OK if lines[-1] == last and len(oks) == reference.BRACKET_RELATIONS else WRONG
        checks = {ln[7:]: ln[2:6] for ln in lines[:-1]}
        allowed = set(reference.FLAT_CHECK_LINES) | {reference.PSI_LINE}
        good = (
            all(checks.get(name) == "ok  " for name in reference.FLAT_CHECK_LINES)
            and set(checks) <= allowed
            and all(v == "ok  " for v in checks.values())
            and lines[-1] == f"all checks passed (n={n})"
        )
        return OK if good else WRONG


class SpecSurvey:
    """Many specs analysed shallowly, back to back, from their JSON dicts."""

    def __init__(self, cp, inputs):
        self.engine = cp.engine
        self.inputs = inputs
        self.reps = 0
        self.decided = 0

    def ops(self):
        return [(op["key"], "latency", "op.spec", lambda op=op: self.run(op), op.get("known_failure"))
                for op in self.inputs]

    def run(self, op):
        eng = self.engine
        data = json.loads(json.dumps(op["spec"]))   # a fresh dict, as read from a file
        t0 = time.perf_counter()
        spec = eng.spec_from_dict(data)
        report = eng.contact_torsion(spec)
        rep = eng.torsion_free_representative(spec)
        rep_report = eng.contact_torsion(rep)
        dt = time.perf_counter() - t0
        return dt, lambda: (self.check(op, report, rep, rep_report), rep_report.is_zero)

    def check(self, op, report, rep, rep_report):
        zero, nonzero = "proved-zero", "proved-nonzero"
        self.reps += 1
        self.decided += rep_report.is_zero == zero
        if report.is_zero == (zero if op["tau_nonzero"] else nonzero) or rep_report.is_zero == nonzero:
            return WRONG
        at = {k: float(v) for k, v in _point(op["point"]).items()}
        tau = [float(t.evaluate(at)) for t in report.tau]
        rep_f = [float(f.evaluate(at)) for f in rep.f]
        good = all(map(_close, tau, op["tau_at"])) and all(map(_close, rep_f, op["rep_f_at"]))
        return OK if good else WRONG


class SystemStudy:
    """A few specs analysed deeply: many points each, then integrated paths."""

    def __init__(self, cp, inputs):
        self.engine = cp.engine
        self.integrate = cp.integrate.integrate
        self.inputs = inputs
        self.specs = {}
        self.steps = 0

    def ops(self):
        ops = []
        for entry in self.inputs["specs"]:
            key = entry["key"]
            ops.append((f"{key}.prepare", "prepare", "op.prepare", lambda e=entry: self.prepare(e), None))
            for j, raw in enumerate(entry["points"]):
                ops.append((f"{key}.pt{j:03d}", "latency", "op.point",
                            lambda e=entry, p=_point(raw): self.point(e, p), None))
            for j, init in enumerate(entry["inits"]):
                ops.append((f"{key}.path{j}", "path", "op.path",
                            lambda e=entry, i=init: self.path(e, i), None))
        ops.append(("flat.path", "path", "op.path", self.flat_path, None))
        ops.append(("halving.pair", "path", "op.path", self.halving, None))
        return ops

    def prepare(self, entry):
        eng = self.engine
        t0 = time.perf_counter()
        spec = eng.spec_from_dict(entry["spec"])
        rep = eng.torsion_free_representative(spec)
        verdict = eng.contact_torsion(rep).is_zero
        dt = time.perf_counter() - t0
        self.specs[entry["key"]] = (rep, verdict == "proved-zero")
        if verdict == "proved-nonzero" or (entry["polynomial"] and verdict != "proved-zero"):
            return dt, _done(WRONG, verdict)
        return dt, _done(OK, verdict)

    def point(self, entry, pt):
        eng = self.engine
        rep, torsion_free = self.specs[entry["key"]]
        r, s = self.inputs["rs"]
        t0 = time.perf_counter()
        ranks = eng.filtration_ranks(rep, pt).as_tuple()
        skew = eng.skew_complement_W(rep, pt, Fraction(r), Fraction(s))
        if torsion_free:
            sec = eng.secondary_torsion(rep, pt)
            contained, _ = eng.characteristic_system_test(rep, pt)
            residual = eng.adapted_frame_check(rep, pt).max_residual
        dt = time.perf_counter() - t0

        def check():
            good = list(ranks) == entry["ranks"] and skew.nondegenerate and skew.lagrangian_v \
                and skew.u_complement_is_e
            if torsion_free:
                # secondary torsion vanishes exactly when the line is characteristic,
                # and a torsion-free geometry has the model's bracket constants
                good = good and (float(max(abs(sec))) < 1e-7) == contained and residual <= 1e-9
            return OK if good else WRONG, None
        return dt, check

    def _integrate(self, spec, init, step):
        """Time one path and its CSV; returns the time and a check that
        gives (well-formed, largest contact residual)."""
        t0 = time.perf_counter()
        traj = self.integrate(spec, init, 0.0, self.inputs["path"]["t1"], step)
        buf = io.StringIO()
        traj.write_csv(buf)
        dt = time.perf_counter() - t0
        self.steps += len(traj.t) - 1

        def check():
            rows = buf.getvalue().count("\n")
            finite = all(math.isfinite(x) for row in traj.states for x in row)
            worst = max(abs(float(x)) for x in traj.contact_residual)
            return rows == len(traj.t) + 1 and finite, worst
        return dt, check

    def path(self, entry, init):
        rep, _ = self.specs[entry["key"]]
        dt, check = self._integrate(rep, init, self.inputs["path"]["step"])
        tol = self.inputs["path"]["residual_tol"]

        def verdict():
            good, worst = check()
            return OK if good and worst <= tol else WRONG, worst
        return dt, verdict

    def flat_path(self):
        cfg = self.inputs["path"]
        spec = self.engine.spec_from_dict({"n": 3, "f0": "0", "f": ["0", "0"]})
        dt, check = self._integrate(spec, cfg["halving"]["init"], cfg["step"])

        def verdict():
            good, worst = check()
            return OK if good and worst <= cfg["flat_tol"] else WRONG, worst
        return dt, verdict

    def halving(self):
        cfg = self.inputs["path"]["halving"]
        spec = self.engine.spec_from_dict(cfg["spec"])
        dt1, check1 = self._integrate(spec, cfg["init"], cfg["steps"][0])
        dt2, check2 = self._integrate(spec, cfg["init"], cfg["steps"][1])

        def verdict():
            (good1, coarse), (good2, fine) = check1(), check2()
            ratio = coarse / fine
            lo, hi = cfg["ratio"]
            return OK if good1 and good2 and lo <= ratio <= hi else WRONG, ratio
        return dt1 + dt2, verdict


WORKLOADS = {"flat-model": FlatModel, "spec-survey": SpecSurvey, "system-study": SystemStudy}


def main():
    payload = json.load(sys.stdin)
    src = os.path.join(payload["root"], "src")
    t0_setup = time.perf_counter()
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (part of the set-up a user pays)
    import contactpath
    setup_s = time.perf_counter() - t0_setup
    if not os.path.abspath(contactpath.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"contactpath imported from {contactpath.__file__}, not from {src}")
    import contactpath.cli  # noqa: F401  (before tracing, so its names are wrapped too)

    tracer = None
    if payload["trace_file"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(contactpath)
    workload = WORKLOADS[payload["workload"]](contactpath, payload["inputs"])

    samples = []
    speed = calibration.Probe()
    pauses = calibration.GcPauses()
    checking = tracer.paused if tracer else contextlib.nullcontext
    for op_id, (key, kind, span, run, known) in enumerate(workload.ops()):
        if tracer:
            tracer.op = op_id
            tracer.begin(span)
        gc0 = pauses.total
        t0 = time.perf_counter()
        try:
            dt, check = run()
        except Exception as e:  # recorded, and the run goes on
            dt, error = time.perf_counter() - t0, f"{type(e).__name__}: {e}"
            defect = known and type(e).__name__ == known["type"] and known["match"] in str(e)
            check = _done(FAILED if defect else WRONG, error)
        finally:
            if tracer:
                tracer.end()
        gc_s = pauses.total - gc0
        with checking():
            try:
                status, detail = check()
            except Exception as e:  # an answer the check cannot read is wrong
                status, detail = WRONG, f"check: {type(e).__name__}: {e}"
        samples.append([key, kind, dt, status, detail, t0, gc_s])
        speed.maybe_sample()
    speed.finish()
    for sample in samples:
        sample[5] = speed.normalize(sample[5], sample[2], min(sample.pop(), sample[2]))

    result = {
        "setup_s": speed.normalize(t0_setup, setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "samples": samples,
        "gc": {"pause_s": pauses.total, "gen2_collections": pauses.gen2},
        "stats": {k: getattr(workload, k) for k in ("reps", "decided", "steps")
                  if hasattr(workload, k)},
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        result["absent"] = tracer.absent
        result["unobserved"] = sorted(tracer.unobserved)
        tracer.write(payload["trace_file"])
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    # skip tearing down the heap, which takes seconds after a survey pass
    os._exit(0)


if __name__ == "__main__":
    main()
