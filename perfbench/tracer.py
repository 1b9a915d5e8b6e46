"""Per-layer tracing of the package, from outside it.

Wrappers replace public functions where their callers look them up: the
defining module, every module that imported the name, and class attributes
for methods.  Coarse functions record spans (name, start, end, parent, op);
hot or recursive ones (`Expr.evaluate`, `Polynomial.__mul__`, ...) only count
calls and time at their outermost entry, which bounds the overhead.  A name
the package no longer defines is listed as absent, and its metrics read null,
not zero.  While `paused()`, the wrappers call through without recording, so
the benchmark's own checks do not count as the package's work.
"""

import contextlib
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path); spans give self time.
SPANS = [
    ("expr.parse", "expr", "parse"),
    ("flat_model.lie_bracket", "flat_model", "lie_bracket"),
    ("flat_model.efj_identity_check", "flat_model", "efj_identity_check"),
    ("flat_model.maurer_cartan_residual", "flat_model", "maurer_cartan_residual"),
    ("flat_model.qk_forms", "flat_model", "qk_forms"),
    ("flat_model.qk_psi_power_nonzero", "flat_model", "qk_psi_power_nonzero"),
    ("graded_sp.build", "graded_sp", "build"),
    ("graded_sp.verify_structure_constants", "graded_sp", "GradedLieAlgebra.verify_structure_constants"),
    ("kostant.h2", "kostant", "h2"),
    ("lie_core.hasse_words", "lie_core", "RootSystem.hasse_words"),
    ("exactlinalg.rref", "exactlinalg", "rref"),
    ("exactlinalg.solve", "exactlinalg", "solve"),
    ("exactlinalg.rank", "exactlinalg", "rank"),
    ("engine.Geometry.__init__", "engine", "Geometry.__init__"),
    ("engine.filtration_fields", "engine", "Geometry.filtration_fields"),
    ("engine.contact_torsion", "engine", "contact_torsion"),
    ("engine.torsion_free_representative", "engine", "torsion_free_representative"),
    ("engine.filtration_ranks", "engine", "filtration_ranks"),
    ("engine.skew_complement_W", "engine", "skew_complement_W"),
    ("engine.secondary_torsion", "engine", "secondary_torsion"),
    ("engine.characteristic_system_test", "engine", "characteristic_system_test"),
    ("engine.adapted_frame_check", "engine", "adapted_frame_check"),
    ("integrate.integrate", "integrate", "integrate"),
    ("integrate._residuals", "integrate", "_residuals"),
    ("integrate.write_csv", "integrate", "Trajectory.write_csv"),
    ("numpy.matrix_rank", "numpy.linalg", "matrix_rank"),
    ("numpy.svd", "numpy.linalg", "svd"),
    ("numpy.lstsq", "numpy.linalg", "lstsq"),
    ("numpy.solve", "numpy.linalg", "solve"),
]

# (metric prefix, module, attribute paths); counted at the outermost entry.
COUNTERS = [
    ("expr.evaluate", "expr", ["Num.evaluate", "Var.evaluate", "Bin.evaluate",
                               "Neg.evaluate", "Pow.evaluate", "Call.evaluate"]),
    ("expr.simplify", "expr", ["simplify"]),
    ("poly.__mul__", "poly", ["Polynomial.__mul__"]),
    ("poly.__add__", "poly", ["Polynomial.__add__"]),
    ("poly.diff", "poly", ["Polynomial.diff"]),
    ("poly.evaluate", "poly", ["Polynomial.evaluate"]),
    ("flat_model.VectorField.evaluate", "flat_model", ["VectorField.evaluate"]),
    ("flat_model.OneForm.evaluate", "flat_model", ["OneForm.evaluate"]),
    ("engine.eval_field", "engine", ["Geometry.eval_field"]),
    ("integrate._rk4_step", "integrate", ["_rk4_step"]),
]

CLI_COMMANDS = ("flat-check", "brackets", "homology")

# src.loc.<module> for these; src.loc.total counts every module in src/.
LOC_MODULES = ("__init__", "cli", "engine", "errors", "exactlinalg", "expr", "flat_model",
               "graded_sp", "integrate", "kostant", "lie_core", "poly", "squat")


def metric_names():
    """Every per-layer metric a traced run reports, with unit and direction."""
    out = []
    for prefix, *_ in SPANS + COUNTERS:
        out.append((f"{prefix}.calls", "count", "lower"))
        out.append((f"{prefix}.s", "s", "lower"))
    for cmd in CLI_COMMANDS:
        out.append((f"cli.{cmd}.s", "s", "lower"))
    out += [
        ("engine.geometry.hits", "count", "higher"),
        ("engine.geometry.misses", "count", "lower"),
        ("integrate.rhs_calls_per_step", "count", "lower"),
        ("integrate.steps_per_s", "1/s", "higher"),
        ("engine.decided_frac", "ratio", "higher"),
        ("ops.failed_frac", "ratio", "lower"),
        ("gc.pause_s", "s", "lower"),
        ("gc.gen2_collections", "count", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    out += [(f"src.loc.{module}", "lines", "lower") for module in LOC_MODULES + ("total",)]
    return out


def _resolve(module, path):
    """(owner, attribute name) for a dotted path inside a module, or None."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if parts[-1] not in vars(owner):
        return None
    return owner, parts[-1]


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counts = defaultdict(int)
        self.times = defaultdict(float)
        self.absent = []
        self.unobserved = set()  # metric prefixes none of whose names exist
        self.builds = 0
        self.paused_now = False
        self.watch_c = None      # the C of the spec being integrated
        self._depths = []
        self._undo = []

    @contextlib.contextmanager
    def paused(self):
        self.paused_now = True
        for depth in self._depths:
            depth[0] = 1
        try:
            yield
        finally:
            self.paused_now = False
            for depth in self._depths:
                depth[0] = 0

    # -- spans -------------------------------------------------------------
    def begin(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(len(self.spans) - 1)

    def end(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def _span_wrapper(self, name, fn):
        def traced(*args, **kwargs):
            if self.paused_now:
                return fn(*args, **kwargs)
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return traced

    def _counter_wrapper(self, name, fn, depth):
        """Count `fn` at the outermost entry of any function sharing `depth`.

        An outermost evaluation of the integrated spec's C is also counted as
        one right-hand-side evaluation (see _install_rhs)."""
        counts, times = self.counts, self.times
        clock = time.perf_counter

        def counted(*args, **kwargs):
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            counts[name] += 1
            if args and args[0] is self.watch_c:
                counts["integrate.c_evals"] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                times[name] += clock() - t0
                depth[0] = 0
        return counted

    # -- installation ------------------------------------------------------
    def _patch(self, modules, module, path, wrap):
        found = _resolve(module, path)
        if found is None:
            self.absent.append(f"{module.__name__}.{path}")
            return None
        owner, attr = found
        original = getattr(owner, attr)
        wrapped = wrap(original)
        self._set(owner, attr, wrapped)
        if owner is module:
            # callers that imported the name look it up in their own globals
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)
        return original

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        """Wrap the package's layers; `package` is the imported contactpath."""
        modules = [package] + [m for name, m in sorted(sys.modules.items())
                               if name.startswith(package.__name__ + ".")]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        by_name["numpy.linalg"] = sys.modules["numpy.linalg"]
        for prefix, modname, path in SPANS:
            if self._patch(modules, by_name[modname], path,
                           lambda fn, p=prefix: self._span_wrapper(p, fn)) is None:
                self.unobserved.add(prefix)
        for prefix, modname, paths in COUNTERS:
            depth = [0]
            self._depths.append(depth)
            found = [self._patch(modules, by_name[modname], path,
                                 lambda fn, p=prefix, d=depth: self._counter_wrapper(p, fn, d))
                     for path in paths]
            if not any(f is not None for f in found):
                self.unobserved.add(prefix)
        self._install_geometry(modules, by_name["engine"])
        self._install_rhs(modules, by_name["integrate"])

    def _install_geometry(self, modules, engine):
        """Cache hits and misses of engine.geometry, seen from its callers:
        a call during which a Geometry was built is a miss."""
        def wrap(fn):
            def geometry(spec):
                if self.paused_now:
                    return fn(spec)
                before = self.builds
                got = fn(spec)
                key = "engine.geometry.misses" if self.builds > before else "engine.geometry.hits"
                self.counts[key] += 1
                return got
            return geometry
        found = _resolve(engine, "Geometry.__init__")
        if found is not None:
            init = found[0].__init__

            def counted_init(obj, *args, **kwargs):
                self.builds += not self.paused_now
                return init(obj, *args, **kwargs)
            self._set(found[0], "__init__", counted_init)
        if self._patch(modules, engine, "geometry", wrap) is None:
            self.unobserved.add("engine.geometry")

    def _install_rhs(self, modules, integrate):
        """Right-hand-side evaluations of the integrator, seen two ways: calls
        of the function `_compile_rhs` returns, and outermost evaluations of
        the spec's C during `integrate`, which the right-hand side evaluates
        once per call.  The first is used while the name exists."""
        def wrap_compile(fn):
            def compile_rhs(spec):
                rhs = fn(spec)

                def counted(state):
                    self.counts["integrate.rhs"] += not self.paused_now
                    return rhs(state)
                return counted
            return compile_rhs

        def wrap_integrate(fn):
            def integrate_watched(spec, *args, **kwargs):
                self.watch_c = spec.C
                try:
                    return fn(spec, *args, **kwargs)
                finally:
                    self.watch_c = None
            return integrate_watched
        if self._patch(modules, integrate, "_compile_rhs", wrap_compile) is None:
            self.unobserved.add("integrate.rhs")
        self._patch(modules, integrate, "integrate", wrap_integrate)

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    def layer_metrics(self):
        """calls and seconds per metric prefix; span seconds are self time."""
        out = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += (end - start) - child_time[i]
            out[f"{name}.incl_s"] += end - start
        for name, count in self.counts.items():
            out[f"{name}.calls"] += count
        for name, secs in self.times.items():
            out[f"{name}.s"] += secs
        return dict(out)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts),
                       "absent": self.absent}, fh)
