#!/usr/bin/env python3
"""contactpath benchmark.

One run measures one workload and prints, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`:

    python3 perfbench/run.py --workload spec-survey --seed 3 --seconds 20 --trace 0

--trace 0 gives the end-to-end metrics, measured with tracing off.
--trace 1 runs one pass untraced and the same pass traced, and gives the
per-layer metrics; spans go to .perfbench_out/.  `--all` runs every workload
and prints the end-to-end figures as a table.  Run from the repository root;
the package is imported from ./src.  See perfbench/README.md.
"""

import argparse
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 10
CHILD_TIMEOUT_S = 165
PROBE = (
    "import os, sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, contactpath\n"
    "dt = time.perf_counter() - t0\n"
    "assert os.path.abspath(contactpath.__file__).startswith(sys.argv[1] + os.sep)\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import calibration\n"
    "print(calibration.Probe().normalize(t0, dt), dt, numpy.__version__)\n"
)

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import tracer  # noqa: E402


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"   # set iteration order, hence call counts, repeat
    return env


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def measure_setup():
    """Normalized import time of numpy and contactpath, each in a fresh process."""
    times, version = [], None
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", PROBE, SRC, HERE], capture_output=True,
                              text=True, env=child_env(), cwd=ROOT, timeout=60)
        if proc.returncode != 0:
            fail(f"cannot import contactpath from {SRC}:\n{proc.stderr.strip()}")
        norm, _, version = proc.stdout.split()
        times.append(float(norm))
    return times, version


def run_pass(workload, data, trace_file=None):
    """One pass of a workload in a fresh process; its raw samples."""
    payload = {"root": ROOT, "workload": workload, "inputs": data, "trace_file": trace_file}
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")],
                              input=json.dumps(payload), capture_output=True, text=True,
                              env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} process did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        fail(f"{workload} process failed (exit {proc.returncode}):\n{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, p):
    """Nearest-rank percentile; failed ops are +inf and rank last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def summarize(passes):
    """End-to-end figures of a run's passes.

    Times are normalized to the reference speed (calibration.py).  Every
    pass runs the same inputs, so each op has a median time across passes:
    wall_s, one pass, is their sum, and the latency percentiles are taken
    over them, a failed op counting as +inf.  When a percentile lands on a
    failed op, it reads as the run's whole measured time.
    """
    samples = [s for p in passes for s in p["samples"]]
    per_op, latency_op = {}, {}
    for key, kind, _, status, _, norm in samples:
        per_op.setdefault(key, []).append(norm)
        if kind == "latency":
            latency_op.setdefault(key, []).append(1000.0 * norm if status == "ok" else math.inf)
    latency = [statistics.median(times) for times in latency_op.values()]
    measured_s = sum(s[5] for s in samples)

    def pct(p):
        value = percentile(latency, p)
        return 1000.0 * measured_s if math.isinf(value) else value

    stats = {}
    for p in passes:
        for key, value in p["stats"].items():
            stats[key] = stats.get(key, 0) + value
    failed = sum(s[3] != "ok" for s in samples)
    path_s = sum(s[5] for s in samples if s[1] == "path")
    return {
        "wall_s": sum(statistics.median(times) for times in per_op.values()),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "op_ms_p50": pct(50),
        "op_ms_p80": pct(80),
        "op_ms_p90": pct(90),
        "failed_frac": failed / len(samples),
        "decided_frac": stats["decided"] / stats["reps"] if stats.get("reps") else None,
        "path_steps_per_s": stats["steps"] / path_s if path_s else None,
        "latency_ops": len(latency),
        "passes": len(passes),
        "measured_s": measured_s,
        "raw_wall_s": statistics.median(sum(s[2] for s in p["samples"]) for p in passes),
        "attempted": len(samples),
        "failed": failed,
        "wrong": sum(s[3] == "wrong" for s in samples),
    }


# The ten end-to-end figures of the report, as (name, unit, summary key,
# the one workload it applies to).  BENCHMARK.json gates the ones every
# workload has and that are steady across seeds: the survey's tail latency
# lands on GC pauses and moves by half between seeds, so op_ms_p80/p90 are
# printed, not gated.
REPORT = [
    ("setup_s", "s", "setup_s", None),
    ("wall_s", "s", "wall_s", None),
    ("peak_rss_mb", "MB", "peak_rss_mb", None),
    ("failed_frac", "ratio", "failed_frac", None),
    ("spec_ms_p50", "ms", "op_ms_p50", "spec-survey"),
    ("spec_ms_p80", "ms", "op_ms_p80", "spec-survey"),
    ("decided_frac", "ratio", "decided_frac", "spec-survey"),
    ("point_ms_p50", "ms", "op_ms_p50", "system-study"),
    ("point_ms_p90", "ms", "op_ms_p90", "system-study"),
    ("path_steps_per_s", "1/s", "path_steps_per_s", "system-study"),
]
GATED = [("setup_s", "s"), ("wall_s", "s"), ("op_ms_p50", "ms"), ("peak_rss_mb", "MB")]


def report_rows(workload, summary):
    return [(name, unit, summary[key] if on in (None, workload) else None)
            for name, unit, key, on in REPORT]


def source_lines():
    """Lines per module of the package, as `git ls-files src | xargs wc -l` counts."""
    counts = {}
    for path in sorted(glob.glob(os.path.join(SRC, "contactpath", "*.py"))):
        with open(path, "rb") as fh:
            counts[os.path.basename(path)[:-3]] = fh.read().count(b"\n")
    counts["total"] = sum(counts.values())
    return counts


def machine(numpy_version):
    return (f"{platform.machine()} {platform.system()}, nproc={os.cpu_count()}, "
            f"Python {platform.python_version()}, numpy {numpy_version}")


def commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    return head


def run_workload(workload, seed, seconds, trace):
    """Measure one workload; returns the result line and the report figures.

    Passes run the seed's inputs in fresh processes until `seconds` of op
    time is measured.  A traced run measures one pass untraced and the same
    pass traced.
    """
    probes, numpy_version = measure_setup()
    data = inputs.make_inputs(workload, seed)
    if not trace:
        passes = []
        while not passes or sum(s[2] for p in passes for s in p["samples"]) < seconds:
            passes.append(run_pass(workload, data))
        summary = summarize(passes)
    else:
        os.makedirs(OUT, exist_ok=True)
        trace_file = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
        passes = [run_pass(workload, data), run_pass(workload, data, trace_file=trace_file)]
        summary = summarize(passes[:1])
        traced_summary = summarize(passes[1:])
        summary["attempted"], summary["failed"] = traced_summary["attempted"], traced_summary["failed"]
        summary["wrong"] += traced_summary["wrong"]
        print(f"# spans: {trace_file}; absent names: {', '.join(passes[1]['absent']) or 'none'}; "
              f"unobserved: {', '.join(passes[1]['unobserved']) or 'none'}")
    summary["setup_s"] = statistics.median(probes + [p["setup_s"] for p in passes])
    if trace:
        metrics, units = layer_metrics(*passes, summary)
    else:
        metrics = {name: summary[name] for name, _ in GATED}
        units = dict(GATED)

    print(f"# workload {workload}, seed {seed}: {summary['passes']} pass(es), "
          f"{summary['measured_s']:.1f} s measured (normalized), raw pass "
          f"{summary['raw_wall_s']:.3f} s, {summary['attempted']} ops, "
          f"{summary['failed']} failed, {summary['wrong']} wrong, "
          f"{summary['latency_ops']} latency ops")
    for name, unit, value in report_rows(workload, summary):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"#   {name:<17} {shown:>12} {unit}")
    errors = {}
    for p in passes:
        for key, _, _, status, detail, _ in p["samples"]:
            if status != "ok":
                errors[f"{status}: {detail}"] = errors.get(f"{status}: {detail}", 0) + 1
    for error, count in sorted(errors.items()):
        print(f"# {count} x {error}")
    print(f"# machine: {machine(numpy_version)}; commit {commit()}")
    print("# limits: shared machine; CPU pinning and frequency are not controlled and may "
          "not be changed here")
    return {
        "correct": summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }, summary


def rhs_calls_per_step(layers, unobserved, steps):
    """Right-hand-side evaluations per accepted step: counted through
    `_compile_rhs` while it exists, else through the spec's C evaluations;
    None when neither sees the integrator's work."""
    if not steps:
        return 0
    calls = layers.get("integrate.rhs.calls", 0)
    if "integrate.rhs" in unobserved:
        calls = layers.get("integrate.c_evals.calls", 0)
    return calls / steps if calls else None


def layer_metrics(plain, traced, summary):
    """Per-layer metrics of a traced pass.  A metric whose functions the
    package no longer defines is None (JSON null), never 0."""
    layers = traced["layers"]
    unobserved = set(traced["unobserved"])
    units = {}
    metrics = {}
    steps = traced["stats"].get("steps", 0)
    plain_s = sum(s[5] for s in plain["samples"])
    traced_s = sum(s[5] for s in traced["samples"])
    # layer seconds are raw; scale them by the traced pass's speed factor
    scale = traced_s / sum(s[2] for s in traced["samples"])
    cache_seen = "engine.geometry" not in unobserved
    derived = {
        "engine.geometry.hits": layers.get("engine.geometry.hits.calls", 0) if cache_seen else None,
        "engine.geometry.misses": layers.get("engine.geometry.misses.calls", 0) if cache_seen else None,
        "integrate.rhs_calls_per_step": rhs_calls_per_step(layers, unobserved, steps),
        "integrate.steps_per_s": summary["path_steps_per_s"] or 0,
        "engine.decided_frac": summary["decided_frac"] or 0,
        "ops.failed_frac": summary["failed_frac"],
        "trace.overhead_frac": traced_s / plain_s - 1,
        "gc.pause_s": traced["gc"]["pause_s"],   # pauses are not scaled
        "gc.gen2_collections": traced["gc"]["gen2_collections"],
    }
    for cmd in tracer.CLI_COMMANDS:
        derived[f"cli.{cmd}.s"] = layers.get(f"cli.{cmd}.incl_s", 0) * scale
    for module, lines in source_lines().items():
        derived[f"src.loc.{module}"] = lines
    for name, unit, _ in tracer.metric_names():
        if name in derived:
            metrics[name] = derived[name]
        elif name.rsplit(".", 1)[0] in unobserved:
            metrics[name] = None
        else:
            metrics[name] = layers.get(name, 0) * (scale if unit == "s" else 1)
        units[name] = unit
    return metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description="contactpath benchmark")
    parser.add_argument("--workload", choices=sorted(inputs.load_design()["workloads"]))
    parser.add_argument("--all", action="store_true", help="run every workload, print a table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if not os.path.isdir(os.path.join(SRC, "contactpath")):
        fail(f"no package source at {SRC}; run from the repository root")
    if args.workload:
        result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return
    workloads = list(inputs.load_design()["workloads"])
    columns = [report_rows(w, run_workload(w, args.seed, args.seconds, False)[1]) for w in workloads]
    print(f"{'metric':<18}{'unit':<7}" + "".join(f"{w:>15}" for w in workloads))
    for i, (name, unit, _, _) in enumerate(REPORT):
        cells = ["n/a" if rows[i][2] is None else f"{rows[i][2]:.5g}" for rows in columns]
        print(f"{name:<18}{unit:<7}" + "".join(f"{c:>15}" for c in cells))


if __name__ == "__main__":
    main()
