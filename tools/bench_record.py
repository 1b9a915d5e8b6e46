#!/usr/bin/env python3
"""Write a BENCH_<pr>.json performance record from two checkouts.

    python3 tools/bench_record.py --parent ../before --change ../after \
        --out bench.json --claim spec-survey --heldout-seed 7

For every workload of BENCHMARK.json it keeps the last JSON line of
`perfbench/run.py --workload W --seed 1 --trace 1` on the change, and runs
`--trace 0` on the parent and the change in PAIRS pairs, the parent first
in even pairs and the change first in odd ones.  Every run takes run.py's
own `--seconds` default, which the record states.  For each end-to-end
metric it records both sides' values, median and quartiles, and the number
of pairs the change won.  With `--claim`, that workload is also paired on
each held-out seed.  Each run's result is appended to `<out>.log` as it
arrives, so a long recording that stops early leaves its finished runs.
Use two checkouts whose paths have the same length: the import time in
`setup_s` depends on the path.
"""

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10


def run(checkout, workload, seed, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def default_seconds(checkout):
    """The `--seconds` default of the checkout's perfbench/run.py."""
    with open(os.path.join(checkout, "perfbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    for node in ast.walk(tree):
        flag = getattr(node.args[0], "value", None) if isinstance(node, ast.Call) and node.args else None
        if flag == "--seconds":
            return next(ast.literal_eval(k.value) for k in node.keywords if k.arg == "default")


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": median, "q1": q1, "q3": q3}


def pairs(args, metrics, log, workload, seed):
    sides = {"parent": [], "change": []}
    for i in range(PAIRS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run(getattr(args, side), workload, seed, 0)
            sides[side].append(result)
            print(json.dumps({"workload": workload, "seed": seed, "pair": i, "side": side,
                              "result": result}), file=log, flush=True)
    record = {"seed": seed, "pairs": PAIRS,
              "failed": {side: [r["failed"] for r in runs] for side, runs in sides.items()}}
    for m in metrics:
        before = [r["metrics"][m["name"]]["value"] for r in sides["parent"]]
        after = [r["metrics"][m["name"]]["value"] for r in sides["change"]]
        wins = sum((a < b) if m["better"] == "lower" else (a > b) for b, a in zip(before, after))
        record[m["name"]] = {"unit": m["unit"], "parent": summary(before),
                             "change": summary(after), "change_wins": wins}
    return record


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--claim", help="workload also paired on each --heldout-seed")
    parser.add_argument("--heldout-seed", type=int, action="append", default=[])
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    metrics = bench["end_to_end"]
    record = {"command": "perfbench/run.py", "seconds": default_seconds(args.change),
              "quartiles": "statistics.quantiles(n=4, method='inclusive')",
              "traced_change": {}, "paired": {}}
    with open(args.out + ".log", "a") as log:
        for w in bench["workloads"]:
            record["traced_change"][w["name"]] = run(args.change, w["name"], 1, 1)
        for w in bench["workloads"]:
            record["paired"][w["name"]] = [pairs(args, metrics, log, w["name"], 1)]
        for seed in args.heldout_seed if args.claim else ():
            record["paired"][args.claim].append(pairs(args, metrics, log, args.claim, seed))
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
