"""Summarize untraced runs: per workload, the median of each end-to-end
metric over the runs in ``bench/out``, and the median latency of each
operation class.

    python3 bench/summarize.py
"""

import ast
import glob
import json
import os
import re
import statistics

import common


def op_class(text):
    """The operation without its seeded argument."""
    if text.startswith("("):
        op = ast.literal_eval(text)   # warm-curve tuple
        return f"{op[0]} {op[1]} R{op[2]}"
    return re.sub(r"(--[px]|--seed) \S+", r"\1 *", text.replace(" --format json", ""))


def main():
    for workload in common.WORKLOADS:
        paths = sorted(glob.glob(os.path.join(
            common.OUT, f"result-{workload}-seed*-trace0.json")))
        if not paths:
            continue
        runs = [json.load(open(p)) for p in paths]
        print(f"{workload}: {len(runs)} runs")
        for name, metric in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            print(f"  {name:16s} {statistics.median(values):12.4f} {metric['unit']}")
        classes = {}
        for run in runs:
            for op in run["operations"]:
                classes.setdefault(op_class(op["op"]), []).append(op["latency_ms"])
        for cls, lat in sorted(classes.items(), key=lambda kv: statistics.median(kv[1])):
            print(f"  {statistics.median(lat):10.1f} ms  {cls}")


if __name__ == "__main__":
    main()
