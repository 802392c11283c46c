"""Alternating parent/change pairs of the unchanged benchmark, summarized.

    python3 scripts/bench_pairs.py --tag float_rows --parent REV \
        --workload warm-curve --seed 7 --pairs 10 [--seconds 30] [--trace 0]

Runs ``python3 bench/run.py`` with the same arguments in the working tree
(the change) and in a fresh export of the parent commit REV (``git
archive``, so the repository gains no worktree metadata), alternating which
side runs first.  Every run is appended to ``BENCH_<tag>.json`` in the
working tree, and the file's summary is rebuilt from all the runs it holds,
so several calls (other workloads, other seeds, traced runs) add up to one
record.  Per workload and seed, untraced runs give each side's median and
quartiles of every end-to-end metric, the number of pairs the change wins
and a verdict (``verdict``), and the memory headroom (``rss_headroom``): a
least-squares line of ``peak_rss_mb`` against ``ops_per_s`` over both
sides' runs and the rate at which it crosses the ``BENCHMARK.json`` bound
over the parent's median.  Traced runs give the per-layer metrics of the
last traced pair.  Keys
the script does not write (a description of the change, the claim) are
kept as they are.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev, dest):
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def run_bench(side, pair, cwd, args):
    """One ``bench/run.py`` run; its record with the parsed last line."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    wall = round(time.perf_counter() - start, 1)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return {"side": side, "pair": pair, "workload": args.workload,
            "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
            "wall_s": wall, "result": result}


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else (values[0],) * 3
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def verdict(parent, change, wins, better, bound):
    """One metric's reading over paired runs, of which the change won
    ``wins``, with ``bound`` relative:

    - "gain": the change wins at least 9 of 10 pairs, and its median beats
      the parent's by more than the parent's interquartile range;
    - "unresolved": the parent's own interquartile range is wider than the
      bound, and some parent run is at least as good as some change run;
    - otherwise "worse" when the change's median is worse than the parent's
      by more than the bound, else "within bound"."""
    sign = 1 if better == "higher" else -1
    p, c = quartiles(parent), quartiles(change)
    spread = p["q3"] - p["q1"]
    ahead = sign * (c["median"] - p["median"])
    if wins >= 0.9 * len(parent) and ahead > spread:
        return "gain"
    if (spread > bound * abs(p["median"])
            and min(sign * v for v in change) <= max(sign * v for v in parent)):
        return "unresolved"
    return "worse" if -ahead > bound * abs(p["median"]) else "within bound"


def rss_headroom(runs, bound):
    """``peak_rss_mb`` against ``ops_per_s`` over untraced ``runs`` of both
    sides: the least-squares line (intercept in MB, slope in MB per 1,000
    ops/s), the correlation, and the rate at which the line reaches
    ``bound`` over the parent runs' median (None if it does not rise)."""
    rate = [run["result"]["metrics"]["ops_per_s"]["value"] for run in runs]
    rss = [run["result"]["metrics"]["peak_rss_mb"]["value"] for run in runs]
    fit = statistics.linear_regression(rate, rss)
    limit = (1 + bound) * statistics.median(
        v for run, v in zip(runs, rss) if run["side"] == "parent")
    return {"intercept_mb": round(fit.intercept, 2),
            "mb_per_1000_ops_per_s": round(1000 * fit.slope, 2),
            "correlation": round(statistics.correlation(rate, rss), 3),
            "crosses_bound_at_ops_per_s": (round((limit - fit.intercept) / fit.slope, 1)
                                           if fit.slope > 0 else None)}


def summarize(runs, bench_spec):
    """Per workload and seed: each end-to-end metric's median and quartiles
    per side and the pairs the change wins (untraced runs), and the
    per-layer metrics of the last traced pair."""
    better = {m["name"]: m["better"] for m in bench_spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in bench_spec["end_to_end"]}
    summary, traced = {}, {}
    groups = {}
    for run in runs:
        if "metrics" not in run["result"]:
            continue
        key = (run["workload"], run["seed"], run["trace"])
        groups.setdefault(key, {}).setdefault(run["pair"], {})[run["side"]] = run
    for (workload, seed, trace), by_pair in sorted(groups.items()):
        pairs = [(sides["parent"], sides["change"])
                 for _, sides in sorted(by_pair.items()) if len(sides) == 2]
        if not pairs:
            continue
        if trace:
            parent, change = pairs[-1]
            traced[workload] = {side: {k: round(v["value"], 4) for k, v in
                                       run["result"]["metrics"].items()}
                                for side, run in (("parent", parent),
                                                  ("change", change))}
            continue
        entry = {}
        for metric, direction in better.items():
            values = {side: [run["result"]["metrics"][metric]["value"]
                             for run in runs_of]
                      for side, runs_of in zip(("parent", "change"), zip(*pairs))}
            sign = 1 if direction == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in
                       zip(values["parent"], values["change"]))
            entry[metric] = {"parent": quartiles(values["parent"]),
                             "change": quartiles(values["change"]),
                             "change_wins": f"{wins} of {len(pairs)}",
                             "better": direction,
                             "verdict": verdict(values["parent"], values["change"],
                                                wins, direction, bound[metric])}
        if len(pairs) > 1:
            entry["rss_headroom"] = rss_headroom(
                [run for pair in pairs for run in pair], bound["peak_rss_mb"])
        entry["correct"] = all(run["result"]["correct"]
                               for pair in pairs for run in pair)
        entry["failed_share"] = {
            side: sorted({round(run["result"]["failed"]
                                / run["result"]["attempted"], 3)
                          for run in runs_of})
            for side, runs_of in zip(("parent", "change"), zip(*pairs))}
        summary.setdefault(workload, {})[f"seed {seed}, {len(pairs)} pairs"] = entry
    return summary, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tag", required=True)
    ap.add_argument("--parent", required=True, help="the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out = ROOT / f"BENCH_{args.tag}.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    parent_rev = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
        check=True, capture_output=True, text=True).stdout.strip()
    doc.update(tag=args.tag, parent=parent_rev, command=(
        "python3 bench/run.py --workload W --seed S --seconds T --trace 0|1, "
        "bench/ unchanged, run from the root of each side's checkout; "
        "python3 scripts/bench_pairs.py alternates the sides"))
    runs = doc.setdefault("runs_in_order", [])
    done = 1 + max((r["pair"] for r in runs
                    if (r["workload"], r["seed"], r["trace"])
                    == (args.workload, args.seed, args.trace)), default=-1)
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_dir:
        export(args.parent, parent_dir)
        dirs = {"parent": parent_dir, "change": str(ROOT)}
        for k in range(done, done + args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_bench(side, k, dirs[side], args)
                runs.append(run)
                print(json.dumps(run), flush=True)
                doc["summary"], doc["trace_per_layer"] = summarize(runs, bench_spec)
                out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
