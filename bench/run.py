"""The cfx benchmark: one workload, timed end to end, every answer checked.

    python3 bench/run.py --workload {cold-cli,warm-curve}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout; cfx is imported from its ``src``.  A run
is whole passes over the workload's seeded operation list, in a closed loop
with one client, until S seconds have passed.  The answers are checked
after the timed passes, against scipy's exact laws or a property of the
method (see checks.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 every second pass is
traced and the metrics are the per-module ones (see tracing.py).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import common

SETUP_PROBES = 8        # fresh `import cfx.cli` starts before and after the passes
WARM_SETUPS = 3         # warm-curve workers, each set up afresh
CHILD_TIMEOUT_S = 170   # one CLI question or one import probe


SPAWN_NS = "{spawn_ns}"  # replaced by the clock read just before the start


def _spawn(argv, timeout=CHILD_TIMEOUT_S):
    """Run ``python argv`` to its end: (completed process, wall seconds).
    A child still running after ``timeout`` seconds is killed and waited
    for, and the process is None."""
    spawn_ns = time.perf_counter_ns()
    argv = [str(spawn_ns) if a == SPAWN_NS else a for a in argv]
    try:
        proc = subprocess.run([sys.executable] + argv, env=common.child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc = None
    return proc, (time.perf_counter_ns() - spawn_ns) / 1e9


def import_probes():
    """Wall times of SETUP_PROBES fresh ``python -c "import cfx.cli"``
    starts."""
    times = []
    for _ in range(SETUP_PROBES):
        proc, wall = _spawn(["-c", "import cfx.cli"])
        if proc is None or proc.returncode != 0:
            raise RuntimeError("import cfx.cli failed:\n"
                               + (proc.stderr if proc else "timed out"))
        times.append(wall)
    return times


def children_peak_rss_mb():
    # A child's ru_maxrss starts from this process's own high-water at the
    # spawn, so nothing large (scipy, the checks) is imported before the
    # timed passes are over.
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# workloads: each returns a dict of records and timings for ``report``
# ---------------------------------------------------------------------------

def run_cold_cli(args):
    """Every operation is a fresh ``python -m cfx.cli`` process; at most one
    is alive at a time."""
    ops = common.cold_cli_ops(args.seed)
    probes = import_probes()
    os.makedirs(common.OUT, exist_ok=True)
    trace_tmp = os.path.join(common.OUT, f"cli-spans-{os.getpid()}.json")
    launcher = os.path.join(common.BENCH, "launch_cli.py")
    records, traces = [], []

    def run_one(i, pass_i, traced):
        if traced:
            prefix = [launcher, SPAWN_NS, trace_tmp, str(pass_i * len(ops) + i)]
        else:
            prefix = ["-m", "cfx.cli"]
        proc, wall = _spawn(prefix + ops[i]["argv"])
        if proc is None:   # timed out: counted as failed
            proc = subprocess.CompletedProcess(
                [], None, "", f"killed after {CHILD_TIMEOUT_S} s")
        records.append({"op": i, "pass": pass_i, "latency_s": wall,
                        "returncode": proc.returncode, "stdout": proc.stdout,
                        "stderr": proc.stderr[-2000:]})
        if traced and os.path.exists(trace_tmp):
            with open(trace_tmp) as fh:
                traces.append(json.load(fh))
            os.remove(trace_tmp)

    pass_s, pass_traced = common.timed_passes(len(ops), args.seconds, args.trace,
                                              run_one)
    # Set-up is import alone; its median over starts before and after the
    # passes samples the machine's speed at both ends of the run.
    setup_s = statistics.median(probes + import_probes())
    peak = children_peak_rss_mb()

    # checks, outside the timed passes
    import checks
    oracle_table = checks.f_table_oracle(8)
    for rec in records:
        try:
            payload = json.loads(rec["stdout"])
        except json.JSONDecodeError:
            payload = None
        rec["ok"] = payload is not None and checks.cli_ok(
            ops[rec["op"]], rec["returncode"], payload, oracle_table)
    spans, counts = [], []
    for tr in traces:
        offset = len(spans)
        for s in tr["spans"]:
            spans.append(s[:4] + [s[4] + offset if s[4] >= 0 else -1] + s[5:])
        counts.extend(tr["counts"])
    return {"ops": ops, "records": records, "pass_s": pass_s,
            "pass_traced": pass_traced, "setup_s": setup_s, "peak_rss_mb": peak,
            "self_test": checks.self_test(oracle_table),
            "spans": spans, "counts": counts,
            "import_ms": statistics.median([t["import_ms"] for t in traces])
            if traces else 0.0}


def run_warm_curve(args):
    """Worker processes run the timed passes: WARM_SETUPS of them one after
    the other (one when traced), each timing its set-up and a share of the
    passes, so set-up time is a median and the passes sample several
    stretches of the run."""
    mode = "trace" if args.trace else "run"

    def worker(seconds):
        # a worker lives for its set-up, the timed passes and one pass more
        proc, _ = _spawn([os.path.join(common.BENCH, "worker.py"),
                          str(args.seed), str(seconds), SPAWN_NS, mode],
                         timeout=seconds + CHILD_TIMEOUT_S)
        if proc is None or proc.returncode != 0:
            raise RuntimeError("worker failed:\n"
                               + (proc.stderr if proc else "timed out"))
        return json.loads(proc.stdout.strip().splitlines()[-1])

    ops = common.warm_curve_ops(args.seed)
    n_workers = 1 if args.trace else WARM_SETUPS
    outs = [worker(args.seconds / n_workers) for _ in range(n_workers)]
    setup_s = statistics.median(out["setup_s"] for out in outs)
    # one list of passes across the workers
    results, pass_s, pass_traced = [], [], []
    for out in outs:
        results += [[i, p + len(pass_s), *rest] for i, p, *rest in out["results"]]
        pass_s += out["pass_s"]
        pass_traced += out["pass_traced"]
    out = outs[-1]

    import checks
    records = []
    for i, pass_i, answer, error, latency in results:
        op = ops[i]
        ok = error is None and checks.lnF_ok(
            common.WARM_BASES[op[1]], op[0], common.WARM_MODELS[op[1]],
            op[3], op[2], answer)
        records.append({"op": i, "pass": pass_i, "latency_s": latency,
                        "ok": ok, "error": error})
    return {"ops": ops, "records": records, "pass_s": pass_s,
            "pass_traced": pass_traced, "setup_s": setup_s,
            "peak_rss_mb": max(out["maxrss_mb"] for out in outs),
            "self_test": checks.self_test(),
            "spans": out.get("spans", []), "counts": out.get("counts", []),
            "import_ms": statistics.median(out["import_ms"] for out in outs)}


def known_fault(workload, op):
    if workload == "cold-cli":
        return op["fault"]
    return common.WARM_FAULTS.get(op[1])


# ---------------------------------------------------------------------------
# result
# ---------------------------------------------------------------------------

def report(args, res):
    """The result object; diagnostics go to standard error."""
    records = res["records"]
    timed = [r for r in records if not res["pass_traced"][r["pass"]]]
    failed = [r for r in records if not r["ok"]]
    unexpected = [r for r in failed
                  if known_fault(args.workload, res["ops"][r["op"]]) is None]
    for r in unexpected[:5]:
        print(f"unexpected failure: {res['ops'][r['op']]} "
              f"{r.get('error') or r.get('stderr', '')}", file=sys.stderr)
    for name in res["self_test"]:
        print(f"check {name} cannot reject a perturbed answer", file=sys.stderr)
    correct = not unexpected and not res["self_test"]

    def rate(traced):
        seconds = sum(s for s, t in zip(res["pass_s"], res["pass_traced"])
                      if t == traced)
        passed = sum(1 for r in records
                     if r["ok"] and res["pass_traced"][r["pass"]] == traced)
        return passed / seconds if seconds else 0.0

    if args.trace:
        import tracing
        untraced, traced = rate(False), rate(True)
        n_ops = len(res["ops"])
        traced_ops = [r["pass"] * n_ops + r["op"] for r in records
                      if res["pass_traced"][r["pass"]]]
        metrics = tracing.layer_metrics(
            res["spans"], res["counts"], traced_ops, sum(res["pass_traced"]),
            res["import_ms"], tracing.table_terms(),
            100.0 * (1.0 - traced / untraced) if untraced else 0.0)
        _write(args, "trace", {"spans": res["spans"], "counts": res["counts"]})
    else:
        latencies = [r["latency_s"] * 1e3 for r in timed if r["ok"]] or \
            [r["latency_s"] * 1e3 for r in timed]
        metrics = {"setup_s": (res["setup_s"], "s"),
                   "ops_per_s": (rate(False), "1/s"),
                   "latency_p50_ms": (common.percentile(latencies, 0.5), "ms"),
                   "peak_rss_mb": (res["peak_rss_mb"], "MB")}
    result = {"correct": correct, "attempted": len(records),
              "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    _write(args, "result", dict(result, operations=[
        {"op": _describe(res["ops"][r["op"]]), "pass": r["pass"],
         "latency_ms": r["latency_s"] * 1e3, "ok": r["ok"]} for r in records]))
    return result


def _describe(op):
    return " ".join(op["argv"]) if isinstance(op, dict) else repr(op)


def _write(args, kind, data):
    os.makedirs(common.OUT, exist_ok=True)
    path = os.path.join(common.OUT, f"{kind}-{args.workload}-seed{args.seed}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(data, fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=common.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(common.SRC, "cfx", "cli.py")):
        print(f"no cfx sources under {common.SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    # byte-compile the checkout's sources once, so no timed start compiles
    if not compileall.compile_dir(common.SRC, quiet=1):
        print("cfx sources do not compile", file=sys.stderr)
        return 2
    runner = run_cold_cli if args.workload == "cold-cli" else run_warm_curve
    print(json.dumps(report(args, runner(args))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
