"""The in-process side of ``warm-curve``: one process that sets up and
then calls the cfx library as a user's session would, one point at a time.

    python bench/worker.py SEED SECONDS SPAWN_NS MODE

MODE is ``run`` (set up, then timed passes) or ``trace`` (the same, with
every second pass traced).  SPAWN_NS is the parent's ``time.perf_counter_ns``
just before it started this process.  The answers, latencies and spans go
to standard output as one JSON object; the parent checks the answers.
"""

import json
import resource
import sys
import time
from fractions import Fraction

import cfx.cli  # noqa: F401  (the whole package, as a user's import)

import_ms = (time.perf_counter_ns() - int(sys.argv[3])) / 1e6

import common  # noqa: E402
import tracing  # noqa: E402
from cfx import cumulants, engine  # noqa: E402


def warm_setup():
    """The contexts of every warm-curve operation, with the symbolic tables
    each operation class needs built by one untimed call per class."""
    contexts = {}
    for name, (n1, n2) in common.WARM_MODELS.items():
        table = cumulants.model_lnF(n1, n2)
        n = Fraction(2 * n1 * n2, n1 + n2)
        if name == "normal":
            contexts[name] = engine.ExpansionContext.raw(table, n)
        else:
            ctx = engine.ExpansionContext.matched_gamma(table, n)
            if ctx.flipped:
                raise RuntimeError(f"lnF{(n1, n2)} gamma context is flipped;"
                                   " its quantiles would be in another frame")
            contexts[name] = ctx
    return contexts


def warm_op(contexts, op):
    quantity, ctx_name, order, arg = op
    ctx = contexts[ctx_name]
    if quantity == "quantile":
        return engine.quantile_expand(ctx, arg, order)["value"]
    if quantity == "cdf":
        return engine.cdf_expand(ctx, arg, order)["value"]
    return engine.density_expand(ctx, arg, 0, order)["value"]


def attempt(contexts, op):
    """(answer, error text): the operation's failure is recorded, never
    raised, so one failing class does not end the run."""
    try:
        return warm_op(contexts, op), None
    except Exception as exc:  # noqa: BLE001  (reported per operation)
        return None, f"{type(exc).__name__}: {exc}"


def main():
    seed, seconds, spawn_ns, mode = sys.argv[1:5]
    seed, seconds, spawn_ns = int(seed), float(seconds), int(spawn_ns)
    tracer = tracing.Tracer() if mode == "trace" else None
    if tracer:
        tracer.install()
    ops, state = common.warm_curve_ops(seed), warm_setup()
    seen = set()
    for op in ops:
        if op[:3] not in seen:
            seen.add(op[:3])
            attempt(state, op)
    setup_s = (time.perf_counter_ns() - spawn_ns) / 1e9

    results = []

    def run_one(i, pass_i, traced):
        if tracer and i == 0:
            tracer.uninstall()
            if traced:
                tracer.install()
        if traced:
            tracer.op = pass_i * len(ops) + i
        t0 = time.perf_counter()
        answer, error = attempt(state, ops[i])
        results.append([i, pass_i, answer, error, time.perf_counter() - t0])

    pass_s, pass_traced = common.timed_passes(len(ops), seconds,
                                              tracer is not None, run_one)
    if tracer:
        tracer.uninstall()
    out = {"setup_s": setup_s, "import_ms": import_ms,
           "pass_s": pass_s, "pass_traced": pass_traced, "results": results,
           "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer:
        out.update(tracer.dump())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
