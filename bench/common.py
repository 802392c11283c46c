"""Paths, seeded operation lists and statistics shared by the benchmark's
scripts.

An operation is one user question.  Each workload runs whole passes over a
fixed operation list made from the seed, so every run attempts the same mix
and the known-fault operations are the same share of every run.
"""

from __future__ import annotations

import math
import os
import random
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("cold-cli", "warm-curve")

# The statistic every lnF operation asks about: half the log of an F ratio.
# lnF(24, 60) has negative skewness, so its matched-gamma context is flipped;
# lnF(60, 24) is its mirror image and is not.
LNF = (24, 60)
LNF_MIRROR = (60, 24)
# Matched-gamma shape m = n * tau of about 1.87e4: past the range where
# basedist.reg_inc_gamma converges near x = a (fault F2).
LNF_LARGE = (6000, 2400)

# The simulation cross-checks of cold-cli (`cfx cdf ... --mc N`).
MC_N_SMALL = 200          # sample size of the Studentized mean
MC_REPS = 200_000         # replications, Studentized mean (a 200 000 x n shard)
MC_REPS_LNF = 1_000_000   # replications, lnF


def lnF_n(n1, n2):
    """The sample-size parameter of lnF: the harmonic mean of the df."""
    return 2.0 * n1 * n2 / (n1 + n2)


def child_env():
    """Environment for every process that runs cfx: the checkout's own
    sources, the default order guard."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("CFX_MAX_ORDER", None)
    return env


def stratified(rng, lo, hi, count):
    """One uniform draw in each of ``count`` equal cells of [lo, hi]."""
    width = (hi - lo) / count
    return [lo + width * (i + rng.random()) for i in range(count)]


def _arg(v):
    return f"{v:.6f}"


def cold_cli_ops(seed):
    """One pass of ``cold-cli``: each operation is one fresh
    ``python -m cfx.cli ... --format json`` process.

    Returns dicts with the CLI arguments, the check to apply, the
    simulation the answer carries (None, or the ``MC_CASES`` case whose
    ``--mc`` estimate is checked too) and the known fault the operation
    reproduces (None when it must pass)."""
    rng = random.Random(seed)
    p_normal, *p_gamma = (float(_arg(p)) for p in stratified(rng, 0.05, 0.95, 4))
    x_cdf, x_density, x_t = (float(_arg(x))
                             for x in stratified(rng, -2.5, 2.5, 3))
    lnf = ["--model", "lnF", "--n1", str(LNF[0]), "--n2", str(LNF[1])]

    def lnf_op(quantity, flag, value, order, base="normal", fault=None):
        argv = [quantity] + lnf + [flag, _arg(value), "--order", str(order)]
        if base == "gamma":
            argv += ["--base", "gamma"]
        return {"argv": argv,
                "check": ("lnF", base, quantity, LNF, value, order),
                "mc": None, "fault": fault}

    # A simulation cross-check as a user asks for it; its stream seed comes
    # from the run's seed.
    lnf_mc = lnf_op("cdf", "--x", x_cdf, 8)
    lnf_mc["argv"] += ["--mc", str(MC_REPS_LNF), "--seed", str(seed * 1009)]
    lnf_mc["mc"] = ("lnF", x_cdf)
    t_mc = {"argv": ["cdf", "--model", "studentized_mean", "--nu3", "0",
                     "--nu4", "3", "--n", str(MC_N_SMALL), "--x", _arg(x_t),
                     "--order", "2", "--mc", str(MC_REPS), "--population",
                     "normal", "--seed", str(seed * 1009 + 1)],
            "check": ("t-normal", x_t, 2), "mc": ("t-normal", x_t),
            "fault": None}

    # The three gamma quantiles (about 0.8 s each) are the middle of the
    # passing latencies: three passing operations are cheaper (density,
    # the lnF simulation, coeffs at 0.75 s) and three dearer (validate, the
    # Studentized-mean simulation, the R = 8 quantile), so the median of
    # any number of passes falls among the gamma quantiles and coeffs.
    ops = [
        lnf_op("quantile", "--p", p_normal, 8),
        lnf_op("quantile", "--p", p_gamma[0], 6, base="gamma"),
        lnf_mc,
        lnf_op("quantile", "--p", p_gamma[1], 6, base="gamma"),
        lnf_op("density", "--x", x_density, 8),
        t_mc,
        lnf_op("quantile", "--p", p_gamma[2], 6, base="gamma"),
        # F1: the gamma-base cdf and density answer in the context's frame.
        lnf_op("cdf", "--x", 1.0, 6, base="gamma", fault="F1"),
        lnf_op("density", "--x", 1.0, 6, base="gamma", fault="F1"),
        {"argv": ["coeffs", "--kind", "f", "--r", "8"], "check": ("f-table",),
         "mc": None, "fault": None},
        {"argv": ["validate", "--deep"], "check": ("validate",), "mc": None,
         "fault": None},
    ]
    for op in ops:
        op["argv"] = op["argv"] + ["--format", "json"]
    return ops


# Grid sizes of warm-curve: 16 points at R = 6 and 6 at R = 8.  With these
# sizes the median falls inside one operation class (the normal-base
# quantiles at R = 6), not on the boundary between two.
WARM_GRID = {6: 16, 8: 6}


def warm_curve_ops(seed):
    """One pass of ``warm-curve``: tuples (quantity, context, R, argument),
    each one library call for one point.

    Contexts: ``normal`` is lnF(24, 60) on the raw normal base, ``gamma``
    is lnF(60, 24) on the matched gamma base, ``gamma-large`` is
    lnF(6000, 2400) on the matched gamma base (fault F2)."""
    rng = random.Random(seed)
    ops = []
    for order, count in WARM_GRID.items():
        p_grid = stratified(rng, 0.05, 0.95, count)
        x_grid = stratified(rng, -2.5, 2.5, count)
        ops += [("quantile", "normal", order, p) for p in p_grid]
        ops += [("cdf", "normal", order, x) for x in x_grid]
        ops += [("density", "normal", order, x) for x in x_grid]
        ops += [("quantile", "gamma", order, p) for p in p_grid]
    ops += [("quantile", "gamma-large", 6, p) for p in (0.05, 0.5, 0.95)]
    return ops


WARM_MODELS = {"normal": LNF, "gamma": LNF_MIRROR, "gamma-large": LNF_LARGE}
WARM_BASES = {"normal": "normal", "gamma": "gamma", "gamma-large": "gamma"}
WARM_FAULTS = {"gamma-large": "F2"}

# The simulated statistics of the ``--mc`` cross-checks.
MC_CASES = {
    "t-normal": {"model": "studentized_mean", "population": "normal"},
    "lnF": {"model": "lnF", "n1": LNF[0], "n2": LNF[1]},
}


def mc_n(case):
    return lnF_n(*LNF) if case == "lnF" else MC_N_SMALL


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least a share q
    of the values at or below it.  For k whole passes over one operation
    list it picks the same operation class whatever k is."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)), 1) - 1]


def timed_passes(n_ops, seconds, trace, run_one):
    """Whole passes over operations 0..n_ops-1 until ``seconds`` have passed;
    when ``trace`` is set, every second pass is traced and there are at
    least two.  ``run_one(op_index, pass_index, traced)`` runs one operation.
    Returns the wall seconds of each pass and whether it was traced."""
    pass_s, pass_traced = [], []
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(pass_s) % 2 == 1
        t_pass = time.perf_counter()
        for i in range(n_ops):
            run_one(i, len(pass_s), traced)
        pass_s.append(time.perf_counter() - t_pass)
        pass_traced.append(traced)
        if time.perf_counter() - start >= seconds and (not trace or len(pass_s) >= 2):
            return pass_s, pass_traced
