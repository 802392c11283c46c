"""Answer checks.

Every check compares an answer with scipy's exact law or with a property
the method must have: an order-bounded error, agreement of the inversion
ladder with formal series reversion, or agreement of a simulation within a
multiple of its standard error.  None compares with a stored copy of cfx
output.  ``self_test`` shows that each kind of check rejects a perturbed
answer.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

from scipy import stats

import common

# An order-R expansion of lnF errs by O(n^{-(R+1)/2}) in the frame of Y =
# sqrt(n) Z (cdf, density) and by O(n^{-1/2} n^{-(R+1)/2}) in the frame of
# Z itself (quantile; the scale of that frame is n^{-1/2}).  The allowance is
# TOL_C[base, quantity, R] times that unit.  The error constants differ by
# two orders of magnitude between the bases and the quantities, and on the
# gamma base they grow with R, so one constant would let the normal base drop
# its highest orders unseen.  Each constant lies between the largest ratio
# |error| / unit over the operation domain (p in [.05, .95], x in [-2.5, 2.5];
# lnF(24, 60) and its mirror lnF(60, 24), n = 240/7) on the seed code, and
# the ratio of the same call truncated at order R - 1 at the point in
# TRUNCATION_POINTS, so that dropping order R is rejected there:
#
#   base    quantity  R  largest ratio    constant  truncated at R - 1
#   normal  quantile  6  0.54 (p = .05)   1.0       1.96 (p = .05)
#   normal  quantile  8  0.16 (p = .95)   1.0       2.60 (p = .05)
#   normal  cdf       6  0.030            0.15      0.45 (x = -2.5)
#   normal  cdf       8  0.053            0.15      0.34 (x = -2.5)
#   normal  density   6  0.10             0.3       0.48 (x = -2.5)
#   normal  density   8  0.16             0.3       0.66 (x = -2.5)
#   gamma   quantile  6  5.7 (p = .05)    9.0       11.5 (p = .95)
#   gamma   quantile  8  41 (p = .05)     60.0      80 (p = .95)
#   gamma   cdf       6  0.56             1.0       1.52 (x = -2.5)
#   gamma   density   6  1.7              3.0       4.5 (x = -2.1)
#
# (gamma: lnF(60, 24) on the matched gamma base; the flipped lnF(24, 60) is
# its mirror image.  The gamma cdf and density rows are the library's answers
# mapped to Y's frame, which the CLI does not do yet: fault F1.)
TOL_C = {
    ("normal", "quantile", 6): 1.0, ("normal", "quantile", 8): 1.0,
    ("normal", "cdf", 6): 0.15, ("normal", "cdf", 8): 0.15,
    ("normal", "density", 6): 0.3, ("normal", "density", 8): 0.3,
    ("gamma", "quantile", 6): 9.0, ("gamma", "quantile", 8): 60.0,
    ("gamma", "cdf", 6): 1.0, ("gamma", "density", 6): 3.0,
}
# The fixed (model, argument) at which the self-tests perturb each lnF check;
# truncation_self_test drops order R there.
TRUNCATION_POINTS = {
    ("normal", "quantile"): (common.LNF, 0.05),
    ("normal", "cdf"): (common.LNF, -2.5),
    ("normal", "density"): (common.LNF, -2.5),
    ("gamma", "quantile"): (common.LNF_MIRROR, 0.95),
    ("gamma", "cdf"): (common.LNF_MIRROR, -2.5),
    ("gamma", "density"): (common.LNF_MIRROR, -2.1),
}
# The order-2 cdf expansion of the Studentized mean of a normal population
# (n = 200) against the Student t law, with the allowance T_C * n^{-3/2}:
# the largest ratio over x in [-2.5, 2.5] is 0.032, and dropping order 2
# gives 3.6 at x = -1.5.
T_C = 0.15
T_TRUNCATION_X = -1.5
# A simulation must agree with its reference within this many standard
# errors.  Six makes a chance rejection about 2e-9 per call for an exact
# reference, and is still well below the 10 se perturbation of the self-test.
MC_K = 6.0


def lnF_exact(quantity, n1, n2, arg):
    """The exact answer for lnF, in the CLI's and the library's frame:
    quantiles of (1/2) ln F, cdf and density of Y = sqrt(n) (1/2) ln F."""
    if quantity == "quantile":
        return 0.5 * math.log(stats.f.ppf(arg, n1, n2))
    root_n = math.sqrt(common.lnF_n(n1, n2))
    q = math.exp(2.0 * arg / root_n)
    if quantity == "cdf":
        return float(stats.f.cdf(q, n1, n2))
    if quantity == "density":
        return float(stats.f.pdf(q, n1, n2)) * 2.0 * q / root_n
    raise ValueError(f"unknown quantity {quantity!r}")


def lnF_tolerance(base, quantity, model, order):
    """The allowed |error| of an order-``order`` lnF answer."""
    n = common.lnF_n(*model)
    unit = n ** (-(order + 1) / 2.0)
    if quantity == "quantile":
        unit /= math.sqrt(n)
    return TOL_C[base, quantity, order] * unit


def lnF_ok(base, quantity, model, arg, order, value):
    if not isinstance(value, float) or not math.isfinite(value):
        return False
    return (abs(value - lnF_exact(quantity, *model, arg))
            <= lnF_tolerance(base, quantity, model, order))


def f_table_oracle(order):
    """{partition text: coefficient text} of f_order, re-derived by
    ``oracle.reversion_fg`` (formal reversion, no inversion ladder).

    The table depends on the cfx sources alone and takes seconds to derive,
    so it is kept in ``bench/out`` under a hash of those sources and derived
    again whenever a source file changes."""
    pkg = os.path.join(common.SRC, "cfx")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    path = os.path.join(common.OUT,
                        f"f{order}-oracle-{digest.hexdigest()[:16]}.json")
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    from cfx import oracle
    fs, _ = oracle.reversion_fg(order)
    table = {pi.text(): val.text() for pi, val in fs[order - 1].bracket_items()}
    os.makedirs(common.OUT, exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(table, fh)
    os.replace(path + ".tmp", path)
    return table


def f_table_ok(payload, oracle_table):
    """Every partition's coefficient in a ``cfx coeffs --format json``
    document equals the reversion oracle's, and no partition is missing."""
    got = {t["partition"]: t["coeff_H"] for t in payload.get("terms", [])}
    return bool(got) and got == oracle_table


def validate_ok(returncode, payload):
    return returncode == 0 and payload.get("passed") is True


def t_normal_exact(x):
    """P(Y <= x) for the Studentized mean of a normal population at
    n = MC_N_SMALL: the Student t law with n - 1 degrees of freedom."""
    n = common.MC_N_SMALL
    return float(stats.t.cdf(x * math.sqrt((n - 1) / n), n - 1))


def t_normal_ok(x, order, value):
    if not isinstance(value, float) or not math.isfinite(value):
        return False
    unit = common.MC_N_SMALL ** (-(order + 1) / 2.0)
    return abs(value - t_normal_exact(x)) <= T_C * unit


def cli_ok(op, returncode, payload, oracle_table):
    """The check of one ``cfx ... --format json`` command ``op`` from
    ``common.cold_cli_ops``: its answer, and its simulation if it has one."""
    check = op["check"]
    if check[0] == "validate":
        return validate_ok(returncode, payload)
    if returncode != 0:
        return False
    if check[0] == "f-table":
        return f_table_ok(payload, oracle_table)
    if op["mc"] is not None:
        mc = payload.get("mc") or {}
        if not mc_ok(*op["mc"], mc.get("estimate", math.nan),
                     mc.get("stderr", 0.0)):
            return False
    if check[0] == "t-normal":
        return t_normal_ok(check[1], check[2], payload.get("value"))
    _, base, quantity, model, arg, order = check
    return lnF_ok(base, quantity, model, arg, order, payload.get("value"))


def mc_reference(case, x):
    """The exact law a simulated P(Y <= x) must agree with."""
    if case == "t-normal":
        return t_normal_exact(x)
    if case == "lnF":
        return lnF_exact("cdf", *common.LNF, x)
    raise ValueError(f"unknown case {case!r}")


def mc_ok(case, x, estimate, stderr):
    if not (isinstance(estimate, float) and math.isfinite(estimate)
            and stderr > 0):
        return False
    return abs(estimate - mc_reference(case, x)) <= MC_K * stderr


def self_test(oracle_table=None):
    """Names of the check kinds that failed to reject a perturbed answer
    (or rejected the unperturbed one); empty when every check can fail.

    lnF and Studentized-mean checks get the exact value shifted by ten
    times the tolerance (see
    ``truncation_self_test`` for the finer test of dropping one order),
    simulation checks an estimate moved by 10 se, and the f-table check one
    altered coefficient (when ``oracle_table`` is given)."""
    broken = []
    for base, quantity, order in TOL_C:
        model, arg = TRUNCATION_POINTS[base, quantity]
        exact = lnF_exact(quantity, *model, arg)
        shift = 10 * lnF_tolerance(base, quantity, model, order)
        if (not lnF_ok(base, quantity, model, arg, order, exact)
                or lnF_ok(base, quantity, model, arg, order, exact + shift)):
            broken.append(f"lnF-{base}-{quantity}-R{order}")
    exact = t_normal_exact(T_TRUNCATION_X)
    shift = 10 * T_C * common.MC_N_SMALL ** -1.5
    if (not t_normal_ok(T_TRUNCATION_X, 2, exact)
            or t_normal_ok(T_TRUNCATION_X, 2, exact + shift)):
        broken.append("t-normal-cdf-R2")
    for case in common.MC_CASES:
        reps = common.MC_REPS_LNF if case == "lnF" else common.MC_REPS
        for x in (-1.0, 0.0, 1.0):
            ref = mc_reference(case, x)
            se = math.sqrt(ref * (1.0 - ref) / reps)
            if not mc_ok(case, x, ref, se) or mc_ok(case, x, ref + 10 * se, se):
                broken.append(f"mc-{case}-{x}")
    if oracle_table is not None:
        terms = [{"partition": k, "coeff_H": v}
                 for k, v in oracle_table.items()]
        altered = [dict(t) for t in terms]
        altered[len(altered) // 2]["coeff_H"] += " + 1/3"
        if (not f_table_ok({"terms": terms}, oracle_table)
                or f_table_ok({"terms": altered}, oracle_table)):
            broken.append("f-table")
    if validate_ok(0, {"passed": False}) or not validate_ok(0, {"passed": True}):
        broken.append("validate")
    return broken


def _library_answer(base, quantity, model, arg, order):
    """(the order-R answer, the same call truncated at order R - 1) from the
    cfx library, mapped to the frame the checks use: Z for quantiles, Y =
    sqrt(n) Z for cdf and density.  ``base`` is ``normal`` (the raw
    context) or ``gamma`` (the matched gamma context, which must not be
    flipped for ``model``)."""
    from cfx import cumulants, engine
    n1, n2 = model
    table = cumulants.model_lnF(n1, n2)
    n = Fraction(2 * n1 * n2, n1 + n2)
    if base == "normal":
        ctx = engine.ExpansionContext.raw(table, n)
    else:
        ctx = engine.ExpansionContext.matched_gamma(table, n)
        if ctx.flipped:
            raise ValueError(f"lnF{model} has a flipped gamma context")
    if quantity == "quantile":
        rows = engine.quantile_expand(ctx, arg, order)["rows"]
        return rows[-1]["total"], rows[-2]["total"]
    root_n = math.sqrt(n)
    w = (arg / root_n - ctx.center) / ctx.scale
    if quantity == "cdf":
        res, jacobian = engine.cdf_expand(ctx, w, order), 1.0
    else:
        res = engine.density_expand(ctx, w, 0, order)
        jacobian = 1.0 / (root_n * ctx.scale)
    return (res["value"] * jacobian,
            (res["value"] - res["terms"][-1]) * jacobian)


def truncation_self_test():
    """Names of the expansion checks that accept an answer with its top
    order dropped: at each TOL_C key, the cfx library's order-R answer at
    the TRUNCATION_POINTS point must pass and the same call truncated at
    order R - 1 must fail; likewise the Studentized mean at T_TRUNCATION_X.
    Builds the symbolic tables through order 8 (seconds)."""
    from cfx import cumulants, engine
    broken = []
    ctx = engine.ExpansionContext.raw(
        cumulants.model_studentized_mean(Fraction(0), Fraction(3)),
        common.MC_N_SMALL)
    res = engine.cdf_expand(ctx, T_TRUNCATION_X, 2)
    if (not t_normal_ok(T_TRUNCATION_X, 2, res["value"])
            or t_normal_ok(T_TRUNCATION_X, 2,
                           res["value"] - res["terms"][-1])):
        broken.append("t-normal-cdf-R2-truncated")
    for base, quantity, order in TOL_C:
        model, arg = TRUNCATION_POINTS[base, quantity]
        answer, truncated = _library_answer(base, quantity, model, arg, order)
        if (not lnF_ok(base, quantity, model, arg, order, answer)
                or lnF_ok(base, quantity, model, arg, order, truncated)):
            broken.append(f"lnF-{base}-{quantity}-R{order}-truncated")
    return broken
