"""The frame of every answer: ``ExpansionContext.quantile`` in theta^ units,
``cdf`` and ``density`` in Y = (theta^ - theta)/sqrt(a21/n), on both bases
and for left-skewed estimates, which the gamma base expands about a
reflected gamma."""

import json
import math
from fractions import Fraction as F

import pytest
from scipy import stats

from cfx import cli, cumulants, engine, oracle

N = F(2 * 24 * 60, 84)  # the sample-size parameter of lnF(24, 60) and lnF(60, 24)
MODELS = [(24, 60), (60, 24)]  # left-skewed (a reflected gamma base), right-skewed


def context(model, base):
    table = cumulants.model_lnF(*model)
    if base == "gamma":
        return engine.ExpansionContext.matched_gamma(table, N)
    return engine.ExpansionContext.raw(table, N)


def cli_json(argv, capsys):
    assert cli.main([*argv, "--format", "json"]) == cli.EXIT_OK
    return json.loads(capsys.readouterr().out)


def test_mirror_sign():
    assert context((24, 60), "gamma").flipped
    assert not context((60, 24), "gamma").flipped
    assert not context((24, 60), "normal").flipped


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("base", ["normal", "gamma"])
def test_context_methods_are_the_cli_answers(model, base, capsys):
    ctx = context(model, base)
    flags = ["--model", "lnF", "--n1", str(model[0]), "--n2", str(model[1]),
             "--base", base, "--order", "5"]
    doc = cli_json(["cdf", *flags, "--x", "0.8"], capsys)
    res = ctx.cdf(0.8, 5)
    assert (doc["value"], doc["base_cdf"], doc["terms"]) == \
        (res["value"], res["base"], res["terms"])
    assert doc["flipped"] == ctx.flipped
    for i in (0, 1):
        doc = cli_json(["density", *flags, "--x", "-0.6", "--i", str(i)], capsys)
        res = ctx.density(-0.6, i, 5)
        assert (doc["value"], doc["terms"]) == (res["value"], res["terms"])
    doc = cli_json(["quantile", *flags, "--p", "0.2"], capsys)
    exact = oracle.exact_lnF_quantile(*model, 0.2)
    res = ctx.quantile(0.2, 5, exact=exact)
    assert doc["value"] == res["value"] and doc["rows"] == res["rows"]


# Left-skewed tables, each with its sample size: on the gamma base each is
# expanded about the reflected gamma, its negation about the plain one.  The
# custom table's a21 = 2 makes its standardized coefficients floats.
LEFT_SKEWED = [
    (cumulants.model_lnF(24, 60), N),
    (cumulants.model_lnF(8, 30), F(2 * 8 * 30, 38)),
    (cumulants.model_studentized_mean(2, 9, 44), 200),
    (cumulants.model_gamma().negated(), 10),
    (cumulants.CumulantTable(
        F(1, 4), 2, {(1, 1): F(1, 3), (1, 2): F(-1, 5), (2, 2): F(2),
                     (2, 3): F(1, 7), (3, 2): F(-3, 2), (3, 3): F(1, 2),
                     (4, 3): F(3), (4, 4): F(2), (5, 4): F(-5), (6, 5): F(7)},
        label="custom"), 50),
]


def covered_contexts(table, n):
    """(J, K, R, context) at every (J, K) of the row schedule the table
    covers, R the highest order up to 8 it covers there."""
    out = []
    for J, K in sorted(set(engine.ROW_SCHEDULE.values())):
        try:
            ctx = engine.ExpansionContext.matched_gamma(table, n, J, K)
        except cumulants.ModelOrderError:
            continue
        R = 0
        while R < 8:
            try:
                ctx.validate(R + 1)
            except cumulants.ModelOrderError:
                break
            R += 1
        out.append((J, K, R, ctx))
    return out


def plus(values):
    return [v + 0.0 for v in values]


def test_mirrored_answers_are_mirror_images():
    # Y of a negated table is -Y, so its answers mirror the table's own:
    # bit for bit, but for the cdf value, which sums (1 - b) + sum(t)
    # where the mirror gives 1 - (b + sum(t))
    for table, n in LEFT_SKEWED:
        contexts = covered_contexts(table, n)
        mirrors = covered_contexts(table.negated(), n)
        assert contexts and [c[:3] for c in contexts] == [c[:3] for c in mirrors]
        for (J, K, top, left), (*_, right) in zip(contexts, mirrors):
            assert left.flipped and not right.flipped
            for R in range(top + 1):
                assert_mirror_images(left, right, R, (table.label, J, K, R))


def assert_mirror_images(left, right, R, where):
    for p in (0.05, 0.3, 0.5, 0.95):
        rows = left.quantile(p, R)["rows"]
        want = [{k: v if k == "order" else -v + 0.0 for k, v in row.items()}
                for row in right.quantile(1.0 - p, R)["rows"]]
        assert rows == want, (where, p)
    for y in (-20.0, -1.5, -0.3, 0.0, 0.8, 2.0):
        got, mirror = left.cdf(y, R), right.cdf(-y, R)
        assert got["base"] == 1.0 - mirror["base"], (where, y)
        assert got["terms"] == plus(-t for t in mirror["terms"]), (where, y)
        assert abs(got["value"] - (1.0 - mirror["value"])) <= 4e-16, (where, y)
        for i in (0, 1, 2):
            got, mirror = left.density(y, i, R), right.density(-y, i, R)
            sign = (-1) ** i
            assert got["value"] == sign * mirror["value"] + 0.0, (where, y, i)
            assert got["terms"] == plus(sign * t for t in mirror["terms"]), (where, y, i)


def exact_lnF(quantity, model, arg):
    """The exact law: quantiles of (1/2) ln F, cdf and density of
    Y = sqrt(n) (1/2) ln F."""
    if quantity == "quantile":
        return 0.5 * math.log(stats.f.ppf(arg, *model))
    root_n = math.sqrt(N)
    q = math.exp(2.0 * arg / root_n)
    if quantity == "cdf":
        return float(stats.f.cdf(q, *model))
    return float(stats.f.pdf(q, *model)) * 2.0 * q / root_n


# |error| allowance at R = 6 in units of n^{-7/2} (cdf, density) and n^{-4}
# (quantile); every order-0 answer misses it.
GAMMA_TOL = {"cdf": 1.0, "density": 3.0, "quantile": 9.0}


@pytest.mark.parametrize("model", MODELS)
def test_gamma_base_matches_the_exact_law(model):
    ctx = context(model, "gamma")
    answers = {"cdf": lambda y, R: ctx.cdf(y, R),
               "density": lambda y, R: ctx.density(y, 0, R),
               "quantile": lambda p, R: ctx.quantile(p, R)}
    for quantity, args in (("cdf", (-1.0, 0.0, 1.0)), ("density", (-1.0, 0.0, 1.0)),
                           ("quantile", (0.05, 0.5, 0.95))):
        tol = GAMMA_TOL[quantity] * float(N) ** (-4.0 if quantity == "quantile" else -3.5)
        for arg in args:
            exact = exact_lnF(quantity, model, arg)
            assert abs(answers[quantity](arg, 6)["value"] - exact) <= tol, (quantity, arg)
            assert abs(answers[quantity](arg, 0)["value"] - exact) > tol, (quantity, arg)


def test_gamma_cdf_against_simulation(capsys):
    # lnF(24, 60) has a reflected gamma base; its cdf is still P(Y <= y)
    doc = cli_json(["cdf", "--model", "lnF", "--n1", "24", "--n2", "60",
                    "--x", "1.0", "--order", "4", "--base", "gamma",
                    "--mc", "200000", "--seed", "1"], capsys)
    mc = doc["mc"]
    assert abs(doc["value"] - mc["estimate"]) / mc["stderr"] <= 3
    assert mc["within_3se"]


def test_gamma_first_derivative_matches_finite_difference():
    # (-d/dy) of the exact density of Y against the i = 1 expansion
    ctx = context((24, 60), "gamma")
    h = 1e-4
    for y in (-1.0, 1.0):
        fd = -(exact_lnF("density", (24, 60), y + h)
               - exact_lnF("density", (24, 60), y - h)) / (2 * h)
        assert ctx.density(y, 1, 6)["value"] == pytest.approx(fd, abs=5e-5)


EXPONENTIAL = {"nu3": F(2), "nu4": F(9), "nu5": F(44)}
NORMAL_MOMENTS = {2: F(1), 3: F(0), 4: F(3), 5: F(0), 6: F(15), 7: F(0),
                  8: F(105), 10: F(945)}
# Every model the simulation oracle samples, with the population, the sample
# size and the highest order its table supports.  The Studentized mean of a
# normal population has no skewness to match, so it uses the exponential
# one; the sample variance uses the normal population: with the exponential
# one at n = 200 both series are outside their range (the gamma base's
# order-3 term exceeds its order-2 term at x = -1 and the two bases differ by
# 0.025), a difference that falls to 1e-6 by n = 20000.
SAMPLED = [
    (cumulants.model_lnF(24, 60), {"model": "lnF", "n1": 24, "n2": 60}, N, 6),
    (cumulants.model_studentized_mean(**EXPONENTIAL),
     {"model": "studentized_mean", "population": "standardized_exponential"},
     200, 2),
    (cumulants.model_sample_variance(NORMAL_MOMENTS),
     {"model": "sample_variance", "population": "normal"}, 200, 3),
]


@pytest.mark.parametrize("table, spec, n, order", SAMPLED,
                         ids=[s[1]["model"] for s in SAMPLED])
def test_bases_agree_with_simulation(table, spec, n, order):
    xs = (-1.0, 0.0, 1.0)
    raw = engine.ExpansionContext.raw(table, n)
    gamma = engine.ExpansionContext.matched_gamma(table, n)
    sims = oracle.mc_cdf(spec, float(n), xs, 200_000, seed=11)
    for x, (est, se) in zip(xs, sims):
        a, b = raw.cdf(x, order)["value"], gamma.cdf(x, order)["value"]
        assert abs(a - b) <= 3 * se, (x, a, b, se)
        assert abs(a - est) <= 3 * se and abs(b - est) <= 3 * se, (x, a, b, est, se)


@pytest.mark.parametrize("model, y, value", [((24, 60), 20.0, 1.0),
                                              ((60, 24), -20.0, 0.0)])
def test_off_support_points(model, y, value):
    # where the base density is 0 every correction is 0: the cdf is the
    # base cdf and the density vanishes; no H-value is evaluated (at these
    # y the gamma base variable is about -87.6, off its support)
    gamma = context(model, "gamma")
    res = gamma.cdf(y, 4)
    assert res["value"] == res["base"] == value and not any(res["terms"])
    assert gamma.density(y, 1, 4)["value"] == 0.0
    normal = context(model, "normal")
    for far in (1e300, -1e300):
        assert normal.cdf(far, 4)["value"] == (far > 0)
        assert normal.density(far, 2, 4)["value"] == 0.0
