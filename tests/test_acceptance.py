"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (run with ``pytest tests/test_acceptance.py -v -s``).

The final divergence test checks a published qualitative claim about the
(5, 5) half-log-F series against exact evaluation: the claim does not hold,
so the test asserts the convergence the series actually shows, with the
claim and the term/error table that refutes it in its docstring.
"""

import math
import time
from fractions import Fraction as F

from cfx import basedist, cumulants, engine, hbasis, oracle
from cfx.hpoly import Poly
from cfx.partitions import Partition

import _engine_routes as routes
import golden_normal as gn
import _sv_oracle

H = hbasis.H


def _report(name, started, detail=""):
    print(f"\nACCEPTANCE {name}: PASS ({time.time() - started:.2f}s) {detail}")


# ---------------------------------------------------------------------------

def test_c01_reference_quantile_table():
    """Successive quantile terms for half the log-F ratio (24, 60) at the
    95th percentile, orders 0..6, each to 5e-8; order-6 total to 5e-8; and
    the total within 5e-7 of the exact quantile.  Runtime < 1 s."""
    t0 = time.time()
    table = cumulants.model_lnF(24, 60)
    n = F(2 * 24 * 60, 84)
    ctx = engine.ExpansionContext.raw(table, n)
    res = engine.quantile_expand(ctx, 0.95, 6)
    expected = [0.28091224, -0.01960643, 0.00446851, -0.00048004,
                0.00005645, -0.00000154, -0.00000102]
    for row, want in zip(res["rows"], expected):
        assert abs(row["term"] - want) <= 5e-8, (row["order"], row["term"], want)
    assert abs(res["value"] - 0.26534817) <= 5e-8
    exact = oracle.exact_lnF_quantile(24, 60, 0.95)
    assert abs(exact - 0.26534844) < 1e-8
    assert abs(res["value"] - exact) <= 5e-7
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _report("C1 quantile table", t0, f"total={res['value']:.8f}")


def test_c02_normal_coefficient_suite():
    """Normal-specialized forward coefficients through order 5 and inverse
    coefficients through order 6 match the reference tables exactly (with
    the four documented errata values asserted explicitly).  Runtime < 5 s."""
    t0 = time.time()
    for r, entries in gn.F_TABLE.items():
        if r > 5:
            continue
        got = {pi.text(): val for pi, val in routes.normal_table("f", r).items()}
        for key, want in entries.items():
            assert got[key] == want, f"f({key}) at r={r}"
        for key in gn.F_ZEROS.get(r, []):
            assert key not in got
    for r, entries in gn.G_TABLE.items():
        got = {pi.text(): val for pi, val in routes.normal_table("g", r).items()}
        assert set(got) == set(entries), r
        for key, want in entries.items():
            assert got[key] == want, f"g({key}) at r={r}"
    # the four historically-corrected entries, asserted by name
    x = Poly.atom(1)
    f3 = {pi.text(): v for pi, v in routes.normal_table("f", 3).items()}
    assert f3["1 4"] == -3 * routes.hermite_x_poly(2)       # not a repeat of f(1 2)
    f4 = {pi.text(): v for pi, v in routes.normal_table("f", 4).items()}
    assert f4["1 5"] == -4 * routes.hermite_x_poly(3)       # -4 He3, not -4(x^3 - x)
    assert f4["3^4"] == -4 * (948 * x**5 - 3628 * x**3 + 2473 * x)  # trailing x present
    g3 = {pi.text(): v for pi, v in routes.normal_table("g", 3).items()}
    assert g3["3 4"] == -6 * (x**4 - 5 * x**2 + 2)          # the factor -6 present
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("C2 normal golden suite", t0)


def test_c03_symbolic_spot_suite():
    """Exact symbolic-form equality for the spot set: f(4^2), g(4^2),
    f(34), g(34), g(2^3), f(1^3 4), and the leading five monomials of
    g(3^4)."""
    t0 = time.time()
    f4 = dict(engine.coefficient_table("f", 4))
    g4 = dict(engine.coefficient_table("g", 4))
    f3 = dict(engine.coefficient_table("f", 3))
    g3 = dict(engine.coefficient_table("g", 3))
    f5 = dict(engine.coefficient_table("f", 5))
    g6 = dict(engine.coefficient_table("g", 6))
    assert f4[Partition.of(4, 4)] == H(7) - H(1) * H(3) ** 2
    assert g4[Partition.of(4, 4)] == H(7) - 2 * H(3) * H(4) + H(1) * H(3) ** 2
    assert f3[Partition.of(3, 4)] == H(6) - H(1) * H(2) * H(3)
    assert g3[Partition.of(3, 4)] == (H(6) - H(2) * H(4) - H(3) ** 2
                                      + H(1) * H(2) * H(3))
    assert g6[Partition.of(2, 2, 2)] == (
        H(5) - 3 * H(1) * H(4) - 3 * H(2) * H(3) + 6 * H(1) ** 2 * H(3)
        + 6 * H(1) * H(2) ** 2 - 10 * H(1) ** 3 * H(2) + 3 * H(1) ** 5)
    assert f5[Partition.of(1, 1, 1, 4)] == (
        H(6) - 3 * H(1) * H(5) - 3 * H(2) * H(4) + 6 * H(1) ** 2 * H(4)
        - H(3) ** 2 + 6 * H(1) * H(2) * H(3) - 6 * H(1) ** 3 * H(3))
    g34 = g4[Partition.of(3, 3, 3, 3)]
    for mono, want in [((11,), 1), ((2, 9), -4), ((3, 8), -4),
                       ((1, 2, 8), 4), ((2, 2, 7), 6)]:
        assert g34.coefficient(mono) == want, mono
    _report("C3 symbolic spot suite", t0)


def test_c04_conversion_suite():
    """Derivative-ratio / log-density-derivative / ladder conversions match
    every reference row through order 6, exactly."""
    t0 = time.time()
    a = hbasis.a_sym
    assert hbasis.H_from_a(4) == (a(1)**4 - 6*a(1)**2*a(2) + 3*a(2)**2
                                  + 4*a(1)*a(3) - a(4))
    assert hbasis.H_from_a(6) == (
        a(1)**6 - 15*a(1)**4*a(2) + 45*a(1)**2*a(2)**2 - 15*a(2)**3
        + 20*a(1)**3*a(3) - 60*a(1)*a(2)*a(3) + 10*a(3)**2
        - 15*a(1)**2*a(4) + 15*a(2)*a(4) + 6*a(1)*a(5) - a(6))
    assert routes.a_from_H(2) == H(1)**2 - H(2)
    assert routes.a_from_H(3) == 2*H(1)**3 - 3*H(1)*H(2) + H(3)
    assert routes.a_from_H(6) == (
        120*H(1)**6 - 360*H(1)**4*H(2) + 120*H(1)**3*H(3) - 30*H(1)**2*H(4)
        + 6*H(1)*H(5) - H(6) + 270*H(1)**2*H(2)**2 - 120*H(1)*H(2)*H(3)
        - 30*H(2)**3 + 15*H(2)*H(4) + 10*H(3)**2)
    assert routes.b_from_a(2) == a(2) + a(1)**2
    assert routes.b_from_a(5) == (a(5) + 5*a(1)*a(4) + 10*a(2)*a(3)
                                  + 10*a(1)**2*a(3) + 15*a(1)*a(2)**2
                                  + 10*a(1)**3*a(2) + a(1)**5)
    assert routes.b_from_a(6) == (
        a(6) + 6*a(1)*a(5) + 15*a(2)*a(4) + 10*a(3)**2 + 15*a(1)**2*a(4)
        + 60*a(1)*a(2)*a(3) + 15*a(2)**3 + 20*a(1)**3*a(3)
        + 45*a(1)**2*a(2)**2 + 15*a(1)**4*a(2) + a(1)**6)
    assert routes.b_poly(5) == (120*H(1)**5 - 240*H(1)**3*H(2)
                                + 60*H(1)**2*H(3) + 90*H(1)*H(2)**2
                                - 10*H(1)*H(4) - 20*H(2)*H(3) + H(5))
    for r in range(1, 7):
        back = hbasis.H_from_a(r).eval(
            {i: routes.a_from_H(i) for i in range(1, r + 1)})
        assert back == H(r), r
    _report("C4 conversion suite", t0)


def test_c05_reversion_oracle_equivalence():
    """The reversion-derived forward and inverse polynomials equal the
    operator-ladder tables exactly, orders 1..6, fully symbolic.
    Runtime < 30 s."""
    t0 = time.time()
    fs, gs = oracle.reversion_fg(6)
    for r in range(1, 7):
        assert fs[r - 1] == engine.fg_formal("f", r), f"f_{r}"
        assert gs[r - 1] == engine.fg_formal("g", r), f"g_{r}"
    elapsed = time.time() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _report("C5 reversion equivalence", t0)


def test_c06_leading_split_redundancy():
    """The closed leading-plus-residual split equals the generic double sum
    exactly, for every kind and order 1..6, under each per-order (J, K)
    regime with matched skew."""
    t0 = time.time()
    import random
    rnd = random.Random(20240)

    def pattern(J, K):
        t = cumulants.ATable({}, "all", label=f"rand({J},{K})")
        entries = {}
        for r in range(1, 11):
            for i in range(max(1, r - 1), 14):
                zero = ((r == 1 and i <= J) or (r == 2 and 2 <= i <= K)
                        or (r, i) == (3, 2))
                if not zero:
                    entries[(r, i)] = F(rnd.randint(-30, 30), rnd.randint(1, 11))
        t.entries = {k: v for k, v in entries.items() if v}
        return t

    regimes = {1: (1, 1), 2: (1, 2), 3: (2, 2), 4: (2, 3), 5: (3, 3), 6: (3, 4)}
    for r, (J, K) in regimes.items():
        A = pattern(J, K)
        for kind in ("h", "f", "g"):
            assert (engine.e_r_standardized(kind, r, A)
                    == routes.e_r_closed(kind, r, A)), (kind, r)
    _report("C6 split redundancy", t0)


def test_c07_term_counts():
    """Term-count accounting under the documented monomial convention.

    Mandatory: the inverse-map cumulative counts 48+29 (plain normal) vs
    11+7 (matched ladder, 77% saving) through order 6, and the forward-map
    figures 14+2 vs 3+1 through order 3 (75% saving).  The full matrix is
    printed; per-order cells that disagree with the published matrix under
    this convention are reported, not forced."""
    t0 = time.time()
    raw = engine.term_count_cumulative(
        "g", 6, schedule={r: (0, 1) for r in range(7)}, matched=False,
        base="normal")
    matched = engine.term_count_cumulative("g", 6, matched=True,
                                           base="general", drop_multi3=True)
    assert raw == (48, 29)
    assert matched == (11, 7)
    assert round(100 * (1 - sum(matched) / sum(raw))) == 77
    f_raw = engine.term_count_cumulative(
        "f", 3, schedule={r: (0, 1) for r in range(4)}, matched=False,
        base="normal", include_order0=False)
    f_matched = engine.term_count_cumulative(
        "f", 3, schedule={r: (2, 2) for r in range(4)}, matched=True,
        base="general")
    assert f_raw == (14, 2)
    assert f_matched == (3, 1)
    assert round(100 * (1 - sum(f_matched) / sum(f_raw))) == 75
    assert engine.term_count("g", 1, 1, 1, matched=True) == (0, 0)

    # published per-order cells known to disagree under this convention,
    # reported with the computed values (order, kind, computed, published)
    diffs = [
        ("h", 5, engine.term_count("h", 5, 0, 1, matched=False, base="normal"),
         (28, 15)),
        ("f", 2, engine.term_count("f", 2, 0, 1, matched=False, base="normal"),
         (3, 0)),
        ("g", 5, engine.term_count("g", 5, 3, 3, matched=True, base="general"),
         (2, 2)),
    ]
    lines = [f"    {k}_{r}: computed {c}, published {p}" for k, r, c, p in diffs
             if c != p]
    detail = "convention diffs reported: " + str(len(lines))
    print("\n  term-count cells differing from the published matrix under")
    print("  the monomial-count convention (reported, not forced):")
    for ln in lines:
        print(ln)
    _report("C7 term counts", t0, detail)


def test_c08_inverse_map_scaling():
    """The truncated forward and inverse maps compose to the identity up to
    the expected power of the expansion parameter: the fitted log-log slope
    is at most -(R+1)/2 + 0.1 for R in {2, 3, 4}."""
    t0 = time.time()
    import numpy as np
    lvals = [1.0, 0.5, 0.7, 0.4, 0.3, 0.2, 0.15, 0.1, 0.08, 0.05, 0.04, 0.03,
             0.02, 0.02, 0.01]
    base = basedist.normal()
    x = 0.4
    for R in (2, 3, 4):
        errs = []
        for n in (100.0, 1000.0, 10000.0):
            Fm, Gm = routes.formal_series_maps(R, lvals, base, n)
            errs.append(abs(Fm(Gm(x)) - x))
        slope = np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(errs), 1)[0]
        assert slope <= -(R + 1) / 2 + 0.1, (R, slope, errs)
    _report("C8 inverse-map scaling", t0)


def test_c09_skewness_kill():
    """For each built-in skewed model the matched-gamma pipeline makes the
    third-order difference coefficient exactly zero and the order-1
    expansion polynomial vanish symbolically once the mean series is
    truncated (J >= 1)."""
    t0 = time.time()
    models = [
        cumulants.model_lnF(24, 60),
        cumulants.model_studentized_mean(**cumulants.STANDARDIZED_EXPONENTIAL),
        cumulants.model_sample_variance(_sv_oracle.population_moments(
            [(-1, F(2, 5)), (0, F(2, 5)), (2, F(1, 5))], 10)),
    ]
    for table in models:
        ctx = engine.ExpansionContext.matched_gamma(table, 50, J=1, K=1)
        assert ctx.atable.get(3, 2) == 0, table.label
        for kind in ("h", "f", "g"):
            e1 = engine.e_r_standardized(kind, 1, ctx.atable)
            assert not e1, (table.label, kind)
    _report("C9 skewness kill", t0)


def test_c10_monte_carlo_sanity():
    """Order-2 distribution expansion for the Studentized mean of a
    standardized exponential population at n = 200 lies within 3 standard
    errors of a fixed-seed million-replication simulation at x in
    {-1, 0, 1}.  Runtime < 60 s."""
    t0 = time.time()
    spec = {"model": "studentized_mean",
            "population": "standardized_exponential"}
    table = cumulants.model_studentized_mean(**cumulants.STANDARDIZED_EXPONENTIAL)
    ctx = engine.ExpansionContext.raw(table, 200)
    worst = 0.0
    xs = (-1.0, 0.0, 1.0)
    sims = oracle.mc_cdf(spec, 200, xs, 1_000_000, seed=2024)
    for x, (est, se) in zip(xs, sims):
        approx = engine.cdf_expand(ctx, x, 2)["value"]
        ratio = abs(approx - est) / se
        worst = max(worst, ratio)
        assert ratio <= 3.0, (x, approx, est, se)
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _report("C10 Monte-Carlo sanity", t0, f"worst |diff|/se = {worst:.2f}")


def test_c11_special_function_round_trips():
    """cdf and inverse cdf are mutual inverses to 1e-12 across the stated
    probability grids, for the normal and for gamma means 0.5, 3, 48."""
    t0 = time.time()
    grid = [1e-6, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1 - 1e-4,
            1 - 1e-6]
    for p in grid:
        assert abs(basedist.normal_cdf(basedist.normal_inv_cdf(p)) - p) <= 1e-12
    for m in (0.5, 3.0, 48.0):
        g = basedist.gamma(m)
        for p in grid:
            assert abs(g.cdf(g.inv_cdf(p)) - p) <= 1e-12, (m, p)
    _report("C11 special-function round trips", t0)


def test_divergence_flag_fires_for_divergent_cases():
    """The term-magnitude heuristic flags genuinely divergent small-degree
    series by order 6 (asymmetric degrees of freedom, so no structural
    zeros mask the comparison)."""
    t0 = time.time()
    for (n1, n2) in ((2, 4), (2, 6)):
        t = cumulants.model_lnF(n1, n2)
        n = F(2 * n1 * n2, n1 + n2)
        ctx = engine.ExpansionContext.raw(t, n)
        res = engine.quantile_expand(ctx, 0.95, 6)
        assert res["diverges_at"] is not None and res["diverges_at"] <= 6, (n1, n2)
    _report("C12a divergence flag capability", t0)


def test_divergence_f55_as_specified():
    """The published claim for half the log-F ratio with (5, 5) degrees of
    freedom, as stated: "the (5, 5) series' term magnitudes stop decreasing
    by order 6 at the 95th percentile".

    Exact evaluation contradicts it.  Against the exact quantile
    0.8097267005 (incomplete beta, equal to scipy's F quantile to 1e-15):

        order   term         total - exact
          0     0.7356009    -7.41e-2
          2     0.0699500    -4.18e-3
          4     0.0046852    +5.09e-4
          6    -0.0004269    +8.26e-5
          8    -0.0001072    -2.46e-5
         10     0.0000216    -3.04e-6

    The odd-order terms are exactly zero because the (5, 5) case is
    symmetric (structural zeros, which the divergence flag must not mistake
    for divergence); the nonzero magnitudes strictly decrease and the error
    shrinks at every even order.  So the test asserts what the method does
    deliver through order 6: no divergence flag, exact odd zeros, shrinking
    nonzero terms and a shrinking error against an exact quantile that is
    itself cross-checked against scipy.  The companion test above covers
    the flag on genuinely divergent series."""
    import scipy.stats

    t0 = time.time()
    exact = oracle.exact_lnF_quantile(5, 5, 0.95)
    assert abs(exact - 0.5 * math.log(scipy.stats.f.ppf(0.95, 5, 5))) <= 1e-12
    ctx = engine.ExpansionContext.raw(cumulants.model_lnF(5, 5), F(5))
    res = engine.quantile_expand(ctx, 0.95, 6, exact=exact)
    rows = res["rows"]
    terms = [row["term"] for row in rows]
    assert res["diverges_at"] is None, res["diverges_at"]
    assert all(terms[r] == 0.0 for r in (1, 3, 5)), terms
    mags = [abs(terms[r]) for r in (0, 2, 4, 6)]
    assert all(m1 < m0 for m0, m1 in zip(mags, mags[1:])), mags
    e2, e4, e6 = (abs(rows[r]["error"]) for r in (2, 4, 6))
    assert e2 <= 5e-3 and e4 <= 1e-3 and e6 <= 2e-4, (e2, e4, e6)
    assert e6 < e4 < e2, (e2, e4, e6)
    _report("C12b (5,5) series converges", t0, f"error@6={e6:.2e}")


# |total - exact| of the lnF quantile at R = 1..6: on the normal base, then
# on the matched gamma with (J, K) = ROW_SCHEDULE[R]
QUANTILE_ERRORS = {
    (24, 60, 0.95): ((4.043e-3, 4.259e-4, 5.417e-5, 2.283e-6, 7.411e-7, 2.841e-7),
                     (4.220e-3, 5.373e-5, 2.763e-5, 9.646e-6, 1.110e-6, 2.831e-6)),
    (10, 40, 0.95): ((1.313e-2, 2.614e-3, 4.589e-4, 3.345e-5, 1.344e-5, 8.994e-6),
                     (1.420e-2, 1.183e-3, 9.374e-5, 5.713e-4, 1.107e-4, 1.570e-5)),
    (8, 30, 0.99): ((3.596e-2, 8.280e-3, 1.956e-3, 1.749e-4, 1.052e-4, 7.812e-5),
                    (3.655e-2, 5.890e-3, 4.157e-3, 1.632e-3, 3.185e-3, 4.467e-3)),
    (240, 600, 0.95): ((1.367e-4, 4.624e-6, 1.767e-7, 1.834e-9, 2.923e-10, 3.192e-11),
                       (1.423e-4, 5.538e-7, 1.046e-7, 6.405e-9, 1.104e-9, 9.039e-9)),
}

# per row, the percentage of terms the gamma base saves for the accuracies
# 1e-2, 1e-3, ... down to the last one the normal base reaches by R = 6;
# None where only the normal base reaches it
TERM_SAVINGS = {
    (24, 60, 0.95): [67, 67, 83, 70, None],
    (10, 40, 0.95): [67, 67, 83, None],
    (8, 30, 0.99): [67, None, None],
    (240, 600, 0.95): [67, 67, 67, 67, 83, 70, 70, None, None],
}


def test_gamma_base_accuracy_claim():
    """The paper's headline claim, tested on accuracy: expanding about a
    gamma whose shape matches the estimate's skewness "kills the
    third-order coefficient exactly and shrinks the number of terms needed
    for a given accuracy by 70–90%".

    C07 checks the count half.  Here the error of four lnF quantiles
    against the exact one is tabulated per order R <= 6 on both bases
    (``QUANTILE_ERRORS``; any value moving by more than 10 % fails), and
    the terms needed for an accuracy are the cumulative g terms, order 0
    included as ``cfx terms`` counts them, at the first order that reaches
    it.  Exact evaluation bounds the claim:

    - where both bases reach an accuracy by R = 6, the gamma base needs
      67–83 % fewer terms (lnF(24,60) at 1e-4: 2 terms at R = 2 against 12
      at R = 3), so the claim's range holds at the middle accuracies, and
      two thirds at the loosest, where each base needs its first order;
    - from R = 4 on, the gamma error per order is above the normal one in
      every row, so only the normal base reaches 1e-6 for lnF(24,60), 1e-5
      for (10,40), 1e-3 for (8,30) at p = 0.99 (whose gamma error grows
      again after R = 4) and 1e-9 for (240,600) by R = 6.

    Runtime < 5 s."""
    t0 = time.time()
    raw_terms = [sum(engine.term_count_cumulative(
        "g", R, schedule={r: (0, 1) for r in range(R + 1)}, matched=False,
        base="normal")) for R in range(7)]
    gamma_terms = [sum(engine.term_count_cumulative(
        "g", R, matched=True, base="general", drop_multi3=True))
        for R in range(7)]
    assert raw_terms == [1, 3, 6, 12, 23, 42, 77]
    assert gamma_terms == [1, 1, 2, 4, 7, 11, 18]

    def needed(errors, counts, eps):
        return next((counts[R] for R, e in enumerate(errors, 1) if e <= eps), None)

    for (n1, n2, p), pinned in QUANTILE_ERRORS.items():
        table = cumulants.model_lnF(n1, n2)
        n = F(2 * n1 * n2, n1 + n2)
        exact = oracle.exact_lnF_quantile(n1, n2, p)
        rows = engine.ExpansionContext.raw(table, n).quantile(p, 6, exact)["rows"]
        normal = [abs(rows[R]["error"]) for R in range(1, 7)]
        gamma = [abs(engine.ExpansionContext.matched_gamma(
                     table, n, *engine.ROW_SCHEDULE[R])
                     .quantile(p, R, exact)["rows"][R]["error"])
                 for R in range(1, 7)]
        for got, want in zip(normal + gamma, pinned[0] + pinned[1]):
            assert abs(got - want) <= 0.1 * want, ((n1, n2, p), normal, gamma)
        savings = []
        for k in range(2, 12):
            n_terms = needed(normal, raw_terms, 10.0 ** -k)
            if n_terms is None:
                break
            g_terms = needed(gamma, gamma_terms, 10.0 ** -k)
            savings.append(None if g_terms is None
                           else round(100 * (1 - g_terms / n_terms)))
        assert savings == TERM_SAVINGS[n1, n2, p], ((n1, n2, p), savings)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("gamma-base accuracy claim", t0)


def test_gamma_model_on_its_own_base(capsys):
    """The scaled gamma estimate is its own matched base, so every
    correction vanishes: ``cfx quantile|cdf|density --model gamma --n 10
    --base gamma`` gives exactly +0.0 for every term of order 1..8, and the
    total is the exact answer for G/m, G ~ Gamma(m = 10).  The mirrored
    estimate -G/m, expanded about the same base after its sign flip, gives
    +0.0 terms too: no zero keeps the sign of -p(x), of the mirror or of a
    negative slope.  Runtime < 5 s."""
    import json

    import scipy.stats

    from cfx import cli

    t0 = time.time()
    m = 10
    sigma = math.sqrt(1 / m)    # a21 = 1
    common = ["--model", "gamma", "--n", str(m), "--base", "gamma",
              "--order", "8", "--format", "json"]

    def answer(argv):
        assert cli.main(argv + common) == 0
        return json.loads(capsys.readouterr().out)

    def plus_zeros(terms):
        # == 0.0 also holds for -0.0; copysign reads the sign bit
        return terms == [0.0] * len(terms) and all(
            math.copysign(1.0, t) == 1.0 for t in terms)

    for p in (0.05, 0.5, 0.9):
        doc = answer(["quantile", "--p", str(p)])
        assert plus_zeros([row["term"] for row in doc["rows"][1:]]), p
        exact = scipy.stats.gamma.ppf(p, m) / m
        assert abs(doc["value"] - exact) <= 1e-12, (p, doc["value"], exact)
    for y in (-1.5, 0.5, 2.0):
        g = m * (1 + sigma * y)
        doc = answer(["cdf", "--x", str(y)])
        assert plus_zeros(doc["terms"]), y
        assert abs(doc["value"] - scipy.stats.gamma.cdf(g, m)) <= 1e-12, y
        # (-d/dy)^i of Y's density is (m sigma)^{i+1} f(g) H_i(g), with
        # H_1 = 1 - (m-1)/g and H_2 = H_1^2 - (m-1)/g^2 for the Gamma(m) f
        h1 = 1 - (m - 1) / g
        for i, h in enumerate((1.0, h1, h1 ** 2 - (m - 1) / g ** 2)):
            doc = answer(["density", "--x", str(y), "--i", str(i)])
            assert plus_zeros(doc["terms"][1:]), (y, i)
            exact = (m * sigma) ** (i + 1) * scipy.stats.gamma.pdf(g, m) * h
            assert abs(doc["value"] - exact) <= 1e-12 * max(1.0, abs(exact)), (y, i)
    mirrored = engine.ExpansionContext.matched_gamma(
        cumulants.model_gamma().negated(), m)
    assert mirrored.flipped
    for p in (0.05, 0.5, 0.9):
        rows = mirrored.quantile(p, 8)["rows"]
        assert plus_zeros([row["term"] for row in rows[1:]]), p
    for y in (-2.0, -0.5, 1.5):
        assert plus_zeros(mirrored.cdf(y, 8)["terms"]), y
        for i in range(3):
            assert plus_zeros(mirrored.density(y, i, 8)["terms"][1:]), (y, i)
    elapsed = time.time() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _report("gamma model on its own base", t0)
