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
        got = {pi.text(): val for pi, val in engine.coefficient_table("f", r, "x")}
        for key, want in entries.items():
            assert got[key] == want, f"f({key}) at r={r}"
        for key in gn.F_ZEROS.get(r, []):
            assert key not in got
    for r, entries in gn.G_TABLE.items():
        got = {pi.text(): val for pi, val in engine.coefficient_table("g", r, "x")}
        assert set(got) == set(entries), r
        for key, want in entries.items():
            assert got[key] == want, f"g({key}) at r={r}"
    # the four historically-corrected entries, asserted by name
    x = Poly.atom(1)
    f3 = {pi.text(): v for pi, v in engine.coefficient_table("f", 3, "x")}
    assert f3["1 4"] == -3 * hbasis.hermite_x_poly(2)       # not a repeat of f(1 2)
    f4 = {pi.text(): v for pi, v in engine.coefficient_table("f", 4, "x")}
    assert f4["1 5"] == -4 * hbasis.hermite_x_poly(3)       # -4 He3, not -4(x^3 - x)
    assert f4["3^4"] == -4 * (948 * x**5 - 3628 * x**3 + 2473 * x)  # trailing x present
    g3 = {pi.text(): v for pi, v in engine.coefficient_table("g", 3, "x")}
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
        back = hbasis.H_from_a(r).subs(
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
