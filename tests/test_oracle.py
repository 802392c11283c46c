"""Independent verification paths: series reversion, exact reference
quantiles, and the simulation oracle."""

import math
import tracemalloc
from fractions import Fraction

import pytest
import scipy.stats

from cfx import cumulants, engine, oracle


def test_reversion_order1():
    fs, gs = oracle.reversion_fg(1)
    assert fs[0] == gs[0] == engine.h_formal(1)


def test_reversion_equals_ladder_tables():
    # the strongest correctness check in the package: two disjoint
    # derivations of every f_r and g_r must agree exactly, through the
    # highest order whose tables test_table_json_hashes pins
    fs, gs = oracle.reversion_fg(9)
    for r in range(1, 10):
        assert fs[r - 1] == engine.fg_formal("f", r), f"f_{r}"
        assert gs[r - 1] == engine.fg_formal("g", r), f"g_{r}"


def test_reversion_g3_spot():
    from cfx import hbasis
    from cfx.partitions import Partition
    H = hbasis.H
    _, gs = oracle.reversion_fg(3)
    table = dict(gs[2].bracket_items())
    assert table[Partition.of(2, 3)] == (H(4) - H(1) * H(3) - H(2) ** 2
                                         + H(1) ** 2 * H(2))


@pytest.mark.parametrize("matched, n1, n2, R", [
    (False, 24, 60, 6),  # raw at R = 8 takes about 0.4 s more
    (True, 60, 24, 8),
], ids=["raw-lnF24_60", "matched-gamma-lnF60_24"])
def test_reversion_of_standardized_series(matched, n1, n2, R):
    # the second route for the standardized layer: reverting a model's
    # standardized h series gives the standardized f and g series that the
    # bracket sum reads from the ladder's tables
    table, n = cumulants.model_lnF(n1, n2), Fraction(2 * n1 * n2, n1 + n2)
    ctx = (engine.ExpansionContext.matched_gamma(table, n) if matched
           else engine.ExpansionContext.raw(table, n))
    fs, gs = oracle.reversion([ctx.h_series(r) for r in range(1, R + 1)])
    for r in range(1, R + 1):
        assert fs[r - 1] == engine.e_r_standardized("f", r, ctx.atable), f"f_{r}"
        assert gs[r - 1] == engine.e_r_standardized("g", r, ctx.atable), f"g_{r}"


def test_exact_lnF_quantile():
    q = oracle.exact_lnF_quantile(24, 60, 0.95)
    assert abs(q - 0.26534844) < 1e-7
    assert abs(oracle.lnF_cdf(24, 60, q) - 0.95) < 1e-10
    ref = 0.5 * math.log(scipy.stats.f.ppf(0.95, 24, 60))
    assert abs(q - ref) < 1e-10
    # symmetric degrees: the median of the half log ratio is zero
    assert abs(oracle.exact_lnF_quantile(9, 9, 0.5)) < 1e-12
    for p in (0.05, 0.5, 0.99):
        z = oracle.exact_lnF_quantile(5, 5, p)
        assert abs(oracle.lnF_cdf(5, 5, z) - p) < 1e-10


def test_mc_determinism_and_guards():
    spec = {"model": "lnF", "n1": 6, "n2": 8}
    a = oracle.mc_cdf(spec, None, 0.5, 20_000, seed=11)
    b = oracle.mc_cdf(spec, None, 0.5, 20_000, seed=11)
    assert a == b
    c = oracle.mc_cdf(spec, None, 0.5, 20_000, seed=12)
    assert c != a
    with pytest.raises(ValueError):
        oracle.mc_cdf(spec, None, 0.5, 500, seed=1)


def test_mc_tail_sanity():
    spec = {"model": "studentized_mean", "population": "standardized_exponential"}
    est, se = oracle.mc_cdf(spec, 50, 25.0, 2000, seed=3)
    assert est > 0.999


def test_mc_matches_lnF_cdf_expansion():
    spec = {"model": "lnF", "n1": 24, "n2": 60}
    from fractions import Fraction as F
    t = cumulants.model_lnF(24, 60)
    ctx = engine.ExpansionContext.raw(t, F(2 * 24 * 60, 84))
    x = 0.0  # near the median
    est, se = oracle.mc_cdf(spec, None, x, 150_000, seed=99)
    approx = engine.cdf_expand(ctx, x, 3)["value"]
    assert abs(approx - est) <= 3 * se, (approx, est, se)


# (spec, n, x, N, seed) -> (est, se), as one whole-shard draw gave them
MC_PINNED = [
    ({"model": "lnF", "n1": 24, "n2": 60}, None, 0.5, 250_000, 7,
     (0.709748, 0.0009077571844849261)),
    ({"model": "studentized_mean", "population": "standardized_exponential"},
     50.0, 0.3, 210_000, 3, (0.6348142857142857, 0.001050680297456632)),
    ({"model": "sample_variance", "population": "standardized_exponential"},
     40.0, -0.5, 205_000, 11, (0.37255609756097563, 0.0010678404277681935)),
]


@pytest.mark.parametrize("spec, n, x, N, seed, want", MC_PINNED)
def test_mc_estimates_pinned(spec, n, x, N, seed, want):
    assert oracle.mc_cdf(spec, n, x, N, seed=seed) == want


@pytest.mark.parametrize("block", [1 << 10, 1 << 20])
def test_mc_estimates_independent_of_block_size(block, monkeypatch):
    # the block size bounds memory only: the stream and every estimate stay
    monkeypatch.setattr(oracle, "_BLOCK_VALUES", block)
    for spec, n, x, N, seed, want in MC_PINNED:
        assert oracle.mc_cdf(spec, n, x, N, seed=seed) == want, spec


@pytest.mark.parametrize("spec, n, N", [
    ({"model": "lnF", "n1": 24, "n2": 60}, None, 450_000),  # three shards
    ({"model": "studentized_mean", "population": "standardized_exponential"},
     50.0, 30_000),
    ({"model": "sample_variance", "population": "normal"}, 40.0, 30_000),
])
def test_mc_vector_x_equals_scalar_calls(spec, n, N):
    xs = [0.7, -0.4, 0.0, 0.7, 2.5]  # unsorted, with a repeat
    got = oracle.mc_cdf(spec, n, xs, N, seed=5)
    assert got == [oracle.mc_cdf(spec, n, x, N, seed=5) for x in xs]
    assert got[0] == got[3]
    assert oracle.mc_cdf(spec, n, (0.0,), N, seed=5) == [got[2]]


def test_mc_memory_bounded():
    cases = [
        ({"model": "studentized_mean", "population": "normal"}, 200.0, 1.0,
         200_000, (0.83962, 0.0008205432822222115)),
        ({"model": "lnF", "n1": 24, "n2": 60}, None, 0.5,
         1_000_000, (0.710029, 0.00045374862992520425)),
    ]
    for spec, n, x, N, want in cases:
        tracemalloc.start()
        try:
            got = oracle.mc_cdf(spec, n, x, N, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want, spec
        assert peak < 8e6, (spec, peak)


def test_validation_record():
    rec = oracle.check("demo", 1.0, 1.0 + 1e-9, 1e-6)
    assert rec["pass"] and rec["tolerance"] == 1e-6
    rec2 = oracle.check("demo2", 2, 3)
    assert not rec2["pass"]
    import json
    json.dumps([rec, rec2])
