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


def exact_cdf(spec, n, x):
    """P(Y <= x) from the exact law where one is known, else None: lnF
    through the incomplete beta, and the Studentized mean of a normal
    population through Student's t with n - 1 degrees of freedom."""
    if spec["model"] == "lnF":
        n1, n2 = spec["n1"], spec["n2"]
        return oracle.lnF_cdf(n1, n2, x / math.sqrt(2 * n1 * n2 / (n1 + n2)))
    if spec == {"model": "studentized_mean", "population": "normal"}:
        return float(scipy.stats.t.cdf(x * math.sqrt((n - 1) / n), n - 1))
    return None


def assert_near_exact(spec, n, x, got):
    # a pinned estimate must also be a fair draw from the exact law, so a
    # re-pin cannot hide a biased sampler
    exact = exact_cdf(spec, n, x)
    if exact is not None:
        est, se = got
        assert abs(est - exact) <= 4 * se, (spec, est, exact, se)


# (spec, n, x, N, seed) -> (est, se) of the SFC64 stream keyed by
# SeedSequence(seed, spawn_key=(shard,))
MC_PINNED = [
    ({"model": "lnF", "n1": 24, "n2": 60}, None, 0.5, 250_000, 7,
     (0.709568, 0.0009079234623601265)),
    ({"model": "studentized_mean", "population": "standardized_exponential"},
     50.0, 0.3, 210_000, 3, (0.6359333333333334, 0.0010499934895237817)),
    ({"model": "sample_variance", "population": "standardized_exponential"},
     40.0, -0.5, 205_000, 11, (0.37257560975609755, 0.0010678517864887286)),
]


@pytest.mark.parametrize("spec, n, x, N, seed, want", MC_PINNED)
def test_mc_estimates_pinned(spec, n, x, N, seed, want):
    assert oracle.mc_cdf(spec, n, x, N, seed=seed) == want
    assert_near_exact(spec, n, x, want)


@pytest.mark.parametrize("block", [1 << 10, 1 << 20])
def test_mc_estimates_independent_of_block_size(block, monkeypatch):
    # the block size bounds memory only: the stream and every estimate stay
    monkeypatch.setattr(oracle, "_BLOCK_VALUES", block)
    for spec, n, x, N, seed, want in MC_PINNED:
        assert oracle.mc_cdf(spec, n, x, N, seed=seed) == want, spec


def test_mc_estimates_independent_of_thread_count(monkeypatch):
    # the shards' integer counts add the same whichever thread ran them;
    # the lnF case spans five shards
    for threads in (1, 2, 3):
        monkeypatch.setattr(oracle, "_cpus", lambda: threads)
        for spec, n, x, N, seed, want in MC_PINNED:
            assert oracle.mc_cdf(spec, n, x, N, seed=seed) == want, (threads, spec)


@pytest.mark.parametrize("spec", [
    {"model": "studentized_mean", "population": "normal"},
    {"model": "sample_variance", "population": "standardized_exponential"},
], ids=["studentized_mean", "sample_variance"])
@pytest.mark.parametrize("n", [50.5, (1 << 20) + 1, 1e9, 1.0])
def test_mc_refuses_sample_sizes_it_cannot_draw(spec, n):
    # a row of draws is a whole sample: a fraction of a draw cannot be
    # made, and a row past 2^20 draws would take more than 8 MiB
    with pytest.raises(ValueError, match="2\\^20"):
        oracle.mc_cdf(spec, n, 0.0, 2000, seed=1)


def test_mc_lnF_ignores_n():
    # lnF's n is the non-integer harmonic mean of its degrees of freedom,
    # which its sampler does not read
    spec = {"model": "lnF", "n1": 24, "n2": 60}
    assert (oracle.mc_cdf(spec, 2 * 24 * 60 / 84, 0.5, 2000, seed=1)
            == oracle.mc_cdf(spec, None, 0.5, 2000, seed=1))


@pytest.mark.parametrize("spec, n, N", [
    ({"model": "lnF", "n1": 24, "n2": 60}, None, 450_000),  # nine shards
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


def test_mc_memory_bounded(monkeypatch):
    # memory grows with the shards running at once, under 1 MB each, so
    # the bound is asked at a fixed three threads on any machine
    monkeypatch.setattr(oracle, "_cpus", lambda: 3)
    cases = [
        ({"model": "studentized_mean", "population": "normal"}, 200.0, 1.0,
         200_000, (0.839955, 0.000819849370235167)),
        ({"model": "lnF", "n1": 24, "n2": 60}, None, 0.5,
         1_000_000, (0.709331, 0.0004540710654060661)),
    ]
    for spec, n, x, N, want in cases:
        tracemalloc.start()
        try:
            got = oracle.mc_cdf(spec, n, x, N, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want, spec
        assert_near_exact(spec, n, x, got)
        assert peak < 8e6, (spec, peak)


def test_validation_record():
    rec = oracle.check("demo", 1.0, 1.0 + 1e-9, 1e-6)
    assert rec["pass"] and rec["tolerance"] == 1e-6
    rec2 = oracle.check("demo2", 2, 3)
    assert not rec2["pass"]
    import json
    json.dumps([rec, rec2])
