"""Independent verification paths.

``reversion`` re-derives the forward and inverse quantile-map polynomials
from the cdf-correction polynomials alone: f by the Taylor shift of the base
cdf, and g by Lagrange-Bürmann inversion of f, both from one growing Bell
sequence, over the formal tables (``reversion_fg``) or a model's
standardized series.  No inversion-ladder operators are involved, so exact
agreement with the engine's tables is a genuine two-route check.
``crk_recurrence`` does the same for the cdf-correction coefficients C_rk.

``exact_lnF_quantile`` gives the reference quantile of half the log of an F
ratio through the regularized incomplete beta, and ``mc_cdf`` estimates the
distribution of a standardized estimate by direct simulation.  Its stream
is keyed per shard of 50,000 replications: shard k of a run seeded s draws
from ``SFC64(SeedSequence(s mod 2^64, spawn_key=(k,)))``, so an answer is
the same on any machine, thread count and schedule.  A pool of one thread
per usable CPU runs the shards.  One simulation serves one x or a sequence
of x, and it streams: the statistic is made and counted in blocks of about
2^16 draws (0.5 MB), so each running shard holds under 1 MB whatever the
replication count, with samples of at most 2^20 draws (one 8 MiB row).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

from . import basedist, hbasis
from .bell import Seq, partial_ordinary_bell
from .engine import h_formal
from .hpoly import LPoly, SparseMap
from .partitions import Partition


# ---------------------------------------------------------------------------
# formal series reversion
# ---------------------------------------------------------------------------

def _b(seq_obj, r, k):
    """b_{rk} = B^_{rk}/k!, divided exactly in the integers over ``LPoly``
    (the formal tables stay integer) and as rationals over ``Poly``."""
    b = partial_ordinary_bell(r, k, seq_obj)
    if isinstance(b, LPoly):
        return b.exact_div(math.factorial(k))
    return b * Fraction(1, math.factorial(k))


def _d(p):
    """D of a formal table (on every bracket's coefficient) or of a series."""
    return p.map_values(hbasis.hp_diff) if isinstance(p, LPoly) else hbasis.hp_diff(p)


def reversion(hs):
    """(f_1..f_R, g_1..g_R) re-derived from (h_1..h_R) by reversion, over
    the formal tables (``LPoly``) or a model's standardized series (``Poly``).

    Forward map: writing the cdf expansion as a Taylor shift of the base cdf
    and matching powers of the expansion parameter gives

        sum_{k=1}^r b_{rk}(f) H_{k-1} = h_r,

    whose k = 1 term isolates f_r in terms of lower orders.  Inverse map:
    with F = sum f_r eps^r, x - F(x) is the base quantile of x, and the
    Lagrange-Bürmann theorem inverts y = x - F(x) as
    x = y + sum_k D^{k-1}[F(y)^k]/k!, so

        g_r = sum_{k=1}^r D^{k-1} b_{rk}(f)
            = b_{r1} + D(b_{r2} + D(b_{r3} + ... + D b_{rr})),

    r - 1 nested D passes over the b_{rk}(f) of the forward rule: both maps
    read one Bell sequence.  Everything stays exact; no floating point
    enters this path.
    """
    fseq, fs, gs = Seq([]), [], []
    for r, h in enumerate(hs, 1):
        bs = [_b(fseq, r, k) for k in range(2, r + 1)]  # read f_1..f_{r-1}
        f = h
        for k, b in enumerate(bs, 1):
            f = f - b * hbasis.H(k)
        fseq.extend([f])
        fs.append(f)
        gs.append(reduce(lambda inner, b_rk: b_rk + _d(inner), reversed([f] + bs)))
    return fs, gs


def reversion_fg(R):
    """``reversion`` of the formal tables h_1..h_R: lists of f_r and g_r as
    integer-coefficient ``LPoly``, which must equal the operator ladder's
    ``engine.fg_formal`` exactly."""
    return reversion([h_formal(r) for r in range(1, R + 1)])


# ---------------------------------------------------------------------------
# the coefficient C_rk by recurrence
# ---------------------------------------------------------------------------

def crk_recurrence(r, k):
    """The coefficient of H_{k-1} in h_r by the recurrence path, the
    independent check of ``engine.crk``: the boundary diagonal C_rr from
    the parts-1-and-2 partitions, then C_{r,r+2i} by convolving lower
    diagonal values with ordinary Bell polynomials of the shifted symbols
    Lbar_m = L_{m+2}."""
    if r == 0:
        return LPoly.one() if k == 0 else LPoly.zero()
    if k < r or k > 3 * r or (k - r) % 2:
        return LPoly.zero()

    def c_diag(j):
        if j == 0:
            return LPoly.one()
        out = LPoly()
        for i in range(0, j // 2 + 1):
            exp = {}
            if j - 2 * i:
                exp[1] = j - 2 * i
            if i:
                exp[2] = i
            out = out + LPoly.monomial(Partition(exp))
        return out

    i = (k - r) // 2
    if i == 0:
        return c_diag(r)
    lbar = Seq([LPoly.monomial(Partition.of(m + 2)) for m in range(1, r + 1)])
    total = LPoly.zero()
    for j in range(0, r - i + 1):
        b = partial_ordinary_bell(r - j, i, lbar)
        if isinstance(b, int):
            continue
        total = total + (c_diag(j) * b).exact_div(math.factorial(i))
    return total


# ---------------------------------------------------------------------------
# exact reference quantile for half the log of an F ratio
# ---------------------------------------------------------------------------

def lnF_cdf(n1, n2, z):
    """P((1/2) ln F_{n1,n2} <= z) through the incomplete beta."""
    q = math.exp(2.0 * z)
    u = n1 * q / (n1 * q + n2)
    return basedist.reg_inc_beta(n1 / 2.0, n2 / 2.0, u)


def exact_lnF_quantile(n1, n2, p):
    """The p-quantile of (1/2) ln F_{n1,n2}, from the inverse regularized
    incomplete beta, to ~1e-12."""
    u = basedist.inv_reg_inc_beta(n1 / 2.0, n2 / 2.0, p)
    q = n2 * u / (n1 * (1.0 - u))
    return 0.5 * math.log(q)


# ---------------------------------------------------------------------------
# Monte-Carlo distribution oracle
# ---------------------------------------------------------------------------

# replications per shard: the unit of the keyed stream and of the thread pool
_SHARD = 50_000
# draws per block: a shard's statistic is made and counted a block of
# replications at a time, so memory stays cache-sized and the stream unchanged
_BLOCK_VALUES = 1 << 16
MIN_REPLICATIONS = 1000
# the largest sample of a row statistic: one row of draws is at most 8 MiB
MAX_SAMPLE = 1 << 20


def _rng(seed, *key):
    """The SFC64 stream of SeedSequence child ``key`` of a run seeded
    ``seed``: the same values on any machine, thread count or schedule."""
    import numpy as np
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(
        seed & 0xFFFFFFFFFFFFFFFF, spawn_key=key)))


def _cpus():
    """The number of CPUs this process may run on."""
    import os
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


def _draw_population(rng, shape, population):
    if population == "standardized_exponential":
        d = rng.exponential(size=shape)
        d -= 1.0
        return d
    if population == "normal":
        return rng.standard_normal(size=shape)
    raise ValueError(f"unknown population {population!r}")


def _population_moments(population):
    if population == "standardized_exponential":
        return {2: 1.0, 3: 2.0, 4: 9.0}
    if population == "normal":
        return {2: 1.0, 3: 0.0, 4: 3.0}
    raise ValueError(f"unknown population {population!r}")


def _row_statistic(spec, n):
    """The statistic of each row of n draws in a block, for the models that
    simulate samples (Studentized mean, sample variance); None for lnF,
    whose sampler does not read n.  Refuses a sample it cannot draw."""
    import numpy as np
    model = spec["model"]
    if model == "lnF":
        return None
    if model not in ("studentized_mean", "sample_variance"):
        raise ValueError(f"unknown model {model!r}")
    mu = _population_moments(spec["population"])
    if n != int(n) or not 2 <= n <= MAX_SAMPLE:
        raise ValueError(f"a simulated sample size must be an integer from 2 "
                         f"to 2^20 = {MAX_SAMPLE}, not n={float(n):g}")

    def mean_var(d):
        # row means and variances (divisor n); centres d in place
        mean = d.mean(axis=1)
        d -= mean[:, None]
        var = np.einsum("ij,ij->i", d, d)
        var /= d.shape[1]
        return mean, var

    if model == "studentized_mean":
        def stat(d):
            mean, var = mean_var(d)
            return math.sqrt(n) * mean / np.sqrt(var)
    else:
        a21 = mu[4] - mu[2] ** 2

        def stat(d):
            return math.sqrt(n / a21) * (mean_var(d)[1] - mu[2])
    return stat


def _statistic_blocks(spec, n, stat, seed, shard, m):
    """The statistic of shard ``shard``'s m replications, yielded in draw
    order a block of about ``_BLOCK_VALUES`` draws at a time."""
    import numpy as np
    if stat is None:
        # lnF: (1/2) ln of the ratio of two scaled chi-squares, each drawn
        # as twice a gamma variate from its own child stream of the shard
        n1, n2 = spec["n1"], spec["n2"]
        scale = 0.5 * math.sqrt(2.0 * n1 * n2 / (n1 + n2))
        rng1, rng2 = _rng(seed, shard, 0), _rng(seed, shard, 1)
        for lo in range(0, m, _BLOCK_VALUES):
            size = min(_BLOCK_VALUES, m - lo)
            y = rng1.gamma(n1 / 2.0, size=size)
            y /= rng2.gamma(n2 / 2.0, size=size)
            y *= n2 / n1
            np.log(y, out=y)
            y *= scale
            yield y
        return
    rng, size = _rng(seed, shard), int(n)
    rows = max(1, _BLOCK_VALUES // size)
    for lo in range(0, m, rows):
        shape = (min(rows, m - lo), size)
        yield stat(_draw_population(rng, shape, spec["population"]))


def _shard_counts(spec, n, stat, xs, seed, shard, m):
    """How many of shard ``shard``'s m replications lie at or below each
    x of ``xs``."""
    import numpy as np
    counts = [0] * len(xs)
    for y in _statistic_blocks(spec, n, stat, seed, shard, m):
        for i, xi in enumerate(xs):
            counts[i] += int(np.count_nonzero(y <= xi))
    return counts


def mc_cdf(spec, n, x, N, seed):
    """Empirical P(Y <= x) for the standardized estimate described by
    ``spec``, with binomial standard error.

    spec examples:
      {"model": "lnF", "n1": 24, "n2": 60}
      {"model": "studentized_mean", "population": "standardized_exponential"}
      {"model": "sample_variance", "population": "standardized_exponential"}

    ``x`` may also be a sequence: one simulation then gives a list of pairs,
    each equal to what a call with that point alone gives.

    The stream: the N replications form shards of 50,000 (the last may be
    shorter), and shard k of a run seeded s draws from
    ``SFC64(SeedSequence(s mod 2^64, spawn_key=(k,)))``; for lnF the two
    chi-square variates of a replication come from the child keys (k, 0)
    and (k, 1).  A pool of one thread per CPU the process may use runs the
    shards (numpy releases the interpreter lock in its draws and
    reductions) and adds their integer counts, so the answer is a pure
    function of (spec, n, x, N, seed), the same for any thread count and
    block size.  Each running shard holds about two blocks of 2^16 values
    (under 1 MB); a row statistic's block holds at least one row of n
    draws, so n of a Studentized mean or sample variance must be an
    integer from 2 to 2^20 (8 MiB a row).  ``ValueError`` refuses any other
    n, fewer than ``MIN_REPLICATIONS`` replications, or an unknown model
    or population, before any draw.
    """
    from concurrent.futures import ThreadPoolExecutor

    import numpy as np
    if N < MIN_REPLICATIONS:
        raise ValueError(f"N={N} replications is too noisy to be meaningful")
    stat = _row_statistic(spec, n)
    scalar = np.ndim(x) == 0
    xs = [x] if scalar else list(x)
    shards = [(k, min(_SHARD, N - lo)) for k, lo in enumerate(range(0, N, _SHARD))]
    with ThreadPoolExecutor(max_workers=min(_cpus(), len(shards))) as pool:
        per_shard = list(pool.map(
            lambda km: _shard_counts(spec, n, stat, xs, seed, *km), shards))
    out = []
    for count in map(sum, zip(*per_shard)):
        est = count / N
        out.append((est, math.sqrt(max(est * (1.0 - est), 1e-12) / N)))
    return out[0] if scalar else out


# ---------------------------------------------------------------------------
# validation report plumbing
# ---------------------------------------------------------------------------

def check(name, expected, got, tolerance=0.0):
    """One validation record: {check, expected, got, tolerance, pass}."""
    if tolerance == 0.0:
        ok = expected == got
    else:
        ok = abs(got - expected) <= tolerance
    return {"check": name, "expected": _plain(expected), "got": _plain(got),
            "tolerance": tolerance, "pass": bool(ok)}


def _plain(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, SparseMap):
        return repr(v)
    return v
