"""Independent verification paths.

``reversion_fg`` re-derives the forward and inverse quantile-map polynomials
from the cdf-correction polynomials alone, by formal composition and series
reversion: no inversion-ladder operators are involved, so exact agreement
with the engine's tables is a genuine two-route check.

``exact_lnF_quantile`` gives the reference quantile of half the log of an F
ratio through the regularized incomplete beta, and ``mc_cdf`` estimates the
distribution of a standardized estimate by direct simulation with a
counter-based generator (explicit, shard-stable seeding).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import basedist, hbasis
from .bell import Seq, partial_ordinary_bell
from .engine import h_formal
from .hpoly import LPoly, SparseMap


# ---------------------------------------------------------------------------
# formal series reversion
# ---------------------------------------------------------------------------

def _b(seq_obj, r, k):
    """b_{rk} = B^_{rk}/k! over a sequence of LPoly values, divided
    exactly in the integers."""
    return partial_ordinary_bell(r, k, seq_obj).exact_div(math.factorial(k))


def _diff_pow(lpoly, m, cache):
    """D^m applied to every H-coefficient of an LPoly, cached."""
    key = (id(lpoly), m)
    if key in cache:
        return cache[key]
    cur = lpoly
    for _ in range(m):
        cur = cur.map_values(hbasis.hp_diff)
    cache[key] = cur
    return cur


def reversion_fg(R):
    """(f_1..f_R, g_1..g_R) re-derived from (h_1..h_R) by reversion.

    Forward map: writing the cdf expansion as a Taylor shift of the base cdf
    and matching powers of the expansion parameter gives

        sum_{k=1}^r b_{rk}(f) H_{k-1} = h_r,

    whose k = 1 term isolates f_r in terms of lower orders.  Inverse map:
    composing the expansion with x + psi and Taylor-expanding the base cdf,
    the base density, and each h_s (symbolically, through the derivative
    rule) isolates g_r the same way.  Everything stays in exact rational
    arithmetic; no floating point enters this path.
    """
    if R < 1:
        raise ValueError("R must be >= 1")
    hs = [h_formal(r) for r in range(1, R + 1)]

    # forward: f_r = h_r - sum_{k>=2} b_{rk}(f) H_{k-1}
    fs = []
    for r in range(1, R + 1):
        rhs = hs[r - 1]
        if r > 1:
            fseq = Seq(fs + [LPoly.zero()])  # f_r itself never enters for k >= 2
            for k in range(2, r + 1):
                term = _b(fseq, r, k)
                if term:
                    rhs = rhs - term * hbasis.H(k - 1)
        fs.append(rhs)

    # inverse: match, order by order in eps,
    #   sum_{k>=1} (psi^k/k!) (-1)^{k-1} H_{k-1}
    #     = [sum_{j>=0} (psi^j/j!) (-1)^j H_j] [sum_s eps^s h_s(x + psi)]
    # where psi = sum_r g_r eps^r; the k = 1 term on the left isolates g_r.
    gs = []
    dcache = {}
    for r in range(1, R + 1):
        gseq = Seq(gs + [LPoly.zero()])

        def psi_pow(a, j):
            # coefficient of eps^a in psi^j / j!
            if j == 0:
                return LPoly.one() if a == 0 else LPoly.zero()
            if a < j:
                return LPoly.zero()
            return _b(gseq, a, j)

        rhs = LPoly.zero()
        for s in range(1, r + 1):
            budget = r - s
            for a in range(0, budget + 1):
                c = budget - a
                for j in range(0, a + 1):
                    pj = psi_pow(a, j)
                    if not pj:
                        continue
                    sign_j = 1 if j % 2 == 0 else -1
                    left = pj * hbasis.H(j) * sign_j if j else pj
                    for m in range(0, c + 1):
                        pm = psi_pow(c, m)
                        if not pm:
                            continue
                        hsm = _diff_pow(hs[s - 1], m, dcache)
                        rhs = rhs + left * pm * hsm
        lhs_low = LPoly.zero()
        for k in range(2, r + 1):
            term = _b(gseq, r, k)
            if term:
                sign = 1 if (k - 1) % 2 == 0 else -1
                lhs_low = lhs_low + term * hbasis.H(k - 1) * sign
        gs.append(rhs - lhs_low)

    return fs, gs


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
    if not 0.0 < p < 1.0:
        raise basedist.DomainError(f"probability {p} not in (0, 1)")
    u = basedist.inv_reg_inc_beta(n1 / 2.0, n2 / 2.0, p)
    q = n2 * u / (n1 * (1.0 - u))
    return 0.5 * math.log(q)


# ---------------------------------------------------------------------------
# Monte-Carlo distribution oracle
# ---------------------------------------------------------------------------

_SHARD = 200_000
# values per population block: a shard's n-column sample is drawn a block of
# rows at a time, which bounds memory and leaves the stream unchanged
_BLOCK_VALUES = 1 << 20
MIN_REPLICATIONS = 1000


def _rng(seed, shard):
    # counter-based generator keyed by (seed, shard) so shard results are
    # independent of worker scheduling
    import numpy as np
    return np.random.Generator(np.random.Philox(key=np.array(
        [seed & 0xFFFFFFFFFFFFFFFF, shard], dtype=np.uint64)))


def _draw_population(rng, shape, population):
    if population == "standardized_exponential":
        return rng.exponential(size=shape) - 1.0
    if population == "normal":
        return rng.standard_normal(size=shape)
    raise ValueError(f"unknown population {population!r}")


def _population_moments(population):
    if population == "standardized_exponential":
        return {2: 1.0, 3: 2.0, 4: 9.0}
    if population == "normal":
        return {2: 1.0, 3: 0.0, 4: 3.0}
    raise ValueError(f"unknown population {population!r}")


def _population_statistic(rng, m, n, population, stat):
    """``stat`` applied to m samples of size n, drawn in row blocks."""
    import numpy as np
    y = np.empty(m)
    rows = max(1, _BLOCK_VALUES // n)
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        y[lo:hi] = stat(_draw_population(rng, (hi - lo, n), population))
    return y


def mc_cdf(spec, n, x, N, seed):
    """Empirical P(Y <= x) for the standardized estimate described by
    ``spec``, with binomial standard error.

    spec examples:
      {"model": "lnF", "n1": 24, "n2": 60}
      {"model": "studentized_mean", "population": "standardized_exponential"}
      {"model": "sample_variance", "population": "standardized_exponential"}

    Deterministic under a fixed seed: replications are sharded and each
    shard's stream is keyed by (seed, shard index), so the result does not
    depend on how shards are scheduled.
    """
    import numpy as np
    if N < MIN_REPLICATIONS:
        raise ValueError(f"N={N} replications is too noisy to be meaningful")
    model = spec["model"]
    count = 0
    done = 0
    shard = 0
    while done < N:
        m = min(_SHARD, N - done)
        rng = _rng(seed, shard)
        if model == "lnF":
            n1, n2 = spec["n1"], spec["n2"]
            c1 = 2.0 * rng.gamma(n1 / 2.0, size=m)
            c2 = 2.0 * rng.gamma(n2 / 2.0, size=m)
            z = 0.5 * np.log((c1 / n1) / (c2 / n2))
            nn = 2.0 * n1 * n2 / (n1 + n2)
            y = math.sqrt(nn) * z
        elif model == "studentized_mean":
            y = _population_statistic(
                rng, m, int(n), spec["population"],
                lambda d: math.sqrt(n) * d.mean(axis=1) / np.sqrt(d.var(axis=1)))
        elif model == "sample_variance":
            mu = _population_moments(spec["population"])
            a21 = mu[4] - mu[2] ** 2
            y = _population_statistic(
                rng, m, int(n), spec["population"],
                lambda d: math.sqrt(n / a21) * (d.var(axis=1) - mu[2]))
        else:
            raise ValueError(f"unknown model {model!r}")
        count += int(np.count_nonzero(y <= x))
        done += m
        shard += 1
    est = count / N
    se = math.sqrt(max(est * (1.0 - est), 1e-12) / N)
    return est, se


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
