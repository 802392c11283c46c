"""Cumulant-coefficient models for standard estimates.

A standard estimate has r-th cumulant expandable as sum_{i >= r-1} a_{ri}
n^{-i} with a_{10} the estimand and a_{21} bounded away from zero.  This
module holds the raw tables a_{ri}, their variance-standardized form A_{ri},
the center/scale truncation adjustment (which zeroes low-order mean and
variance coefficients), skewness matching against a second estimate, and the
built-in example models: half the log of an F ratio, the sample variance,
the Studentized mean, and the scaled gamma.

Tables are sparse with explicit coverage: reading a coefficient the model
defines as zero returns zero, reading beyond the declared coverage raises
``ModelOrderError`` naming the missing entry.  Model constructors keep exact
rationals whenever their inputs are rational.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, factorial, isfinite, isqrt

from .bell import Seq, partial_ordinary_bell


class ModelError(ValueError):
    """The model inputs violate a structural requirement."""


class ModelOrderError(ModelError):
    """A cumulant coefficient outside the model's declared coverage was
    requested."""


class MatchingError(ModelError):
    """Skewness matching is impossible (zero or invalid skew coefficient)."""


# ---------------------------------------------------------------------------
# Bernoulli numbers (exact, for the log-F model)
# ---------------------------------------------------------------------------

_bernoulli_cache = [Fraction(1), Fraction(-1, 2)]


def bernoulli(n):
    """The Bernoulli number B_n (B_1 = -1/2 convention), exact."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        acc = Fraction(0)
        for k in range(m):
            acc += comb(m + 1, k) * _bernoulli_cache[k]
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


def exact_sqrt(value):
    """Square root that stays exact for perfect-square rationals."""
    if isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            return Fraction(rn, rd)
    if isinstance(value, int):
        r = isqrt(value)
        if r * r == value:
            return r
    return float(value) ** 0.5


# ---------------------------------------------------------------------------
# coefficient tables
# ---------------------------------------------------------------------------

class _TableBase:
    """Shared sparse-storage semantics for raw and standardized tables."""

    def __init__(self, entries, defined, label=""):
        self.entries = {k: v for k, v in entries.items() if v}
        self.defined = defined  # "all" or a set of (r, i) pairs
        self.label = label

    def covers(self, r, i):
        if i < r - 1:
            return True  # structurally zero below the series start
        if self.defined == "all":
            return True
        return (r, i) in self.defined

    def get(self, r, i):
        if r < 1 or i < 0:
            raise ValueError(f"bad coefficient index ({r}, {i})")
        if (r, i) in self.entries:
            return self.entries[(r, i)]
        if self.covers(r, i):
            return 0
        raise ModelOrderError(
            f"{self.label or type(self).__name__}: coefficient ({r},{i}) is "
            f"outside the model's declared order"
        )


class CumulantTable(_TableBase):
    """Raw cumulant coefficients a_{ri} plus the estimand and variance rate."""

    def __init__(self, theta, a21, entries, defined="all", label="", n=None):
        super().__init__(entries, defined, label)
        if a21 <= 0:
            raise ModelError(f"variance rate a21={a21} must be positive")
        self.theta = theta
        self.a21 = a21
        self.n = n  # the model's own sample-size parameter, if it fixes one
        if theta:
            self.entries[(1, 0)] = theta
        else:
            self.entries.pop((1, 0), None)
        self.entries[(2, 1)] = a21

    def negated(self):
        """The table of the negated estimate -theta^: flips odd-order rows.
        ``model_gamma().negated()`` is the matching partner of a left-skewed
        estimate."""
        flipped = {(r, i): (v if r % 2 == 0 else -v)
                   for (r, i), v in self.entries.items()}
        return CumulantTable(-self.theta, self.a21, flipped, self.defined,
                             label=(self.label or "table") + "~negated",
                             n=self.n)


class ATable(_TableBase):
    """Standardized coefficients A_{ri} = a_{ri}/a21^(r/2), with A_{10} = 0."""

    def __init__(self, entries, defined="all", label=""):
        super().__init__(entries, defined, label)
        self.entries.pop((1, 0), None)  # A_{10} = 0 by construction

    def abar(self, r, i):
        """A_{ri}/r!, the factorial-normalized coefficient."""
        return self.get(r, i) * Fraction(1, factorial(r))

    def coeff(self, r, j):
        """The n^-j series coefficient of the adjusted cumulant L_r:
        Abar_{r, r+j-delta_r}, with delta_r = 1 for r >= 3 (the series
        protocol of ``partitions.bracket_series_coeff``).  Read on demand,
        so a model needs only the entries a bracket touches."""
        return self.abar(r, r + j - (1 if r >= 3 else 0))


def standardize(table):
    """CumulantTable -> ATable via A_{ri} = a_{ri}/a21^{r/2}."""
    root = exact_sqrt(table.a21)
    out = {}
    for (r, i), v in table.entries.items():
        if (r, i) == (1, 0):
            continue
        out[(r, i)] = v / root ** r
    return ATable(out, table.defined, label=(table.label or "table") + "~A")


# ---------------------------------------------------------------------------
# required coefficients, truncation adjustment, skew matching
# ---------------------------------------------------------------------------

def manifest(r):
    """The new standardized coefficients entering at expansion order r:
    (2i - r, i) for ceil((r+1)/2) <= i <= r+1, r >= 1."""
    lo = (r + 2) // 2  # ceil((r+1)/2)
    return tuple((2 * i - r, i) for i in range(lo, r + 2))


def validate_for_order(atable, R):
    """Touch every coefficient an order-R expansion needs; raises
    ModelOrderError naming the first missing one."""
    for r in range(1, R + 1):
        for (rr, ii) in manifest(r):
            atable.get(rr, ii)


def binom_general(alpha, k):
    """Generalized binomial coefficient C(alpha, k) over rationals."""
    out = Fraction(1)
    for j in range(k):
        out *= (alpha - j)
    return out / factorial(k)


def d_coeffs(r, jmax, atable, K):
    """The variance-rescaling series d_{r,0..jmax}: the (-r/2) power of the
    truncated variance sum, d_{rj} = sum_k C(-r/2, k) B^_{jk}(x) with
    x_j = A_{2,j+1} for j < K and zero beyond."""
    if jmax < 0:
        return []
    xs = Seq([atable.get(2, j + 1) if j < K else 0 for j in range(1, jmax + 1)])
    out = []
    for j in range(jmax + 1):
        total = Fraction(1) if j == 0 else 0
        for k in range(1, j + 1):
            b = partial_ordinary_bell(j, k, xs)
            if isinstance(b, (int, float, Fraction)) and not b:
                continue
            total = total + binom_general(Fraction(-r, 2), k) * b
        out.append(total)
    return out


class _LazyATable(ATable):
    """An ATable derived from ``source``: each entry is assembled by
    ``_compute`` on first read and cached, so coverage errors surface
    exactly when an unavailable source coefficient is touched, naming it."""

    def __init__(self, source, label):
        super().__init__({}, source.defined, label=label)
        self._cache = {}

    def covers(self, r, i):
        return True  # coverage is enforced against the source on read

    def get(self, r, i):
        if r < 1 or i < 0:
            raise ValueError(f"bad coefficient index ({r}, {i})")
        if i < r - 1:
            return 0
        key = (r, i)
        if key not in self._cache:
            self._cache[key] = self._compute(r, i)
        return self._cache[key]


class JKAdjustedTable(_LazyATable):
    """Standardized coefficients of the center/scale-truncated estimate."""

    def __init__(self, source, J, K):
        if J < 0 or K < 1:
            raise ModelError(f"need J >= 0 and K >= 1, got J={J}, K={K}")
        super().__init__(source, (source.label or "A") + f"~JK({J},{K})")
        self.source = source
        self.J = J
        self.K = K

    def _compute(self, r, i):
        src, K = self.source, self.K
        if (r, i) == (2, 1):
            return src.get(2, 1)
        # the first source index the sum reads: the truncation absorbs the
        # mean's first J + 1 terms and the variance's first K
        lo = {1: self.J + 1, 2: K + 1}.get(r, r - 1)
        if i < lo:
            return 0
        ds = d_coeffs(r, i - lo, src, K)
        return sum((ds[i - j] * src.get(r, j) for j in range(lo, i + 1)), 0)


def match_tau(a_theta, a_w):
    """The scale ratio making the skewness coefficients cancel:
    tau = (A_32w/A_32theta)^2.  The two must have the same sign: a
    left-skewed estimate is matched with a negated gamma table."""
    s_t = a_theta.get(3, 2)
    s_w = a_w.get(3, 2)
    if not s_t or not s_w:
        raise MatchingError("skewness coefficient A_32 is zero; cannot match")
    if (s_t < 0) != (s_w < 0):
        raise MatchingError("skewness coefficients of opposite signs cannot match")
    ratio = s_w / s_t
    return ratio * ratio


class DiffTable(_LazyATable):
    """Coefficients of kappa_r(Y_theta) - kappa_r(Y_w) with the comparison
    scale m = n*tau: A_{ri} = A_{ri,theta} - tau^{r/2-i} A_{ri,w}.

    With ``matched_skew`` the (3, 2) entry is zero by construction (that is
    what the scale ratio is chosen for), so the kill is exact even when the
    source coefficients are floats and the generic formula would leave a
    rounding residue."""

    def __init__(self, a_theta, a_w, tau, matched_skew=False):
        super().__init__(a_theta, (a_theta.label or "theta") + "~diff")
        self.a_theta = a_theta
        self.a_w = a_w
        self.tau = tau
        self.tau_sqrt = exact_sqrt(tau)
        self.matched_skew = matched_skew

    def _compute(self, r, i):
        if self.matched_skew and (r, i) == (3, 2):
            return 0
        w = self.a_w.get(r, i)
        t = self.a_theta.get(r, i)
        power = r - 2 * i  # tau^{r/2-i} = tau_sqrt^{r-2i}
        if power >= 0:
            scale = self.tau_sqrt ** power
        else:
            scale = 1 / (self.tau_sqrt ** (-power))
        return t - scale * w


def truncated_mean_var(table, J, K, n):
    """Partial sums (s1, s2) of the mean and variance series at size n
    (J and K as ``JKAdjustedTable`` checks them)."""
    s1 = sum((table.get(1, i) / n ** i for i in range(0, J + 1)), 0)
    s2 = sum((table.get(2, i) / n ** i for i in range(1, K + 1)), 0)
    if s2 <= 0:
        raise ModelError(f"truncated variance s2={s2} <= 0 (n too small)")
    return s1, s2


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

_LNF_RMAX = 16
_LNF_IMAX = 24


def model_lnF(n1, n2, max_order=_LNF_RMAX):
    """Cumulant coefficients of Z = (1/2) ln F_{n1,n2}, exact rationals.

    n is the harmonic mean of the degrees of freedom, making a_{21} = 1.
    The nonzero coefficients sit at i = r, carrying
    (r-1)! [f2^r + (-1)^r f1^r]/2, and at i = 2j + r - 1, descending from the
    Stirling tails of the polygamma functions with true Bernoulli numbers:
    (-1)^{j-1} |B_{2j}| 2^{2j-1} (2j+r-2)!/(2j)! [f2^i + (-1)^r f1^i].
    """
    if n1 < 1 or n2 < 1:
        raise ModelError("degrees of freedom must be >= 1")
    n = Fraction(2 * n1 * n2, n1 + n2)
    f1 = n / n1
    f2 = n / n2
    entries = {}
    defined = set()
    for r in range(1, max_order + 1):
        for i in range(max(0, r - 1), _LNF_IMAX + 1):
            defined.add((r, i))
        sgn = (-1) ** r
        entries[(r, r)] = (Fraction(factorial(r - 1), 2)
                           * (f2 ** r + sgn * f1 ** r))
        j = 0
        while 2 * j + r - 1 <= _LNF_IMAX:
            i = 2 * j + r - 1
            if j == 0:
                if r >= 2:
                    coeff = Fraction(factorial(r - 2), 2)
                    entries[(r, i)] = (entries.get((r, i), 0)
                                       + coeff * (f2 ** i + sgn * f1 ** i))
            else:
                coeff = ((-1) ** (j - 1) * abs(bernoulli(2 * j))
                         * 2 ** (2 * j - 1)
                         * Fraction(factorial(2 * j + r - 2), factorial(2 * j)))
                entries[(r, i)] = (entries.get((r, i), 0)
                                   + coeff * (f2 ** i + sgn * f1 ** i))
            j += 1
    entries = {k: v for k, v in entries.items() if v}
    return CumulantTable(Fraction(0), Fraction(1), entries, defined,
                         label=f"lnF({n1},{n2})", n=n)


_GAMMA_RMAX = 24


def model_gamma():
    """The scaled gamma estimate w^ = G/m, w = 1: a_{r,r-1} = (r-1)! at every
    order, all other coefficients exactly zero.

    The table is m-free in these units; the mean enters only through the
    comparison scale m = n*tau chosen by skew matching.  Rows are materialized
    through r = 24, far past the engine's order guard.
    """
    entries = {(r, r - 1): Fraction(factorial(r - 1))
               for r in range(1, _GAMMA_RMAX + 1)}
    defined = {(r, i) for r in range(1, _GAMMA_RMAX + 1)
               for i in range(r - 1, 3 * _GAMMA_RMAX)}
    return CumulantTable(Fraction(1), Fraction(1), entries, defined,
                         label="gamma")


def model_sample_variance(mu):
    """Sample-variance estimate: theta = mu_2, a21 = mu_4 - mu_2^2.

    ``mu`` maps order -> central moment.  Orders 2..8 and 10 are read;
    order 9 is accepted (a config may give orders 2..10) and not read.
    Coefficients above expansion order 3 are outside the model and raise
    ModelOrderError.
    """
    need = [2, 3, 4, 5, 6, 7, 8, 10]
    missing = [r for r in need if r not in mu]
    if missing:
        raise ModelError(f"central moments {missing} required")
    m2, m3, m4, m5 = mu[2], mu[3], mu[4], mu[5]
    m6, m7, m8, m10 = mu[6], mu[7], mu[8], mu[10]
    a21 = m4 - m2 ** 2  # CumulantTable requires it positive
    entries = {
        (1, 1): -m2,
        (3, 2): m6 - 3 * m4 * m2 + 2 * m2 ** 3 - 6 * m3 ** 2,
        (2, 2): 4 * m2 ** 2 - 2 * m4,
        (4, 3): (m8 - 4 * m6 * m2 + 12 * m4 * m2 ** 2 - 3 * m4 ** 2
                 - 24 * m5 * m3 + 96 * m3 ** 2 * m2 - 6 * m2 ** 4),
        (1, 2): 0,
        (3, 3): -3 * m6 + 21 * m4 * m2 - 26 * m2 ** 3 + 18 * m3 ** 2,
        # fifth-cumulant leading coefficient, pinned by the exact finite-n
        # oracle in the tests
        (5, 4): (m10 - 5 * m8 * m2 - 40 * m7 * m3 - 10 * m6 * m4
                 + 20 * m6 * m2 ** 2 - 30 * m5 ** 2 + 480 * m5 * m3 * m2
                 + 360 * m4 * m3 ** 2 + 30 * m4 ** 2 * m2 - 60 * m4 * m2 ** 3
                 - 1560 * m3 ** 2 * m2 ** 2 + 24 * m2 ** 5),
    }
    defined = {(1, 0), (1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3),
               (5, 4)}
    return CumulantTable(m2, a21, entries, defined, label="sample_variance")


def model_studentized_mean(nu3, nu4=None, nu5=None):
    """Studentized mean sqrt(n)(Xbar - mu)/sqrt(m2) for a population with
    standardized moments nu_r; theta = 0, a21 = 1.

    The second-order variance coefficient is 3 + 7 nu3^2/4: the tests pin it
    against the classical second-order expansion of the studentized mean and
    against direct simulation of kappa_2.
    """
    if nu5 is not None and nu4 is None:
        raise ModelError("nu5 enters only with nu4")
    nu3 = _keep(nu3)
    entries = {
        (1, 1): -nu3 / 2,
        (3, 2): -2 * nu3,
        (2, 2): 3 + 7 * nu3 ** 2 / 4,
    }
    defined = {(1, 0), (1, 1), (2, 1), (2, 2), (3, 2)}
    if nu4 is not None:
        nu4 = _keep(nu4)
        entries[(4, 3)] = 12 - 2 * nu4 + 12 * nu3 ** 2
        defined.add((4, 3))
        if nu5 is not None:
            nu5 = _keep(nu5)
            entries[(1, 2)] = (-25 * nu3 + 6 * nu5 - 15 * nu3 * nu4) / 16
            defined.add((1, 2))
    return CumulantTable(0 * nu3, Fraction(1), entries, defined,
                         label="studentized_mean")


def _keep(v):
    """Promote ints to Fractions, keep Fractions and floats as given."""
    return Fraction(v) if isinstance(v, int) else v


STANDARDIZED_EXPONENTIAL = {"nu3": Fraction(2), "nu4": Fraction(9),
                            "nu5": Fraction(44)}


# ---------------------------------------------------------------------------
# JSON model configuration
# ---------------------------------------------------------------------------

def model_from_config(cfg):
    """Build a CumulantTable from the JSON model schema.

    {"model": "lnF", "n1": .., "n2": ..}
    {"model": "sample_variance", "mu": {"2": .., ..., "10": ..}}
    {"model": "studentized_mean", "nu3": .., "nu4": .., "nu5": ..}
    {"model": "gamma"}
    {"model": "custom", "theta": .., "a21": .., "table": [[r, i, value], ...]}

    Exact values may be spelled as strings like "3/7".
    """
    if isinstance(cfg, str):
        cfg = json.loads(cfg)
    if not isinstance(cfg, dict):
        raise ModelError(f"a model config is a JSON object, not {cfg!r}")
    try:
        return _model_from_fields(cfg)
    except KeyError as e:
        raise ModelError(f"model {cfg.get('model')!r} needs the field "
                         f"{e.args[0]!r}") from None
    except ModelError:
        raise
    except (TypeError, ValueError, AttributeError, ZeroDivisionError) as e:
        raise ModelError(f"model {cfg.get('model')!r}: bad field value "
                         f"({e})") from None


# the fields each model kind reads, besides "model"
_FIELDS = {"lnF": {"n1", "n2"}, "sample_variance": {"mu"},
           "studentized_mean": {"nu3", "nu4", "nu5"}, "gamma": set(),
           "custom": {"theta", "a21", "table"}}


def _model_from_fields(cfg):
    kind = cfg.get("model")
    if kind not in _FIELDS:
        raise ModelError(f"unknown model kind {kind!r}")
    unread = set(cfg) - _FIELDS[kind] - {"model"}
    if unread:
        raise ModelError(f"model {kind!r} does not read {sorted(unread)}")
    if kind == "lnF":
        return model_lnF(_int(cfg["n1"]), _int(cfg["n2"]))
    if kind == "sample_variance":
        mu = _unique(((_int(k), _num(v)) for k, v in cfg["mu"].items()),
                     "moment order")
        outside = sorted(k for k in mu if not 2 <= k <= 10)
        if outside:
            raise ModelError(f"moment orders {outside} are outside 2..10")
        return model_sample_variance(mu)
    if kind == "studentized_mean":
        return model_studentized_mean(_num(cfg["nu3"]), _num(cfg.get("nu4")),
                                      _num(cfg.get("nu5")))
    if kind == "gamma":
        return model_gamma()
    theta, a21 = _num(cfg.get("theta", 0)), _num(cfg["a21"])
    entries = _unique((((_int(r), _int(i)), _num(v)) for r, i, v in cfg["table"]),
                      "custom row")
    for (r, i), v in entries.items():
        if r < 1 or i < r - 1 or {(1, 0): theta, (2, 1): a21}.get((r, i), v) != v:
            raise ModelError(f"custom row [{r}, {i}, {v}]: rows need r >= 1 and "
                             f"i >= r - 1, and [1, 0] and [2, 1] repeat theta and a21")
    return CumulantTable(theta, a21, entries, set(entries) | {(1, 0), (2, 1)},
                         label="custom")


def _unique(pairs, what):
    """A dict of (key, value) pairs in which no key repeats."""
    out = {}
    for k, v in pairs:
        if k in out:
            raise ModelError(f"{what} {k} is given twice")
        out[k] = v
    return out


def _int(v):
    """An integer field: an int, an integral number or an integer string.
    Bools and fractional values raise instead of being truncated."""
    if isinstance(v, bool):
        raise ModelError(f"{v!r} is not an integer")
    if isinstance(v, (int, str)):
        return int(v)
    if isinstance(v, (float, Fraction)) and isfinite(v) and v == int(v):
        return int(v)
    raise ModelError(f"{v!r} is not an integer")


def _num(v):
    """A number field: an int, a float, a Fraction or a rational string.
    Bools raise instead of being read as 0 or 1."""
    if v is None:
        return None
    if isinstance(v, bool):
        raise ModelError(f"{v!r} is not a number")
    if isinstance(v, (str, int)):
        return Fraction(v)
    if not isfinite(v):
        raise ModelError(f"{v} is not a finite number")
    return v


def table_to_config(table):
    """Serialize to the custom-model schema; exact values as 'p/q' strings."""
    rows = []
    for (r, i), v in sorted(table.entries.items()):
        rows.append([r, i, str(v) if isinstance(v, Fraction) else v])
    return {
        "model": "custom",
        "theta": str(table.theta) if isinstance(table.theta, Fraction) else table.theta,
        "a21": str(table.a21) if isinstance(table.a21, Fraction) else table.a21,
        "table": rows,
    }
