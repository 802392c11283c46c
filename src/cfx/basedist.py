"""Base distributions and the special functions behind them.

Provides the evaluatable bundle every expansion needs from its base law X:
pdf, cdf, inverse cdf, and the generalized Hermite values H_r(x), whose
``h_seq`` tables are prefix-stable (a longer table starts with the values of
a shorter one, bit for bit).  Three bases are supported: the standard
normal, the gamma with mean m (unit rate), and an affine transform
X = (Y - mu)/sigma of another base.

The special functions are implemented here rather than imported: regularized
incomplete gamma (series below the diagonal, modified-Lentz continued
fraction above), regularized incomplete beta (continued fraction with the
symmetry reduction), and their inverses by safeguarded Newton iteration.
Accuracy targets are ~1e-14 relative for the forward functions and 1e-12 for
the round trips, which the acceptance suite pins.
"""

from __future__ import annotations

import math
from fractions import Fraction


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NumericError(ArithmeticError):
    """A special-function iteration failed to converge."""


_EPS = 2.220446049250313e-16
_FPMIN = 1e-300
_MAX_ITER = 600


# ---------------------------------------------------------------------------
# scalar special functions
# ---------------------------------------------------------------------------

def normal_pdf(x):
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


# Acklam's rational approximation for the inverse normal cdf (seed only;
# a Halley step below pushes it to full double precision).
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02,
             -2.759285104469687e+02, 1.383577518672690e+02,
             -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02,
             -1.556989798598866e+02, 6.680131188771972e+01,
             -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01,
             -2.400758277161838e+00, -2.549732539343734e+00,
             4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01,
             2.445134137142996e+00, 3.754408661907416e+00)


def _acklam_seed(p):
    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > phigh:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def normal_inv_cdf(p):
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability {p} not in (0, 1)")
    x = _acklam_seed(p)
    # two Halley refinements on Phi(x) - p
    for _ in range(2):
        e = normal_cdf(x) - p
        try:
            u = e * math.sqrt(2 * math.pi) * math.exp(0.5 * x * x)
        except OverflowError:
            # p below about 1e-308: Phi(x) - p is a difference of
            # subnormals, so the seed (within 2e-9) is the better answer
            break
        x -= u / (1 + 0.5 * x * u)
    return x


def _gamma_p_series(a, x):
    ap = a
    summ = 1.0 / a
    term = summ
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        summ += term
        if abs(term) < abs(summ) * _EPS:
            return summ * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NumericError(f"incomplete gamma series failed: a={a}, x={x}")


def _gamma_q_contfrac(a, x):
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / (b if abs(b) >= _FPMIN else _FPMIN)
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise NumericError(f"incomplete gamma continued fraction failed: a={a}, x={x}")


def reg_inc_gamma(a, x):
    """Regularized lower incomplete gamma P(a, x)."""
    if a <= 0:
        raise DomainError(f"shape {a} <= 0")
    if x < 0:
        raise DomainError(f"argument {x} < 0")
    if x == 0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_contfrac(a, x)


def inv_reg_inc_gamma(a, p):
    """Inverse of P(a, .): Newton from a Wilson-Hilferty-type seed with a
    bisection safeguard."""
    if a <= 0:
        raise DomainError(f"shape {a} <= 0")
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability {p} not in (0, 1)")
    gln = math.lgamma(a)
    # seed
    if a > 1.0:
        z = normal_inv_cdf(p)
        t = 1.0 - 1.0 / (9.0 * a) + z / (3.0 * math.sqrt(a))
        x = a * t * t * t
        if x <= 0:
            x = 1e-8
    else:
        t = 1.0 - a * (0.253 + a * 0.12)
        if p < t:
            x = (p / t) ** (1.0 / a)
        else:
            x = 1.0 - math.log(1.0 - (p - t) / (1.0 - t))
    # bracket the root, then safeguarded Newton
    lo, hi = 0.0, max(x, a, 1.0)
    while reg_inc_gamma(a, hi) < p:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise NumericError(f"inverse gamma bracket failed: a={a}, p={p}")
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    return _newton(lambda t: reg_inc_gamma(a, t) - p,
                   lambda t: -t + (a - 1.0) * math.log(t) - gln, x, lo, hi,
                   200, 1e-15, f"inverse incomplete gamma a={a}, p={p}")


def _newton(resid, lnpdf, x, lo, hi, iters, rtol, what):
    """The root of the residual resid(x) = P(x) - p in (lo, hi), by Newton
    steps on the density exp(lnpdf(x)), bisecting whenever a step leaves
    the bracket or the density underflows.  Stops at |resid| < 1e-16 or a
    step within rtol x, then raises unless the last Newton step |f|/pdf(x)
    is within 1e-8 x (compared in logs: pdf(x) may overflow), since the
    absolute stop says nothing once p is tiny."""
    top = hi
    for _ in range(iters):
        if not 0.0 < x < top:
            raise NumericError(f"{what} lies closer to {x} than float resolves")
        xf = x
        f = resid(x)
        if f > 0:
            hi = x
        else:
            lo = x
        if abs(f) < 1e-16:
            break
        lp = lnpdf(x)
        if lp < -700:
            x = 0.5 * (lo + hi)
            continue
        xn = x - f / math.exp(lp)
        if not lo < xn < hi:
            xn = 0.5 * (lo + hi)
        if abs(xn - x) <= rtol * (abs(x) + 1e-300):
            x = xn
            break
        x = xn
    if f and math.log(abs(f)) - lnpdf(xf) - math.log(xf) > math.log(1e-8):
        raise NumericError(f"{what}: no convergence, the last Newton step "
                           f"at x={xf:.6g} exceeds 1e-8 x (p too small)")
    return x


def _beta_contfrac(a, b, x):
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise NumericError(f"incomplete beta continued fraction failed: a={a}, b={b}, x={x}")


def reg_inc_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise DomainError(f"shapes must be positive: a={a}, b={b}")
    if x < 0 or x > 1:
        raise DomainError(f"argument {x} not in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_contfrac(a, b, x) / a
    return 1.0 - front * _beta_contfrac(b, a, 1.0 - x) / b


def inv_reg_inc_beta(a, b, p):
    """Inverse of I_x(a, b) in x, by safeguarded Newton on [0, 1]."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability {p} not in (0, 1)")
    lbeta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return _newton(
        lambda t: reg_inc_beta(a, b, t) - p,
        lambda t: (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t) - lbeta,
        0.5, 0.0, 1.0, 300, 1e-16, f"inverse incomplete beta a={a}, b={b}, p={p}")


# ---------------------------------------------------------------------------
# base distributions
# ---------------------------------------------------------------------------

class NormalBase:
    kind = "normal"

    def pdf(self, x):
        return normal_pdf(x)

    def cdf(self, x):
        return normal_cdf(x)

    def inv_cdf(self, p):
        return normal_inv_cdf(p)

    def h_seq(self, x, rmax):
        # He_r(x) = x He_{r-1}(x) - (r-1) He_{r-2}(x)
        out = []
        prev2 = x ** 0  # He_0 = 1
        prev1 = x
        for r in range(1, rmax + 1):
            if r == 1:
                out.append(prev1)
                continue
            cur = x * prev1 - (r - 1) * prev2
            out.append(cur)
            prev2, prev1 = prev1, cur
        return out

    def __repr__(self):
        return "NormalBase()"


class GammaBase:
    """Gamma with mean m (shape m, unit rate), density y^{m-1} e^{-y}/Gamma(m)
    on (0, inf)."""

    kind = "gamma"

    def __init__(self, m):
        if m <= 0:
            raise DomainError(f"gamma mean {m} <= 0")
        self.m = m
        self.alpha = m - 1

    def _require_support(self, y):
        if y <= 0:
            raise DomainError(f"gamma evaluation point y={y} <= 0 (singular at 0)")

    def pdf(self, y):
        if y < 0:
            return 0.0
        self._require_support(y)
        return math.exp((self.m - 1) * math.log(y) - y - math.lgamma(self.m))

    def cdf(self, y):
        if y <= 0:
            return 0.0
        return reg_inc_gamma(self.m, y)

    def inv_cdf(self, p):
        return inv_reg_inc_gamma(self.m, p)

    def h_seq(self, y, rmax):
        self._require_support(y)
        ybar = -1 / (Fraction(y) if isinstance(y, (int, Fraction)) else y)
        # H_r = sum_j C(r, j) alpha^(j) ybar^j, with the falling factorials
        # alpha^(j) and the powers ybar^j carried along j
        falls, pows = [self.alpha ** 0], [ybar ** 0]
        for j in range(rmax):
            falls.append(falls[-1] * (self.alpha - j))
            pows.append(pows[-1] * ybar)
        out = []
        for r in range(1, rmax + 1):
            total = 0
            for j in range(r + 1):
                total = total + math.comb(r, j) * falls[j] * pows[j]
            out.append(total)
        return out

    def __repr__(self):
        return f"GammaBase(m={self.m})"


class AffineBase:
    """X = (Y - mu)/sigma for an inner base Y; sigma > 0."""

    kind = "affine"

    def __init__(self, inner, mu, sigma):
        if sigma <= 0:
            raise DomainError(f"affine scale {sigma} <= 0")
        self.inner = inner
        self.mu = mu
        self.sigma = sigma

    def _y(self, x):
        return self.mu + self.sigma * x

    def pdf(self, x):
        return self.sigma * self.inner.pdf(self._y(x))

    def cdf(self, x):
        return self.inner.cdf(self._y(x))

    def inv_cdf(self, p):
        return (self.inner.inv_cdf(p) - self.mu) / self.sigma

    def h_seq(self, x, rmax):
        inner = self.inner.h_seq(self._y(x), rmax)
        return [self.sigma ** r * v for r, v in enumerate(inner, start=1)]

    def __repr__(self):
        return f"AffineBase({self.inner!r}, mu={self.mu}, sigma={self.sigma})"


def normal():
    return NormalBase()


def gamma(m):
    return GammaBase(m)


def affine(inner, mu, sigma):
    return AffineBase(inner, mu, sigma)


def standardized_gamma(m):
    """The base X = (G - m)/sqrt(m) used by the skew-matched pipeline."""
    return AffineBase(GammaBase(m), m, math.sqrt(m))
