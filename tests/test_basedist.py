"""Base distributions and special functions, cross-checked against scipy and
quadrature."""

import math
from fractions import Fraction as F

import pytest
import scipy.integrate
import scipy.special
import scipy.stats

from cfx import basedist, hbasis
from cfx.bell import Seq

import _engine_routes as routes


def test_normal_cdf_inv_roundtrip():
    grid = [1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6]
    for p in grid:
        x = basedist.normal_inv_cdf(p)
        assert abs(basedist.normal_cdf(x) - p) <= 1e-12


def test_normal_inv_against_scipy():
    for p in (0.95, 0.5, 0.025, 1e-5):
        assert abs(basedist.normal_inv_cdf(p) - scipy.stats.norm.ppf(p)) < 1e-12
    # below about 1e-308 the Halley step would overflow: the seed answers
    for p in (5e-324, 1e-320, 2.2e-311):
        ref = scipy.special.ndtri(p)
        assert abs(basedist.normal_inv_cdf(p) - ref) <= 2e-9 * abs(ref), p


def test_gamma_cdf_against_scipy_and_quadrature():
    for m in (0.5, 3.0, 48.0):
        g = basedist.gamma(m)
        for y in (0.2 * m, m, 2.5 * m):
            ref = scipy.special.gammainc(m, y)
            assert abs(g.cdf(y) - ref) <= 1e-13 * max(1, ref)
        quad, _ = scipy.integrate.quad(g.pdf, 0, m)
        assert abs(g.cdf(m) - quad) < 1e-9


def test_gamma_cdf_inv_roundtrip():
    grid = [1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 1 - 1e-3, 1 - 1e-6]
    for m in (0.5, 3.0, 48.0):
        g = basedist.gamma(m)
        for p in grid:
            y = g.inv_cdf(p)
            assert abs(g.cdf(y) - p) <= 1e-12, (m, p)


def test_beta_against_scipy():
    for (a, b) in ((12.0, 30.0), (0.5, 2.5), (7.0, 7.0)):
        for u in (0.05, 0.4, 0.77, 0.99):
            ref = scipy.special.betainc(a, b, u)
            assert abs(basedist.reg_inc_beta(a, b, u) - ref) <= 1e-12
        for p in (0.01, 0.5, 0.95):
            u = basedist.inv_reg_inc_beta(a, b, p)
            assert abs(basedist.reg_inc_beta(a, b, u) - p) <= 1e-12


def test_inverses_relative_accuracy_at_small_p():
    # relative, not the round trips' absolute residual: at p = 1e-17 a
    # residual below 1e-16 holds anywhere near 0.  (shapes, right at 1e-8
    # and 1e-10): every answer is within 1e-8 or a NumericError
    gamma = [((0.5,), True), ((3.0,), True), ((48.0,), True), ((1000.0,), True),
             ((1.5,), False)]
    beta = [((12.0, 30.0), True), ((30.0, 12.0), True), ((2.0, 5.0), True),
            ((0.5, 0.5), False)]
    cases = ([(basedist.inv_reg_inc_gamma, scipy.special.gammaincinv, *c)
              for c in gamma]
             + [(basedist.inv_reg_inc_beta, scipy.special.betaincinv, *c)
                for c in beta])
    for inv, ref, shapes, right in cases:
        for p in (1e-8, 1e-10, 1e-12, 1e-16, 1e-17, 1e-30, 1e-100, 1e-310):
            try:
                got = inv(*shapes, p)
            except basedist.NumericError:
                assert not (right and p >= 1e-10), (shapes, p)
                continue
            assert got == pytest.approx(ref(*shapes, p), rel=1e-8, abs=0), \
                (shapes, p)


def test_domain_errors():
    with pytest.raises(basedist.DomainError):
        basedist.normal_inv_cdf(0.0)
    with pytest.raises(basedist.DomainError):
        basedist.gamma(3.0).inv_cdf(1.0)
    with pytest.raises(basedist.DomainError):
        basedist.gamma(-1.0)
    with pytest.raises(basedist.DomainError):
        basedist.reg_inc_gamma(2.0, -0.5)
    with pytest.raises(basedist.DomainError):
        routes.a_seq(basedist.gamma(2.0), -0.3, 4)  # singular side, never clamped
    with pytest.raises(basedist.DomainError):
        basedist.affine(basedist.gamma(2.0), 0.0, 1.0).h_seq(-0.5, 4)
    # the density is 0 off the support; at its boundary the corrections
    # are singular, so there is no value to give
    assert basedist.gamma(2.0).pdf(-0.5) == 0.0
    with pytest.raises(basedist.DomainError):
        basedist.gamma(2.0).pdf(0.0)


def test_normal_sequences():
    nb = basedist.normal()
    assert routes.a_seq(nb, 1.5, 5) == [1.5, 1.0, 0.0, 0.0, 0.0]
    hv = nb.h_seq(2.0, 3)
    assert hv[0] == 2.0 and hv[1] == 3.0 and hv[2] == 2.0  # He3(2) = 8 - 6


def test_normal_h_matches_imaginary_moment_form():
    # He_r(x) equals the binomial sum of (x + iN)^r moments: pure-imaginary
    # even moments of N enter with alternating signs
    import math as _m
    x = 0.8
    hv = basedist.normal().h_seq(x, 8)
    for r in range(1, 9):
        total = 0.0
        for j in range(0, r + 1, 2):
            ej = 1.0
            for k in range(1, j, 2):
                ej *= k
            total += _m.comb(r, j) * x ** (r - j) * (-1) ** (j // 2) * ej
        assert abs(hv[r - 1] - total) < 1e-10 * max(1, abs(total))


def test_gamma_sequences_closed_forms():
    m = F(4)
    g = basedist.gamma(m)
    y = F(5, 2)
    alpha = m - 1
    ybar = -1 / y
    av = routes.a_seq(g, y, 4)
    assert av[0] == 1 + alpha * ybar
    assert av[1] == alpha / y ** 2
    assert av[2] == 2 * alpha * ybar ** 3
    hv = g.h_seq(y, 3)
    assert hv[0] == 1 + alpha * ybar
    assert hv[1] == 1 + 2 * alpha * ybar + alpha * (alpha - 1) * ybar ** 2


def test_gamma_a_h_consistency_via_conversion():
    # numeric H from the closed form matches the a -> H conversion
    g = basedist.gamma(3.5)
    y = 2.2
    av = routes.a_seq(g, y, 8)
    hv = g.h_seq(y, 8)
    for r in range(1, 9):
        conv = hbasis.hp_eval(hbasis.H_from_a(r), Seq(av))
        assert abs(conv - hv[r - 1]) <= 1e-10 * max(1.0, abs(hv[r - 1])), r


def test_h_recurrence_numeric():
    # H_r = H_1 H_{r-1} - H_{r-1}' with the derivative by central differences
    step = 1e-5
    for base, x in ((basedist.normal(), 0.7), (basedist.gamma(5.0), 4.0)):
        hv = base.h_seq(x, 8)
        h1 = hv[0]
        for r in range(2, 9):
            up = base.h_seq(x + step, 8)[r - 2]
            dn = base.h_seq(x - step, 8)[r - 2]
            deriv = (up - dn) / (2 * step)
            want = h1 * hv[r - 2] - deriv
            assert abs(hv[r - 1] - want) <= 1e-6 * max(1.0, abs(hv[r - 1])), r


def test_h_seq_prefix_stable():
    # a shorter table is the start of a longer one, bit for bit, in floats
    # and in Fractions: one table per point serves every order
    bases = [basedist.normal(), basedist.gamma(3.5), basedist.gamma(F(7, 2)),
             basedist.standardized_gamma(48.0),
             basedist.affine(basedist.gamma(F(5)), F(5), F(3, 2))]
    for base in bases:
        for x in (F(7, 10), F(13, 4), 0.7, 3.25):
            full = base.h_seq(x, 24)
            for k in range(25):
                assert repr(base.h_seq(x, k)) == repr(full[:k]), (base, x, k)


def test_gamma_h_seq_matches_double_loop():
    # the falling factorials and powers of ybar carried along j give the
    # values of the double loop that recomputes them, bit for bit
    for m in (0.5, 3.0, 48.0, 1e3, 1e5, F(7, 2)):
        g = basedist.gamma(m)
        s = math.sqrt(m)
        for y in (m / 4, abs(m - s), m, m + 2 * s, 0.3 * s + 0.01):
            assert repr(g.h_seq(y, 36)) == \
                repr(routes.gamma_h_seq_double_loop(g, y, 36)), (m, y)


def test_affine_scaling():
    inner = basedist.gamma(4.0)
    ab = basedist.affine(inner, 4.0, 2.0)
    x = 0.3
    y = 4.0 + 2.0 * x
    assert abs(ab.cdf(x) - inner.cdf(y)) < 1e-15
    assert abs(ab.pdf(x) - 2.0 * inner.pdf(y)) < 1e-15
    a_in = routes.a_seq(inner, y, 4)
    a_out = routes.a_seq(ab, x, 4)
    for r in range(1, 5):
        assert abs(a_out[r - 1] - 2.0 ** r * a_in[r - 1]) < 1e-12
    h_in = inner.h_seq(y, 4)
    h_out = ab.h_seq(x, 4)
    for r in range(1, 5):
        assert abs(h_out[r - 1] - 2.0 ** r * h_in[r - 1]) < 1e-12
    assert abs(ab.inv_cdf(0.3) - (inner.inv_cdf(0.3) - 4.0) / 2.0) < 1e-12


def test_jk_affine_params():
    # the standardized-gamma frame: mu = m, sigma = sqrt(m)
    sg = basedist.standardized_gamma(4.0)
    assert (sg.mu, sg.sigma) == (4.0, 2.0)
    for m in (-1.0, 0.0):
        with pytest.raises(basedist.DomainError):
            basedist.standardized_gamma(m)


def test_standardized_gamma_moments():
    # X = (G - m)/sqrt(m) has mean 0, variance 1, skewness 2/sqrt(m)
    m = 16.0
    sg = basedist.standardized_gamma(m)
    mean, _ = scipy.integrate.quad(lambda t: t * sg.pdf(t), -4.0, 60.0)
    var, _ = scipy.integrate.quad(lambda t: t * t * sg.pdf(t), -4.0, 60.0)
    assert abs(mean) < 1e-9
    assert abs(var - 1.0) < 1e-8


def test_gamma_c_function_golden_values():
    # the inversion functions specialized to the gamma, as exact polynomials
    # in ybar = -1/y: constants r!, linear r! r alpha, and the published
    # higher coefficients (with the two print corruptions corrected: the
    # factor 2 on the order-5 quadratic, the swapped cubic/quadratic pair on
    # the order-6 cubic)
    from cfx.hpoly import Poly

    def gamma_H_polys(alpha, rmax):
        yb = Poly.atom(1)
        out = []
        for r in range(1, rmax + 1):
            total = Poly()
            for j in range(r + 1):
                total = total + (yb ** j) * (
                    routes.falling_factorial(alpha, j) * F(math.comb(r, j)))
            out.append(total)
        return out

    for alpha in (F(3), F(7, 2), F(1, 3)):
        hv = gamma_H_polys(alpha, 6)
        got = {}
        for r in range(1, 6):
            c = hbasis.c_function(r + 1).eval({i + 1: hv[i] for i in range(6)})
            if not isinstance(c, Poly):
                c = Poly.const(c)
            assert c.coefficient(()) == math.factorial(r)
            assert c.coefficient((1,)) == math.factorial(r) * r * alpha
            for i in range(2, r + 1):
                got[(r + 1, i)] = c.coefficient((1,) * i)
        assert got[(4, 2)] == alpha * (18 * alpha + 7)
        assert got[(5, 2)] == 2 * alpha * (72 * alpha + 23)
        assert got[(5, 3)] == 2 * alpha * (2 * alpha + 1) * (24 * alpha + 11)
        assert got[(6, 2)] == 2 * alpha * (600 * alpha + 163)
        assert got[(6, 3)] == 2 * alpha * (600 * alpha ** 2 + 489 * alpha + 101)
        assert got[(6, 4)] == 3 * alpha * (2 * alpha + 1) * (
            100 * alpha ** 2 + 113 * alpha + 32)
        for r in range(2, 6):
            prod = 1
            for k in range(1, r + 1):
                prod *= (k * alpha + k - 1)
            assert got[(r + 1, r)] == prod


def test_jk_affine_composition_with_gamma_model():
    # composing with the gamma model's truncated mean/variance sums: they
    # carry the bias part and the variance in leading units, so the
    # pipeline expands about the standardized frame (mu, sigma) =
    # (m, sqrt(m)); the raw sums (1, 1/m) read as a frame would collapse it
    from cfx import cumulants
    m = F(36)
    g = cumulants.model_gamma()
    s1, s2 = cumulants.truncated_mean_var(g, 2, 3, m)
    assert s1 == 1 and s2 == F(1, 36)
    sg = basedist.standardized_gamma(36.0)
    assert sg.mu == 36.0 and sg.sigma == 6.0
