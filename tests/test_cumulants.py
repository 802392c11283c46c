"""Cumulant models: exact oracles, adjustment identities, matching."""

import math
from fractions import Fraction as F

import pytest
import scipy.special

from cfx import cumulants as cm

import _sv_oracle


def lnf():
    return cm.model_lnF(24, 60)


def test_bernoulli():
    assert cm.bernoulli(0) == 1
    assert cm.bernoulli(1) == F(-1, 2)
    assert cm.bernoulli(2) == F(1, 6)
    assert cm.bernoulli(4) == F(-1, 30)
    assert cm.bernoulli(10) == F(5, 66)
    assert cm.bernoulli(7) == 0


def test_lnF_listed_coefficients():
    t = lnf()
    n = F(2 * 24 * 60, 84)
    f1, f2 = n / 24, n / 60
    assert t.a21 == 1
    assert t.get(1, 1) == (f2 - f1) / 2
    assert t.get(3, 2) == (f2 ** 2 - f1 ** 2) / 2
    assert t.get(2, 2) == (f2 ** 2 + f1 ** 2) / 2
    assert t.get(4, 3) == f2 ** 3 + f1 ** 3
    assert t.get(1, 2) == (f2 ** 2 - f1 ** 2) / 6
    assert t.get(3, 3) == f2 ** 3 - f1 ** 3
    assert t.get(5, 4) == 3 * (f2 ** 4 - f1 ** 4)
    assert t.get(2, 3) == (f2 ** 3 + f1 ** 3) / 3
    assert t.get(4, 4) == 3 * (f2 ** 4 + f1 ** 4)
    assert t.get(6, 5) == 12 * (f2 ** 5 + f1 ** 5)
    assert t.get(1, 3) == 0
    assert t.get(3, 4) == f2 ** 4 - f1 ** 4
    assert t.get(5, 5) == 12 * (f2 ** 5 - f1 ** 5)
    assert t.get(7, 6) == 60 * (f2 ** 6 - f1 ** 6)
    assert t.get(2, 4) == 0
    assert t.get(4, 5) == 4 * (f2 ** 5 + f1 ** 5)
    assert t.get(6, 6) == 60 * (f2 ** 6 + f1 ** 6)
    assert t.get(8, 7) == 360 * (f2 ** 7 + f1 ** 7)


def test_lnF_against_polygamma():
    # the model's partial sums must reproduce the exact cumulants of
    # (1/2) ln F, which are polygamma values of the half degrees of freedom
    n1, n2 = 24, 60
    t = lnf()
    nf = 2 * n1 * n2 / (n1 + n2)
    for r in range(1, 8):
        if r == 1:
            exact = 0.5 * ((math.log(2 / n1) + float(scipy.special.polygamma(0, n1 / 2)))
                           - (math.log(2 / n2) + float(scipy.special.polygamma(0, n2 / 2))))
        else:
            exact = 2.0 ** (-r) * (float(scipy.special.polygamma(r - 1, n1 / 2))
                                   + (-1) ** r * float(scipy.special.polygamma(r - 1, n2 / 2)))
        approx = sum(float(t.get(r, i)) * nf ** (-i) for i in range(max(0, r - 1), 19))
        assert abs(approx - exact) < 1e-12 * max(1, abs(exact)), r


def lnF_gamma_param(n1, n2):
    """The statistic of ``cm.model_lnF`` rescaled to ln F = 2 Z, built
    independently through the gamma shapes m_i = n_i/2 with
    n = m1 m2/(m1 + m2)."""
    m1, m2 = F(n1, 2), F(n2, 2)
    n = m1 * m2 / (m1 + m2)
    g1, g2 = n / m1, n / m2
    imax = cm._LNF_IMAX
    entries = {}
    defined = set()
    for r in range(1, cm._LNF_RMAX + 1):
        for i in range(max(0, r - 1), imax + 1):
            defined.add((r, i))
        sgn = (-1) ** r
        entries[(r, r)] = F(math.factorial(r - 1), 2) * (g2 ** r + sgn * g1 ** r)
        j = 0
        while 2 * j + r - 1 <= imax:
            i = 2 * j + r - 1
            if j == 0:
                if r >= 2:
                    entries[(r, i)] = (entries.get((r, i), 0) + math.factorial(r - 2)
                                       * (g2 ** i + sgn * g1 ** i))
            else:
                coeff = ((-1) ** (j - 1) * abs(cm.bernoulli(2 * j))
                         * F(math.factorial(2 * j + r - 2), math.factorial(2 * j)))
                entries[(r, i)] = (entries.get((r, i), 0)
                                   + coeff * (g2 ** i + sgn * g1 ** i))
            j += 1
    entries = {k: v for k, v in entries.items() if v}
    return cm.CumulantTable(F(0), F(1), entries, defined,
                            label=f"lnF-gamma({n1},{n2})")


def test_lnF_parameterization_consistency():
    # the gamma-shape parameterization of the doubled statistic must agree
    # with the half-log-F table under a_{ri} -> 2^r 4^{-i} a_{ri}, exactly
    t = lnf()
    tg = lnF_gamma_param(24, 60)
    for (r, i), v in t.entries.items():
        assert tg.get(r, i) == F(2) ** r * F(1, 4) ** i * v, (r, i)


def test_lnF_symmetric_degrees():
    t = cm.model_lnF(10, 10)
    for r in (1, 3, 5, 7):
        for i in range(r - 1, 12):
            assert t.get(r, i) == 0, (r, i)


def test_sample_variance_against_exact_oracle():
    # discrete rational population: every model coefficient must match the
    # exact finite-n cumulant expansion of the sample second moment
    points = [(-1, F(2, 5)), (0, F(2, 5)), (2, F(1, 5))]
    mu = _sv_oracle.population_moments(points, 10)
    sv = cm.model_sample_variance(mu)
    ns = list(range(6, 17))
    k2 = _sv_oracle.expansion_coeffs(points, 2, 1, 6, ns)
    k3 = _sv_oracle.expansion_coeffs(points, 3, 2, 8, ns)
    k4 = _sv_oracle.expansion_coeffs(points, 4, 3, 10, ns)
    k5 = _sv_oracle.expansion_coeffs(points, 5, 4, 12, ns)
    assert sv.a21 == k2[1]
    assert sv.get(2, 2) == k2[2]
    assert sv.get(3, 2) == k3[2]
    assert sv.get(3, 3) == k3[3]
    assert sv.get(4, 3) == k4[3]
    assert sv.get(5, 4) == k5[4]
    assert sv.get(1, 1) == -mu[2]
    assert sv.get(1, 2) == 0


def test_sample_variance_normal_population():
    # normal moments: mu3 = 0, mu4 = 3 mu2^2, mu6 = 15 mu2^3 -> a32 = 8 mu2^3
    m2 = F(2)
    mu = {2: m2, 3: F(0), 4: 3 * m2 ** 2, 5: F(0), 6: 15 * m2 ** 3,
          7: F(0), 8: 105 * m2 ** 4, 10: 945 * m2 ** 5}
    sv = cm.model_sample_variance(mu)
    assert sv.get(3, 2) == 8 * m2 ** 3
    assert sv.get(2, 2) == 4 * m2 ** 2 - 6 * m2 ** 2


def test_sample_variance_order_guard():
    mu = _sv_oracle.population_moments([(-1, F(2, 5)), (0, F(2, 5)), (2, F(1, 5))], 10)
    A = cm.standardize(cm.model_sample_variance(mu))
    cm.validate_for_order(A, 3)
    with pytest.raises(cm.ModelOrderError):
        cm.validate_for_order(A, 4)


def test_studentized_mean_model():
    st = cm.model_studentized_mean(F(0), F(0), F(0))
    assert st.get(3, 2) == 0 and st.get(1, 2) == 0
    st = cm.model_studentized_mean(**cm.STANDARDIZED_EXPONENTIAL)
    assert st.get(1, 1) == -1
    assert st.get(3, 2) == -4
    assert st.get(4, 3) == 12 - 18 + 48
    assert st.get(1, 2) == F(-25 * 2 + 6 * 44 - 15 * 2 * 9, 16)
    # the second-order variance coefficient 3 + 7 nu3^2/4, pinned by direct
    # simulation of kappa_2 and by the classical second-order expansion (see
    # the ledger entry 'a22-studentized'); at nu3 = 2 it is 10, and the
    # acceptance Monte-Carlo comparison breaks at ~12 standard errors under
    # the alternative reading 3 + 7 nu3^2/2
    assert st.get(2, 2) == 10
    assert cm.model_studentized_mean(F(1)).get(2, 2) == F(19, 4)


def test_studentized_mean_matches_classical_second_order():
    # -h2(x) must equal the classical second-order polynomial
    #   x [ lam4 (x^2-3)/12 - lam3^2 (x^4 + 2x^2 - 3)/18 - (x^2+3)/4 ]
    # with lam3 the skewness and lam4 the excess kurtosis
    from cfx import engine
    from cfx.hpoly import Poly
    lam3, lam4 = F(2), F(6)
    t = cm.model_studentized_mean(lam3, lam4 + 3)
    A = cm.standardize(t)
    h2 = engine.e_r_standardized("h", 2, A)
    from cfx import hbasis
    got = hbasis.normal_specialize(h2)
    x = Poly.atom(1)
    q2 = x * (lam4 * (x ** 2 - 3) * F(1, 12)
              - lam3 ** 2 * (x ** 4 + 2 * x ** 2 - 3) * F(1, 18)
              - (x ** 2 + 3) * F(1, 4))
    assert got == -q2


def test_standardize():
    t = cm.CumulantTable(F(1), F(4), {(3, 2): F(8), (1, 1): F(2)}, "all")
    A = cm.standardize(t)
    assert A.get(3, 2) == 1  # 8 / 4^{3/2}
    assert A.get(1, 1) == 1
    assert A.get(2, 1) == 1
    assert A.get(1, 0) == 0


def test_d_coeffs():
    t = lnf()
    A = cm.standardize(t)
    for r in (1, 2, 3, 4):
        for K in (1, 2, 3):
            d = cm.d_coeffs(r, 2, A, K)
            assert d[0] == 1
            x1 = A.get(2, 2) if 1 < K else 0
            assert d[1] == F(-r, 2) * x1
            x2 = A.get(2, 3) if 2 < K else 0
            assert d[2] == F(-r, 2) * x2 + cm.binom_general(F(-r, 2), 2) * x1 ** 2


def test_jk_adjust_identities():
    A = cm.standardize(lnf())
    for (J, K) in [(-1, 1), (0, 0)]:  # the one check of the truncation orders
        with pytest.raises(cm.ModelError):
            cm.JKAdjustedTable(A, J, K)
    for (J, K) in [(0, 2), (1, 2), (2, 3), (3, 4)]:
        Aj = cm.JKAdjustedTable(A, J, K)
        for r in range(2, 7):
            d = cm.d_coeffs(r, 2, A, K)
            assert Aj.get(r, r - 1) == A.get(r, r - 1)
            assert Aj.get(r, r) == A.get(r, r) + d[1] * A.get(r, r - 1)
            assert Aj.get(r, r + 1) == (A.get(r, r + 1) + d[1] * A.get(r, r)
                                        + d[2] * A.get(r, r - 1))
        assert Aj.get(1, J + 1) == A.get(1, J + 1)


def test_jk_zeroing_and_J_independence():
    tables = [
        cm.standardize(lnf()),
        cm.standardize(cm.model_gamma()),
        cm.standardize(cm.model_studentized_mean(**cm.STANDARDIZED_EXPONENTIAL)),
        cm.standardize(cm.model_sample_variance(_sv_oracle.population_moments(
            [(-1, F(2, 5)), (0, F(2, 5)), (2, F(1, 5))], 10))),
    ]
    for A in tables:
        for J in range(0, 4):
            for K in range(1, 5):
                Aj = cm.JKAdjustedTable(A, J, K)
                for i in range(1, J + 1):
                    assert Aj.get(1, i) == 0, (A.label, J, K, i)
                for i in range(2, K + 1):
                    assert Aj.get(2, i) == 0, (A.label, J, K, i)
    A = tables[0]
    for K in (2, 3, 4):
        ref = cm.JKAdjustedTable(A, 0, K)
        for J in (1, 2, 3):
            other = cm.JKAdjustedTable(A, J, K)
            for r in range(2, 7):
                for i in range(r - 1, r + 4):
                    assert other.get(r, i) == ref.get(r, i)


def test_variance_row_convolution_equals_truncation_form():
    A = cm.standardize(lnf())
    for K in (2, 3, 4):
        Aj = cm.JKAdjustedTable(A, 0, K)
        for i in range(2, 8):
            ds = cm.d_coeffs(2, i - 1, A, K)
            generic = sum(ds[i - j] * A.get(2, j) for j in range(1, i + 1))
            assert generic == Aj.get(2, i), (K, i)


def test_matching_pipeline():
    t = lnf()
    neg = cm.standardize(t.negated())
    assert neg.get(3, 2) == -cm.standardize(t).get(3, 2) > 0
    Ajk = cm.JKAdjustedTable(neg, 1, 1)
    w = cm.JKAdjustedTable(cm.standardize(cm.model_gamma()), 1, 1)
    assert w.get(3, 2) == 2 and w.get(4, 3) == 6
    tau = cm.match_tau(Ajk, w)
    assert tau == (2 / neg.get(3, 2)) ** 2 == F(49, 9)
    D = cm.DiffTable(Ajk, w, tau)
    assert D.get(3, 2) == 0  # the skewness kill, exact
    for r in range(4, 8):
        want = neg.get(r, r - 1) - math.factorial(r - 1) * (neg.get(3, 2) / 2) ** (r - 2)
        assert D.get(r, r - 1) == want, r
    # spot: A43 = A43Y - 3 A32Y^2 / 2
    assert D.get(4, 3) == Ajk.get(4, 3) - 3 * neg.get(3, 2) ** 2 / 2


def test_match_tau_guards():
    t = cm.model_lnF(10, 10)  # symmetric: zero skew
    A = cm.standardize(t)
    w = cm.standardize(cm.model_gamma())
    with pytest.raises(cm.MatchingError):
        cm.match_tau(A, w)
    neg = cm.standardize(lnf())  # negative skew: opposite signs cannot match
    with pytest.raises(cm.MatchingError):
        cm.match_tau(neg, w)
    with pytest.raises(cm.MatchingError):
        cm.match_tau(w, neg)
    # a left-skewed estimate matches the negated gamma, at the same tau as
    # its own negation matches the gamma
    w_neg = cm.standardize(cm.model_gamma().negated())
    assert cm.match_tau(neg, w_neg) == cm.match_tau(cm.standardize(lnf().negated()), w)


def test_truncated_mean_var():
    t = lnf()
    n = F(2 * 24 * 60, 84)
    s1, s2 = cm.truncated_mean_var(t, 0, 1, n)
    assert s1 == 0 and s2 == 1 / n
    s1, s2 = cm.truncated_mean_var(t, 1, 1, n)
    assert s1 == t.get(1, 1) / n


def test_manifest():
    assert cm.manifest(1) == ((1, 1), (3, 2))
    assert cm.manifest(2) == ((2, 2), (4, 3))
    assert cm.manifest(3) == ((1, 2), (3, 3), (5, 4))
    assert cm.manifest(4) == ((2, 3), (4, 4), (6, 5))
    assert cm.manifest(5) == ((1, 3), (3, 4), (5, 5), (7, 6))
    assert cm.manifest(6) == ((2, 4), (4, 5), (6, 6), (8, 7))


def test_coverage_semantics():
    t = cm.model_studentized_mean(F(2), F(9), F(44))
    assert t.get(1, 0) == 0  # structurally-zero below-series entries
    assert t.get(3, 2) == -4
    with pytest.raises(cm.ModelOrderError):
        t.get(3, 3)
    g = cm.model_gamma()
    assert g.get(7, 6) == 720
    assert g.get(7, 9) == 0


def test_json_config_roundtrip():
    t = cm.model_studentized_mean(F(2), F(9), F(44))
    cfg = cm.table_to_config(t)
    t2 = cm.model_from_config(cfg)
    for key in [(1, 1), (2, 2), (3, 2), (4, 3), (1, 2)]:
        assert t2.get(*key) == t.get(*key)
    t3 = cm.model_from_config('{"model": "lnF", "n1": 24, "n2": 60}')
    assert t3.get(1, 1) == F(-3, 7)
    with pytest.raises(cm.ModelError):
        cm.model_from_config({"model": "nope"})


def test_integer_model_fields():
    # ints, integral numbers and integer strings are read as integers
    want = cm.model_lnF(24, 60).entries
    for n1 in (24, "24", 24.0, F(24)):
        assert cm.model_from_config({"model": "lnF", "n1": n1, "n2": 60}).entries == want
    custom = cm.model_from_config({"model": "custom", "a21": 1,
                                   "table": [["3", 2.0, -2]]})
    assert custom.get(3, 2) == -2
    # bools and fractional values are refused, never truncated
    for n1 in (24.9, True, "24.9", F(49, 2), float("inf"), float("nan")):
        with pytest.raises(cm.ModelError):
            cm.model_from_config({"model": "lnF", "n1": n1, "n2": 60})
    for row in ([3.7, 2.2, 1], [3, 2.2, 1], [True, 0, 1], [3, "2.5", 1]):
        with pytest.raises(cm.ModelError):
            cm.model_from_config({"model": "custom", "a21": 1, "table": [row]})


SV_MU = {"2": 1, "3": 2, "4": 9, "5": 44, "6": 265, "7": 1854, "8": 14833,
         "10": 1334961}

# inputs that were once accepted silently: a row never read, a value that
# overwrote another, a bool read as 1, a field the model drops
MALFORMED_MODELS = [
    {"model": "custom", "a21": 1, "table": [[0, 2, 9]]},
    {"model": "custom", "a21": 1, "table": [[3, -1, 7]]},
    {"model": "custom", "a21": 1, "table": [[3, 2, 1], [3, 2, 5]]},
    {"model": "sample_variance", "mu": {**SV_MU, "02": 2}},
    {"model": "custom", "theta": 1, "a21": 1, "table": [[1, 0, 2]]},
    {"model": "custom", "a21": 1, "table": [[2, 1, 3]]},
    {"model": "custom", "a21": True, "table": [[3, 2, 1]]},
    {"model": "studentized_mean", "nu3": True},
    {"model": "lnF", "n1": 24, "n2": 60, "nu3": 5},
    {"model": "gamma", "extra": 5},
    {"model": "studentized_mean", "nu3": 2, "nu5": 44},
]


@pytest.mark.parametrize("cfg", MALFORMED_MODELS)
def test_malformed_model_input(cfg):
    with pytest.raises(cm.ModelError):
        cm.model_from_config(cfg)


def test_rows_that_agree_with_theta_and_a21():
    # table_to_config writes theta and a21 as rows too
    t = cm.model_from_config({"model": "custom", "theta": "1/2", "a21": 2,
                              "table": [[1, 0, "1/2"], [2, 1, 2], [3, 2, 1]]})
    assert (t.theta, t.a21, t.get(3, 2)) == (F(1, 2), 2, 1)
    sv = cm.model_from_config({"model": "sample_variance", "mu": SV_MU})
    assert cm.model_from_config(cm.table_to_config(sv)).entries == sv.entries


def test_d_coeffs_trivial_truncation():
    A = cm.standardize(lnf())
    d = cm.d_coeffs(3, 3, A, 1)  # K = 1 leaves no variance tail at all
    assert d == [1, 0, 0, 0]


def test_match_tau_identity():
    w = cm.standardize(cm.model_gamma())
    assert cm.match_tau(w, w) == 1


def test_matched_diff_exact_for_rationals_and_floats():
    # for rational tables the generic formula and the by-construction zero
    # agree; for float tables only the construction guarantees the kill
    t = lnf()
    neg = cm.standardize(t.negated())
    Ajk = cm.JKAdjustedTable(neg, 1, 1)
    w = cm.JKAdjustedTable(cm.standardize(cm.model_gamma()), 1, 1)
    tau = cm.match_tau(Ajk, w)
    generic = cm.DiffTable(Ajk, w, tau)
    matched = cm.DiffTable(Ajk, w, tau, matched_skew=True)
    assert generic.get(3, 2) == matched.get(3, 2) == 0
    for (r, i) in [(4, 3), (5, 4), (3, 3), (2, 3)]:
        assert generic.get(r, i) == matched.get(r, i)
    # a float model where the recomputation route would carry rounding
    fl = cm.CumulantTable(0.0, 1.0, {(1, 1): 0.3, (3, 2): 0.7230000000000001,
                                     (2, 2): 1.1}, "all", label="float-model")
    A = cm.JKAdjustedTable(cm.standardize(fl), 1, 1)
    wjk = cm.JKAdjustedTable(cm.standardize(cm.model_gamma()), 1, 1)
    tau2 = cm.match_tau(A, wjk)
    D = cm.DiffTable(A, wjk, tau2, matched_skew=True)
    assert D.get(3, 2) == 0
