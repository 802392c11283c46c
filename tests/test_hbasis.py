"""The symbolic derivative-ratio algebra: differential rule, inversion
ladders, conversions, and their reference tables."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, strategies as st

from cfx import basedist, bell, engine, hbasis
from cfx.hpoly import LPoly, Poly

from _engine_routes import (a_from_H, b_from_a, b_poly, exponential_bell,
                            hermite_derivative, hermite_x_poly, subs)

H = hbasis.H
a = hbasis.a_sym


def test_h_symbols():
    assert H(0) == Poly.const(1)
    assert H(3) == Poly.atom(3)
    with pytest.raises(ValueError):
        H(-1)


def test_diff_rule():
    assert hbasis.hp_diff(H(2)) == H(1) * H(2) - H(3)
    assert not hbasis.hp_diff(Poly.const(1))
    # product rule on H1^2
    assert hbasis.hp_diff(H(1) ** 2) == 2 * H(1) ** 3 - 2 * H(1) * H(2)


def test_diff_matches_finite_difference():
    # numeric check of D H1^2 for both base laws
    p = H(1) ** 2
    dp = hbasis.hp_diff(p)
    step = 1e-5
    for base, xs in ((basedist.normal(), [0.3, 1.2]),
                     (basedist.gamma(3.0), [0.8, 2.5])):
        for x in xs:
            def val(z, poly=p):
                return hbasis.hp_eval(poly, bell.Seq(base.h_seq(z, 4)))
            num = (val(x + step) - val(x - step)) / (2 * step)
            sym = hbasis.hp_eval(dp, bell.Seq(base.h_seq(x, 4)))
            assert abs(num - sym) <= 1e-6 * max(1.0, abs(sym))


def test_c_functions():
    assert hbasis.c_function(1) == Poly.const(1)
    assert hbasis.c_function(2) == H(1)
    assert hbasis.c_function(3) == 3 * H(1) ** 2 - H(2)
    assert hbasis.c_function(4) == 15 * H(1) ** 3 - 10 * H(1) * H(2) + H(3)
    assert hbasis.c_function(5) == (105 * H(1) ** 4 - 105 * H(1) ** 2 * H(2)
                                    + 15 * H(1) * H(3) + 10 * H(2) ** 2 - H(4))
    assert hbasis.c_function(6) == (945 * H(1) ** 5 - 1260 * H(1) ** 3 * H(2)
                                    + 210 * H(1) ** 2 * H(3) + 280 * H(1) * H(2) ** 2
                                    - 35 * H(2) * H(3) - 21 * H(1) * H(4) + H(5))


def test_c_function_coefficient_laws():
    # leading H1^r coefficient is the (2r)-th normal moment (2r-1)!!,
    # and the H1^{r-2} H2 coefficient is -(r-1)/3 times it
    def ddf(r):
        out = 1
        for k in range(1, 2 * r, 2):
            out *= k
        return out
    for r in range(1, 6):
        c = hbasis.c_function(r + 1)
        assert c.coefficient((1,) * r) == ddf(r)
        if r >= 2:
            assert c.coefficient((1,) * (r - 2) + (2,)) == -F((r - 1) * ddf(r), 3)


def apply_Dk(k, p):
    """The inversion operators: D_1 = identity, D_k = J_1 ... J_{k-1} with
    J_{k-1} acting first (innermost) and J_1 last."""
    if k < 1:
        raise ValueError("D index must be >= 1")
    for m in range(k - 1, 0, -1):
        p = hbasis.apply_J(m, p)
    return p


def test_inversion_operators():
    p = H(1) * H(2)
    assert apply_Dk(1, p) == p
    assert apply_Dk(2, Poly.const(1)) == H(1)
    assert apply_Dk(2, H(1)) == H(2)
    # D3 1 = J1 J2 1 = J1(2 H1) = 2H1^2 - 2(H1^2 - H2) = 2 H2
    assert apply_Dk(3, Poly.const(1)) == 2 * H(2)


def test_nested_g_matches_literal_ladder():
    # engine.fg_formal nests the J passes; the paper's form applies each D_k
    # to its own Bell term, over a sequence of h built afresh here
    for r in range(1, 8):
        hs = bell.Seq([engine.h_formal(j) for j in range(1, r + 1)])
        want = LPoly.zero()
        for k in range(1, r + 1):
            b = bell.partial_ordinary_bell(r, k, hs).exact_div(factorial(k))
            want = want + b.map_values(lambda p, k=k: apply_Dk(k, p)) * (-1) ** (k - 1)
        assert engine.fg_formal("g", r) == want, r


def test_hermite_derivative_vs_iterated_diff():
    for r in range(0, 9):
        p = H(r)
        for k in range(0, 5):
            assert hermite_derivative(r, k) == p, (r, k)
            p = hbasis.hp_diff(p)


def test_b_polys():
    assert b_poly(0) == Poly.const(1)
    assert b_poly(1) == H(1)
    assert b_poly(2) == 2 * H(1) ** 2 - H(2)
    assert b_poly(3) == 6 * H(1) ** 3 - 6 * H(1) * H(2) + H(3)
    assert b_poly(4) == (24 * H(1) ** 4 - 36 * H(1) ** 2 * H(2)
                         + 8 * H(1) * H(3) + 6 * H(2) ** 2 - H(4))
    assert b_poly(5) == (120 * H(1) ** 5 - 240 * H(1) ** 3 * H(2)
                         + 60 * H(1) ** 2 * H(3) + 90 * H(1) * H(2) ** 2
                         - 10 * H(1) * H(4) - 20 * H(2) * H(3) + H(5))


def test_H_from_a_reference_rows():
    assert hbasis.H_from_a(1) == a(1)
    assert hbasis.H_from_a(2) == a(1) ** 2 - a(2)
    assert hbasis.H_from_a(3) == a(1) ** 3 - 3 * a(1) * a(2) + a(3)
    assert hbasis.H_from_a(4) == (a(1) ** 4 - 6 * a(1) ** 2 * a(2) + 3 * a(2) ** 2
                                  + 4 * a(1) * a(3) - a(4))
    assert hbasis.H_from_a(5) == (a(1) ** 5 - 10 * a(1) ** 3 * a(2)
                                  + 15 * a(1) * a(2) ** 2 + 10 * a(1) ** 2 * a(3)
                                  - 10 * a(2) * a(3) - 5 * a(1) * a(4) + a(5))
    # the order-6 row from the defining formula (the printed table of this
    # row circulates with duplicated trailing terms; the formula is normative)
    assert hbasis.H_from_a(6) == (
        a(1) ** 6 - 15 * a(1) ** 4 * a(2) + 45 * a(1) ** 2 * a(2) ** 2
        - 15 * a(2) ** 3 + 20 * a(1) ** 3 * a(3) - 60 * a(1) * a(2) * a(3)
        + 10 * a(3) ** 2 - 15 * a(1) ** 2 * a(4) + 15 * a(2) * a(4)
        + 6 * a(1) * a(5) - a(6))


def test_H_from_a_matches_complete_bell():
    # the recurrence behind H_from_a against the defining (-1)^r B_r(-a),
    # with B_r = sum_j B_{rj} summed from the exponential Bell rows
    for r in range(1, 13):
        neg_a = bell.Seq([-a(j) for j in range(1, r + 1)])
        complete = sum((exponential_bell(r, j, neg_a) for j in range(1, r + 1)),
                       Poly())
        assert hbasis.H_from_a(r) == complete * (-1) ** r, r
    # rows past bell's order guard exist too: an order-9 a-basis table
    # needs H_26
    top = hbasis.H_from_a(26)
    assert all(type(c) is int for c in top.terms.values())
    assert top.coefficient((1,) * 26) == 1 and top.coefficient((26,)) == -1


def test_a_from_H_reference_rows():
    assert a_from_H(1) == H(1)
    assert a_from_H(2) == H(1) ** 2 - H(2)
    assert a_from_H(3) == 2 * H(1) ** 3 - 3 * H(1) * H(2) + H(3)
    assert a_from_H(4) == (6 * H(1) ** 4 - 12 * H(1) ** 2 * H(2)
                           + 4 * H(1) * H(3) + 3 * H(2) ** 2 - H(4))
    assert a_from_H(5) == (24 * H(1) ** 5 - 60 * H(1) ** 3 * H(2)
                           + 20 * H(1) ** 2 * H(3) + 30 * H(1) * H(2) ** 2
                           - 5 * H(1) * H(4) - 10 * H(2) * H(3) + H(5))
    assert a_from_H(6) == (
        120 * H(1) ** 6 - 360 * H(1) ** 4 * H(2) + 120 * H(1) ** 3 * H(3)
        - 30 * H(1) ** 2 * H(4) + 6 * H(1) * H(5) - H(6)
        + 270 * H(1) ** 2 * H(2) ** 2 - 120 * H(1) * H(2) * H(3)
        - 30 * H(2) ** 3 + 15 * H(2) * H(4) + 10 * H(3) ** 2)


def test_a6_bell_row_decomposition():
    hseq = bell.Seq([H(j) for j in range(1, 7)])
    assert exponential_bell(6, 2, hseq) == (6 * H(1) * H(5) + 15 * H(2) * H(4)
                                            + 10 * H(3) ** 2)
    combo = sum((((-1) ** (6 - j)) * factorial(j - 1) * exponential_bell(6, j, hseq)
                 for j in range(1, 7)), Poly())
    assert combo == a_from_H(6)


def test_conversions_match_bell_sums():
    # a_r = D^{r-1} H_1 against sum_j (-1)^{r-j} (j-1)! B_{rj}(H), and the
    # recurrence behind b_from_a against sum_j B_{rj}(a)
    for r in range(1, 11):
        hseq = bell.Seq([H(j) for j in range(1, r + 1)])
        aseq = bell.Seq([a(j) for j in range(1, r + 1)])
        a_r = sum((((-1) ** (r - j)) * factorial(j - 1) * exponential_bell(r, j, hseq)
                   for j in range(1, r + 1)), Poly())
        b_r = sum((exponential_bell(r, j, aseq) for j in range(1, r + 1)), Poly())
        assert a_from_H(r) == a_r, r
        assert b_from_a(r) == b_r, r


def test_b_from_a_reference_rows():
    assert b_from_a(0) == Poly.const(1)
    assert b_from_a(2) == a(2) + a(1) ** 2
    assert b_from_a(3) == a(3) + 3 * a(1) * a(2) + a(1) ** 3
    assert b_from_a(4) == (a(4) + 4 * a(1) * a(3) + 3 * a(2) ** 2
                           + 6 * a(1) ** 2 * a(2) + a(1) ** 4)
    assert b_from_a(6) == (
        a(6) + 6 * a(1) * a(5) + 15 * a(2) * a(4) + 10 * a(3) ** 2
        + 15 * a(1) ** 2 * a(4) + 60 * a(1) * a(2) * a(3) + 15 * a(2) ** 3
        + 20 * a(1) ** 3 * a(3) + 45 * a(1) ** 2 * a(2) ** 2
        + 15 * a(1) ** 4 * a(2) + a(1) ** 6)


def test_round_trip_a_H():
    for r in range(1, 9):
        h_in_a = hbasis.H_from_a(r)
        back = h_in_a.eval({i: a_from_H(i) for i in range(1, r + 1)})
        assert back == H(r), r


def test_c_functions_in_a_basis():
    assert hbasis.to_a_basis(hbasis.c_function(2)) == a(1)
    assert hbasis.to_a_basis(hbasis.c_function(3)) == 2 * a(1) ** 2 + a(2)
    assert hbasis.to_a_basis(hbasis.c_function(4)) == (6 * a(1) ** 3
                                                       + 7 * a(1) * a(2) + a(3))
    assert hbasis.to_a_basis(hbasis.c_function(5)) == (
        24 * a(1) ** 4 + 46 * a(1) ** 2 * a(2) + 11 * a(1) * a(3)
        + 7 * a(2) ** 2 + a(4))
    # order 6, coefficients pinned by the exact conversion (the printed row
    # circulates with 324 and 147 in place of 326 and 101)
    assert hbasis.to_a_basis(hbasis.c_function(6)) == (
        120 * a(1) ** 5 + 326 * a(1) ** 3 * a(2) + 101 * a(1) ** 2 * a(3)
        + 127 * a(1) * a(2) ** 2 + 16 * a(1) * a(4) + 25 * a(2) * a(3) + a(5))


def test_eval_interfaces():
    p = H(2)
    assert hbasis.hp_eval(p, bell.Seq([2.0, 3.0])) == 3.0
    with pytest.raises(bell.SeqLengthError):
        hbasis.hp_eval(H(7) - 2 * H(3) * H(4), bell.Seq([1.0, 2.0]))
    assert hbasis.hp_eval(Poly.const(1), bell.Seq([])) == 1


def test_normal_specialization():
    x = Poly.atom(1)
    assert hermite_x_poly(2) == x ** 2 - 1
    assert hermite_x_poly(3) == x ** 3 - 3 * x
    assert hbasis.normal_specialize(H(3) - H(1) * H(2)) == -2 * x


def test_normal_specialize_matches_hermite_recurrence():
    # He_k from the normal base's h_seq at a symbolic x, against He_k by its
    # own recurrence substituted by expanded powers, for k <= 24: single
    # symbols, products with repeated indices, and constants
    x = Poly.atom(1)
    he = {k: hermite_x_poly(k) for k in range(1, 25)}
    polys = [H(k) for k in range(1, 25)]
    polys += [H(j) * H(k) for j in range(1, 25) for k in range(j, 25, 5)]
    polys += [H(3) * H(4) ** 2 - 2 * H(1) ** 3 * H(24) + 5, H(12) ** 2 * H(11),
              Poly.const(7), Poly()]
    for p in polys:
        got = hbasis.normal_specialize(p)
        assert isinstance(got, Poly)
        assert got == subs(p, he), p
    assert hbasis.normal_specialize(H(1) ** 2 - H(2)) == Poly.const(1)
    assert hbasis.normal_specialize(H(24)).max_index() == 1
    assert hbasis.normal_specialize(H(2) * H(1)) == x ** 3 - x


def test_to_a_basis_matches_substitution():
    # H_r -> its a-expansion for r <= 12, against substitution by expanded
    # powers: single symbols, products with repeated indices, constants
    ha = {r: hbasis.H_from_a(r) for r in range(1, 13)}
    polys = [H(r) for r in range(1, 13)]
    polys += [H(2) ** 3 * H(5) - 4 * H(1) * H(1) * H(6) + 3, H(6) ** 2,
              H(1) * H(12), Poly.const(F(2, 3)), Poly()]
    polys += [hbasis.c_function(k) for k in range(1, 8)]
    for p in polys:
        got = hbasis.to_a_basis(p)
        assert isinstance(got, Poly)
        assert got == subs(p, ha), p


def test_generating_function_of_H():
    # sum_{r<=8} H_r(x) t^r / r! approximates p(x - t)/p(x) with O(t^9) tail
    # (floored at float noise for the tiny step)
    for base, x in ((basedist.normal(), 0.6), (basedist.gamma(4.0), 1.1)):
        hv = base.h_seq(x, 9)
        for t in (0.1, 0.01):
            s = 1.0 + sum(hv[r - 1] * t ** r / factorial(r) for r in range(1, 9))
            target = base.pdf(x - t) / base.pdf(x)
            assert abs(s - target) <= max(50 * t ** 9, 5e-15), (base.kind, t)


def test_second_derivative_of_H1_is_a3():
    # D^2 H_1 coincides with the third log-density derivative
    assert hermite_derivative(1, 2) == a_from_H(3)
    assert hermite_derivative(2, 1) == H(1) * H(2) - H(3)


def test_hp_eval_at_origin():
    p = H(7) - 2 * H(3) * H(4) + H(1) * H(3) ** 2
    hv = bell.Seq(basedist.normal().h_seq(0.0, 7))
    # He_odd(0) = 0, He_4(0) = 3
    assert hbasis.hp_eval(p, hv) == 0.0
    q = H(4) + H(2) * H(2)
    assert hbasis.hp_eval(q, hv) == 3.0 + 1.0


# -- the one-pass operators against the product rule written out --------------

def ref_diff(p):
    """D applied one factor at a time with plain Poly arithmetic."""
    out = Poly()
    for mono, c in p.terms.items():
        for pos, r in enumerate(mono):
            rest = Poly({mono[:pos] + mono[pos + 1:]: c})
            out = out + rest * (H(1) * H(r) - H(r + 1))
    return out


def h_polys():
    coeff = st.fractions(min_value=-7, max_value=7, max_denominator=12)
    mono = st.lists(st.integers(min_value=1, max_value=6), max_size=4)
    return st.lists(st.tuples(mono, coeff), max_size=6).map(
        lambda ts: sum((Poly({tuple(sorted(m)): c}) for m, c in ts), Poly()))


@given(h_polys(), st.integers(min_value=0, max_value=9))
def test_diff_and_J_match_reference(p, m):
    assert hbasis.hp_diff(p) == ref_diff(p)
    assert hbasis.apply_J(m, p) == H(1) * p * m - ref_diff(p)
    # the (m H_1 + D) step of the b- and c-ladders
    assert hbasis._h1_plus_d(p, m, 1) == H(1) * p * m + ref_diff(p)


@given(h_polys(), h_polys())
def test_diff_product_rule(p, q):
    d = hbasis.hp_diff
    assert d(p * q) == p * d(q) + q * d(p)


def test_ladders_match_reference():
    c, b = Poly.const(1), Poly.const(1)
    for k in range(1, 10):
        assert hbasis.c_function(k) == c, k
        assert b_poly(k - 1) == b, k - 1
        c = H(1) * c * k + ref_diff(c)
        b = H(1) * b + ref_diff(b)
