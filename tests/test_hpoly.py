"""Ring behavior of the sparse symbolic polynomials."""

from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from cfx.hpoly import LPoly, Poly
from cfx.partitions import Partition

H1, H2, H3 = Poly.atom(1), Poly.atom(2), Poly.atom(3)


def small_polys():
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    mono = st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=3)
    term = st.tuples(mono, coeff)
    return st.lists(term, max_size=4).map(
        lambda ts: sum((Poly({tuple(sorted(m)): c}) for m, c in ts), Poly()))


@given(small_polys(), small_polys(), small_polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p + Poly() == p
    assert p * Poly.const(1) == p
    assert p - p == Poly()


def test_zero_pruning():
    p = H1 - H1
    assert not p and not p.terms
    assert not (0 * H2)


def test_pow():
    assert H1 ** 0 == Poly.const(1)
    assert H1 ** 3 == H1 * H1 * H1
    assert (H1 + H2) ** 2 == H1 * H1 + 2 * H1 * H2 + H2 * H2


def test_eval_and_missing_index():
    p = H1 * H3 + Poly.const(F(1, 2))
    assert p.eval({1: 2.0, 3: 5.0}) == 10.5
    with pytest.raises(KeyError):
        p.eval({1: 2.0})


def test_subs():
    # substitution is eval with Poly values; a constant comes back bare
    p = H2 - H1 * H1
    q = p.eval({1: H1, 2: H1 * H1})
    assert not q


def test_text_rendering():
    p = Poly.atom(7) - 2 * H3 * Poly.atom(4) + H1 * H3 * H3
    assert p.text() == "H7 - 2*H3*H4 + H1*H3^2"


def test_sorted_terms_stable():
    p = Poly.atom(9) + Poly.atom(3) * Poly.atom(6) + Poly.atom(4) * Poly.atom(5)
    monos = [m for m, _ in p.sorted_terms()]
    assert monos == [(9,), (3, 6), (4, 5)]


def test_mixed_float_coeffs():
    p = 0.5 * H1 + H2
    assert p.eval({1: 2.0, 2: 1.0}) == 2.0


def test_mixed_families_and_numbers():
    # a Poly is a scalar to an LPoly, from either side
    lp = LPoly.monomial(Partition.of(1, 1), H1)
    assert H2 * lp == lp * H2 == LPoly.monomial(Partition.of(1, 1), H1 * H2)
    assert lp + H3 == H3 + lp == lp + LPoly.const(H3)
    assert lp - lp == 0 and not LPoly.one() * 0
    # Poly stays hashable and equal to a matching number
    assert Poly.const(3) == 3 and Poly.const(F(1, 2)) == F(1, 2) and Poly() == 0
    assert {H1 * H2: "x"}[Poly.atom(2) * H1] == "x"
