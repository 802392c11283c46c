"""Bell polynomial recurrences: boundary rows, identities, generating
function, and the transformation laws."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from cfx import bell
from cfx.bell import Seq, SeqLengthError
from cfx.hpoly import Poly

from _engine_routes import exponential_bell, partitions_of


def ys(n=8):
    return Seq([F(i * i - 3, i + 1) for i in range(1, n + 1)])


def test_boundary_rows():
    y = ys()
    assert bell.partial_ordinary_bell(0, 0, y) == 1
    assert bell.partial_ordinary_bell(3, 0, y) == 0
    assert bell.partial_ordinary_bell(3, 5, y) == 0
    assert bell.partial_ordinary_bell(5, 1, y) == y[5]
    assert bell.partial_ordinary_bell(4, 4, y) == y[1] ** 4
    # one step off the diagonal: r y1^{r-1} y2
    for r in range(1, 6):
        assert bell.partial_ordinary_bell(r + 1, r, y) == r * y[1] ** (r - 1) * y[2]
    # two steps: r y1^{r-1} y3 + C(r,2) y1^{r-2} y2^2
    from math import comb
    for r in range(2, 6):
        want = r * y[1] ** (r - 1) * y[3] + comb(r, 2) * y[1] ** (r - 2) * y[2] ** 2
        assert bell.partial_ordinary_bell(r + 2, r, y) == want


def test_length_guard():
    y = Seq([F(1), F(2)])
    with pytest.raises(SeqLengthError):
        bell.partial_ordinary_bell(5, 1, y)
    with pytest.raises(SeqLengthError):
        y[0]
    with pytest.raises(SeqLengthError):
        y[3]


def test_extend_keeps_cached_rows_valid():
    # B^_{rj} reads only y_1..y_{r-j+1}, so rows cached before the sequence
    # grew stay right, and the rows read afterwards see the new values
    full = ys(8)
    y = Seq([full[k] for k in range(1, 4)])
    early = {(r, j): bell.partial_ordinary_bell(r, j, y)
             for r in range(1, 4) for j in range(1, r + 1)}
    y.extend(full[k] for k in range(4, 9))
    assert len(y) == 8
    fresh = ys(8)
    for r in range(1, 9):
        for j in range(1, r + 1):
            assert bell.partial_ordinary_bell(r, j, y) \
                == bell.partial_ordinary_bell(r, j, fresh), (r, j)
    for (r, j), val in early.items():
        assert val == bell.partial_ordinary_bell(r, j, fresh), (r, j)


rational = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@settings(max_examples=25, deadline=None)
@given(st.lists(rational, min_size=10, max_size=10))
def test_convolution_identity(vals):
    # B^_{r,j+k} = sum_{a+b=r} B^_{aj} B^_{bk}
    y = Seq(vals)
    for r in range(0, 11):
        for j in range(0, r + 1):
            for k in range(0, r - j + 1):
                lhs = bell.partial_ordinary_bell(r, j + k, y)
                rhs = sum(bell.partial_ordinary_bell(a, j, y)
                          * bell.partial_ordinary_bell(r - a, k, y)
                          for a in range(0, r + 1))
                assert lhs == rhs, (r, j, k)


@settings(max_examples=25, deadline=None)
@given(st.lists(rational, min_size=10, max_size=10))
def test_sign_law(vals):
    y = Seq(vals)
    neg = Seq([-v for v in vals])
    for r in range(0, 11):
        for j in range(0, r + 1):
            assert (bell.partial_ordinary_bell(r, j, neg)
                    == (-1) ** j * bell.partial_ordinary_bell(r, j, y))


@settings(max_examples=25, deadline=None)
@given(st.lists(rational, min_size=10, max_size=10),
       st.fractions(min_value=1, max_value=3, max_denominator=3),
       st.fractions(min_value=1, max_value=3, max_denominator=3))
def test_scaling_law(vals, a, b):
    y = Seq(vals)
    scaled = Seq([a * b ** r * v for r, v in enumerate(vals, start=1)])
    for r in range(0, 11):
        for j in range(0, r + 1):
            assert (bell.partial_ordinary_bell(r, j, scaled)
                    == a ** j * b ** r * bell.partial_ordinary_bell(r, j, y))


def test_generating_function():
    # truncated power of S(t) matches the coefficient table at t = 1/7
    y = ys(9)
    t = F(1, 7)
    for j in range(0, 5):
        for rmax in range(j, 9):
            direct = sum(bell.partial_ordinary_bell(r, j, y) * t ** r
                         for r in range(j, rmax + 1))
            s = sum(y[r] * t ** r for r in range(1, rmax + 1))
            # the truncated S(t)^j agrees with the bell sum through t^rmax
            full = s ** j
            # compare the series prefix exactly: subtract tail terms
            # (work with the exact polynomial in t instead)
            poly_terms = {}
            for r in range(1, rmax + 1):
                poly_terms[r] = y[r]
            # polynomial multiplication keeping exact degrees
            acc = {0: F(1)}
            for _ in range(j):
                nxt = {}
                for d1, c1 in acc.items():
                    for d2, c2 in poly_terms.items():
                        nxt[d1 + d2] = nxt.get(d1 + d2, F(0)) + c1 * c2
                acc = nxt
            prefix = sum(c * t ** d for d, c in acc.items() if d <= rmax)
            assert prefix == direct, (j, rmax)


def test_partition_normalized_values():
    # b_{rj} = B^_{rj}/j!
    y = ys()
    assert bell.partial_ordinary_bell(2, 2, y) / 2 == y[1] ** 2 / 2
    assert bell.partial_ordinary_bell(3, 2, y) / 2 == y[1] * y[2]
    assert bell.partial_ordinary_bell(4, 2, y) / 2 == y[2] ** 2 / 2 + y[1] * y[3]


def test_partition_enumeration_oracle():
    # b_{rj} = B^_{rj}/j! must equal the bracket sum over partitions of r
    # into j parts
    from math import factorial
    y = ys(9)
    for r in range(1, 9):
        for j in range(1, r + 1):
            total = F(0)
            for pi in partitions_of(r):
                if pi.num_parts != j:
                    continue
                prod = F(1)
                for part, mult in pi.items():
                    prod *= y[part] ** mult / factorial(mult)
                total += prod
            assert bell.partial_ordinary_bell(r, j, y) / factorial(j) == total, (r, j)


def test_exponential_bell_rescaling():
    x = Seq([Poly.atom(i) for i in range(1, 8)])
    assert exponential_bell(1, 1, x) == Poly.atom(1)
    assert exponential_bell(6, 6, x) == Poly.atom(1) ** 6
    b63 = exponential_bell(6, 3, x)
    H = Poly.atom
    assert b63 == 15 * H(1) ** 2 * H(4) + 60 * H(1) * H(2) * H(3) + 15 * H(2) ** 3


def test_complete_bell():
    # the row sums B_r = sum_j B_{rj} of the exponential rows
    a = Seq([Poly.atom(i) for i in range(1, 6)])
    H = Poly.atom

    def complete(r):
        return sum((exponential_bell(r, j, a) for j in range(0, r + 1)), Poly())

    assert complete(0) == 1
    assert complete(3) == H(3) + 3 * H(1) * H(2) + H(1) ** 3
    assert complete(4) == (H(4) + 4 * H(1) * H(3) + 3 * H(2) ** 2
                           + 6 * H(1) ** 2 * H(2) + H(1) ** 4)
