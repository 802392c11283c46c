"""Partitions, weights, brackets and truncated bracket series."""

from fractions import Fraction as F

import pytest

from cfx.partitions import Partition, bracket_series_coeff, hset, s_weight

from _engine_routes import parse_partition, partitions_of


class TruncationError(ValueError):
    """A series coefficient beyond the stored truncation was requested."""


class LSeries:
    """A fake coefficient series for the ``coeff(k, j)`` protocol: per index
    r, the stored rows [c_{r,0}, c_{r,1}, ...] of a power series in 1/n,
    all truncated at ``order`` (the highest power of 1/n, inclusive)."""

    def __init__(self, rows, order):
        self.rows = rows
        self.order = order

    def coeff(self, r, j):
        if j > self.order:
            raise TruncationError(f"coefficient n^-{j} beyond truncation {self.order}")
        return self.rows[r][j]


def test_s_weight():
    assert s_weight(1) == 1
    assert s_weight(2) == 2
    assert s_weight(3) == 1
    assert s_weight(5) == 3
    with pytest.raises(ValueError):
        s_weight(0)


def test_partition_basics():
    pi = parse_partition("1^2 3^2")
    assert pi.size == 8
    assert pi.weight == 4
    assert pi.norm == 4
    assert pi.parts() == (1, 1, 3, 3)
    assert pi.text() == "1^2 3^2"
    assert parse_partition(pi.text()) == pi
    assert Partition.of(3, 1, 3, 1) == pi
    assert pi.times(Partition.of(2)) == (Partition.of(1, 1, 2, 3, 3), 1)


def test_hset_examples():
    assert {p.text() for p in hset(1, 3)} == {"3"}
    assert {p.text() for p in hset(2, 4)} == {"4", "1 3"}
    assert hset(2, 3) == ()
    assert hset(3, 11) == ()  # k > 3r
    assert {p.text() for p in hset(2, 6)} == {"3^2"}


def test_hset_disjoint_cover():
    # the weight classes partition the full set of partitions of k
    for k in range(1, 13):
        all_parts = set(partitions_of(k))
        classes = []
        for r in range(1, k + 1):
            classes.append(set(hset(r, k)))
        union = set()
        for cls in classes:
            assert not (union & cls)
            union |= cls
        assert union == all_parts, k


def test_hset_parity_bounds():
    for r in range(1, 7):
        for k in range(0, 3 * r + 3):
            got = hset(r, k)
            if k < r or k > 3 * r or (k - r) % 2:
                assert got == ()
            else:
                assert all(p.size == k and p.weight == r for p in got)


def test_bracket_factor():
    # [1^2 3][1 3^2] = C(3,1) C(3,1) [1^3 3^3]
    a, b = parse_partition("1^2 3"), parse_partition("1 3^2")
    product, factor = a.times(b)
    assert product == parse_partition("1^3 3^3")
    assert b.times(a) == (product, 9) and factor == 9
    assert product.norm == factor * a.norm * b.norm
    assert a.times(Partition.of(2, 4)) == (parse_partition("1^2 2 3 4"), 1)


def series(rows, order):
    return LSeries(rows, order)


def test_bracket_series_single_part():
    # [r]_i is just the i-th series coefficient of L_r
    L = series({4: [F(1, 2), F(3), F(7)]}, 2)
    for i, want in enumerate([F(1, 2), F(3), F(7)]):
        assert bracket_series_coeff(Partition.of(4), L, i) == want


def test_bracket_series_products():
    # [1^2 4]_1 = A11 A12 [4]_0 + (A11^2/2) [4]_1
    a11, a12, c40, c41 = F(2), F(5), F(3), F(11)
    L = series({1: [a11, a12], 4: [c40, c41]}, 1)
    got = bracket_series_coeff(parse_partition("1^2 4"), L, 1)
    assert got == a11 * a12 * c40 + a11 ** 2 / 2 * c41
    # [3^2]_0 = c30^2/2
    L2 = series({3: [F(4), F(9)]}, 1)
    assert bracket_series_coeff(Partition.of(3, 3), L2, 0) == F(8)
    assert bracket_series_coeff(Partition.of(3, 3), L2, 1) == F(4) * F(9)


def test_bracket_series_zero_order_matches_plain_bracket():
    rows = {k: [F(k * k - 2, 3), F(1)] for k in range(1, 7)}
    L = series(rows, 1)
    lead = {k: rows[k][0] for k in rows}
    # [pi] = prod_k L_k^{i_k} / i_k! at the leading coefficients
    assert bracket_series_coeff(Partition.of(1, 1, 2), L, 0) == \
        lead[1] ** 2 / 2 * lead[2]
    assert bracket_series_coeff(Partition.of(3, 4), L, 0) == lead[3] * lead[4]
    assert bracket_series_coeff(Partition.of(2, 2, 2), L, 0) == lead[2] ** 3 / 6


def test_truncation_guard():
    L = series({1: [F(1), F(2)]}, 1)
    with pytest.raises(TruncationError):
        bracket_series_coeff(Partition.of(1), L, 2)
