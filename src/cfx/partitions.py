"""Integer partitions in exponent form, weighted partition sets, brackets.

A partition pi = 1^{i_1} 2^{i_2} ... k^{i_k} carries two integers: its size
(sum of parts) and its weight under the order function S (s_weight below).
The weight is what assigns a partition to an expansion order; the size is the
index of the base-polynomial it multiplies.

The bracket [pi] of a partition against a coefficient sequence L is the
normalized product prod_k L_k^{i_k} / i_k!.  Every L_k is a power series in
1/n, and ``bracket_series_coeff`` extracts a single series coefficient of
[pi].  It reads the series through one protocol, ``coeff(k, j)`` for the
n^-j coefficient of L_k, which ``cumulants.ATable`` (a model's standardized
coefficients) answers.
Brackets multiply with integer factors, [pi][rho] = c [pi + rho] with
``(pi + rho, c) = pi.times(rho)``, which is why the symbolic tables written
against them have integer coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial



def s_weight(r):
    """Order weight of a part: r for r <= 2, r - 2 for r >= 3."""
    if r < 1:
        raise ValueError(f"part {r} < 1")
    return r if r <= 2 else r - 2


class Partition:
    """Immutable integer partition in exponent form."""

    __slots__ = ("_items",)

    def __init__(self, exponents):
        if isinstance(exponents, dict):
            items = exponents.items()
        else:
            items = exponents
        cleaned = []
        for part, mult in sorted(items):
            if part < 1:
                raise ValueError(f"part {part} < 1")
            if mult < 1:
                raise ValueError(f"multiplicity {mult} < 1 for part {part}")
            cleaned.append((int(part), int(mult)))
        self._items = tuple(cleaned)

    @classmethod
    def of(cls, *parts):
        """Build from an explicit list of parts, e.g. Partition.of(3, 3, 4)."""
        exp = {}
        for p in parts:
            exp[p] = exp.get(p, 0) + 1
        return cls(exp)

    @classmethod
    def parse(cls, text):
        """Parse the canonical text form, e.g. ``"1^2 3^2"``."""
        exp = {}
        for tok in text.split():
            if "^" in tok:
                part, mult = tok.split("^")
                exp[int(part)] = exp.get(int(part), 0) + int(mult)
            else:
                exp[int(tok)] = exp.get(int(tok), 0) + 1
        if not exp:
            raise ValueError(f"empty partition text {text!r}")
        return cls(exp)

    # -- views ---------------------------------------------------------------

    def items(self):
        return self._items

    def parts(self):
        out = []
        for part, mult in self._items:
            out.extend([part] * mult)
        return tuple(out)

    @property
    def size(self):
        return sum(p * m for p, m in self._items)

    @property
    def weight(self):
        return sum(s_weight(p) * m for p, m in self._items)

    @property
    def num_parts(self):
        return sum(m for _, m in self._items)

    @property
    def norm(self):
        """prod_k i_k!  (the bracket normalizer)."""
        out = 1
        for _, m in self._items:
            out *= factorial(m)
        return out

    def count(self, part):
        for p, m in self._items:
            if p == part:
                return m
        return 0

    def contains(self, part):
        return self.count(part) > 0

    def times(self, other):
        """(pi + rho, c) with [self][other] = c [pi + rho]: the exponent-wise
        sum of the two partitions, and c = prod_k C(i_k + j_k, i_k) over the
        parts they share."""
        exp = dict(self._items)
        factor = 1
        for p, m in other._items:
            i = exp.get(p)
            if i:
                factor *= comb(i + m, m)
                exp[p] = i + m
            else:
                exp[p] = m
        # both item tuples are valid, so the sum is too: skip __init__'s checks
        product = object.__new__(Partition)
        product._items = tuple(sorted(exp.items()))
        return product, factor

    def text(self):
        toks = []
        for part, mult in self._items:
            toks.append(str(part) if mult == 1 else f"{part}^{mult}")
        return " ".join(toks)

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Partition) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __lt__(self, other):
        return (self.size, self.parts()) < (other.size, other.parts())

    def __repr__(self):
        return f"Partition({self.text()!r})"


def hset(r, k):
    """All partitions of k whose weight is r, as a sorted tuple.

    Empty unless k is in {r, r+2, ..., 3r} (parts 1 and 2 carry their own
    size as weight, larger parts carry size minus two, so size minus weight
    is twice the number of parts >= 3).
    """
    if r < 1:
        raise ValueError(f"order {r} < 1")
    return _weight_classes(r).get(k, ())


@cache
def _weight_classes(r):
    """{size: sorted tuple} of the partitions of weight r, generated by
    weight directly: a part p weighs s_weight(p), so parts run up to r + 2."""
    by_size = {}

    def rec(remaining, low, acc):
        if remaining == 0:
            pi = Partition.of(*acc)
            by_size.setdefault(pi.size, []).append(pi)
            return
        for part in range(low, remaining + 3):
            if s_weight(part) <= remaining:
                acc.append(part)
                rec(remaining - s_weight(part), part, acc)
                acc.pop()

    rec(r, 1, [])
    return {k: tuple(sorted(pis)) for k, pis in by_size.items()}


def _series_mul(a, b, order):
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if isinstance(ai, (int, float, Fraction)) and not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            out[i + j] = out[i + j] + ai * bj
    return out


def bracket_series_coeff(pi, L, i):
    """The n^-i coefficient of [pi] when every L_k is a series in 1/n.

    ``L`` is any coefficient series: an object whose ``coeff(k, j)`` is the
    n^-j coefficient of L_k, such as a ``cumulants.ATable``.  Multiplies the truncated series prod_k L_k(n)^{i_k}, divides by the
    bracket normalizer, and returns the requested coefficient.
    """
    if i < 0:
        raise ValueError("series order must be nonnegative")
    acc = [Fraction(1)] + [0] * i
    for part, mult in pi.items():
        row = [L.coeff(part, j) for j in range(i + 1)]
        for _ in range(mult):
            acc = _series_mul(acc, row, i)
    return acc[i] * Fraction(1, pi.norm)
