"""Coefficient sequences and the partial ordinary Bell recurrence.

The ordinary partial Bell polynomial B^_{rj}(y) is the coefficient of t^r in
S(t)^j for S(t) = sum_{r>=1} y_r t^r.  The recurrence is generic over the
coefficient ring and needs only ``+`` and ``*`` of its values: sequences may
hold Fractions, floats, or polynomial objects, so one routine serves the
exact symbolic layer and the floating-point layer.  The bracket-basis h/f/g
tables divide B^_{rk} by k! exactly in the integers
(``hpoly.SparseMap.exact_div``).
"""

from __future__ import annotations

from fractions import Fraction

class SeqLengthError(LookupError):
    """A sequence index beyond the stored coefficients was requested."""


class Seq:
    """A 1-indexed coefficient sequence y_1, y_2, ...

    Index 0 is not addressable and reading past the stored length is an
    error, never an implicit zero.  Instances also carry the per-sequence
    recurrence cache for the partial Bell values, so repeated expansion
    passes over one sequence do not recompute.
    """

    __slots__ = ("_values", "_cache")

    def __init__(self, values):
        self._values = list(values)
        self._cache = {}

    def __len__(self):
        return len(self._values)

    def extend(self, values):
        """Append y_{n+1}, y_{n+2}, ...; the cache stays valid, since
        B^_{rj} reads only y_1..y_{r-j+1}."""
        self._values.extend(values)

    def __getitem__(self, r):
        if r < 1:
            raise SeqLengthError(f"sequence index {r} < 1")
        if r > len(self._values):
            raise SeqLengthError(
                f"sequence index {r} beyond stored length {len(self._values)}"
            )
        return self._values[r - 1]


def partial_ordinary_bell(r, j, y):
    """B^_{rj}(y) for a ``Seq`` y: coefficient of t^r in (sum y_k t^k)^j.

    Zero for r < j; the j = 0 row is the unit series.  Computed by the
    convolution recurrence B^_{r,j+1} = sum_{a=j}^{r-1} B^_{aj} y_{r-a},
    cached on the sequence object.
    """
    if r < 0 or j < 0:
        raise ValueError("orders must be nonnegative")
    if j == 0:
        return 1 if r == 0 else 0
    if r < j:
        return 0
    if len(y) < r - j + 1:
        raise SeqLengthError(
            f"B^_{{{r},{j}}} needs {r - j + 1} coefficients, have {len(y)}"
        )
    return _partial(r, j, y)


def _partial(r, j, y):
    # 1 <= j <= r here: the recursion reads only rows a >= j - 1 >= 1
    key = (r, j)
    hit = y._cache.get(key)
    if hit is not None:
        return hit
    if j == 1:
        val = y[r]
    else:
        total = 0
        for a in range(j - 1, r):
            b = _partial(a, j - 1, y)
            if isinstance(b, (int, float, Fraction)) and not b:
                continue
            total = total + b * y[r - a]
        val = total
    y._cache[key] = val
    return val
