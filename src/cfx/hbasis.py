"""Exact symbolic algebra over the generalized-Hermite indeterminates.

H_r stands for the r-th derivative ratio p(x)^{-1}(-D)^r p(x) of a base
density p; the symbols obey the one differential rule

    D H_r = H_1 H_r - H_{r+1},

which extends to arbitrary polynomials by the product rule.  The c-functions
and the inversion operators are built from that rule; H_r in the
log-density-derivative symbols a_r comes from the complete Bell recurrence.

Two indeterminate families share the Poly core: expressions "in H" and
expressions "in a".  Conversions are explicit (``H_from_a``,
``to_a_basis``); nothing converts implicitly.  ``to_a_basis`` and
``normal_specialize`` are each one ``Poly.eval`` with polynomial values: the
a-expansions of H_r, and the normal base's own H-values He_r(x), read from
``NormalBase.h_seq`` at the symbolic point x.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .basedist import NormalBase
from .hpoly import Poly


def H(r):
    """The symbol H_r as a polynomial; H_0 is the constant 1."""
    if r < 0:
        raise ValueError("H index must be >= 0")
    return Poly.const(1) if r == 0 else Poly.atom(r)


def a_sym(r):
    """The symbol a_r (same core, separate namespace by convention)."""
    if r < 1:
        raise ValueError("a index must be >= 1")
    return Poly.atom(r)


# -- the derivative rule -------------------------------------------------------

def _h1_plus_d(p, a, s):
    """a H_1 p + s D p in one pass over the monomials of p.

    By D H_r = H_1 H_r - H_{r+1}, a term c * mono sends (a + s*len(mono)) c
    to H_1 * mono and, for each distinct index r of multiplicity k, -s k c
    to mono with its last H_r raised to H_{r+1}, which keeps it sorted.
    """
    out = {}

    def add(mono, v):
        prev = out.get(mono)
        if prev is not None:
            v = prev + v
        if v:
            out[mono] = v
        else:
            out.pop(mono, None)

    for mono, c in p.terms.items():
        add((1,) + mono, (a + s * len(mono)) * c)
        start = 0
        for i, r in enumerate(mono):
            if i + 1 == len(mono) or mono[i + 1] != r:
                add(mono[:i] + (r + 1,) + mono[i + 1:], -s * (i + 1 - start) * c)
                start = i + 1
    res = Poly()
    res.terms = out
    return res


def hp_diff(p):
    """Apply D to a polynomial in H via the product rule."""
    return _h1_plus_d(p, 0, 1)


def hp_eval(p, values, shift=0):
    """Evaluate a polynomial in H at numeric H-values.

    ``values`` maps r -> H_r(x), as for ``Poly.eval``; a missing index
    raises, never defaults.

    ``p`` is a Poly, or the float row of a polynomial linear in H: its
    (k, c) pairs for c H_k in the polynomial's term order, read with every
    index raised by ``shift``, so a constant kept at k = 0 reads values[0]
    (H_0 = 1).  A row multiplies and adds as ``Poly.eval`` does the exact
    coefficients it was made from, since Fraction * float is float(c) * v.
    """
    if isinstance(p, Poly):
        return p.eval(values)
    total = 0
    for k, c in p:
        total = total + c * values[k + shift]
    return total


# -- cached ladders ----------------------------------------------------------

_c_cache = {1: Poly.const(1)}


def c_function(k):
    """The inversion functions c_k: c_1 = 1, c_{k+1} = (k H_1 + D) c_k."""
    if k < 1:
        raise ValueError("c index must be >= 1")
    if k not in _c_cache:
        prev = c_function(k - 1)
        _c_cache[k] = _h1_plus_d(prev, k - 1, 1)
    return _c_cache[k]


def apply_J(m, p):
    """J_m p = m H_1 p - D p, the factor of every inversion operator
    D_k = J_1 ... J_{k-1}."""
    return _h1_plus_d(p, m, -1)


# -- conversions between the H and a families --------------------------------

@cache
def H_from_a(r):
    """H_r written in the a-symbols: (-1)^r B_r(-a), from the complete Bell
    recurrence B_r(x) = sum_k C(r-1, k) x_{k+1} B_{r-1-k}(x), in integers."""
    if r < 0:
        raise ValueError("index must be >= 0")
    if r == 0:
        return Poly.const(1)
    return sum((a_sym(k + 1) * H_from_a(r - 1 - k) * ((-1) ** k * comb(r - 1, k))
                for k in range(r)), Poly())


def to_a_basis(p):
    """Rewrite a polynomial in H as a polynomial in a, substituting each
    H_r by its a-expansion."""
    return Poly() + p.eval({i: H_from_a(i) for i in range(1, p.max_index() + 1)})


# -- normal specialization ----------------------------------------------------

def normal_specialize(p):
    """Substitute H_r -> He_r(x), giving a univariate polynomial in x (atom
    index 1): He_r is the normal base's H-value at the symbolic x."""
    he = NormalBase().h_seq(Poly.atom(1), p.max_index())
    return Poly() + p.eval(dict(enumerate(he, 1)))
