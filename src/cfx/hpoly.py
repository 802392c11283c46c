"""Sparse exact polynomials in indexed indeterminates.

One polynomial core backs every symbolic layer of the package: polynomials in
the generalized-Hermite symbols H_1, H_2, ..., polynomials in the log-density
derivative symbols a_1, a_2, ..., and univariate polynomials (x, or 1/y for
the gamma base).  Which family a polynomial lives in is decided by the code
that builds it; conversions between families are explicit substitutions.

A monomial is a multiset of indices >= 1, stored as a sorted tuple; the empty
tuple is the constant monomial.  Coefficients are whatever numbers the inputs
are: ``int`` stays ``int`` (the symbolic tables are integer in the bracket
basis), ``Fraction`` stays exact, and feeding floats degrades gracefully to
float arithmetic.  Values are immutable in practice: no method mutates
``self``.
"""

from __future__ import annotations

from fractions import Fraction


def _mono_key(mono):
    # graded lexicographic: total degree first, then indices descending
    return (len(mono), tuple(-i for i in sorted(mono, reverse=True)))


class Poly:
    """Sparse polynomial; terms map monomial tuples to nonzero coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[tuple(sorted(mono))] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value):
        p = cls()
        if value:
            p.terms[()] = value
        return p

    @classmethod
    def atom(cls, index, power=1, coeff=1):
        if index < 1:
            raise ValueError("indeterminate indices start at 1")
        p = cls()
        if coeff:
            p.terms[(index,) * power] = coeff
        return p

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def const_value(self):
        return self.terms.get((), Fraction(0))

    def degree(self):
        return max((len(m) for m in self.terms), default=0)

    def max_index(self):
        return max((m[-1] for m in self.terms if m), default=0)

    def coefficient(self, mono):
        return self.terms.get(tuple(sorted(mono)), Fraction(0))

    # -- ring operations ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Poly.const(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, Poly):
            if isinstance(other, (int, float, Fraction)):
                other = Poly.const(other)
            else:
                return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        p = Poly()
        p.terms = out
        return p

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = Poly()
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Poly) else Poly.const(-other))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            out = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = tuple(sorted(m1 + m2))
                    s = out.get(mono, 0) + c1 * c2
                    if s:
                        out[mono] = s
                    else:
                        out.pop(mono, None)
            p = Poly()
            p.terms = out
            return p
        if isinstance(other, (int, float, Fraction)):
            if not other:
                return Poly()
            p = Poly()
            p.terms = {m: c * other for m, c in self.terms.items()}
            return p
        return NotImplemented

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def exact_div(self, d):
        """self / d for an integer d that divides every coefficient.

        The quotient coefficients are integers; a remainder raises
        ``ArithmeticError`` instead of producing a fraction."""
        p = Poly()
        for m, c in self.terms.items():
            q, rem = divmod(c, d)
            if rem:
                raise ArithmeticError(f"{d} does not divide the coefficient {c}")
            p.terms[m] = q
        return p

    # -- structural maps ---------------------------------------------------

    def shift_indices(self, delta):
        """Replace every index i by i + delta (used for derivative ladders)."""
        if delta == 0:
            return self
        p = Poly()
        for m, c in self.terms.items():
            p.terms[tuple(i + delta for i in m)] = c
        return p

    def subs(self, mapping):
        """Substitute whole polynomials (or numbers) for atoms.

        ``mapping`` maps index -> Poly | number; indices absent from the
        mapping are left untouched.
        """
        out = Poly()
        for mono, c in self.terms.items():
            term = Poly.const(c)
            for i in mono:
                rep = mapping.get(i)
                if rep is None:
                    rep = Poly.atom(i)
                elif not isinstance(rep, Poly):
                    rep = Poly.const(rep)
                term = term * rep
            out = out + term
        return out

    def eval(self, values):
        """Evaluate with ``values[i]`` substituted for atom i.

        ``values`` is any object supporting ``values[i]`` for every index
        appearing in the polynomial (a dict, or a 1-indexed sequence wrapper);
        a missing index must raise, never default to zero.  Values may be
        floats, Fractions, or any ring element supporting + and *.
        """
        total = 0
        for mono, c in self.terms.items():
            term = c
            for i in mono:
                term = term * values[i]
            total = term + total
        return total

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]))

    def text(self, symbol="H"):
        """Canonical plain rendering, e.g. ``H7 - 2*H3*H4 + H1*H3^2``."""
        if not self.terms:
            return "0"
        pieces = []
        for mono, c in self.sorted_terms():
            factors = []
            for i in sorted(set(mono)):
                k = mono.count(i)
                factors.append(f"{symbol}{i}" + (f"^{k}" if k > 1 else ""))
            body = "*".join(factors)
            if not body:
                frag = str(c)
            elif c == 1:
                frag = body
            elif c == -1:
                frag = f"-{body}"
            else:
                frag = f"{c}*{body}"
            pieces.append(frag)
        out = pieces[0]
        for frag in pieces[1:]:
            out += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
        return out

    def compact(self):
        """Compact index notation: ``k·1^{i1}2^{i2}`` with multi-digit
        indices parenthesized, e.g. ``3·4(11)`` for 3*H4*H11."""
        if not self.terms:
            return "0"
        pieces = []
        for mono, c in self.sorted_terms():
            body = ""
            for i in sorted(set(mono)):
                k = mono.count(i)
                tok = str(i) if i < 10 else f"({i})"
                body += tok + (f"^{k}" if k > 1 else "")
            if not body:
                frag = str(c)
            elif c == 1:
                frag = body
            elif c == -1:
                frag = f"-{body}"
            else:
                frag = f"{c}·{body}"
            pieces.append(frag)
        out = pieces[0]
        for frag in pieces[1:]:
            out += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
        return out

    def __repr__(self):
        return f"Poly({self.text()})"
