"""Sparse exact polynomials: one ring over two key families.

Every symbolic layer of the package is a sparse map from monomial keys to
nonzero ring coefficients.  ``SparseMap`` holds the ring operations once;
its two subclasses differ only in how two keys multiply:

- ``Poly`` keys are multisets of indices >= 1, stored as sorted tuples (the
  empty tuple is the constant monomial), and multiply by concatenation.
  ``Poly`` serves the generalized-Hermite symbols H_1, H_2, ..., the
  log-density derivative symbols a_1, a_2, ..., and univariate polynomials
  (x, or 1/y for the gamma base); which family a polynomial lives in is
  decided by the code that builds it, and conversions between families are
  explicit substitutions (``Poly.eval`` with Poly values).  Its
  coefficients are whatever numbers the inputs are: ``int`` stays ``int``
  (the symbolic tables are integer in the bracket basis), ``Fraction`` stays
  exact, and floats degrade gracefully to float arithmetic.
- ``LPoly`` keys are partitions read as brackets [pi] = prod_k L_k^{i_k}/i_k!
  in the adjusted-cumulant symbols, with ``Poly`` coefficients.  Brackets
  multiply with an integer factor, [pi][rho] = c [pi + rho] with
  ``(pi + rho, c) = pi.times(rho)``, so the h, f and g tables keep integer
  coefficients.

Values are immutable in practice: no method mutates ``self``.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import Partition


def _mono_key(mono):
    # graded lexicographic: total degree first, then indices descending
    return (len(mono), tuple(-i for i in sorted(mono, reverse=True)))


def _quotient(c, d):
    if isinstance(c, SparseMap):
        return c.exact_div(d)
    q, rem = divmod(c, d)
    if rem:
        raise ArithmeticError(f"{d} does not divide the coefficient {c}")
    return q


def _add_into(out, terms):
    """Add the (key, coefficient) pairs ``terms`` into the dict ``out``,
    dropping keys whose sum is zero; returns ``out``."""
    for key, c in terms:
        s = out.get(key)
        s = c if s is None else s + c
        if s:
            out[key] = s
        else:
            del out[key]
    return out


class SparseMap:
    """The ring operations shared by both key families.

    A subclass supplies ``_unit`` (the key of the constant monomial),
    ``_scalars`` (the types it multiplies coefficient-wise) and the key
    product ``_key_product(k1, k2) -> (key, factor)``, with k1 * k2 =
    factor * key for an integer factor."""

    __slots__ = ("terms",)

    @classmethod
    def _new(cls, terms):
        p = cls.__new__(cls)
        p.terms = terms
        return p

    @classmethod
    def const(cls, value):
        return cls({cls._unit: value})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, type(self)):
            return self.terms == other.terms
        if isinstance(other, self._scalars):
            return self.terms == self.const(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            if not isinstance(other, self._scalars):
                return NotImplemented
            other = self.const(other)
        return self._new(_add_into(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return self._new({key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, type(self)):
            # _add_into's accumulation, inlined: it runs once per pair of terms
            out = {}
            product = self._key_product
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    key, factor = product(k1, k2)
                    c = c1 * c2 if factor == 1 else c1 * c2 * factor
                    s = out.get(key)
                    s = c if s is None else s + c
                    if s:
                        out[key] = s
                    else:
                        del out[key]
            return self._new(out)
        if isinstance(other, self._scalars):
            if not other:
                return self._new({})
            return self._new({key: c * other for key, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = self.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def map_values(self, fn):
        """fn applied to every coefficient; zero results are dropped."""
        out = {}
        for key, c in self.terms.items():
            v = fn(c)
            if v:
                out[key] = v
        return self._new(out)

    def exact_div(self, d):
        """self / d for an integer d that divides every coefficient.

        The quotient coefficients are integers; a remainder raises
        ``ArithmeticError`` instead of producing a fraction."""
        return self.map_values(lambda c: _quotient(c, d))


class Poly(SparseMap):
    """Sparse polynomial; terms map monomial tuples to nonzero coefficients."""

    __slots__ = ()
    _unit = ()
    _scalars = (int, float, Fraction)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in terms.items():
                if c:
                    self.terms[tuple(sorted(mono))] = c

    @staticmethod
    def _key_product(m1, m2):
        return tuple(sorted(m1 + m2)), 1

    @classmethod
    def atom(cls, index, power=1, coeff=1):
        if index < 1:
            raise ValueError("indeterminate indices start at 1")
        return cls({(index,) * power: coeff})

    def max_index(self):
        return max((m[-1] for m in self.terms if m), default=0)

    def coefficient(self, mono):
        return self.terms.get(tuple(sorted(mono)), Fraction(0))

    def eval(self, values):
        """Evaluate with ``values[i]`` substituted for atom i.

        ``values`` is any object supporting ``values[i]`` for every index
        appearing in the polynomial (a dict, or a 1-indexed sequence wrapper);
        a missing index must raise, never default to zero.  Values may be
        floats, Fractions, or any ring element supporting + and *: with Poly
        values this is substitution.  A polynomial without atoms gives its
        bare constant (0 when it is zero), not a Poly.
        """
        total = 0
        for mono, c in self.terms.items():
            term = c
            for i in mono:
                term = term * values[i]
            # the total on the left: a Poly sum copies the left dict in C and
            # adds the right one's monomials one by one
            total = total + term
        return total

    # -- rendering ---------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _mono_key(kv[0]))

    def text(self, symbol="H"):
        """Canonical plain rendering, e.g. ``H7 - 2*H3*H4 + H1*H3^2``."""
        return self._render(lambda i: f"{symbol}{i}", "*", "*")

    def compact(self):
        """Compact index notation: ``k·1^{i1}2^{i2}`` with multi-digit
        indices parenthesized, e.g. ``3·4(11)`` for 3*H4*H11."""
        return self._render(lambda i: str(i) if i < 10 else f"({i})", "", "·")

    def _render(self, symbol, sep, times):
        out = "0"
        for n, (mono, c) in enumerate(self.sorted_terms()):
            body = sep.join(symbol(i) + (f"^{mono.count(i)}" if mono.count(i) > 1 else "")
                            for i in sorted(set(mono)))
            if not body:
                frag = str(c)
            elif c == 1:
                frag = body
            elif c == -1:
                frag = f"-{body}"
            else:
                frag = f"{c}{times}{body}"
            if n == 0:
                out = frag
            else:
                out += f" - {frag[1:]}" if frag.startswith("-") else f" + {frag}"
        return out

    def __repr__(self):
        return f"Poly({self.text()})"



class LPoly(SparseMap):
    """Polynomial in the L symbols with Poly (H-polynomial) coefficients.

    Terms map a Partition, read as the bracket [pi] = prod_k L_k^{i_k}/i_k!,
    to the Poly that multiplies it.  Brackets multiply with an integer
    factor (``Partition.times``), so the h, f and g tables hold
    integer coefficients throughout.
    """

    __slots__ = ()
    _unit = Partition(())
    _scalars = (int, float, Fraction, Poly)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for part, val in terms.items():
                if not isinstance(val, Poly):
                    val = Poly.const(val)
                if val:
                    self.terms[part] = val

    _key_product = staticmethod(Partition.times)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls.const(1)

    @classmethod
    def monomial(cls, partition, value=1):
        return cls({partition: value})

    def bracket_items(self):
        """[(partition, coefficient-of-[pi])] sorted by partition."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        inner = " + ".join(f"[{p.text()}]*({v.text()})"
                           for p, v in self.bracket_items())
        return f"LPoly({inner or '0'})"
