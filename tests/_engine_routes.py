"""Reference routes and closed forms that cross-check the engine.

``e_r_closed`` is the split evaluation of the standardized expansion under
the truncated-and-matched zero pattern (nabla_r + nabla_re), to be equal to
``engine.e_r_standardized``; ``formal_series_maps`` evaluates the truncated
forward and inverse quantile maps at fixed L values, to be mutual inverses.
``exponential_bell``, ``hermite_derivative``, ``partitions_of``,
``hermite_x_poly`` (He_r by its own recurrence) and ``subs`` (substitution
by expanded powers) are second routes to what the package computes by other
recurrences, and ``normal_table`` and ``a_table`` give a table's normal
specialization and a-basis form;
``b_poly``, ``a_from_H`` and ``b_from_a`` are the conversions only these
reference routes and the conversion tables use, and ``a_seq`` gives a
base's a-values for the a -> H conversion.  ``cdf_per_order``,
``density_per_order`` and ``quantile_terms_per_order`` are the kernels'
per-order route (a fresh H-value table per order, then ``hp_eval`` of the
exact polynomial) that the context's float rows must match bit for bit,
and ``gamma_h_seq_double_loop`` the gamma H-values with the falling
factorial (``falling_factorial``) recomputed for every term.
``parse_partition`` reads a partition's text form.  ``e_r_by_bracket`` is
the standardized expansion summed one bracket at a time in Fractions, a new
polynomial per bracket, whose term order ``engine.e_r_standardized`` keeps.
"""

import math
from fractions import Fraction
from functools import cache
from math import comb, factorial

from cfx import basedist, engine, hbasis
from cfx.bell import Seq, partial_ordinary_bell
from cfx.engine import OrderError, fg_formal
from cfx.hpoly import Poly
from cfx.partitions import Partition, bracket_series_coeff


def parse_partition(text):
    """Parse the canonical text form of a partition, e.g. ``"1^2 3^2"``."""
    exp = {}
    for tok in text.split():
        if "^" in tok:
            part, mult = tok.split("^")
            exp[int(part)] = exp.get(int(part), 0) + int(mult)
        else:
            exp[int(tok)] = exp.get(int(tok), 0) + 1
    if not exp:
        raise ValueError(f"empty partition text {text!r}")
    return Partition(exp)


def exponential_bell(r, j, x):
    """The exponential partial Bell polynomial B_{rj}(x), from the ordinary
    one: B_{rj}(x) = (r!/j!) B^_{rj}(y) at y_k = x_k/k!."""
    y = Seq([x[k] * Fraction(1, factorial(k)) for k in range(1, r - j + 2)])
    return partial_ordinary_bell(r, j, y) * Fraction(factorial(r), factorial(j))


@cache
def b_poly(i):
    """b_i = (H_1 + D)^i 1, as a polynomial in H."""
    if i == 0:
        return Poly.const(1)
    prev = b_poly(i - 1)
    return hbasis.H(1) * prev + hbasis.hp_diff(prev)


@cache
def a_from_H(r):
    """a_r written in the H-symbols: a_1 = H_1 and a_{r+1} = D a_r, since
    a_r is the r-th derivative of -ln p."""
    return hbasis.H(1) if r == 1 else hbasis.hp_diff(a_from_H(r - 1))


@cache
def b_from_a(r):
    """b_r written in the a-symbols: the complete Bell polynomial B_r(a),
    from B_r = sum_k C(r-1, k) a_{k+1} B_{r-1-k}."""
    if r == 0:
        return Poly.const(1)
    return sum((hbasis.a_sym(k + 1) * b_from_a(r - 1 - k) * comb(r - 1, k)
                for k in range(r)), Poly())


def hermite_derivative(r, k):
    """D^k H_r as a polynomial in H:
    sum_i C(k,i) (-1)^i b_{k-i} H_{r+i}."""
    out = Poly()
    for i in range(k + 1):
        sign = -1 if i % 2 else 1
        out = out + b_poly(k - i) * hbasis.H(r + i) * (sign * comb(k, i))
    return out


_he_cache = {0: Poly.const(1), 1: Poly.atom(1)}


def hermite_x_poly(r):
    """The probabilists' Hermite polynomial He_r as a polynomial in x
    (atom index 1): He_r = x He_{r-1} - (r-1) He_{r-2}."""
    if r < 0:
        raise ValueError("index must be >= 0")
    if r not in _he_cache:
        _he_cache[r] = (
            Poly.atom(1) * hermite_x_poly(r - 1)
            - hermite_x_poly(r - 2) * (r - 1)
        )
    return _he_cache[r]


def subs(p, mapping):
    """Substitute whole polynomials (or numbers) for atoms, expanding each
    (index, power) that occurs once; indices absent from ``mapping`` are
    left untouched."""
    reps = {i: v if isinstance(v, Poly) else Poly.const(v) for i, v in mapping.items()}
    powers = {}
    out = Poly()
    for mono, c in p.terms.items():
        term = Poly.const(c)
        for i in dict.fromkeys(mono):
            k = mono.count(i)
            if (i, k) not in powers:
                powers[i, k] = reps.get(i, Poly.atom(i)) ** k
            term = term * powers[i, k]
        out = out + term
    return out


def normal_table(kind, r):
    """{partition: coefficient as a polynomial in x} of the order-r table
    specialized to the normal base, without the partitions whose
    coefficient vanishes there."""
    out = {}
    for pi, val in engine.coefficient_table(kind, r):
        spec = hbasis.normal_specialize(val)
        if spec:
            out[pi] = spec
    return out


def a_table(kind, r):
    """{partition: coefficient in the a-symbols} of the order-r table."""
    return {pi: hbasis.to_a_basis(val) for pi, val in engine.coefficient_table(kind, r)}


def partitions_of(k):
    """Yield all partitions of k >= 1 as Partition objects, parts ascending."""

    def rec(remaining, low, acc):
        if remaining == 0:
            yield Partition.of(*acc)
            return
        for part in range(low, remaining + 1):
            acc.append(part)
            yield from rec(remaining - part, part, acc)
            acc.pop()

    yield from rec(k, 1, [])


def e_r_by_bracket(kind, r, atable):
    """e_r(x) as the sum over brackets of e(pi) times the n^-i series
    coefficient of [pi], one ``Poly`` addition per bracket."""
    total = Poly()
    for _, _, val, c in engine._bracket_sum(kind, r, atable):
        if c:
            total = total + val * c
    return total


def nabla_r(r, atable):
    """The single-bracket closed form: the needed-coefficient diagonal
    sum of Abar_{2i-r,i} H_{2i-r-1}."""
    lo = (r + 2) // 2
    total = Poly()
    for i in range(lo, r + 2):
        c = atable.abar(2 * i - r, i)
        if c:
            total = total + hbasis.H(2 * i - r - 1) * c
    return total


_NABLA_RE = {
    4: ((parse_partition("4^2"), 0),),
    5: ((parse_partition("4 5"), 0), (parse_partition("3 4"), 1)),
    6: ((parse_partition("5^2"), 0), (parse_partition("4 6"), 0),
        (parse_partition("4^3"), 0), (parse_partition("4^2"), 1),
        (parse_partition("3 5"), 1), (parse_partition("3^2"), 2)),
}


def nabla_re(kind, r, atable):
    """The multi-bracket residual closed form: the short list of partitions
    that survive at order r under the truncated-and-matched zero pattern."""
    if r <= 3:
        return Poly()
    if r not in _NABLA_RE:
        raise OrderError(f"closed residual form only tabulated through r=6, got {r}")
    total = Poly()
    for pi, i in _NABLA_RE[r]:
        table = dict(engine.coefficient_table(kind, pi.weight))
        val = table.get(pi)
        if val is None:
            continue
        c = bracket_series_coeff(pi, atable, i)
        if c:
            total = total + val * c
    return total


def e_r_closed(kind, r, atable):
    """nabla_r + nabla_re: the split evaluation, valid under the matched
    zero pattern at the per-order (J, K) regime."""
    return nabla_r(r, atable) + nabla_re(kind, r, atable)


def eval_formal(lpoly, lvalues, hvalues):
    """Evaluate an LPoly at numeric L values (1-indexed) and H values."""
    seq = lvalues if isinstance(lvalues, Seq) else Seq(lvalues)
    total = 0.0
    for pi, val in lpoly.terms.items():
        prod = 1.0
        for part, mult in pi.items():
            prod *= float(seq[part]) ** mult
        total += prod * float(hbasis.hp_eval(val * Fraction(1, pi.norm), hvalues))
    return total


def formal_series_maps(R, lvalues, base, n):
    """The truncated forward and inverse quantile maps at fixed L values:
    F_R(x) = x - sum n^{-r/2} f_r(x), G_R(x) = x + sum n^{-r/2} g_r(x)."""
    fs = [fg_formal("f", r) for r in range(1, R + 1)]
    gs = [fg_formal("g", r) for r in range(1, R + 1)]
    kmax = 3 * R + 2

    def hv(x):
        return Seq([float(v) for v in base.h_seq(x, kmax)])

    def F(x):
        vals = hv(x)
        return x - sum(float(n) ** (-(r + 1) / 2.0) * eval_formal(fp, lvalues, vals)
                       for r, fp in enumerate(fs))

    def G(x):
        vals = hv(x)
        return x + sum(float(n) ** (-(r + 1) / 2.0) * eval_formal(gp, lvalues, vals)
                       for r, gp in enumerate(gs))

    return F, G


# ---------------------------------------------------------------------------
# base H- and a-values, and the kernels' per-order evaluation route
# ---------------------------------------------------------------------------

def a_seq(base, x, rmax):
    """a_1(x)..a_rmax(x), the derivatives of -ln p, of a normal, gamma or
    affine base."""
    if isinstance(base, basedist.AffineBase):
        inner = a_seq(base.inner, base._y(x), rmax)
        return [base.sigma ** r * v for r, v in enumerate(inner, start=1)]
    if isinstance(base, basedist.GammaBase):
        base._require_support(x)
        ybar = -1 / (Fraction(x) if isinstance(x, (int, Fraction)) else x)
        out = []
        ypow = ybar
        for r in range(1, rmax + 1):
            val = math.factorial(r - 1) * base.alpha * ypow
            if r == 1:
                val = val + 1
            out.append(val)
            ypow = ypow * ybar
        return out
    out = []
    if rmax >= 1:
        out.append(x)
    if rmax >= 2:
        out.append(1 if isinstance(x, Fraction) else 1.0)
    zero = Fraction(0) if isinstance(x, Fraction) else 0.0
    out.extend([zero] * max(0, rmax - 2))
    return out


def falling_factorial(alpha, j):
    """alpha (alpha-1) ... (alpha-j+1); exact when alpha is exact."""
    out = alpha ** 0  # 1 in the right ring
    for i in range(j):
        out = out * (alpha - i)
    return out


def gamma_h_seq_double_loop(base, y, rmax):
    """``GammaBase.h_seq`` with the falling factorial recomputed inside the
    double loop: the same products, in the same order."""
    ybar = -1 / (Fraction(y) if isinstance(y, (int, Fraction)) else y)
    out = []
    for r in range(1, rmax + 1):
        total = 0
        ypow = ybar ** 0
        for j in range(r + 1):
            total = total + math.comb(r, j) * falling_factorial(base.alpha, j) * ypow
            ypow = ypow * ybar
        out.append(total)
    return out


def _per_order_terms(ctx, polys, x, R, pre):
    nn = float(ctx.n)
    terms = []
    for r in range(1, R + 1):
        poly = polys(r)
        top = poly.max_index()
        if top == 0:
            er = float(poly.coefficient(()))
        else:
            hvals = ctx.base.h_seq(x, top)
            er = float(hbasis.hp_eval(poly, Seq([float(v) for v in hvals])))
        terms.append(pre * nn ** (-r / 2.0) * er)
    return terms


def cdf_per_order(ctx, x, R):
    """``engine.cdf_expand`` by the per-order route."""
    base_value = ctx.base.cdf(x)
    px = ctx.base.pdf(x)
    if not px:
        return {"x": x, "base": base_value, "terms": [0.0] * R,
                "value": base_value}
    terms = _per_order_terms(ctx, ctx.h_series, x, R, -px)
    total = base_value
    for t in terms:
        total += t
    return {"x": x, "base": base_value, "terms": terms, "value": total}


def density_per_order(ctx, x, i, R):
    """``engine.density_expand`` by the per-order route."""
    px = ctx.base.pdf(x)
    if not px:
        return {"x": x, "i": i, "terms": [0.0] * (R + 1), "value": 0.0}
    base_term = 1.0 if i == 0 else float(ctx.base.h_seq(x, i)[i - 1])
    terms = [px * base_term] + _per_order_terms(
        ctx, lambda r: engine._density_e(ctx.h_series(r), i), x, R, px)
    total = terms[0]
    for t in terms[1:]:
        total += t
    return {"x": x, "i": i, "terms": terms, "value": total}


def quantile_terms_per_order(ctx, p, R, gs):
    """The terms of ``engine.quantile_expand`` by the per-order route,
    with ``gs(r)`` the order-r standardized g polynomial."""
    x = ctx.base.inv_cdf(p)
    return [ctx.center + ctx.scale * x] + _per_order_terms(ctx, gs, x, R, ctx.scale)
