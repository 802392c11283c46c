"""The expansion core.

Symbolic layer: the cdf-correction polynomials h_r, the forward quantile-map
polynomials f_r and inverse quantile-map polynomials g_r, all represented as
``hpoly.LPoly`` values: polynomials in the adjusted-cumulant symbols L_1,
L_2, ... whose coefficients are exact polynomials in the generalized-Hermite
symbols.  h_r comes from the weighted-partition decomposition; f_r and g_r
come from the inversion ladder (the c-functions and J-operators of
``hbasis``) applied to Bell polynomials in the h-sequence.  A table's
brackets are read through ``coefficient_table(kind, r)``, its (partition,
coefficient in H) pairs sorted once per table; the a-basis and normal forms
are made from those pairs where they are read (``export_table_json``, and
``term_count`` for the normal base).

Standardized layer: substituting each L_k by its power series in 1/n, read
from the model's ``cumulants.ATable`` through the series protocol of
``partitions.bracket_series_coeff``, turns the formal tables into the
order-by-order expansion terms e_r(x) actually evaluated against a cumulant
model (the closed forms of its leading and residual parts live in the
test-suite, which checks them against this generic path).

Evaluation layer: cdf, quantile and density expansions about a concrete base
distribution, mapped into the estimate's own frame by ``ExpansionContext``,
and the term-count accounting used to compare truncation strategies.

The symbolic tables are built once (single-threaded) and cached immutable;
evaluation calls are pure apart from filling their context's h series, its
float rows and its validated order.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from . import basedist, cumulants, hbasis
from .bell import Seq, partial_ordinary_bell
from .hpoly import LPoly, Poly, _add_into
from .partitions import bracket_series_coeff, hset

MAX_ORDER = 12


class OrderError(ValueError):
    """A requested order or index is outside its supported range."""


def _check_order(r, lo=0, hi=MAX_ORDER, name="order"):
    """The one guard on expansion orders (0..MAX_ORDER; the symbolic tables
    start at 1) and on the density's derivative order (no upper bound)."""
    if r < lo:
        raise OrderError(f"{name} {r} is below its least value {lo}")
    if r > hi:
        raise OrderError(f"{name} {r} is outside the supported range 0..{hi}")


# ---------------------------------------------------------------------------
# the coefficient tables C_rk and the h / f / g formal expansions
# ---------------------------------------------------------------------------

def crk(r, k):
    """C_rk, the coefficient of H_{k-1} in h_r, as an LPoly: the bracket sum
    over all weight-r partitions of k (each bracket carries coefficient
    one)."""
    _check_order(r, lo=1)
    out = LPoly()
    for pi in hset(r, k):
        out = out + LPoly.monomial(pi)
    return out


_h_cache = {}
_fg_cache = {}
# (h_1, h_2, ...) grown as orders are asked for; its Bell cache holds every
# B^_{aj}(h) once per process
_h_seq = Seq([])


def h_formal(r):
    """h_r as an LPoly: sum_k C_rk H_{k-1}."""
    _check_order(r, lo=1)
    if r not in _h_cache:
        out = LPoly()
        for k in range(r, 3 * r + 1, 2):
            out = out + crk(r, k) * hbasis.H(k - 1)
        _h_cache[r] = out
    return _h_cache[r]


def fg_formal(kind, r):
    """f_r or g_r as an LPoly, from the inversion ladder applied to Bell
    polynomials in (h_1, ..., h_r):

        f_r = sum_k (-1)^{k-1} c_k b_{rk}(h)
        g_r = sum_k (-1)^{k-1} D_k b_{rk}(h)
            = b_{r1} - J_1(b_{r2} - J_2(b_{r3} - ... - J_{r-1} b_{rr}))

    where D_k = J_1 ... J_{k-1} acts on the whole symbolic product b_{rk}(h),
    nested so that g_r takes r - 1 J passes, and b_{rk} = B^_{rk}/k! divides
    exactly in the bracket basis.
    """
    if kind == "h":
        return h_formal(r)
    if kind not in ("f", "g"):
        raise ValueError(f"kind must be h, f or g, not {kind!r}")
    _check_order(r, lo=1)
    key = (kind, r)
    if key not in _fg_cache:
        _h_seq.extend(h_formal(j) for j in range(len(_h_seq) + 1, r + 1))
        bs = [partial_ordinary_bell(r, k, _h_seq).exact_div(math.factorial(k))
              for k in range(1, r + 1)]
        if kind == "f":
            total = LPoly.zero()
            for k, b in enumerate(bs, 1):
                total = total + b * hbasis.c_function(k) * (-1) ** (k - 1)
        else:
            total = bs[-1]
            for k in range(r - 1, 0, -1):
                total = bs[k - 1] - total.map_values(
                    lambda p, m=k: hbasis.apply_J(m, p))
        _fg_cache[key] = total
    return _fg_cache[key]


@cache
def coefficient_table(kind, r):
    """The pairs (partition, e(partition)) of the order-r table, e in H,
    sorted by partition: built once per table and kept for the process, as
    the table itself is.  Partitions whose coefficient is identically zero
    are omitted; ``dict(coefficient_table(kind, r))`` looks one up."""
    return tuple(fg_formal(kind, r).bracket_items())


def export_table_json(kind, r, basis="H"):
    """Stable JSON document for one symbolic coefficient table; ``basis``
    "a" or "x" adds each coefficient's a-basis form or normal
    specialization (a polynomial in x) beside its H form."""
    terms = []
    for pi, val in coefficient_table(kind, r):
        entry = {"partition": pi.text(), "coeff_H": val.text()}
        if basis == "a":
            entry["coeff_a"] = hbasis.to_a_basis(val).text("a")
        elif basis == "x":
            entry["coeff_x"] = hbasis.normal_specialize(val).text("x")
        terms.append(entry)
    return {"kind": kind, "r": r, "terms": terms}


# ---------------------------------------------------------------------------
# standardized expansions
# ---------------------------------------------------------------------------

def _bracket_sum(kind, r, atable):
    """The terms of the standardized order-r expansion: (i, pi, e(pi), c)
    for every bracket pi of the order-(r - 2i) formal table, 0 <= i < r/2,
    with c the n^-i series coefficient of [pi] read from ``atable``."""
    for i in range(0, (r - 1) // 2 + 1):
        for pi, val in coefficient_table(kind, r - 2 * i):
            yield i, pi, val, bracket_series_coeff(pi, atable, i)


def e_r_standardized(kind, r, atable):
    """The order-r standardized expansion polynomial e_r(x), as a Poly in H:
    sum_i e_{r-2i,i}, where e_{s,i} collects the n^-i series coefficient of
    every bracket in the order-s formal table.  A (J, K)-truncated table
    carries its zero pattern in its values.

    The brackets add into one dict.  With every c exact, c = m/D over the
    lcm D of the denominators, the integer table values v add as v*m in
    ints, and each surviving monomial becomes Fraction(s, D) once; else
    (floats, symbolic tables) each val*c adds in place.  Each monomial is
    got, added and deleted as in a bracket-by-bracket Fraction sum, so the
    terms keep that sum's order, which float evaluation sums in."""
    _check_order(r)
    pairs = [(val, c) for _, _, val, c in _bracket_sum(kind, r, atable) if c]
    out = {}
    if not all(isinstance(c, (int, Fraction)) for _, c in pairs):
        for val, c in pairs:
            _add_into(out, (val * c).terms.items())
        return Poly._new(out)
    D = math.lcm(*(c.denominator for _, c in pairs))
    for val, c in pairs:
        m = c.numerator * (D // c.denominator)
        _add_into(out, ((key, v * m) for key, v in val.terms.items()))
    return Poly._new({key: Fraction(s, D) for key, s in out.items()})


def _density_e(h, i):
    """The density-expansion polynomial of the cdf polynomial ``h`` = e_r^h:
    every H_k of h (the constant H_0 included) raised to H_{k+i+1}.  This is
    the exact form of what ``density_expand`` reads from the float rows
    with every index raised by i + 1."""
    return Poly({((mono[0] if mono else 0) + i + 1,): c
                 for mono, c in h.terms.items()})


# ---------------------------------------------------------------------------
# evaluation contexts and the three expansions
# ---------------------------------------------------------------------------

def _check_n(n):
    """Reject an n the expansion in powers of n^-1/2 cannot use: n > 0 with
    a finite, nonzero float, and the top order's scale n^-(MAX_ORDER/2)
    finite."""
    top = -MAX_ORDER / 2
    try:
        ok = n > 0 and 0.0 < float(n) < math.inf and float(n) ** top < math.inf
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise cumulants.ModelError(
            f"sample-size parameter n = {str(n)[:40]}"
            f"{'...' if len(str(n)) > 40 else ''}: n must be positive, "
            f"with a finite nonzero float and a finite n^{top:g}")


class ExpansionContext:
    """Everything an evaluation needs: the coefficient table to expand with,
    the sample-size parameter, the base distribution, and the frame.

    The frame is one affine map between the estimate's standardized variable
    Y = (theta^ - theta)/sigma, sigma = sqrt(a21/n), and the base variable
    w = (sign*theta^ - center)/scale, where sign is -1 for an estimate
    mirrored before expansion (``flipped``).  The kernels ``cdf_expand``,
    ``quantile_expand`` and ``density_expand`` answer in w; the methods
    ``quantile`` (theta^ units), ``cdf`` and ``density`` (Y units) answer
    for the estimate itself, on every base.  A raw context maps Y to w = Y
    bit for bit.

    The context builds each order's standardized h polynomial e_r^h the
    first time a cdf or density asks for it, and keeps it (``h_series``),
    with its float row (``h_row``): the (H index, float coefficient) pairs
    of e_r^h, which is linear in H, in the polynomial's own term order.  A
    cdf or density point is then one H-value table and a short dot product
    per order (``series_terms``), bit for bit what evaluating e_r^h itself
    gives.  The context also remembers the highest order that
    ``cumulants.validate_for_order`` has passed.  All of this relies on
    ``atable`` not being mutated once the context is made.  The quantile's
    g series is still built per call."""

    def __init__(self, atable, n, base, theta, sigma, center, scale, sign=1,
                 tau=None, m=None):
        self.atable = atable
        self.n = n
        self.base = base
        self.theta = theta
        self.sigma = sigma
        self.center = center
        self.scale = scale
        self.sign = sign
        self.tau = tau
        self.m = m
        # w = slope * (y - y0): y0 is the Y value at which w = 0
        self._slope = sign * sigma / scale
        self._y0 = (center - sign * theta) / (sign * sigma)
        self._h_series = {}
        self._h_rows = {}
        self._valid_to = 0

    @property
    def flipped(self):
        return self.sign < 0

    @classmethod
    def raw(cls, table, n):
        """The plain standardized estimate (no truncation tricks), expanded
        about the normal base."""
        _check_n(n)
        theta = float(table.theta)
        sigma = math.sqrt(float(table.a21) / float(n))
        return cls(cumulants.standardize(table), n, basedist.normal(),
                   theta, sigma, theta, sigma)

    @classmethod
    def matched_gamma(cls, table, n, J=1, K=1):
        """The skew-matched gamma pipeline.

        Mirrors the estimate when its skewness coefficient is negative
        (sign -1), truncates the mean/variance series at (J, K), matches the
        third-order coefficient with a gamma of mean m = n*tau, and expands
        the difference about the standardized gamma base.
        """
        _check_n(n)
        sign = 1
        work = table
        a32 = cumulants.standardize(table).get(3, 2)
        if a32 == 0:
            raise cumulants.MatchingError("estimate has zero skewness coefficient")
        if a32 < 0:
            work = table.negated()
            sign = -1
        a_theta = cumulants.standardize(work)
        a_theta_jk = cumulants.JKAdjustedTable(a_theta, J, K)
        a_w_jk = cumulants.JKAdjustedTable(
            cumulants.standardize(cumulants.model_gamma()), J, K)
        tau = cumulants.match_tau(a_theta_jk, a_w_jk)
        diff = cumulants.DiffTable(a_theta_jk, a_w_jk, tau, matched_skew=True)
        s1, s2 = cumulants.truncated_mean_var(work, J, K, n)
        m = float(n) * float(tau)
        return cls(diff, n, basedist.standardized_gamma(m), float(table.theta),
                   math.sqrt(float(table.a21) / float(n)), float(s1),
                   math.sqrt(float(s2)), sign, tau=tau, m=m)

    def _w(self, y):
        return self._slope * (y - self._y0)

    def quantile(self, p, R, exact=None):
        """``quantile_expand`` for the estimate: terms and totals in theta^
        units; ``exact`` is a theta^ quantile.  A mirrored context answers
        at 1 - p and negates every column."""
        if self.sign > 0:
            return _finite(quantile_expand(self, p, R, exact))
        if not 0.0 < 1.0 - p < 1.0:
            raise basedist.DomainError(
                f"probability {p}: a mirrored estimate is expanded at "
                f"1 - p = {1.0 - p}, which is not in (0, 1)")
        res = quantile_expand(self, 1.0 - p, R,
                              None if exact is None else -exact)
        rows = [{k: v if k == "order" else -v for k, v in row.items()}
                for row in res["rows"]]
        return _finite(dict(res, p=p, rows=rows, value=rows[-1]["total"]))

    def cdf(self, y, R):
        """``cdf_expand`` for the estimate: P(Y <= y) to order R."""
        res = cdf_expand(self, self._w(y), R)
        if self.sign < 0:
            res = {"base": 1.0 - res["base"], "value": 1.0 - res["value"],
                   "terms": [-t for t in res["terms"]]}
        return _finite(dict(res, x=y))

    def density(self, y, i, R):
        """``density_expand`` for the estimate: (-d/dy)^i of Y's density at
        y, which is the base-frame answer times |dw/dy| (dw/dy)^i, with
        dw/dy = sign*sigma/scale."""
        res = density_expand(self, self._w(y), i, R)
        jacobian = self._slope ** i * (self.sigma / self.scale)
        return _finite(dict(res, x=y, terms=[t * jacobian for t in res["terms"]],
                            value=res["value"] * jacobian))

    def h_series(self, r):
        """e_r^h for this context's atable, built on first use and kept."""
        if r not in self._h_series:
            self._h_series[r] = e_r_standardized("h", r, self.atable)
        return self._h_series[r]

    def h_row(self, r):
        """e_r^h as a float row: its (k, float(c)) pairs for c H_k, the
        constant at k = 0, in the polynomial's term order."""
        row = self._h_rows.get(r)
        if row is None:
            row = self._h_rows[r] = [(mono[0] if mono else 0, float(c))
                                     for mono, c in self.h_series(r).terms.items()]
        return row

    def validate(self, R):
        """``cumulants.validate_for_order`` at most once per order: a pass at
        R covers every lower order, and a failure raises on every call."""
        if R > self._valid_to:
            cumulants.validate_for_order(self.atable, R)
            self._valid_to = R

    def series_terms(self, x, R, pre, shift=0, lead=None, polys=None):
        """pre * n^{-r/2} * e_r(x) for r = 1..R, after pre * H_lead(x) when
        ``lead`` is given (the density's leading term).

        e_r is the h series, read from its float rows with every index
        raised by ``shift``, or else ``polys[r - 1]`` (the quantile's g
        series).  Every term reads one ``base.h_seq`` table, taken to the
        largest index any order needs: h_seq is prefix-stable, so each
        order reads the values a table of its own would hold."""
        if polys is None:
            evals = [self.h_row(r) for r in range(1, R + 1)]
            top = max((k + shift for row in evals for k, _ in row), default=0)
        else:
            evals = polys
            top = max((poly.max_index() for poly in polys), default=0)
        if lead is not None:
            top = max(top, lead)
        hv = {0: 1.0}
        if top:
            hv.update(enumerate(map(float, self.base.h_seq(x, top)), 1))
        terms = [] if lead is None else [pre * hv[lead]]
        nn = float(self.n)
        for r, e in enumerate(evals, 1):
            terms.append(pre * nn ** (-r / 2.0) * float(hbasis.hp_eval(e, hv, shift)))
        return terms


def _finite(res):
    """``res``, checked finite, with its value's and terms' exact zeros made
    +0.0 (x + 0.0 is x otherwise): -p(x), a mirror or a negative slope
    times zero is -0.0, which prints with its sign."""
    if not math.isfinite(res["value"]):
        raise basedist.NumericError(f"the expansion evaluated to {res['value']}")
    out = dict(res, value=res["value"] + 0.0)
    if "terms" in res:
        out["terms"] = [t + 0.0 for t in res["terms"]]
    if "rows" in res:
        out["rows"] = [{k: v if k == "order" else v + 0.0 for k, v in row.items()}
                       for row in res["rows"]]
    return out


def cdf_expand(ctx, x, R):
    """P_n(x) to order R: base cdf minus density times the h-series.

    Returns the value, the base cdf, and the per-order contributions
    (term r is the whole correction -p(x) n^{-r/2} h_r(x))."""
    if not math.isfinite(x):
        raise basedist.DomainError(f"x = {x} is not finite")
    _check_order(R)
    ctx.validate(R)
    base_value = ctx.base.cdf(x)
    px = ctx.base.pdf(x)
    if not px:
        # off the base's support (or past where its density underflows)
        # every correction carries the factor p(x) = 0: no H-value is needed
        return {"x": x, "base": base_value, "terms": [0.0] * R,
                "value": base_value}
    terms = ctx.series_terms(x, R, -px)
    total = base_value
    for t in terms:
        total += t
    return {"x": x, "base": base_value, "terms": terms, "value": total}


def quantile_expand(ctx, p, R, exact=None):
    """Successive quantile terms and totals at probability p.

    Term 0 is center + scale*x with x the base quantile; term r >= 1 adds
    scale * n^{-r/2} g_r(x).  When ``exact`` is supplied an error column
    (total - exact) is included.
    """
    _check_order(R)
    ctx.validate(R)
    x = ctx.base.inv_cdf(p)  # checks 0 < p < 1
    total = ctx.center + ctx.scale * x
    gs = [e_r_standardized("g", r, ctx.atable) for r in range(1, R + 1)]
    terms = [total] + ctx.series_terms(x, R, ctx.scale, polys=gs)
    rows = []
    for r, term in enumerate(terms):
        if r > 0:
            total += term
        row = {"order": r, "term": term, "total": total}
        if exact is not None:
            row["error"] = total - exact
        rows.append(row)
    return {"p": p, "x": x, "rows": rows, "value": total,
            "diverges_at": divergence_order([row["term"] for row in rows])}


def density_expand(ctx, x, i, R):
    """The i-th sign-alternating density derivative expansion:
    p(x) [H_i(x) + sum_{r<=R} n^{-r/2} h_{ir}(x)]."""
    _check_order(i, hi=math.inf, name="derivative order")
    if not math.isfinite(x):
        raise basedist.DomainError(f"x = {x} is not finite")
    _check_order(R)
    ctx.validate(R)
    px = ctx.base.pdf(x)
    if not px:
        return {"x": x, "i": i, "terms": [0.0] * (R + 1), "value": 0.0}
    terms = ctx.series_terms(x, R, px, shift=i + 1, lead=i)
    total = terms[0]
    for t in terms[1:]:
        total += t
    return {"x": x, "i": i, "terms": terms, "value": total}


def divergence_order(terms):
    """First order at which the nonzero term magnitudes stop decreasing, or
    None.  (Detection only; nothing is resummed.)"""
    mags = [(r, abs(t)) for r, t in enumerate(terms) if abs(t) > 0]
    for (r0, m0), (r1, m1) in zip(mags, mags[1:]):
        if m1 >= m0 and r0 >= 1:
            return r1
    return None


# ---------------------------------------------------------------------------
# term-count accounting
# ---------------------------------------------------------------------------

def _pattern_atable(J, K, matched, rmax=14, imax=20):
    """A fully symbolic coefficient table carrying the (J, K, matched) zero
    pattern: distinct atoms A_{ri} encoded as Poly atoms with index
    100*r + i."""
    entries = {}
    for r in range(1, rmax + 1):
        for i in range(1 if r == 1 else r - 1, imax + 1):
            zero = (r == 1 and i <= J) or (r == 2 and 2 <= i <= K) \
                or (matched and (r, i) == (3, 2))
            if not zero:
                entries[(r, i)] = Poly.atom(100 * r + i)
    return cumulants.ATable(entries, "all", label=f"pattern(J={J},K={K})")


def term_count(kind, r, J, K, matched=True, base="general", drop_multi3=False):
    """(N, M): the number of coefficient monomials in the leading part
    e_r(x, L_0) and in the series-correction part Delta_re, under the zero
    pattern of (J, K) truncation and optional skew matching.

    ``base`` selects which identically-zero e(pi) drop out: "general" keeps
    everything the symbolic tables keep, "normal" also drops coefficients
    that vanish after normal specialization.  ``drop_multi3`` reproduces the
    matched-table accounting in which multi-part partitions containing a 3
    belong to the short (skewless) tables and are not counted in the
    correction part.
    """
    if r == 0:
        return (1, 0)
    _check_order(r)
    atable = _pattern_atable(J, K, matched)
    counts = [0, 0]
    for i, pi, val, c in _bracket_sum(kind, r, atable):
        if base == "normal" and not hbasis.normal_specialize(val):
            continue
        if i >= 1 and drop_multi3 and pi.contains(3) and pi.num_parts >= 2:
            continue
        counts[i >= 1] += len(c.terms) if isinstance(c, Poly) else (1 if c else 0)
    return tuple(counts)


ROW_SCHEDULE = {0: (0, 1), 1: (1, 1), 2: (1, 2), 3: (2, 2), 4: (2, 3),
                5: (3, 3), 6: (3, 4)}


def term_count_cumulative(kind, rmax, schedule=None, matched=True,
                          base="general", drop_multi3=False,
                          include_order0=True):
    """Cumulative (N, M) through order rmax.

    ``schedule`` maps r to its (J, K); by default the per-order ladder
    (0,1), (1,1), (1,2), (2,2), (2,3), (3,3), (3,4).
    """
    schedule = schedule or ROW_SCHEDULE
    n_tot = 1 if include_order0 else 0
    m_tot = 0
    for r in range(1, rmax + 1):
        jr, kr = schedule[r]
        n, m = term_count(kind, r, jr, kr, matched=matched, base=base,
                          drop_multi3=drop_multi3)
        n_tot += n
        m_tot += m
    return (n_tot, m_tot)


def term_count_table(rmax=6):
    """The comparison matrix: per-order and cumulative counts for h, f, g
    under the raw normal expansion and the matched-gamma ladder, through
    the last order of ``ROW_SCHEDULE``."""
    top = max(ROW_SCHEDULE)
    if not 0 <= rmax <= top:
        raise OrderError(f"rmax {rmax} is outside the tabulated (J, K) ladder, "
                         f"which runs from 0 to {top}")
    rows = []
    # running (N, M) sums of the per-order cells, which are what
    # term_count_cumulative adds up under the same schedules
    cums = {kind: ((1, 0), (1, 0)) for kind in ("h", "f", "g")}
    for r in range(0, rmax + 1):
        jr, kr = ROW_SCHEDULE[r]
        for kind in ("h", "f", "g"):
            if r == 0:
                raw = match = (1, 0)
            else:
                raw = term_count(kind, r, 0, 1, matched=False, base="normal")
                match = term_count(kind, r, jr, kr, matched=True,
                                   base="general", drop_multi3=True)
                cum_raw, cum_match = cums[kind]
                cums[kind] = ((cum_raw[0] + raw[0], cum_raw[1] + raw[1]),
                              (cum_match[0] + match[0], cum_match[1] + match[1]))
            cum_raw, cum_match = cums[kind]
            saving = 0.0
            if sum(cum_raw):
                saving = 1.0 - sum(cum_match) / sum(cum_raw)
            rows.append({"kind": kind, "r": r, "J": jr, "K": kr,
                         "raw": raw, "matched": match,
                         "cum_raw": cum_raw, "cum_matched": cum_match,
                         "saving": round(100 * saving)})
            if r == 0:
                break  # the order-0 row does not depend on the kind
    return rows
