"""The expansion core: formal tables, standardized evaluation, redundancy
checks, term counting, and the end-user expansions."""

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cfx import basedist, cumulants, engine, hbasis, oracle
from cfx.bell import Seq
from cfx.hpoly import Poly
from cfx.partitions import Partition

import _engine_routes as routes

H = hbasis.H
ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# formal layer
# ---------------------------------------------------------------------------

def test_h1_h2_structure():
    h1 = dict(engine.h_formal(1).bracket_items())
    assert h1 == {Partition.of(1): Poly.const(1), Partition.of(3): H(2)}
    h2 = dict(engine.h_formal(2).bracket_items())
    assert h2[Partition.of(1, 1)] == H(1)
    assert h2[Partition.of(2)] == H(1)
    assert h2[Partition.of(1, 3)] == H(3)
    assert h2[Partition.of(4)] == H(3)
    assert h2[Partition.of(3, 3)] == H(5)
    assert len(h2) == 5


def test_h_coefficients_are_single_symbols():
    # every h-table value is H_{|pi|-1} with coefficient one
    for r in range(1, 7):
        for pi, val in engine.coefficient_table("h", r):
            assert val == H(pi.size - 1), (r, pi.text())


def test_tables_have_integer_coefficients():
    # in the bracket basis every coefficient of h, f and g is an integer,
    # and the tables store it as one
    for kind in ("h", "f", "g"):
        for r in range(1, 9):
            for pi, val in engine.coefficient_table(kind, r):
                assert all(type(c) is int for c in val.terms.values()), \
                    (kind, r, pi.text())


def lpolys():
    partition = st.dictionaries(st.integers(min_value=1, max_value=4),
                                st.integers(min_value=1, max_value=3),
                                max_size=3).map(Partition)
    mono = st.lists(st.integers(min_value=1, max_value=3), max_size=2)
    value = st.dictionaries(mono.map(lambda m: tuple(sorted(m))),
                            st.integers(min_value=-5, max_value=5),
                            max_size=3).map(Poly)
    return st.dictionaries(partition, value, max_size=4).map(engine.LPoly)


def plain_monomials(lpoly):
    # bracket coefficients -> coefficients of prod_k L_k^{i_k}
    return {pi: val * F(1, pi.norm) for pi, val in lpoly.terms.items()}


@given(lpolys(), lpolys())
def test_lpoly_product_matches_plain_monomials(p, q):
    want = {}
    for p1, v1 in plain_monomials(p).items():
        for p2, v2 in plain_monomials(q).items():
            part = p1.times(p2)[0]
            want[part] = want.get(part, Poly()) + v1 * v2
    want = {pi: val for pi, val in want.items() if val}
    assert plain_monomials(p * q) == want


def test_exact_division_raises_on_remainder():
    p = H(1) * 6 - H(2) * H(3) * 4
    q = p.exact_div(2)
    assert q == H(1) * 3 - H(2) * H(3) * 2
    assert all(type(c) is int for c in q.terms.values())
    with pytest.raises(ArithmeticError):
        p.exact_div(4)
    lp = engine.LPoly.monomial(Partition.of(1, 1), p)
    assert lp.exact_div(2) == engine.LPoly.monomial(Partition.of(1, 1), q)
    with pytest.raises(ArithmeticError):
        lp.exact_div(3)
    with pytest.raises(ArithmeticError):
        Poly.const(F(1, 2)).exact_div(1)


def test_crk_two_paths_agree():
    for r in range(1, 7):
        for k in range(r, 3 * r + 1):
            assert engine.crk(r, k) == oracle.crk_recurrence(r, k), (r, k)


def test_crk_spot_values():
    c24 = engine.crk(2, 4)
    assert dict(c24.bracket_items()) == {Partition.of(4): Poly.const(1),
                                         Partition.of(1, 3): Poly.const(1)}
    c26 = engine.crk(2, 6)
    assert dict(c26.bracket_items()) == {Partition.of(3, 3): Poly.const(1)}
    for r in range(1, 6):
        top = engine.crk(r, 3 * r)
        assert dict(top.bracket_items()) == {Partition({3: r}): Poly.const(1)}
    c46 = dict(engine.crk(4, 6).bracket_items())
    assert {p.text() for p in c46} == {"6", "1 5", "1^2 4", "2 4", "1^3 3", "1 2 3"}


def test_fgh_agree_at_order_one():
    assert engine.fg_formal("f", 1) == engine.fg_formal("g", 1) == engine.h_formal(1)


def test_f4_assembles_from_bell_terms():
    # f4 = h4 - c2(h1 h3 + h2^2/2) + c3 h1^2 h2 / 2 - c4 h1^4 / 24
    h = [engine.h_formal(r) for r in range(1, 5)]
    want = (h[3]
            - (h[0] * h[2] + h[1] * h[1] * F(1, 2)) * hbasis.c_function(2)
            + h[0] * h[0] * h[1] * hbasis.c_function(3) * F(1, 2)
            - h[0] * h[0] * h[0] * h[0] * hbasis.c_function(4) * F(1, 24))
    assert engine.fg_formal("f", 4) == want


_BUILD_IN_ORDER = """
import contextlib, io, json, sys
from cfx import cli, engine
for kind, r in json.loads(sys.argv[1]):
    engine.fg_formal(kind, r)
for kind in ("f", "g"):
    print(json.dumps(engine.export_table_json(kind, 8), sort_keys=True))
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["quantile", "--model", "lnF", "--n1", "24", "--n2", "60",
                     "--p", "0.95", "--order", "8", "--format", "json"])
print(code, out.getvalue())
"""


def test_build_order_does_not_change_tables():
    # the Bell table over (h_1, h_2, ...) is shared by every order and both
    # kinds; rows read before the sequence grew must not go stale
    def run(order):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", _BUILD_IN_ORDER,
                               json.dumps(order)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    ascending = [(kind, r) for kind in ("g", "f") for r in range(1, 9)]
    shuffled = [("f", 8), ("g", 8)] + [("g", r) for r in range(1, 8)]
    want = run(ascending)
    assert want.splitlines()[2].startswith("0 {")
    assert run(shuffled) == want


def test_structural_zero_laws():
    for r in range(2, 7):
        f = dict(engine.coefficient_table("f", r))
        g = dict(engine.coefficient_table("g", r))
        assert Partition({1: r}) not in f  # f(1^i) = 0
        for pi in g:
            assert not (pi.contains(1) and pi.num_parts >= 2)  # g(1 pi) = 0


def test_special_form_identities():
    # f(1, k+1) is minus the derivative of H_k: H_{k+1} - H_1 H_k
    for k in range(2, 7):
        pi = Partition.of(1, k + 1)
        table = dict(engine.coefficient_table("f", pi.weight))
        assert table[pi] == H(k + 1) - H(1) * H(k), k
        assert table[pi] == -routes.hermite_derivative(k, 1), k
    # f(1^{i-1} 2) is the cumulant polynomial of the H sequence
    from cfx import bell
    hseq = bell.Seq([H(j) for j in range(1, 8)])
    for i in range(2, 6):
        pi = Partition({1: i - 1, 2: 1})
        table = dict(engine.coefficient_table("f", pi.weight))
        kappa = sum((((-1) ** (j - 1)) * math.factorial(j - 1)
                     * routes.exponential_bell(i, j, hseq) for j in range(1, i + 1)),
                    Poly())
        assert table[pi] == kappa, i
    # g(2k) = H_{k+1} - H_1 H_k - H_{k-1}(H_2 - H_1^2)
    for k in range(2, 6):
        pi = Partition.of(2, k)
        table = dict(engine.coefficient_table("g", pi.weight))
        want = H(k + 1) - H(1) * H(k) - H(k - 1) * (H(2) - H(1) ** 2)
        assert table[pi] == want, k


def test_g_normal_two_multiplication_law():
    # at the normal base, prepending a part 2 multiplies by (1 - |pi|)
    for pi_parts in [(3, 3), (3, 4), (4, 4), (3, 3, 3), (3, 5), (3, 3, 4)]:
        pi = Partition.of(*pi_parts)
        pi2 = Partition.of(2, *pi_parts)
        t1 = routes.normal_table("g", pi.weight)
        t2 = routes.normal_table("g", pi2.weight)
        assert t2[pi2] == (1 - pi.size) * t1[pi], pi.text()


def test_g_independent_of_L1():
    # beyond order one no partition containing a 1 survives in g
    for r in range(2, 7):
        for pi, val in engine.coefficient_table("g", r):
            assert not pi.contains(1)


def test_export_json_stable():
    doc = engine.export_table_json("g", 2, basis="x")
    assert doc["kind"] == "g" and doc["r"] == 2
    texts = [t["partition"] for t in doc["terms"]]
    assert texts == sorted(texts, key=lambda s: (routes.parse_partition(s).size,
                                                 routes.parse_partition(s).parts()))
    import json
    json.dumps(doc)  # serializable
    assert doc == engine.export_table_json("g", 2, basis="x")


# ---------------------------------------------------------------------------
# standardized layer
# ---------------------------------------------------------------------------

def random_pattern_table(J, K, matched=True, seed=7):
    rnd = random.Random(seed)
    entries = {}
    for r in range(1, 11):
        for i in range(max(1, r - 1), 14):
            zero = ((r == 1 and i <= J) or (r == 2 and 2 <= i <= K)
                    or (matched and (r, i) == (3, 2)))
            if not zero:
                entries[(r, i)] = F(rnd.randint(-20, 20), rnd.randint(1, 9))
    t = cumulants.ATable({}, "all", label=f"rand({J},{K})")
    t.entries = {k: v for k, v in entries.items() if v}
    return t


def test_nabla_closed_forms():
    # under (J=3, K=4) with matching: nabla_2 = Abar43 H3,
    # nabla_5 = Abar34 H2 + Abar55 H4 + Abar76 H6
    A = random_pattern_table(3, 4)
    assert routes.nabla_r(2, A) == A.abar(4, 3) * H(3)
    assert routes.nabla_r(1, A) == Poly()  # J >= 1 and matched skew
    assert routes.nabla_r(3, A) == A.abar(3, 3) * H(2) + A.abar(5, 4) * H(4)
    assert routes.nabla_r(4, A) == A.abar(4, 4) * H(3) + A.abar(6, 5) * H(5)
    assert routes.nabla_r(5, A) == (A.abar(3, 4) * H(2) + A.abar(5, 5) * H(4)
                                    + A.abar(7, 6) * H(6))
    assert routes.nabla_r(6, A) == (A.abar(4, 5) * H(3) + A.abar(6, 6) * H(5)
                                    + A.abar(8, 7) * H(7))


def test_delta3_closed_form():
    A = random_pattern_table(0, 1, matched=False)
    # order-3 series correction: A12 + Abar33 H2 for every kind
    L_terms = A.get(1, 2) + A.abar(3, 3) * H(2)
    for kind in ("h", "f", "g"):
        e3 = engine.e_r_standardized(kind, 3, A)
        lead = engine.e_r_standardized(kind, 3, _zero_correction_copy(A))
        assert e3 - lead == L_terms, kind


def _zero_correction_copy(A):
    # keep only the leading series coefficient of every row
    t = cumulants.ATable({}, "all", label="lead")
    keep = {}
    for (r, i), v in A.entries.items():
        d = 1 if r >= 3 else 0
        if i == r - d:
            keep[(r, i)] = v
    t.entries = keep
    return t


def test_split_equals_generic_under_regimes():
    regimes = {1: (1, 1), 2: (1, 2), 3: (2, 2), 4: (2, 3), 5: (3, 3), 6: (3, 4)}
    for r, (J, K) in regimes.items():
        A = random_pattern_table(J, K)
        for kind in ("h", "f", "g"):
            assert engine.e_r_standardized(kind, r, A) == routes.e_r_closed(kind, r, A), (kind, r)


def _covered_order(atable, top=8):
    """The highest order <= top whose coefficients ``atable`` declares."""
    for r in range(1, top + 1):
        try:
            cumulants.validate_for_order(atable, r)
        except cumulants.ModelOrderError:
            return r - 1
    return top


def test_bracket_sum_keeps_term_order():
    """``e_r_standardized`` sums every bracket into one dict (in integers
    over a common denominator when the coefficients are exact); its terms
    equal the bracket-by-bracket Fraction sum's, value and type, in the same
    order, which the float evaluation's summation order follows.  Every
    built-in model raw and matched at each (J, K) of ``ROW_SCHEDULE`` it
    covers, a float-valued model and a symbolic pattern table."""
    models = [cumulants.model_lnF(24, 60), cumulants.model_gamma(),
              cumulants.model_sample_variance(
                  {2: 1, 3: 2, 4: 9, 5: 44, 6: 265, 7: 1854, 8: 14833,
                   10: 1334961}),
              cumulants.model_studentized_mean(2, 9, 44)]
    tables = []
    for table in models:
        tables.append(engine.ExpansionContext.raw(table, 50).atable)
        for J, K in sorted(set(engine.ROW_SCHEDULE.values())):
            try:
                ctx = engine.ExpansionContext.matched_gamma(table, 50, J, K)
            except cumulants.ModelOrderError:
                continue
            tables.append(ctx.atable)
    raw = cumulants.standardize(models[0])
    floats = cumulants.ATable({k: float(v) for k, v in raw.entries.items()},
                              raw.defined, label="lnF(24,60) in floats")
    cases = [(A, _covered_order(A)) for A in tables + [floats]]
    cases.append((engine._pattern_atable(2, 3, True), 5))
    for A, top in cases:
        assert top >= 2, A.label
        for kind in ("h", "f", "g"):
            for r in range(1, top + 1):
                got = list(engine.e_r_standardized(kind, r, A).terms.items())
                want = list(routes.e_r_by_bracket(kind, r, A).terms.items())
                assert got == want, (A.label, kind, r)
                assert [type(c) for _, c in got] == [type(c) for _, c in want]


def test_e1_vanishes_when_matched_and_centered():
    A = random_pattern_table(1, 1)
    for kind in ("h", "f", "g"):
        assert not engine.e_r_standardized(kind, 1, A)


def test_all_zero_model_gives_zero_expansions():
    t = cumulants.ATable({}, "all", label="null")
    for kind in ("h", "f", "g"):
        for r in range(1, 6):
            assert not engine.e_r_standardized(kind, r, t)


def test_order_guard():
    # one guard, engine.MAX_ORDER = 12, for every entry point that takes an
    # order
    assert engine.MAX_ORDER == 12
    ctx = lnf_ctx()
    for call in (lambda r: engine.h_formal(r), lambda r: engine.crk(r, r),
                 lambda r: engine.fg_formal("g", r),
                 lambda r: engine.e_r_standardized("h", r, ctx.atable),
                 lambda r: engine.cdf_expand(ctx, 0.5, r),
                 lambda r: engine.quantile_expand(ctx, 0.5, r),
                 lambda r: ctx.density(0.5, 0, r)):
        with pytest.raises(engine.OrderError, match="0..12"):
            call(engine.MAX_ORDER + 1)
    with pytest.raises(engine.OrderError):
        engine.cdf_expand(ctx, 0.5, -1)
    # the tables start at order 1; the density's derivative order at 0
    for call in (engine.h_formal, lambda r: engine.crk(r, 3),
                 lambda r: engine.fg_formal("g", r),
                 lambda r: engine.fg_formal("f", r)):
        with pytest.raises(engine.OrderError):
            call(0)
    with pytest.raises(engine.OrderError):
        engine.density_expand(ctx, 0.5, -1, 2)


@pytest.mark.parametrize("n", [0, -5, math.nan, math.inf, F(10 ** 400),
                               F(1, 10 ** 400), 5e-324])
@pytest.mark.parametrize("constructor", ["raw", "matched_gamma"])
def test_bad_sample_size_is_a_model_error(constructor, n):
    # checked before any arithmetic, whoever calls
    table = cumulants.model_studentized_mean(F(2), F(9), F(44))
    with pytest.raises(cumulants.ModelError, match="sample-size"):
        getattr(engine.ExpansionContext, constructor)(table, n)


def test_missing_coefficient_is_named():
    st = cumulants.standardize(cumulants.model_studentized_mean(F(2), F(9), F(44)))
    with pytest.raises(cumulants.ModelOrderError, match=r"\(\d+,\d+\)"):
        engine.e_r_standardized("g", 3, st)


# ---------------------------------------------------------------------------
# evaluation layer
# ---------------------------------------------------------------------------

def lnf_ctx():
    t = cumulants.model_lnF(24, 60)
    return engine.ExpansionContext.raw(t, F(2 * 24 * 60, 84))


def test_cdf_order1_closed_form():
    # only A11 and A32 nonzero: the first correction is
    # -phi(x) n^{-1/2} (A11 + (A32/6)(x^2 - 1))
    t = cumulants.CumulantTable(F(0), F(1), {(1, 1): F(1, 3), (3, 2): F(5, 4)},
                                "all", label="toy")
    n = 400.0
    ctx = engine.ExpansionContext.raw(t, n)
    x = 0.9
    res = engine.cdf_expand(ctx, x, 1)
    phi = basedist.normal_pdf(x)
    want = -phi / math.sqrt(n) * (float(F(1, 3)) + float(F(5, 4)) / 6 * (x * x - 1))
    assert abs(res["terms"][0] - want) < 1e-15
    assert abs(res["value"] - (basedist.normal_cdf(x) + want)) < 1e-15
    res0 = engine.cdf_expand(ctx, x, 0)
    assert res0["value"] == basedist.normal_cdf(x)


def test_quantile_order0():
    ctx = lnf_ctx()
    res = engine.quantile_expand(ctx, 0.95, 0)
    x = basedist.normal_inv_cdf(0.95)
    assert abs(res["value"] - ctx.scale * x) < 1e-15


def test_non_finite_x_is_a_domain_error():
    ctx = lnf_ctx()
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(basedist.DomainError):
            engine.cdf_expand(ctx, x, 2)
        with pytest.raises(basedist.DomainError):
            engine.density_expand(ctx, x, 0, 2)


def test_density_consistency_with_cdf():
    ctx = lnf_ctx()
    step = 1e-4
    for x in (0.3, 1.1):
        num = (engine.cdf_expand(ctx, x + step, 3)["value"]
               - engine.cdf_expand(ctx, x - step, 3)["value"]) / (2 * step)
        den = engine.density_expand(ctx, x, 0, 3)["value"]
        assert abs(num - den) <= 1e-5 * abs(den)


def test_density_derivative_shift_structure():
    # the order-3 correction terms of the i-th derivative expansion carry
    # A12 H_{i+1} + Abar33 H_{i+3} (+ skew pieces), checked against a direct
    # bracket evaluation for a toy model with only A12, A33 nonzero
    t = cumulants.ATable({}, "all", label="toy")
    t.entries = {(1, 2): F(1, 2), (3, 3): F(3)}
    base = basedist.normal()
    x = 0.4
    for i in (0, 1, 2):
        poly = engine._density_e(engine.e_r_standardized("h", 3, t), i)
        hv = base.h_seq(x, 10)
        got = hbasis.hp_eval(poly, Seq(hv))
        want = (float(F(1, 2)) * hv[i + 1 - 1] + float(F(3)) / 6 * hv[i + 3 - 1])
        assert abs(got - want) < 1e-12


CONTEXTS = [
    lambda: lnf_ctx(),
    lambda: engine.ExpansionContext.matched_gamma(
        cumulants.model_lnF(60, 24), F(2 * 24 * 60, 84))]
CONTEXT_IDS = ["raw-lnF24-60", "gamma-lnF60-24"]


@pytest.mark.parametrize("make", CONTEXTS, ids=CONTEXT_IDS)
def test_h_series_built_once_per_context(make, monkeypatch):
    # the context keeps e_r^h and its float row: 50 cdf and 50 density
    # points at R = 8 standardize each order once, build each row once,
    # validate the model's order once, and answer as a fresh context does
    # when it walks the same points backwards, density first
    def answers(ctx, points):
        return {(kind, x): repr(engine.cdf_expand(ctx, x, 8) if kind == "cdf"
                                else engine.density_expand(ctx, x, 0, 8))
                for kind, x in points}

    points = [(kind, -2.45 + 0.1 * k) for k in range(50)
              for kind in ("cdf", "density")]
    ctx, fresh = make(), make()
    calls, rows, checks = [], {}, []
    build = engine.e_r_standardized
    monkeypatch.setattr(engine, "e_r_standardized",
                        lambda *a: calls.append(a[:2]) or build(*a))
    h_row = engine.ExpansionContext.h_row
    monkeypatch.setattr(engine.ExpansionContext, "h_row",
                        lambda self, r: rows.setdefault((id(self), r), []).append(
                            h_row(self, r)) or rows[id(self), r][-1])
    validate = cumulants.validate_for_order
    monkeypatch.setattr(cumulants, "validate_for_order",
                        lambda *a: checks.append(a[1]) or validate(*a))
    got = answers(ctx, points)
    assert sorted(calls) == [("h", r) for r in range(1, 9)]
    assert checks == [8]
    assert sorted(r for _, r in rows) == list(range(1, 9))
    assert all(len(built) == 100 and all(row is built[0] for row in built)
               for built in rows.values())
    assert got == answers(fresh, points[::-1])

    # a table that lacks an order-2 coefficient: order 1 passes once and
    # is remembered, order 2 raises on every call
    short = cumulants.CumulantTable(F(0), F(1), {(1, 1): F(1, 3)},
                                    defined={(1, 1), (3, 2)}, label="short")
    sctx = engine.ExpansionContext.raw(short, 50)
    checks.clear()
    for _ in range(3):
        engine.cdf_expand(sctx, 0.3, 1)
        for kernel in (lambda: engine.cdf_expand(sctx, 0.3, 2),
                       lambda: engine.density_expand(sctx, 0.3, 1, 2),
                       lambda: engine.quantile_expand(sctx, 0.3, 2)):
            with pytest.raises(cumulants.ModelOrderError):
                kernel()
    assert checks == [1] + [2] * 9


@pytest.mark.parametrize("make", CONTEXTS, ids=CONTEXT_IDS)
def test_float_rows_match_per_order_route(make, monkeypatch):
    # every cdf, density (i = 0, 1, 2) and quantile answer read from the
    # float rows and one H-value table per point is bit for bit the answer
    # of a fresh h_seq table and an exact-polynomial hp_eval per order, on
    # a grid with points off the gamma support and where p(x) underflows;
    # the g polynomials are standardized once and shared by both routes
    ctx = make()
    xs = [-6.0 + 0.5 * k for k in range(25)] + [0.05, -0.0]
    if ctx.base.kind == "normal":
        xs += [37.0, -38.0, 38.5, 39.0, -40.0]
    else:
        xs += [-20.0, -14.0, -13.6, -13.5, -13.0, -12.5, 30.0, 60.0, 100.0]
    for R in range(1, 11):
        for x in xs:
            assert repr(engine.cdf_expand(ctx, x, R)) == \
                repr(routes.cdf_per_order(ctx, x, R)), (R, x)
            for i in (0, 1, 2):
                assert repr(engine.density_expand(ctx, x, i, R)) == \
                    repr(routes.density_per_order(ctx, x, i, R)), (R, x, i)

    gs = {}
    build = engine.e_r_standardized
    monkeypatch.setattr(engine, "e_r_standardized",
                        lambda kind, r, t: gs.get(r) or gs.setdefault(r, build(kind, r, t)))
    for R in range(1, 11):
        for p in (0.01, 0.05, 0.3, 0.5, 0.7, 0.95, 0.99):
            rows = engine.quantile_expand(ctx, p, R)["rows"]
            assert repr([row["term"] for row in rows]) == repr(
                routes.quantile_terms_per_order(ctx, p, R, gs.get)), (R, p)


def test_density_all_zero_model():
    t = cumulants.CumulantTable(F(0), F(1), {}, "all", label="zero")
    ctx = engine.ExpansionContext.raw(t, 50)
    assert abs(engine.density_expand(ctx, 0.4, 0, 4)["value"]
               - basedist.normal_pdf(0.4)) < 1e-15


def test_normal_parity_of_h():
    # for the symmetric base, the order-r correction has parity opposite to
    # r: even r gives odd functions (so they survive the folded two-sided
    # distribution), odd r gives even functions (they cancel in it)
    t = cumulants.ATable({}, "all", label="toy")
    t.entries = {(1, 1): F(1, 4), (3, 2): F(2, 3), (1, 2): F(1, 5),
                 (2, 2): F(1, 2), (4, 3): F(3), (3, 3): F(1), (5, 4): F(7, 2),
                 (2, 3): F(1, 7), (4, 4): F(2), (6, 5): F(5)}
    base = basedist.normal()
    for r in (1, 2, 3, 4):
        poly = engine.e_r_standardized("h", r, t)
        sign = 1.0 if r % 2 else -1.0  # even(+) for odd r, odd(-) for even r
        for x in (0.4, 1.3):
            up = hbasis.hp_eval(poly, Seq(base.h_seq(x, 20)))
            dn = hbasis.hp_eval(poly, Seq(base.h_seq(-x, 20)))
            assert abs(dn - sign * up) < 1e-9 * max(1.0, abs(up)), (r, x)


def test_matched_gamma_context():
    t = cumulants.model_lnF(24, 60)
    n = F(2 * 24 * 60, 84)
    ctx = engine.ExpansionContext.matched_gamma(t, n, J=1, K=1)
    assert ctx.flipped  # the half-log-F statistic is left-skewed here
    assert ctx.tau == F(49, 9)
    assert abs(ctx.m - float(n) * 49 / 9) < 1e-12
    assert ctx.atable.get(3, 2) == 0
    res = engine.quantile_expand(ctx, 0.05, 1)
    assert res["rows"][1]["term"] == 0.0  # e1 vanishes at J = K = 1


def test_matched_gamma_quantile_accuracy():
    from cfx import oracle
    t = cumulants.model_lnF(24, 60)
    n = F(2 * 24 * 60, 84)
    exact = oracle.exact_lnF_quantile(24, 60, 0.95)
    ctx = engine.ExpansionContext.matched_gamma(t, n, J=1, K=1)
    # quantiles map through the mirror: Q_theta(p) = -Q_mirror(1 - p)
    err1 = -engine.quantile_expand(ctx, 0.05, 1)["value"] - exact
    err4 = -engine.quantile_expand(ctx, 0.05, 4)["value"] - exact
    assert abs(err1) < 5e-3
    assert abs(err4) < 1e-3
    assert abs(err4) < abs(err1)


def test_divergence_detector():
    assert engine.divergence_order([1.0, 0.5, 0.2, 0.1]) is None
    assert engine.divergence_order([1.0, 0.5, 0.6, 0.1]) == 2
    assert engine.divergence_order([1.0, 0.0, 0.5, 0.4, 0.45]) == 4


def test_term_counts_reference_rows():
    assert engine.term_count("g", 4, 0, 1, matched=False, base="normal") == (8, 3)
    assert engine.term_count("g", 5, 0, 1, matched=False, base="normal") == (11, 8)
    assert engine.term_count("h", 4, 0, 1, matched=False, base="normal") == (17, 6)
    assert engine.term_count("g", 1, 1, 1, matched=True) == (0, 0)
    assert engine.term_count("g", 5, 0, 1, matched=True, base="general") == (3, 5)
    assert engine.term_count("g", 5, 1, 2, matched=True, base="general") == (2, 4)


def test_term_count_headlines():
    raw = engine.term_count_cumulative(
        "g", 6, schedule={r: (0, 1) for r in range(7)}, matched=False,
        base="normal")
    assert raw == (48, 29)
    matched = engine.term_count_cumulative("g", 6, matched=True,
                                           base="general", drop_multi3=True)
    assert matched == (11, 7)
    assert round(100 * (1 - sum(matched) / sum(raw))) == 77
    f_raw = engine.term_count_cumulative(
        "f", 3, schedule={r: (0, 1) for r in range(4)}, matched=False,
        base="normal", include_order0=False)
    assert f_raw == (14, 2)
    f_matched = engine.term_count_cumulative(
        "f", 3, schedule={r: (2, 2) for r in range(4)}, matched=True,
        base="general")
    assert f_matched == (3, 1)
    assert round(100 * (1 - sum(f_matched) / (sum(f_raw)))) == 75


def test_inverse_map_scaling():
    lvals = [1.0, 0.5, 0.7, 0.4, 0.3, 0.2, 0.15, 0.1, 0.08, 0.05, 0.04, 0.03,
             0.02, 0.02, 0.01]
    base = basedist.normal()
    x = 0.4
    import numpy as np
    for R in (2, 3, 4):
        errs = []
        for n in (100.0, 1000.0, 10000.0):
            Fm, Gm = routes.formal_series_maps(R, lvals, base, n)
            errs.append(abs(Fm(Gm(x)) - x))
        slope = np.polyfit(np.log([1e2, 1e3, 1e4]), np.log(errs), 1)[0]
        assert slope <= -(R + 1) / 2 + 0.1, (R, slope, errs)


def test_density_delta4_closed_form():
    # the order-4 correction of the i-th derivative expansion:
    # (A11 A12 + Abar23) H_{i+2} + (A12 Abar32 + A11 Abar33 + Abar44) H_{i+4}
    # + Abar32 Abar33 H_{i+6}
    t = cumulants.ATable({}, "all", label="toy")
    vals = {(1, 1): F(1, 3), (1, 2): F(2, 7), (2, 3): F(1, 5), (3, 2): F(3, 4),
            (3, 3): F(5, 6), (4, 4): F(1, 2)}
    t.entries = dict(vals)
    for i in (0, 2):
        full = engine._density_e(engine.e_r_standardized("h", 4, t), i)
        lead = engine._density_e(
            engine.e_r_standardized("h", 4, _zero_correction_copy(t)), i)
        delta = full - lead
        ab = t.abar
        want = ((t.get(1, 1) * t.get(1, 2) + ab(2, 3)) * H(i + 2)
                + (t.get(1, 2) * ab(3, 2) + t.get(1, 1) * ab(3, 3)
                   + ab(4, 4)) * H(i + 4)
                + ab(3, 2) * ab(3, 3) * H(i + 6))
        assert delta == want, i


def test_cdf_series_converges_to_exact_lnF():
    # end-to-end check of the cdf-correction path: the expansion must close
    # in on the exact distribution (via the incomplete beta) as the order
    # grows, across the body and both tails
    from cfx import oracle
    ctx = lnf_ctx()
    sq = math.sqrt(float(ctx.n))
    for x in (-1.5, -0.5, 0.5, 1.645, 2.3):
        exact = oracle.lnF_cdf(24, 60, x / sq)
        e2 = abs(engine.cdf_expand(ctx, x, 2)["value"] - exact)
        e4 = abs(engine.cdf_expand(ctx, x, 4)["value"] - exact)
        e6 = abs(engine.cdf_expand(ctx, x, 6)["value"] - exact)
        assert e2 <= 5e-4 and e4 <= 1e-5 and e6 <= 5e-7, (x, e2, e4, e6)
        assert e6 < e4 < e2, x


def test_density_higher_derivatives_match_differences():
    # (-D)^{i+1} p_n is minus the derivative of (-D)^i p_n
    ctx = lnf_ctx()
    step = 1e-4
    for i in (0, 1):
        for x in (0.2, 0.9):
            up = engine.density_expand(ctx, x + step, i, 3)["value"]
            dn = engine.density_expand(ctx, x - step, i, 3)["value"]
            num = -(up - dn) / (2 * step)
            got = engine.density_expand(ctx, x, i + 1, 3)["value"]
            assert abs(num - got) <= 1e-5 * max(1.0, abs(got)), (i, x)


def test_concurrent_evaluation_after_build():
    # build the symbolic tables once, then hammer evaluations from threads;
    # results must match the single-threaded ones exactly
    from concurrent.futures import ThreadPoolExecutor
    ctx = lnf_ctx()
    engine.fg_formal("g", 4)  # build phase, single-threaded
    xs = [0.1 * k for k in range(1, 25)]
    want = [engine.cdf_expand(ctx, x, 4)["value"] for x in xs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        got = list(pool.map(lambda x: engine.cdf_expand(ctx, x, 4)["value"], xs))
    assert got == want


def test_matched_gamma_cdf_against_exact_lnF():
    # the whole skew-matched pipeline, checked against the exact law: the
    # context describes the mirrored centered estimate, so
    # P(Y' <= x) = 1 - F(-(s1 + scale x)) with F the half-log-F cdf
    from cfx import oracle
    t = cumulants.model_lnF(24, 60)
    n = F(2 * 24 * 60, 84)
    ctx = engine.ExpansionContext.matched_gamma(t, n, J=1, K=1)
    for x in (-1.5, -0.5, 0.5, 1.5):
        exact = 1.0 - oracle.lnF_cdf(24, 60, -(ctx.center + ctx.scale * x))
        e0 = engine.cdf_expand(ctx, x, 0)["value"] - exact
        e1 = engine.cdf_expand(ctx, x, 1)["value"] - exact
        e2 = engine.cdf_expand(ctx, x, 2)["value"] - exact
        e4 = engine.cdf_expand(ctx, x, 4)["value"] - exact
        assert e1 == e0  # the order-1 correction vanishes identically
        assert abs(e0) <= 5e-3 and abs(e2) <= 5e-4 and abs(e4) <= 2e-5, (x, e0, e2, e4)
        assert abs(e4) < abs(e2) < abs(e0), x
