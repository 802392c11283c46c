"""Skew-matched gamma expansions: fewer terms for the same accuracy.

Expanding about a gamma whose shape is tuned so that the third-order
cumulant coefficients cancel kills the skewness series.  With the mean and
variance series also truncated away (J = K = 1) the order-1 correction
vanishes identically, so the *zeroth* order gamma approximation is already
accurate to O(1/n) instead of O(n^{-1/2})."""

from fractions import Fraction

from cfx import cumulants, engine, oracle

n1, n2 = 24, 60
table = cumulants.model_lnF(n1, n2)
n = Fraction(2 * n1 * n2, n1 + n2)
exact = oracle.exact_lnF_quantile(n1, n2, 0.95)

print("Target: the 95th percentile of (1/2) ln F(24,60), exact %.8f\n" % exact)

raw = engine.ExpansionContext.raw(table, n)
res_raw = engine.quantile_expand(raw, 0.95, 4, exact=exact)

ctx = engine.ExpansionContext.matched_gamma(table, n, J=1, K=1)
print(f"matched gamma: tau = {ctx.tau} (exact rational), shape m = n*tau = {ctx.m:.4f}")
print(f"reflected gamma base (negative skew): {ctx.flipped}")
res_g = ctx.quantile(0.95, 4)  # answered in the estimate's own frame

print("\norder   normal-base error   gamma-base error")
for r in range(0, 5):
    err_n = res_raw["rows"][r]["total"] - exact
    err_g = res_g["rows"][r]["total"] - exact
    print(f"{r:>5}   {err_n:+.8f}        {err_g:+.8f}")

print("\nThe order-0 gamma error is already below the order-1 normal error,")
print("and the order-1 gamma term vanishes identically (the matching at work).")

n_raw = engine.term_count_cumulative("g", 6, schedule={r: (0, 1) for r in range(7)},
                                     matched=False, base="normal")
n_match = engine.term_count_cumulative("g", 6, matched=True, base="general",
                                       drop_multi3=True)
print(f"\nterm bookkeeping through order 6: {n_raw[0]}+{n_raw[1]} coefficients")
print(f"for the plain normal expansion vs {n_match[0]}+{n_match[1]} for the")
print(f"matched-gamma ladder: a saving of "
      f"{round(100 * (1 - sum(n_match) / sum(n_raw)))} percent.")
