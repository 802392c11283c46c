"""Distribution and density expansions validated against simulation.

The Studentized mean of a skewed population converges slowly to normality;
the order-2 expansion captures the skew and kurtosis corrections, landing
within Monte-Carlo noise of the truth at a sample size of 200."""

from cfx import cumulants, engine, oracle

nu = cumulants.STANDARDIZED_EXPONENTIAL
table = cumulants.model_studentized_mean(**nu)
n = 200
ctx = engine.ExpansionContext.raw(table, n)
spec = {"model": "studentized_mean", "population": "standardized_exponential"}

print("P(sqrt(n) * mean / sd <= x), exponential population, n = 200\n")
print("   x    normal    order-1   order-2   simulation (N=300k)")
xs = (-1.5, -1.0, 0.0, 1.0, 1.5)
sims = oracle.mc_cdf(spec, n, xs, 300_000, seed=20240)  # one simulation, every x
for x, (mc, se) in zip(xs, sims):
    p0 = engine.cdf_expand(ctx, x, 0)["value"]
    p1 = engine.cdf_expand(ctx, x, 1)["value"]
    p2 = engine.cdf_expand(ctx, x, 2)["value"]
    print(f"{x:+.1f}   {p0:.5f}   {p1:.5f}   {p2:.5f}   {mc:.5f} (se {se:.5f})")

print("\nDensity expansion at the same order, checked against the")
print("derivative of the distribution expansion:")
x = 0.7
d = engine.density_expand(ctx, x, 0, 2)["value"]
h = 1e-4
num = (engine.cdf_expand(ctx, x + h, 2)["value"]
       - engine.cdf_expand(ctx, x - h, 2)["value"]) / (2 * h)
print(f"  density at {x}: {d:.8f};  d/dx of the cdf expansion: {num:.8f}")
