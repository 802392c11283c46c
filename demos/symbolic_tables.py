"""Walk through the symbolic layer: partition-indexed expansion tables.

Each expansion order r is a finite sum over integer partitions pi (weighted
so that parts 1 and 2 count themselves and larger parts count two less).
The cdf correction h_r attaches a single derivative-ratio symbol to each
partition; the forward and inverse quantile maps f_r and g_r attach genuine
polynomials, produced by the inversion ladder.  Everything is exact."""

from cfx import engine, hbasis

print("The cdf-correction table at order 2 (every coefficient one symbol):")
for pi, val in engine.coefficient_table("h", 2):
    print(f"  h({pi.text()}) = {val.text()}")

print("\nThe inverse quantile map at order 2:")
for pi, val in engine.coefficient_table("g", 2):
    print(f"  g({pi.text()}) = {val.text()}")

print("\nThe same, specialized to the standard normal base (polynomials in x):")
for pi, val in engine.coefficient_table("g", 2):
    spec = hbasis.normal_specialize(val)
    if spec:
        print(f"  g({pi.text()}) = {spec.text('x')}")

print("\nAnd in the log-density derivative symbols:")
for pi, val in engine.coefficient_table("g", 2):
    print(f"  g({pi.text()}) = {hbasis.to_a_basis(val).text('a')}")

print("\nThe inversion ladder behind f_r (symbolic, exact):")
for k in range(1, 6):
    print(f"  c_{k} = {hbasis.c_function(k).text()}")

print("\nCompact rendering of a large coefficient, g(3^4):")
g4 = dict(engine.coefficient_table("g", 4))
from cfx.partitions import Partition
print(" ", g4[Partition.of(3, 3, 3, 3)].compact())

print("\nTwo derivations, one answer: the reversion oracle re-derives f_3, g_3")
from cfx import oracle
fs, gs = oracle.reversion_fg(3)
assert fs[2] == engine.fg_formal("f", 3)
assert gs[2] == engine.fg_formal("g", 3)
print("  reversion and operator-ladder tables agree exactly.")
