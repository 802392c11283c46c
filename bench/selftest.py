"""Show that no answer check of the benchmark is vacuous.

    python3 bench/selftest.py

Each kind of check must accept the reference answer and reject a perturbed
one: every lnF tolerance (base, quantity, R in ``checks.TOL_C``) and the
Studentized-mean tolerance get the exact value shifted by ten times the
tolerance, and the cfx library's own order-R answer truncated at order
R - 1 at a fixed point, which must fail while the order-R answer passes;
every Monte-Carlo case gets its
reference moved by 10 standard errors; the f_8 table gets one altered
coefficient; ``validate`` gets ``"passed": false``.  Nothing here depends on
the known faults F1 and F2.  Exits 1 if a check cannot fail.
"""

import sys

import common

sys.path.insert(0, common.SRC)

import checks  # noqa: E402


def main():
    broken = (checks.self_test(checks.f_table_oracle(8))
              + checks.truncation_self_test())
    for name in broken:
        print(f"FAIL {name}: does not reject a perturbed answer")
    print("all checks reject perturbed answers" if not broken else
          f"{len(broken)} check(s) cannot fail")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
