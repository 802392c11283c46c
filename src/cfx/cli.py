"""Command-line frontend.

Subcommands: ``quantile``, ``cdf``, ``density`` evaluate expansions for a
cumulant model about a normal or skew-matched gamma base; ``coeffs`` dumps
symbolic coefficient tables; ``terms`` prints the term-count comparison
matrix; ``validate`` runs the built-in verification suite.

Exit codes: 0 success, 2 configuration error, 3 model-order error, 4 numeric
error, 5 validation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import basedist, cumulants, engine, oracle

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_MODEL_ORDER = 3
EXIT_NUMERIC = 4
EXIT_VALIDATION = 5


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the question: a model config, a sample size and a base
# ---------------------------------------------------------------------------

_MODEL_FLAGS = ("n1", "n2", "nu3", "nu4", "nu5")


def _model_config(args):
    """The model in the schema of ``cumulants.model_from_config``: the
    --model-json document, or the --model flags given, written the same
    way (--mu R=VALUE pairs become the "mu" object)."""
    if args.model_json:
        return _read_model_json(args.model_json)
    if args.model is None:
        raise ConfigError("no model given (use --model or --model-json)")
    cfg = {"model": args.model}
    cfg.update((k, getattr(args, k)) for k in _MODEL_FLAGS
               if getattr(args, k) is not None)
    if args.mu is not None:
        cfg["mu"] = {}
        for tok in args.mu:
            r, eq, v = tok.partition("=")
            if not eq:
                raise ConfigError(f"--mu {tok!r} is not an R=VALUE pair")
            if r in cfg["mu"]:
                raise ConfigError(f"--mu order {r} is given twice")
            cfg["mu"][r] = v
    return cfg


def _read_model_json(text):
    """The model config: ``text`` itself as JSON, else the JSON file it
    names."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    try:
        with open(text) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"--model-json: neither inline JSON nor a readable "
                          f"JSON file ({e})") from None


def _model_n(args, table):
    """--n as a number, or the model's own sample-size parameter (lnF),
    which --n may repeat but not contradict.  The context checks the
    value."""
    if args.n is None:
        if table.n is None:
            raise ConfigError("this model requires --n (sample-size parameter)")
        return table.n
    try:
        n = Fraction(args.n)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"--n {args.n!r} is not a rational number") from None
    if table.n is not None and n != table.n:
        raise ConfigError(f"--n {args.n} disagrees with the model's "
                          f"sample-size parameter {table.n}")
    return n


def _question(args):
    """(model config, model table, expansion context) of the flags."""
    cfg = _model_config(args)
    table = cumulants.model_from_config(cfg)
    n = _model_n(args, table)
    if args.base == "gamma":
        ctx = engine.ExpansionContext.matched_gamma(table, n, J=args.J, K=args.K)
    elif (args.J, args.K) != (1, 1):
        raise ConfigError("--J and --K truncate the gamma base's mean and "
                          "variance series; use them with --base gamma")
    else:
        ctx = engine.ExpansionContext.raw(table, n)
    return cfg, table, ctx


def _lnF_dof(cfg):
    return int(cfg["n1"]), int(cfg["n2"])


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def fmt_grouped(v):
    """Grouped-digit table style: .2809 1224, -.0196 0643."""
    sign = "-" if v < 0 else " "
    s = f"{abs(v):.8f}"
    whole, frac = s.split(".")
    grouped = f"{frac[:4]} {frac[4:]}"
    if whole == "0":
        return f"{sign}.{grouped}"
    return f"{sign}{whole}.{grouped}"


def _emit(args, payload, table_text):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(table_text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_quantile(args):
    cfg, table, ctx = _question(args)
    p = args.p
    exact = None
    if cfg["model"] == "lnF" and not args.no_exact:
        exact = oracle.exact_lnF_quantile(*_lnF_dof(cfg), p)
    res = ctx.quantile(p, args.order, exact=exact)
    rows = res["rows"]
    payload = {"command": "quantile", "model": cumulants.table_to_config(table),
               "p": p, "order": args.order, "base": args.base,
               "n": float(ctx.n), "rows": rows,
               "value": res["value"],
               "diverges_at": res["diverges_at"]}
    if ctx.tau is not None:
        payload["tau"] = float(ctx.tau)
        payload["m"] = ctx.m
    lines = ["order  term        total" + ("       error" if exact is not None else "")]
    for row in rows:
        line = f"{row['order']:>5}  {fmt_grouped(row['term'])}  {fmt_grouped(row['total'])}"
        if "error" in row:
            line += f"  {fmt_grouped(row['error'])}"
        lines.append(line)
    if exact is not None:
        lines.append(f"exact  {fmt_grouped(exact)}")
    if res["diverges_at"] is not None:
        lines.append(f"warning: series divergence detected at order {res['diverges_at']}"
                     " (term magnitudes stopped decreasing)")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_cdf(args):
    cfg, _, ctx = _question(args)
    x = args.x
    res = ctx.cdf(x, args.order)
    value, base = res["value"], res["base"]
    payload = {"command": "cdf", "x": x, "order": args.order,
               "base_cdf": base, "terms": res["terms"], "value": value,
               "flipped": ctx.flipped}
    lines = [f"P_n(Y <= {x}) ~ {value:.10f}", f"base cdf: {base:.10f}"]
    for r, t in enumerate(res["terms"], start=1):
        lines.append(f"order {r} correction: {t:+.10f}")
    if args.mc:
        spec = _mc_spec(cfg, args.population)
        try:
            est, se = oracle.mc_cdf(spec, float(ctx.n), x, args.mc, seed=args.seed)
        except ValueError as e:  # refused before any draw
            raise ConfigError(f"--mc {args.mc}: {e}") from None
        payload["mc"] = {"estimate": est, "stderr": se, "N": args.mc,
                         "seed": args.seed,
                         "within_3se": bool(abs(value - est) <= 3 * se)}
        lines.append(f"simulation: {est:.6f} (se {se:.6f}, N={args.mc}, "
                     f"seed={args.seed}); |diff|/se = {abs(value - est) / se:.2f}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _mc_spec(cfg, population):
    if cfg["model"] == "lnF":
        n1, n2 = _lnF_dof(cfg)
        return {"model": "lnF", "n1": n1, "n2": n2}
    if cfg["model"] in ("studentized_mean", "sample_variance"):
        return {"model": cfg["model"], "population": population}
    raise ConfigError(f"no sampler available for model {cfg['model']!r}")


def cmd_density(args):
    _, _, ctx = _question(args)
    res = ctx.density(args.x, args.i, args.order)
    payload = {"command": "density", "x": args.x, "i": args.i,
               "order": args.order, "terms": res["terms"], "value": res["value"]}
    lines = [f"(-D)^{args.i} density at {args.x}: {res['value']:.10f}"]
    for r, t in enumerate(res["terms"]):
        lines.append(f"order {r} term: {t:+.10f}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_coeffs(args):
    basis = {"H": "H", "a": "a", "normal": "x"}[args.basis]
    payload = engine.export_table_json(args.kind, args.r, basis=basis)
    lines = [f"{args.kind}_{args.r} coefficient table ({args.basis} basis)"]
    for term in payload["terms"]:
        lines.append(f"  {args.kind}({term['partition']}) = "
                     f"{term.get('coeff_' + basis, '0')}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_terms(args):
    rows = engine.term_count_table(args.rmax)
    payload = {"command": "terms", "rows": rows}
    lines = ["kind r  (J,K)  raw N+M   matched N+M   cum raw   cum matched  saving"]
    for row in rows:
        lines.append("%4s %d  (%d,%d)  %3d+%-3d    %3d+%-3d      %3d+%-3d    %3d+%-3d     %d%%" % (
            row["kind"], row["r"], row["J"], row["K"],
            row["raw"][0], row["raw"][1], row["matched"][0], row["matched"][1],
            row["cum_raw"][0], row["cum_raw"][1],
            row["cum_matched"][0], row["cum_matched"][1], row["saving"]))
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_validate(args):
    checks = run_validation(deep=args.deep)
    payload = {"command": "validate", "checks": checks,
               "passed": all(c["pass"] for c in checks)}
    lines = []
    for c in checks:
        lines.append(("PASS " if c["pass"] else "FAIL ") + c["check"])
    lines.append("all checks passed" if payload["passed"] else "VALIDATION FAILED")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK if payload["passed"] else EXIT_VALIDATION


def run_validation(deep=False):
    """The built-in verification suite (a fast subset of the acceptance
    tests; ``deep`` adds the full symbolic reversion)."""
    from . import hbasis
    checks = []

    # reference quantile table
    table = cumulants.model_lnF(24, 60)
    n = Fraction(2 * 24 * 60, 84)
    ctx = engine.ExpansionContext.raw(table, n)
    res = engine.quantile_expand(ctx, 0.95, 6)
    expected = [0.28091224, -0.01960643, 0.00446851, -0.00048004,
                0.00005645, -0.00000154, -0.00000102]
    for row, want in zip(res["rows"], expected):
        checks.append(oracle.check(f"quantile term r={row['order']}",
                                   want, row["term"], 5e-8))
    checks.append(oracle.check("quantile total r=6", 0.26534817,
                               res["value"], 5e-8))
    exact = oracle.exact_lnF_quantile(24, 60, 0.95)
    checks.append(oracle.check("total vs exact", exact, res["value"], 5e-7))

    # symbolic spot values
    H = hbasis.H
    f4 = dict(engine.coefficient_table("f", 4))
    from .partitions import Partition
    checks.append(oracle.check(
        "f(4^2)", H(7) - H(1) * H(3) ** 2, f4[Partition.of(4, 4)]))
    g3 = dict(engine.coefficient_table("g", 3))
    checks.append(oracle.check(
        "g(34)", H(6) - H(2) * H(4) - H(3) ** 2 + H(1) * H(2) * H(3),
        g3[Partition.of(3, 4)]))

    # recurrence cross-check
    ok = all(engine.crk(r, k) == oracle.crk_recurrence(r, k)
             for r in range(1, 6) for k in range(r, 3 * r + 1))
    checks.append({"check": "C_rk partition path == recurrence path",
                   "expected": True, "got": ok, "tolerance": 0, "pass": ok})

    # special function round trips
    worst = 0.0
    for m in (0.5, 3.0, 48.0):
        g = basedist.gamma(m)
        for p in (1e-6, 0.01, 0.3, 0.7, 0.99, 1 - 1e-6):
            worst = max(worst, abs(g.cdf(g.inv_cdf(p)) - p))
    checks.append(oracle.check("gamma cdf/inv round trip", 0.0, worst, 1e-12))
    worst = max(abs(basedist.normal_cdf(basedist.normal_inv_cdf(p)) - p)
                for p in (1e-6, 0.01, 0.5, 0.99, 1 - 1e-6))
    checks.append(oracle.check("normal cdf/inv round trip", 0.0, worst, 1e-12))

    # term-count headlines
    checks.append(oracle.check(
        "term count g cumulative raw", (48, 29),
        engine.term_count_cumulative("g", 6, schedule={r: (0, 1) for r in range(7)},
                                     matched=False, base="normal")))
    checks.append(oracle.check(
        "term count g cumulative matched", (11, 7),
        engine.term_count_cumulative("g", 6, matched=True, base="general",
                                     drop_multi3=True)))

    if deep:
        fs, gs = oracle.reversion_fg(6)
        ok = all(fs[r - 1] == engine.fg_formal("f", r)
                 and gs[r - 1] == engine.fg_formal("g", r) for r in range(1, 7))
        checks.append({"check": "reversion oracle == ladder tables (r<=6)",
                       "expected": True, "got": ok, "tolerance": 0, "pass": ok})
    return checks


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_model_args(sp):
    sp.add_argument("--model", choices=["lnF", "sample_variance",
                                        "studentized_mean", "gamma"])
    sp.add_argument("--model-json", help="inline JSON or a file path")
    sp.add_argument("--n1", type=int, help="numerator degrees of freedom (lnF)")
    sp.add_argument("--n2", type=int, help="denominator degrees of freedom (lnF)")
    sp.add_argument("--nu3", help="population skewness (studentized_mean)")
    sp.add_argument("--nu4", help="population kurtosis moment")
    sp.add_argument("--nu5", help="population fifth standardized moment")
    sp.add_argument("--mu", nargs="*", metavar="R=VALUE",
                    help="central moments (sample_variance), e.g. 2=6/5")
    sp.add_argument("--n", help="sample-size parameter")
    sp.add_argument("--base", choices=["normal", "gamma"], default="normal",
                    help="normal, or a gamma matched to the estimate's skewness")
    sp.add_argument("--J", type=int, default=1, help="mean-series truncation")
    sp.add_argument("--K", type=int, default=1, help="variance-series truncation")
    sp.add_argument("--order", type=int, default=4, help="truncation order R")
    sp.add_argument("--format", choices=["table", "json"], default="table")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cfx",
        description="Series expansions for distributions and quantiles of "
                    "standardized estimates about normal and gamma bases.")
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantile", help="successive quantile terms and totals")
    _add_model_args(q)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--no-exact", action="store_true",
                   help="suppress the exact reference column")
    q.set_defaults(func=cmd_quantile)

    c = sub.add_parser("cdf", help="distribution expansion at a point")
    _add_model_args(c)
    c.add_argument("--x", type=float, required=True)
    c.add_argument("--mc", type=int, default=0, metavar="N",
                   help="cross-check against an N-replication simulation")
    c.add_argument("--seed", type=int, default=0,
                   help="stream seed of the simulation cross-check")
    c.add_argument("--population", default="standardized_exponential",
                   choices=["standardized_exponential", "normal"],
                   help="sampling population for the simulation cross-check")
    c.set_defaults(func=cmd_cdf)

    d = sub.add_parser("density", help="density / derivative expansion")
    _add_model_args(d)
    d.add_argument("--x", type=float, required=True)
    d.add_argument("--i", type=int, default=0, help="derivative order")
    d.set_defaults(func=cmd_density)

    k = sub.add_parser("coeffs", help="symbolic coefficient tables")
    k.add_argument("--kind", choices=["h", "f", "g"], required=True)
    k.add_argument("--r", type=int, required=True)
    k.add_argument("--basis", choices=["H", "a", "normal"], default="H")
    k.add_argument("--format", choices=["table", "json"], default="table")
    k.set_defaults(func=cmd_coeffs)

    t = sub.add_parser("terms", help="term-count comparison matrix")
    t.add_argument("--rmax", type=int, default=6)
    t.add_argument("--format", choices=["table", "json"], default="table")
    t.set_defaults(func=cmd_terms)

    v = sub.add_parser("validate", help="run the built-in verification suite (the complete acceptance suite lives in tests/test_acceptance.py)")
    v.add_argument("--deep", action="store_true",
                   help="include the full symbolic reversion cross-check")
    v.add_argument("--format", choices=["table", "json"], default="table")
    v.set_defaults(func=cmd_validate)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except cumulants.ModelOrderError as e:
        print(f"model-order error: {e}", file=sys.stderr)
        return EXIT_MODEL_ORDER
    except (ConfigError, cumulants.ModelError, engine.OrderError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (basedist.DomainError, ArithmeticError) as e:
        # ArithmeticError: NumericError, and any float fault of an
        # evaluation (ZeroDivisionError, OverflowError)
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
