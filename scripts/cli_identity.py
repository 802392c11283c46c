"""Ask the cfx CLI a fixed set of questions at two commits; compare answers.

    python3 scripts/cli_identity.py --parent REV

Each question is one fresh ``python -m cfx.cli`` process, run from the root
of a checkout with that checkout's ``src`` on PYTHONPATH: once in the working
tree (the change) and once in a fresh export of the parent commit REV (``git
archive``, as ``scripts/bench_pairs.py`` makes it, so the repository gains no
worktree metadata).  The report gives every question's exit code and stdout
sha256 on both sides, marks the questions whose answers differ, and ends
with their count; the script exits 1 if any differs.  Under each differing
JSON answer it prints the largest absolute difference over the numbers of
the two documents, or "structure differs" where their shapes or other
values differ.

The set covers the symbolic tables (``coeffs`` h/f/g for r <= 8 in the H, a
and normal bases; ``terms``; ``validate`` with and without ``--deep``), the
three expansions for four models on both bases at orders 2..8 (the density
for derivative orders 0..2), inputs that exit 2, 3 or 4, and two ``cdf --mc``
simulation cross-checks at a fixed seed, each in both output formats.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODELS = {
    "lnF(24,60)": ["--model", "lnF", "--n1", "24", "--n2", "60"],
    "lnF(60,24)": ["--model", "lnF", "--n1", "60", "--n2", "24"],
    "studentized mean": ["--model", "studentized_mean", "--nu3", "2",
                         "--nu4", "9", "--nu5", "44", "--n", "50"],
    "sample variance": ["--model", "sample_variance", "--mu", "2=1", "3=2",
                        "4=9", "5=44", "6=265", "7=1854", "8=14833",
                        "10=1334961", "--n", "50"],
}

FAILING = [
    # exit 2: an unknown model, an order past the guard, J/K off the gamma base
    ["quantile", "--model", "nope", "--p", "0.5"],
    ["quantile", *MODELS["lnF(24,60)"], "--p", "0.95", "--order", "13"],
    ["cdf", *MODELS["lnF(24,60)"], "--x", "0.5", "--J", "2"],
    ["coeffs", "--kind", "g", "--r", "0"],
    # exit 3: orders the model does not cover
    ["quantile", *MODELS["studentized mean"], "--p", "0.95", "--order", "4"],
    ["density", *MODELS["sample variance"], "--x", "0.5", "--order", "5"],
    # exit 4: a probability outside (0, 1), a gamma shape past the series
    ["quantile", *MODELS["lnF(24,60)"], "--p", "1.5"],
    ["quantile", "--model", "lnF", "--n1", "2000", "--n2", "5000",
     "--p", "0.95", "--base", "gamma", "--order", "5"],
]

# Simulation cross-checks at a fixed seed, which pin the oracle's stream:
# lnF(24,60) and the Studentized mean of a normal population (n = 200).
SIMULATED = [
    ["cdf", *MODELS["lnF(24,60)"], "--x", "0.5", "--order", "8",
     "--mc", "1000000", "--seed", "2024"],
    ["cdf", "--model", "studentized_mean", "--nu3", "0", "--nu4", "3",
     "--n", "200", "--x", "1.0", "--order", "2", "--mc", "200000",
     "--population", "normal", "--seed", "2025"],
]


def questions():
    """Every question, as CLI arguments without the output format."""
    out = [["coeffs", "--kind", kind, "--r", str(r), "--basis", basis]
           for kind in "hfg" for r in range(1, 9) for basis in ("H", "a", "normal")]
    out += [["terms", "--rmax", str(r)] for r in range(7)]
    out += [["validate"], ["validate", "--deep"]]
    for model in MODELS.values():
        for base in ("normal", "gamma"):
            for R in range(2, 9):
                common = [*model, "--base", base, "--order", str(R)]
                out.append(["quantile", *common, "--p", "0.95"])
                out.append(["cdf", *common, "--x", "0.5"])
                out += [["density", *common, "--x", "0.5", "--i", str(i)]
                        for i in range(3)]
    return out + FAILING + SIMULATED


def export(rev, dest):
    """The committed files of ``rev`` under ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)


def ask(checkout, argv):
    """(exit code, stdout) of one fresh CLI process in ``checkout``."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"))
    env.pop("CFX_MAX_ORDER", None)
    proc = subprocess.run([sys.executable, "-m", "cfx.cli", *argv], cwd=checkout,
                          env=env, capture_output=True, timeout=600)
    return proc.returncode, proc.stdout


def largest_difference(a, b):
    """The largest |a - b| over the numbers of two JSON documents of one
    shape, or None if their shapes or non-numeric values differ."""
    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    if number(a) and number(b):
        return abs(a - b)
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        pairs = [(a[k], b[k]) for k in a]
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        pairs = zip(a, b)
    else:
        return 0.0 if a == b else None
    worst = 0.0
    for x, y in pairs:
        d = largest_difference(x, y)
        if d is None:
            return None
        worst = max(worst, d)
    return worst


def moved(parent_out, change_out):
    """How far a JSON answer moved: its largest difference, or "structure
    differs"."""
    try:
        d = largest_difference(json.loads(parent_out), json.loads(change_out))
    except json.JSONDecodeError:
        d = None
    return "structure differs" if d is None else f"largest |difference| {d:.3g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="the parent commit")
    args = ap.parse_args(argv)

    asked = [q + ["--format", fmt] for q in questions() for fmt in ("table", "json")]
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as parent_dir:
        export(args.parent, parent_dir)
        # two processes at a time: the R = 8 tables take tens of MB each
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [(pool.submit(ask, parent_dir, q), pool.submit(ask, str(ROOT), q))
                       for q in asked]
            answers = [(p.result(), c.result()) for p, c in futures]

    differ = 0
    print("same  parent: exit sha256[:16]     change: exit sha256[:16]     question")
    for q, (parent, change) in zip(asked, answers):
        same = parent == change
        differ += not same
        digests = [hashlib.sha256(out).hexdigest()[:16] for _, out in (parent, change)]
        print(f"{'same' if same else 'DIFF'}  {parent[0]} {digests[0]}  "
              f"{change[0]} {digests[1]}  cfx {' '.join(q)}")
        if not same and q[-1] == "json":
            print(f"      {moved(parent[1], change[1])}")
    print(f"{len(asked)} questions, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
