"""The summary arithmetic of ``scripts/bench_pairs.py``, on committed runs."""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

import bench_pairs  # noqa: E402


def test_rss_headroom_of_committed_runs():
    # pooled over the 40 untraced warm-curve runs of both seeds, peak RSS
    # rises with throughput closely enough to say where the 5 % bound over
    # the parent's median would be crossed
    doc = json.loads((ROOT / "BENCH_int_bracket_sum.json").read_text())
    runs = [run for run in doc["runs_in_order"]
            if run["workload"] == "warm-curve" and not run["trace"]]
    assert len(runs) == 40
    got = bench_pairs.rss_headroom(runs, 0.05)
    assert got["intercept_mb"] == 19.12
    assert got["mb_per_1000_ops_per_s"] == 2.78
    assert got["correlation"] == 0.96
    assert 560 <= got["crosses_bound_at_ops_per_s"] <= 575
    # the summary gives the same fit per workload and seed
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary, _ = bench_pairs.summarize(doc["runs_in_order"], spec)
    seed7 = summary["warm-curve"]["seed 7, 10 pairs"]["rss_headroom"]
    assert seed7 == bench_pairs.rss_headroom(
        [run for run in runs if run["seed"] == 7], 0.05)
