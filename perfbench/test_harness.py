"""Tests of the benchmark's own code: tail rule, output gate, failure accounting.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from harness import (  # noqa: E402
    GATE_ATOL,
    TAIL_MIN_BEYOND,
    Ledger,
    compare_csv,
    compare_tree,
    median,
    tail_percentile,
)
from workloads import GOLDEN_DIR, Context, cli_op  # noqa: E402


def test_tail_percentile_never_has_fewer_than_ten_beyond():
    for n in range(0, 1200):
        latencies = [float(i) for i in range(n)]
        tail = tail_percentile(latencies)
        if tail is None:
            assert n < 2 * TAIL_MIN_BEYOND
            continue
        p, value, samples = tail
        assert samples == n
        assert sum(1 for x in latencies if x > value) >= TAIL_MIN_BEYOND, (n, p)


@pytest.mark.parametrize("n, expected", [(19, None), (20, 50.0), (40, 75.0), (99, 75.0),
                                         (100, 90.0), (200, 95.0), (1000, 99.0)])
def test_tail_percentile_picks_highest_rung(n, expected):
    tail = tail_percentile([float(i) for i in range(n)])
    assert (tail[0] if tail else None) == expected


def _golden_sweep():
    with open(os.path.join(GOLDEN_DIR, "sweep_readme", "sweep_seed2026.csv"), encoding="utf-8") as fh:
        return fh.read()


def test_gate_accepts_identical_sweep_csv():
    golden = _golden_sweep()
    assert compare_csv(golden, golden) == (True, 0.0, "")


def test_gate_rejects_sweep_csv_with_one_value_perturbed_by_1e9():
    golden = _golden_sweep()
    lines = golden.splitlines()
    fields = lines[3].split(",")
    fields[3] = repr(float(fields[3]) + 1e-9)
    lines[3] = ",".join(fields)
    ok, deviation, reason = compare_csv("\n".join(lines) + "\n", golden)
    assert not ok
    assert deviation == pytest.approx(1e-9, rel=1e-3)
    assert "line 4 purity" in reason


def test_gate_rejects_missing_row_and_changed_source():
    golden = _golden_sweep()
    lines = golden.splitlines()
    assert not compare_csv("\n".join(lines[:-1]) + "\n", golden)[0]
    assert not compare_csv(golden.replace("two_vpr", "pump_vpr"), golden)[0]


def test_gate_on_recon_json_uses_the_same_tolerance():
    golden = {"metrics": {"purity": 0.5, "target_description": "x"}, "iterations": 87,
              "converged": True}
    inside = json.loads(json.dumps(golden))
    inside["metrics"]["purity"] += GATE_ATOL / 2
    inside["extra"] = "ignored"
    assert compare_tree(inside, golden)[0]
    outside = json.loads(json.dumps(golden))
    outside["metrics"]["purity"] += 1e-9
    assert not compare_tree(outside, golden)[0]
    assert not compare_tree({**golden, "iterations": 88}, golden)[0]
    assert not compare_tree({**golden, "converged": False}, golden)[0]


def test_exit_4_counts_as_a_failed_op(tmp_path):
    from bellmix import AcquisitionConfig, mix_duty_cycle, simulate_counts, standard_projector_set
    from bellmix.counting import write_counts_csv

    counts = tmp_path / "counts.csv"
    write_counts_csv(counts, simulate_counts(mix_duty_cycle(0.25), standard_projector_set(),
                                             AcquisitionConfig(pairs_per_setting=1e5, seed=1)))
    out = tmp_path / "recon.json"
    argv = [sys.executable, "-m", "bellmix.cli", "reconstruct", str(counts),
            "--max-iterations", "1", "--out", str(out)]
    ctx = Context(ROOT, 0, str(tmp_path))
    outcome = cli_op(argv, ctx, str(out), golden={})
    assert not outcome.ok
    assert outcome.reason.startswith("exit 4")

    ledger = Ledger()
    ledger.record(0.1, 0.1, 0.1, True, reconstructions=1)
    ledger.record(0.2, 0.2, 0.2, outcome.ok, outcome.reconstructions, outcome.reason)
    assert (ledger.attempted, ledger.failed, ledger.fail_ratio) == (2, 1, 0.5)
    assert ledger.reconstructions == 1
    assert math.isinf(max(ledger.latencies))
    assert median(ledger.latencies) == math.inf
