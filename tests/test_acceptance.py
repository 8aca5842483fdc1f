"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import csv
import json
import os
import time

import numpy as np
import pytest

from bellmix.counting import AcquisitionConfig, simulate_counts
from bellmix.fixtures import (
    CALIBRATED_DEPHASING,
    REFERENCE_EXPECTATIONS,
    reference_quarter_dc,
)
from bellmix.metrics import (
    family_purity,
    family_tangle,
    family_visibility,
    report_for,
)
from bellmix.optics import standard_projector_set
from bellmix.states import (
    NoiseParams,
    SourceConfig,
    completely_mixed,
    generate,
    mix_duty_cycle,
)
from bellmix.sweep import SweepSpec, run_sweep
from bellmix.tomography import mle_reconstruct
from test_tomography import _expected_counts, diagonal_grid_search

PSET = standard_projector_set()

TABLE_ALPHAS = (0.0, 0.05, 0.25, 0.35, 0.45, 0.5, 0.55, 0.65, 0.75, 0.95, 1.0)


def _report(number, description, elapsed, limit):
    print(f"criterion {number}: PASS ({description}; {elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_closed_form_suite():
    start = time.perf_counter()
    for alpha in np.linspace(0.0, 1.0, 101):
        report = report_for(mix_duty_cycle(float(alpha)))
        assert abs(report.purity - family_purity(float(alpha))) <= 1e-10
        assert abs(report.tangle - family_tangle(float(alpha))) <= 1e-10
        assert abs(report.visibility - family_visibility(float(alpha))) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, "purity/tangle/visibility match closed forms on 101 alphas", elapsed, 1)


def test_criterion_2_reference_fixture_suite():
    start = time.perf_counter()
    reference = reference_quarter_dc()

    target, tol = REFERENCE_EXPECTATIONS["purity"]
    p = report_for(reference).purity
    assert abs(p - target) <= tol

    target, tol = REFERENCE_EXPECTATIONS["tangle"]
    t = report_for(reference).tangle
    assert abs(t - target) <= tol

    target, tol = REFERENCE_EXPECTATIONS["fidelity"]
    f = report_for(reference, target=mix_duty_cycle(0.25)).fidelity_to_target
    assert abs(f - target) <= tol

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"reference matrix P={p:.4f}, T={t:.4f}, F={f:.4f}", elapsed, 1)


def test_criterion_3_completely_mixed_pipeline():
    start = time.perf_counter()
    rho = generate(SourceConfig(alpha=0.5, signal_dc=0.5))
    assert np.abs(rho.matrix - completely_mixed().matrix).max() <= 1e-12
    report = report_for(rho)
    assert abs(report.purity - 0.25) <= 1e-10
    assert abs(report.tangle - 0.0) <= 1e-10
    elapsed = time.perf_counter() - start
    _report(3, "two-rotator state equals identity/4 with P=0.25, T=0", elapsed, 1)


def test_criterion_4_tomography_round_trip():
    start = time.perf_counter()
    worst = 1.0
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        truth = mix_duty_cycle(alpha)
        for seed in range(10):
            counts = simulate_counts(
                truth, PSET, AcquisitionConfig(pairs_per_setting=1e5, seed=seed)
            )
            result = mle_reconstruct(counts, PSET, target=truth)
            assert result.metrics.fidelity_to_target >= 0.99
            worst = min(worst, result.metrics.fidelity_to_target)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(4, f"50 reconstructions, worst fidelity {worst:.5f} >= 0.99", elapsed, 60)


def test_criterion_5_noise_matched_band():
    start = time.perf_counter()
    noise = NoiseParams(dephasing=CALIBRATED_DEPHASING)
    calibrated = report_for(generate(SourceConfig(alpha=0.0, noise=noise))).visibility
    assert abs(calibrated - 0.973) <= 1e-9
    worst_low, worst_high = 1.0, 0.0
    for index, alpha in enumerate(TABLE_ALPHAS):
        config = SourceConfig(alpha=alpha, noise=noise)
        counts = simulate_counts(
            generate(config), PSET, AcquisitionConfig(pairs_per_setting=1e5, seed=1000 + index)
        )
        result = mle_reconstruct(counts, PSET, target=mix_duty_cycle(alpha))
        f = result.metrics.fidelity_to_target
        assert 0.96 <= f <= 1.0
        if alpha == 0.0:
            # The pure-state endpoint feels the dephasing at first order.
            assert 0.975 <= f <= 0.995
        worst_low, worst_high = min(worst_low, f), max(worst_high, f)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(
        5,
        f"visibility calibrated to {calibrated:.3f}; fidelities in "
        f"[{worst_low:.4f}, {worst_high:.4f}] within [0.96, 1.0]",
        elapsed,
        120,
    )


def test_criterion_6_figure_regeneration(tmp_path):
    start = time.perf_counter()
    spec = SweepSpec(
        alphas=tuple(round(a, 1) for a in np.linspace(0.0, 1.0, 11)),
        acquisition=AcquisitionConfig(pairs_per_setting=1e6, seed=2026),
        noise=NoiseParams(),
        outputs=str(tmp_path / "figure_sweep"),
        include_completely_mixed=False,
        resamples=4,
    )
    run_sweep(spec)
    csv_path = os.path.join(spec.outputs, "sweep.csv")
    assert os.path.exists(csv_path)
    with open(csv_path, newline="") as fh:
        rows = [{key: value if key == "source" else float(value) for key, value in row.items()}
                for row in csv.DictReader(fh)]
    assert len(rows) == 11
    worst_v = worst_t = worst_p = 0.0
    for row in rows:
        dv = abs(row["visibility"] - row["theory_visibility"])
        dt = abs(row["tangle"] - row["theory_tangle"])
        dp = abs(row["purity"] - row["theory_purity"])
        assert dv <= 0.01
        assert dt <= 0.02
        assert dp <= 0.01
        assert row["fidelity"] >= 0.995  # noiseless reconstruction consistency
        worst_v, worst_t, worst_p = max(worst_v, dv), max(worst_t, dt), max(worst_p, dp)
    elapsed = time.perf_counter() - start
    assert elapsed < 180.0
    _report(
        6,
        f"sweep CSV emitted; |dV|<={worst_v:.4f}, |dT|<={worst_t:.4f}, |dP|<={worst_p:.4f}",
        elapsed,
        180,
    )


def test_criterion_7_mle_oracle_equivalence():
    start = time.perf_counter()
    from bellmix.linalg import DensityMatrix

    truth = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))

    counts = _expected_counts(truth, 1e5)
    oracle = diagonal_grid_search(counts)
    result = mle_reconstruct(counts, PSET)
    f_exact = report_for(result.rho_hat, target=oracle).fidelity_to_target
    assert f_exact >= 1.0 - 1e-4

    noisy = simulate_counts(truth, PSET, AcquisitionConfig(pairs_per_setting=1e5, seed=123))
    oracle = diagonal_grid_search(noisy)
    result = mle_reconstruct(noisy, PSET)
    f_noisy = report_for(result.rho_hat, target=oracle).fidelity_to_target
    assert f_noisy >= 1.0 - 1e-4

    elapsed = time.perf_counter() - start
    _report(
        7,
        f"MLE vs brute-force grid: 1-F = {1 - f_exact:.2e} (exact), {1 - f_noisy:.2e} (noisy)",
        elapsed,
        60,
    )


@pytest.mark.forks
def test_criterion_8_sweep_determinism(tmp_path):
    from bellmix.cli import main

    start = time.perf_counter()
    spec = {
        "alphas": [0.0, 0.35, 0.8],
        "acquisition": {"pairs_per_setting": 2e4, "seed": 31337},
        "noise": {"dephasing": 0.027},
        "outputs": str(tmp_path / "unused"),
        "include_completely_mixed": True,
        "resamples": 3,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")

    def tree_bytes(root):
        out = {}
        for dirpath, _, filenames in os.walk(root):
            for name in filenames:
                full = os.path.join(dirpath, name)
                with open(full, "rb") as fh:
                    out[os.path.relpath(full, root)] = fh.read()
        return out

    for run_args in (
        ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "serial_1")],
        ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "serial_2")],
        ["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "parallel"), "--parallel", "3"],
    ):
        assert main(run_args) == 0

    first = tree_bytes(tmp_path / "serial_1")
    second = tree_bytes(tmp_path / "serial_2")
    third = tree_bytes(tmp_path / "parallel")
    assert first == second
    assert first == third
    assert "sweep.csv" in first
    elapsed = time.perf_counter() - start
    _report(
        8,
        f"{len(first)} artifact files byte-identical across reruns and a process pool",
        elapsed,
        60,
    )


# Master seeds, pairs per setting and noise of each regime. Each regime has its own
# seeds: the counter-based streams make cells that share a seed draw correlated counts.
_REGIMES = {
    "noiseless": (range(1000, 1040), 1e5, NoiseParams()),
    "depolarized": (range(2000, 2040), 1e6, NoiseParams(dephasing=0.027, depolarizing=0.01)),
}


@pytest.mark.parametrize("seeds, pairs, noise", _REGIMES.values(), ids=_REGIMES)
def test_bootstrap_sigma_covers_the_truth_on_interior_points(tmp_path, seeds, pairs, noise):
    # Fixed before looking at the outcome: 40 master seeds, three interior duty
    # cycles, 50 resamples. The band is 0.68 +- 3 binomial standard deviations of
    # 120 points, and the mean standardized error (estimate - theory) / sigma lies
    # within 3 of its standard errors, 3/sqrt(120), of 0. The ends of the grid are
    # left out: there sigma is not a confidence interval (see the README's sweep section).
    names = ("visibility", "tangle", "purity")  # the order of point.theory
    errors, sigmas = [], []
    for seed in seeds:
        spec = SweepSpec(alphas=(0.1, 0.25, 0.75), resamples=50, outputs=str(tmp_path / str(seed)),
                         acquisition=AcquisitionConfig(pairs_per_setting=pairs, seed=seed),
                         noise=noise)
        for point in run_sweep(spec):
            errors.append([getattr(point.result.metrics, name) - truth
                           for name, truth in zip(names, point.theory)])
            sigmas.append([point.result.metric_errors[name] for name in names])
    errors, sigmas = np.array(errors), np.array(sigmas)
    assert errors.shape == (120, 3)
    for name, error, sigma in zip(names, errors.T, sigmas.T):
        coverage, mean_z = np.mean(np.abs(error) <= sigma), np.mean(error / sigma)
        assert 0.55 <= coverage <= 0.81, (name, coverage)
        assert abs(mean_z) <= 3 / np.sqrt(120), (name, mean_z)
