"""Bundled reference data: a quarter-duty-cycle reconstruction and its targets.

The matrix below is a published tomographic reconstruction of the alpha = 0.25
mixture, tabulated to three decimals. Rounding at that precision leaves small
negative eigenvalues, so consumers should sanitize it with nearest_physical
(reference_quarter_dc does). Expected figures of merit and tolerances come
with the dataset; the tolerances are widened beyond the quoted error bars to
absorb the three-decimal rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import AcquisitionConfig, simulate_counts
from .linalg import DensityMatrix, nearest_physical
from .metrics import report_for
from .optics import standard_projector_set
from .states import NoiseParams, SourceConfig, completely_mixed, generate, mix_duty_cycle
from .tomography import mle_reconstruct

REFERENCE_QUARTER_DC_RAW = np.array(
    [
        [0.545 + 0.000j, 0.049 + 0.012j, -0.013 + 0.038j, -0.232 + 0.110j],
        [0.049 - 0.012j, 0.008 + 0.000j, -0.005 + 0.008j, 0.015 + 0.004j],
        [-0.013 - 0.038j, -0.005 - 0.008j, 0.013 + 0.000j, -0.039 + 0.006j],
        [-0.232 - 0.110j, 0.015 - 0.004j, -0.039 - 0.006j, 0.434 + 0.000j],
    ]
)

# (expected value, tolerance) for the sanitized reference matrix.
REFERENCE_EXPECTATIONS = {
    "purity": (0.6295, 0.005),
    "tangle": (0.2476, 0.01),
    "fidelity": (0.9814, 0.02),
}

# Purity band a noise-matched simulation of the two-rotator completely mixed
# run must land in; the measured value behind it was 0.2615 +- 0.0007.
COMPLETELY_MIXED_PURITY_BAND = (0.25, 0.27)

# Dephasing that reproduces the 97.3% calibration visibility of the alpha = 0 state.
CALIBRATED_DEPHASING = 0.027


def reference_quarter_dc() -> DensityMatrix:
    """The reference matrix projected back onto the physical cone."""
    return nearest_physical(REFERENCE_QUARTER_DC_RAW)


@dataclass(frozen=True)
class FixtureCheck:
    name: str
    value: float
    low: float
    high: float

    @property
    def passed(self) -> bool:
        return self.low <= self.value <= self.high

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: value={self.value:.6f} "
            f"expected in [{self.low:.6f}, {self.high:.6f}]"
        )


def run_fixture_checks(pairs_per_setting: float = 1e5, seed: int = 7) -> list[FixtureCheck]:
    """Evaluate every bundled fixture and band check."""
    reference = report_for(reference_quarter_dc(), target=mix_duty_cycle(0.25))
    mixed = completely_mixed()

    # Noise-matched two-rotator run: generate, acquire, reconstruct, then
    # compare the reconstructed purity against the measured band.
    config = SourceConfig(alpha=0.5, signal_dc=0.5,
                          noise=NoiseParams(dephasing=CALIBRATED_DEPHASING))
    acq = AcquisitionConfig(pairs_per_setting=pairs_per_setting, seed=seed)
    pset = standard_projector_set()
    counts = simulate_counts(generate(config), pset, acq)
    simulated = mle_reconstruct(counts, pset, target=mixed, target_description="identity/4").metrics

    bands = {name: (target - tol, target + tol)
             for name, (target, tol) in REFERENCE_EXPECTATIONS.items()}
    return [
        FixtureCheck("reference_purity", reference.purity, *bands["purity"]),
        FixtureCheck("reference_tangle", reference.tangle, *bands["tangle"]),
        FixtureCheck("reference_fidelity_vs_quarter_mix", reference.fidelity_to_target,
                     *bands["fidelity"]),
        FixtureCheck("mixed_target_self_fidelity", report_for(mixed).fidelity_to_target,
                     1 - 1e-9, 1 + 1e-9),
        FixtureCheck("simulated_mixed_purity", simulated.purity, *COMPLETELY_MIXED_PURITY_BAND),
        FixtureCheck("simulated_mixed_tangle", simulated.tangle, 0.0, 0.01),
    ]
