"""Figures of merit: purity, tangle, +-45 degree visibility, and Uhlmann fidelity.

The tangle is the squared Wootters concurrence. Its spin-flipped eigenvalue
problem is solved through the Hermitian similarity sqrt(rho) * rho_tilde *
sqrt(rho), whose spectrum equals that of rho * rho_tilde, so the whole module
stays on the Hermitian eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateDenominator, InvalidState
from .fileio import parsing
from .linalg import DensityMatrix, hermitian_eigen, hermitize, matrix_sqrt, zero_clip
from .optics import CALIBRATION_IDLER, WaveplateSetting, analyzer_projectors

# (sigma_y tensor sigma_y); real in the HV basis.
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ],
    dtype=complex,
)

@lru_cache(maxsize=8)
def _tt_projector(signal_hwp_deg: float) -> np.ndarray:
    proj = analyzer_projectors(WaveplateSetting(0.0, signal_hwp_deg), CALIBRATION_IDLER)[0]
    proj.setflags(write=False)
    return proj


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 for pure states, 1/4 for the completely mixed state."""
    m = rho.matrix
    return float(np.real(np.trace(m @ m)))


def tangle(rho: DensityMatrix) -> float:
    """Squared Wootters concurrence, C = max(0, l1 - l2 - l3 - l4)."""
    m = rho.matrix
    root = matrix_sqrt(m)
    flipped = _SPIN_FLIP @ m.conj() @ _SPIN_FLIP
    w, _ = hermitian_eigen(hermitize(root @ flipped @ root))
    lam = np.sqrt(zero_clip(w))  # already descending
    concurrence = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return concurrence**2


def visibility(rho: DensityMatrix) -> float:
    """Contrast |N+ - N-| / (N+ + N-) of the +-45 degree coincidence rates.

    N+- are the Born probabilities of the transmitted-transmitted outcome with
    the signal HWP at +22.5 and -22.5 degrees. Unlike the other metrics this
    is basis-dependent by construction.
    """
    m = rho.matrix
    n_plus = max(0.0, float(np.real(np.trace(m @ _tt_projector(22.5)))))
    n_minus = max(0.0, float(np.real(np.trace(m @ _tt_projector(-22.5)))))
    denominator = n_plus + n_minus
    if denominator < 1e-15:
        raise DegenerateDenominator("both +-45 degree coincidence rates vanish")
    return abs(n_plus - n_minus) / denominator


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)) = tr|sqrt(rho) sqrt(sigma)|."""
    root = matrix_sqrt(rho.matrix)
    inner = hermitize(root @ sigma.matrix @ root)
    w, _ = hermitian_eigen(inner)
    return float(np.sqrt(zero_clip(w)).sum())


def family_purity(alpha: float) -> float:
    """Closed-form purity of the duty-cycle mixture, 2(alpha - 1/2)^2 + 1/2."""
    return 2.0 * (alpha - 0.5) ** 2 + 0.5


def family_tangle(alpha: float) -> float:
    """Closed-form tangle of the duty-cycle mixture, (1 - 2 alpha)^2."""
    return (1.0 - 2.0 * alpha) ** 2


def family_visibility(alpha: float) -> float:
    """Closed-form +-45 degree visibility of the duty-cycle mixture, |1 - 2 alpha|."""
    return abs(1.0 - 2.0 * alpha)


@dataclass(frozen=True)
class MetricsReport:
    """All four figures of merit for one state, with the fidelity target named."""

    purity: float
    tangle: float
    visibility: float
    fidelity_to_target: float
    target_description: str

    def __post_init__(self) -> None:
        slack = 1e-9
        checks = (
            ("purity", self.purity, 0.25, 1.0),
            ("tangle", self.tangle, 0.0, 1.0),
            ("visibility", self.visibility, 0.0, 1.0),
            ("fidelity_to_target", self.fidelity_to_target, 0.0, 1.0),
        )
        for name, value, low, high in checks:
            if not (low - slack <= value <= high + slack):
                raise InvalidState(f"{name} = {value!r} outside [{low}, {high}]")

    def to_json_dict(self) -> dict:
        return {
            "purity": float(self.purity),
            "tangle": float(self.tangle),
            "visibility": float(self.visibility),
            "fidelity_to_target": float(self.fidelity_to_target),
            "target_description": self.target_description,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MetricsReport":
        with parsing("metrics JSON"):
            return cls(
                purity=float(data["purity"]),
                tangle=float(data["tangle"]),
                visibility=float(data["visibility"]),
                fidelity_to_target=float(data["fidelity_to_target"]),
                target_description=str(data["target_description"]),
            )


def report_for(
    rho: DensityMatrix,
    target: DensityMatrix | None = None,
    target_description: str = "self",
) -> MetricsReport:
    """Evaluate all four metrics; fidelity is against target, or rho itself if none."""
    fid = fidelity(rho, target) if target is not None else fidelity(rho, rho)
    return MetricsReport(
        purity=purity(rho),
        tangle=tangle(rho),
        visibility=visibility(rho),
        fidelity_to_target=fid,
        target_description=target_description,
    )
