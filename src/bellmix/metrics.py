"""Figures of merit: purity, tangle, +-45 degree visibility, and Uhlmann fidelity.

The tangle is the squared Wootters concurrence. Its spin-flipped eigenvalue
problem is solved through the Hermitian similarity sqrt(rho) * rho_tilde *
sqrt(rho), whose spectrum equals that of rho * rho_tilde, so the whole module
stays on the Hermitian eigensolver. Every figure is computed over a
(..., 4, 4) stack of states; a single state is a batch of one.
The visibility uses the scan's calibration projectors with its own trace, since
optics._born moves the last bit of about half the visibilities pinned in sweep.csv.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidState, OutOfRange
from .fileio import parsing, typed
from .linalg import DensityMatrix, hermitian_eigen, matrix_sqrt, zero_clip
from .optics import _calibration_projector
from .states import NoiseParams, SourceConfig

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


def _purity(m: np.ndarray) -> np.ndarray:
    return np.trace(m @ m, axis1=-2, axis2=-1).real


def _root_spectrum(root: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Square roots of the eigenvalues of root @ x @ root, descending."""
    w, _ = hermitian_eigen(root @ x @ root)
    return np.sqrt(zero_clip(w))


def _tangle(m: np.ndarray, root: np.ndarray) -> np.ndarray:
    lam = _root_spectrum(root, _SPIN_FLIP @ m.conj() @ _SPIN_FLIP)
    concurrence = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    # Square by C pow, as a Python float's ** does; x * x differs in ~0.1 % of last bits.
    return np.array([c**2 for c in concurrence.ravel().tolist()]).reshape(concurrence.shape)


def _visibility(m: np.ndarray) -> np.ndarray:
    n_plus = np.maximum(0.0, np.trace(m @ _calibration_projector(22.5), axis1=-2, axis2=-1).real)
    n_minus = np.maximum(0.0, np.trace(m @ _calibration_projector(-22.5), axis1=-2, axis2=-1).real)
    denominator = n_plus + n_minus
    if (denominator < 1e-15).any():
        raise InvalidState("both +-45 degree coincidence rates vanish")
    return np.abs(n_plus - n_minus) / denominator


def _figures(m: np.ndarray, target: np.ndarray | None = None) -> tuple:
    """Purity, tangle, visibility and fidelity to target (else to itself) of each state of m."""
    root = matrix_sqrt(m)
    sigma = m if target is None else target
    return _purity(m), _tangle(m, root), _visibility(m), _root_spectrum(root, sigma).sum(axis=-1)


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 for pure states, 1/4 for the completely mixed state."""
    return float(_purity(rho.matrix))


def tangle(rho: DensityMatrix) -> float:
    """Squared Wootters concurrence, C = max(0, l1 - l2 - l3 - l4)."""
    return float(_tangle(rho.matrix, matrix_sqrt(rho.matrix)))


def visibility(rho: DensityMatrix) -> float:
    """Contrast |N+ - N-| / (N+ + N-) of the +-45 degree coincidence rates.

    N+- are the Born probabilities of the transmitted-transmitted outcome with
    the signal HWP at +22.5 and -22.5 degrees. Unlike the other metrics this
    is basis-dependent by construction.
    """
    return float(_visibility(rho.matrix))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)) = tr|sqrt(rho) sqrt(sigma)|."""
    return float(_root_spectrum(matrix_sqrt(rho.matrix), sigma.matrix).sum())


def family_purity(alpha: float, dephasing: float = 0.0, depolarizing: float = 0.0) -> float:
    """Closed-form purity of the duty-cycle mixture, 2(alpha - 1/2)^2 + 1/2 without noise.

    With depolarizing p, dephasing d and v = (1 - p)(1 - d), it is
    2 (v (alpha - 1/2))^2 + 2 (((1 - p)/2 + p/4)^2 + (p/4)^2); zero noise keeps the bits.
    """
    SourceConfig(alpha, noise=NoiseParams(dephasing, depolarizing))  # checks the three ranges
    v = (1.0 - depolarizing) * (1.0 - dephasing)
    diagonal = ((1.0 - depolarizing) / 2.0 + depolarizing / 4.0) ** 2 + (depolarizing / 4.0) ** 2
    return 2.0 * (v * (alpha - 0.5)) ** 2 + 2.0 * diagonal


def family_tangle(alpha: float, dephasing: float = 0.0, depolarizing: float = 0.0) -> float:
    """Closed-form tangle of the duty-cycle mixture, max(0, visibility - p/2)^2."""
    return max(0.0, family_visibility(alpha, dephasing, depolarizing) - depolarizing / 2.0) ** 2


def family_visibility(alpha: float, dephasing: float = 0.0, depolarizing: float = 0.0) -> float:
    """Closed-form +-45 degree visibility of the duty-cycle mixture, (1 - p)(1 - d)|1 - 2 alpha|."""
    SourceConfig(alpha, noise=NoiseParams(dephasing, depolarizing))  # checks the three ranges
    return (1.0 - depolarizing) * (1.0 - dephasing) * abs(1.0 - 2.0 * alpha)


# MetricsReport's figures in _figures order, each with its range [low, 1].
_LOWS = {"purity": 0.25, "tangle": 0.0, "visibility": 0.0, "fidelity_to_target": 0.0}


def check_ranges(*figures) -> None:
    """Raise InvalidState unless each figure, a number or array, lies in its range within 1e-9."""
    for (name, low), value in zip(_LOWS.items(), figures):
        value = np.asarray(value)
        outside = ~((low - 1e-9 <= value) & (value <= 1.0 + 1e-9))  # NaN is outside
        if outside.any():
            raise InvalidState(f"{name} = {float(value[outside][0])!r} outside [{low}, 1.0]")


@dataclass(frozen=True)
class MetricsReport:
    """All four figures of merit for one state, with the fidelity target named."""

    purity: float
    tangle: float
    visibility: float
    fidelity_to_target: float
    target_description: str

    def __post_init__(self) -> None:
        check_ranges(self.purity, self.tangle, self.visibility, self.fidelity_to_target)

    def to_json_dict(self) -> dict:
        figures = {name: float(getattr(self, name)) for name in _LOWS}
        return {**figures, "target_description": self.target_description}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MetricsReport":
        with parsing("metrics JSON"):
            figures = [float(typed(data[name], float, f"metrics JSON field {name!r}"))
                       for name in _LOWS]
            description = data["target_description"]
            return cls(*figures, typed(description, str, "metrics JSON field 'target_description'"))


def _described(target, description: str | None) -> str:
    """A report's target_description: description, else "target", or "self" without a target."""
    if description is not None:
        typed(description, str, "target_description", OutOfRange)
    return description or ("self" if target is None else "target")


def report_for(
    rho: DensityMatrix,
    target: DensityMatrix | None = None,
    target_description: str | None = None,
) -> MetricsReport:
    """Evaluate all four metrics; fidelity is against target, or rho itself if none."""
    figures = _figures(rho.matrix, None if target is None else target.matrix)
    return MetricsReport(*map(float, figures), _described(target, target_description))
