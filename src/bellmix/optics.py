"""Jones-calculus analyzer model and the nine-setting, 36-outcome projector set.

Each analyzer arm is a half-wave plate, then a quarter-wave plate, then a
polarizing beam splitter whose transmitted port passes H and whose reflected
port passes V. Back-propagating the port states through the plates gives the
two orthogonal analysis states per arm; the four coincidence outcomes of a
setting are their tensor products, so every setting is a complete projective
measurement. This plate order is what makes QWP 0 / HWP 22.5 analyze the
+-45 degree basis, as the hardware calibration procedure requires.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DataParse, IndexOutOfRange, InvalidState
from .fileio import is_kind, parsing, read_json, write_json
from .linalg import matrix_from_json_dict, matrix_to_json_dict

HWP_RETARDANCE = np.pi
QWP_RETARDANCE = np.pi / 2.0

OUTCOME_LABELS = ("TT", "TR", "RT", "RR")

_KET_H = np.array([1.0, 0.0], dtype=complex)
_KET_V = np.array([0.0, 1.0], dtype=complex)


@dataclass(frozen=True)
class WaveplateSetting:
    """Fast-axis angles (degrees from horizontal) of one arm's QWP and HWP."""

    qwp_angle: float
    hwp_angle: float


@dataclass(frozen=True)
class AnalyzerPair:
    """One tomography setting: named bases plus the waveplate angles realizing them."""

    signal_basis: str
    idler_basis: str
    signal: WaveplateSetting
    idler: WaveplateSetting


def waveplate_jones(angle_deg: float, retardance: float) -> np.ndarray:
    """Jones matrix of a retarder with its fast axis at angle_deg.

    The slow axis picks up e^{-i retardance}; global phases cancel later
    because only projectors leave this module.
    """
    theta = np.deg2rad(angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    ret = np.array([[1.0, 0.0], [0.0, np.exp(-1j * retardance)]], dtype=complex)
    return rot @ ret @ rot.T


def analyzer_ports(setting: WaveplateSetting) -> tuple[np.ndarray, np.ndarray]:
    """Back-propagated (transmitted, reflected) analysis states of one arm."""
    u = waveplate_jones(setting.qwp_angle, QWP_RETARDANCE) @ waveplate_jones(
        setting.hwp_angle, HWP_RETARDANCE
    )
    udag = u.conj().T
    return udag @ _KET_H, udag @ _KET_V


def analyzer_projectors(signal: WaveplateSetting, idler: WaveplateSetting) -> np.ndarray:
    """The four rank-1 coincidence projectors of one setting, ordered TT, TR, RT, RR."""
    t_s, r_s = analyzer_ports(signal)
    t_i, r_i = analyzer_ports(idler)
    projectors = []
    for arm_s in (t_s, r_s):
        for arm_i in (t_i, r_i):
            ket = np.kron(arm_s, arm_i)
            projectors.append(np.outer(ket, ket.conj()))
    return np.array(projectors)


# Basis-to-angle table. HV is the plates at rest; DA rotates the analysis
# frame by 45 degrees with the HWP alone; RL turns the QWP to 45 degrees so
# the circular states map onto the PBS ports.
BASIS_ANGLES = {
    "HV": WaveplateSetting(0.0, 0.0),
    "DA": WaveplateSetting(0.0, 22.5),
    "RL": WaveplateSetting(45.0, 0.0),
}
BASIS_ORDER = ("HV", "DA", "RL")

# Contrast-calibration geometry: the idler analyzer parks at -22.5 degrees
# (transmitting -45) while the signal HWP is scanned.
CALIBRATION_IDLER = WaveplateSetting(0.0, -22.5)


@dataclass(frozen=True)
class ProjectorSet:
    """Nine analyzer settings and their 36 labeled rank-1 projectors."""

    settings: tuple[AnalyzerPair, ...]
    projectors: np.ndarray  # shape (n_settings, 4, 4, 4)

    def __post_init__(self) -> None:
        arr = np.array(self.projectors, dtype=complex)
        if arr.ndim != 4 or arr.shape[1:] != (4, 4, 4) or arr.shape[0] != len(self.settings):
            raise InvalidState(f"projector array has shape {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "projectors", arr)

    @property
    def n_settings(self) -> int:
        return len(self.settings)

    @property
    def labels(self) -> tuple[tuple[int, str], ...]:
        return tuple(
            (index, label)
            for index in range(self.n_settings)
            for label in OUTCOME_LABELS
        )

    def setting_projectors(self, setting_index: int) -> np.ndarray:
        if not 0 <= setting_index < self.n_settings:
            raise IndexOutOfRange(
                f"setting index {setting_index} outside 0..{self.n_settings - 1}"
            )
        return self.projectors[setting_index]

    def flattened(self) -> np.ndarray:
        """All projectors as rows of a (4*n_settings, 16) matrix, outcome-major order."""
        return self.projectors.reshape(-1, 16)

    def validate(self) -> None:
        """Check completeness per setting and the rank-1 projector identities."""
        eye = np.eye(4)
        for index in range(self.n_settings):
            group = self.projectors[index]
            if np.abs(group.sum(axis=0) - eye).max() > 1e-10:
                raise InvalidState(f"setting {index}: outcomes do not sum to identity")
            for k, proj in enumerate(group):
                if np.abs(proj - proj.conj().T).max() > 1e-10:
                    raise InvalidState(f"projector ({index},{k}) is not Hermitian")
                if np.abs(proj @ proj - proj).max() > 1e-10:
                    raise InvalidState(f"projector ({index},{k}) is not idempotent")
                if abs(proj.trace() - 1.0) > 1e-10:
                    raise InvalidState(f"projector ({index},{k}) does not have unit trace")


@lru_cache(maxsize=1)
def standard_projector_set() -> ProjectorSet:
    """All nine pairs of single-arm bases HV, DA, RL, signal basis varying slowest."""
    settings = []
    groups = []
    for signal_name, idler_name in itertools.product(BASIS_ORDER, repeat=2):
        signal = BASIS_ANGLES[signal_name]
        idler = BASIS_ANGLES[idler_name]
        settings.append(AnalyzerPair(signal_name, idler_name, signal, idler))
        groups.append(analyzer_projectors(signal, idler))
    pset = ProjectorSet(settings=tuple(settings), projectors=np.array(groups))
    pset.validate()
    return pset


def projector_set_to_json_dict(pset: ProjectorSet) -> dict:
    entries = []
    for index, pair in enumerate(pset.settings):
        entries.append(
            {
                "index": index,
                "signal_basis": pair.signal_basis,
                "idler_basis": pair.idler_basis,
                "signal_angles": {
                    "qwp_angle": float(pair.signal.qwp_angle),
                    "hwp_angle": float(pair.signal.hwp_angle),
                },
                "idler_angles": {
                    "qwp_angle": float(pair.idler.qwp_angle),
                    "hwp_angle": float(pair.idler.hwp_angle),
                },
                "projectors": {
                    label: matrix_to_json_dict(pset.projectors[index, k])
                    for k, label in enumerate(OUTCOME_LABELS)
                },
            }
        )
    return {"settings": entries}


def _waveplates(angles: dict) -> WaveplateSetting:
    """One arm's waveplate angles, if both are finite JSON numbers."""
    qwp, hwp = angles["qwp_angle"], angles["hwp_angle"]
    if not all(is_kind(a, float) and math.isfinite(a) for a in (qwp, hwp)):
        raise DataParse(f"waveplate angles must be finite numbers, got {qwp!r}, {hwp!r}")
    return WaveplateSetting(float(qwp), float(hwp))


def projector_set_from_json_dict(data: dict) -> ProjectorSet:
    """The projector set in data, if every setting is a complete projective measurement."""
    with parsing("projector-set JSON"):
        entries = data["settings"]
        settings = []
        groups = []
        for entry in entries:
            signal = _waveplates(entry["signal_angles"])
            idler = _waveplates(entry["idler_angles"])
            settings.append(
                AnalyzerPair(str(entry["signal_basis"]), str(entry["idler_basis"]), signal, idler)
            )
            groups.append(
                [matrix_from_json_dict(entry["projectors"][label]) for label in OUTCOME_LABELS]
            )
        # np.array raises ValueError when 2x2 and 4x4 matrices are mixed.
        pset = ProjectorSet(settings=tuple(settings), projectors=np.array(groups))
    pset.validate()
    return pset


def write_projector_set_json(path, pset: ProjectorSet) -> None:
    write_json(path, projector_set_to_json_dict(pset))


def read_projector_set_json(path) -> ProjectorSet:
    return projector_set_from_json_dict(read_json(path, "projector set"))
