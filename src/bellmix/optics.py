"""Jones-calculus analyzer model and the nine-setting, 36-outcome projector set.

Each analyzer arm is a half-wave plate, then a quarter-wave plate, then a
polarizing beam splitter whose transmitted port passes H and whose reflected
port passes V. Back-propagating the port states through the plates gives the
two orthogonal analysis states per arm; the four coincidence outcomes of a
setting are their tensor products, so every setting is a complete projective
measurement. This plate order is what makes QWP 0 / HWP 22.5 analyze the
+-45 degree basis, as the hardware calibration procedure requires.

_born is the one Born product, from which the simulated counts' Poisson means,
the fit's likelihood and the visibility scan take their probabilities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InvalidState
from .fileio import by_index, parsing, read_json, typed, write_json
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


@lru_cache(maxsize=8)
def _calibration_projector(signal_hwp_deg: float) -> np.ndarray:
    """The read-only TT projector with the signal HWP at signal_hwp_deg and the idler parked."""
    proj = analyzer_projectors(WaveplateSetting(0.0, signal_hwp_deg), CALIBRATION_IDLER)[0]
    proj.setflags(write=False)
    return proj


def _born(flat: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Born probabilities tr(rho Pi_j) (B, n_outcomes) of states rho (B, 4, 4), unclipped.

    flat holds projectors Pi_j as rows (n_outcomes, 16), as ProjectorSet.flattened() does.
    """
    return (flat @ rho.swapaxes(1, 2).reshape(-1, 16, 1)).real[..., 0]


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """The four rank-1 projectors of each analyzer setting, ordered TT, TR, RT, RR.

    Constructing one checks, to 1e-10, that each setting's outcomes sum to the
    identity and each projector is Hermitian, idempotent and of unit trace.
    """

    projectors: np.ndarray  # shape (n_settings, 4, 4, 4)

    def __post_init__(self) -> None:
        arr = np.array(self.projectors, dtype=complex)
        if arr.ndim != 4 or arr.shape[1:] != (4, 4, 4):
            raise InvalidState(f"projector array has shape {arr.shape}")
        with np.errstate(all="ignore"):  # a non-finite defect fails its check
            defects = (
                (np.abs(arr.sum(axis=1) - np.eye(4)).max(axis=(1, 2)),
                 "setting {}: outcomes do not sum to identity"),
                (np.abs(arr - arr.conj().swapaxes(2, 3)).max(axis=(2, 3)),
                 "projector ({},{}) is not Hermitian"),
                (np.abs(arr @ arr - arr).max(axis=(2, 3)), "projector ({},{}) is not idempotent"),
                (np.abs(arr.trace(axis1=2, axis2=3) - 1.0),
                 "projector ({},{}) does not have unit trace"),
            )
        for defect, message in defects:  # the first failing setting or projector of each check
            failing = np.argwhere(~(defect <= 1e-10))  # NaN fails too
            if len(failing):
                raise InvalidState(message.format(*failing[0].tolist()))
        arr.setflags(write=False)
        object.__setattr__(self, "projectors", arr)

    def __setstate__(self, state: dict) -> None:  # re-locks what pickling unlocked
        state["projectors"].setflags(write=False)
        vars(self).update(state)

    @property
    def n_settings(self) -> int:
        return len(self.projectors)

    def flattened(self) -> np.ndarray:
        """All projectors as rows of a (4*n_settings, 16) matrix, outcome-major order."""
        return self.projectors.reshape(-1, 16)


@lru_cache(maxsize=1)
def standard_projector_set() -> ProjectorSet:
    """All nine pairs of single-arm bases HV, DA, RL, signal basis varying slowest."""
    groups = [analyzer_projectors(BASIS_ANGLES[signal], BASIS_ANGLES[idler])
              for signal, idler in itertools.product(BASIS_ORDER, repeat=2)]
    return ProjectorSet(np.array(groups))


def projector_set_to_json_dict(pset: ProjectorSet) -> dict:
    entries = []
    for index, group in enumerate(pset.projectors):
        entries.append(
            {
                "index": index,
                "projectors": {
                    label: matrix_to_json_dict(m) for label, m in zip(OUTCOME_LABELS, group)
                },
            }
        )
    return {"settings": entries}


def projector_set_from_json_dict(data: dict) -> ProjectorSet:
    """The settings in data placed by "index", if each is a complete projective measurement.

    A setting is read from its "index" and "projectors" keys; any other key is ignored.
    """
    with parsing("projector-set JSON"):
        rows = []
        for entry in data["settings"]:
            group = [matrix_from_json_dict(entry["projectors"][label]) for label in OUTCOME_LABELS]
            rows.append((typed(entry["index"], int, "projector-set JSON 'index'"), group))
        return ProjectorSet(np.array(by_index(rows, "projector-set JSON")))


def write_projector_set_json(path, pset: ProjectorSet) -> None:
    write_json(path, projector_set_to_json_dict(pset))


def read_projector_set_json(path) -> ProjectorSet:
    return projector_set_from_json_dict(read_json(path, "projector set"))
