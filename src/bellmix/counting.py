"""Born-rule probabilities and seeded Poisson coincidence-count simulation.

Counts are independent Poisson draws per outcome (pairs arrive in a fixed time
window; nothing constrains the per-setting total), with an optional flat
accidental background. Every outcome gets its own counter-based random stream
derived from (seed, setting, outcome), so simulating settings in any order or
in parallel yields identical results.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataParse, InvalidConfig, MismatchedData, OutOfRange
from .fileio import is_kind, parsing, read_json, read_text, write_json, write_text
from .linalg import DensityMatrix
from .optics import (
    CALIBRATION_IDLER,
    OUTCOME_LABELS,
    ProjectorSet,
    WaveplateSetting,
    analyzer_projectors,
)

# Stream namespaces; setting indices only use 0..8, so these cannot collide.
_SCAN_STREAM = 101
_BOOTSTRAP_STREAM = 202
_SWEEP_STREAM = 303

COUNTS_CSV_HEADER = "setting_index,outcome_label,count"


@dataclass(frozen=True)
class AcquisitionConfig:
    """Expected detected pairs per setting, flat accidental mean, and master seed."""

    pairs_per_setting: float = 1e5
    accidental_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pairs_per_setting) and self.pairs_per_setting > 0.0):
            raise OutOfRange(
                f"pairs_per_setting must be finite and > 0, got {self.pairs_per_setting!r}"
            )
        if not (math.isfinite(self.accidental_rate) and self.accidental_rate >= 0.0):
            raise OutOfRange(
                f"accidental_rate must be finite and >= 0, got {self.accidental_rate!r}"
            )
        if not 0 <= int(self.seed) < 2**64:
            raise OutOfRange(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")

    @classmethod
    def from_json_dict(cls, data: dict) -> "AcquisitionConfig":
        with parsing("acquisition", InvalidConfig):
            return cls(
                pairs_per_setting=float(data.get("pairs_per_setting", 1e5)),
                accidental_rate=float(data.get("accidental_rate", 0.0)),
                seed=int(data.get("seed", 0)),
            )

    def to_json_dict(self) -> dict:
        return {
            "pairs_per_setting": float(self.pairs_per_setting),
            "accidental_rate": float(self.accidental_rate),
            "seed": int(self.seed),
        }


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts of the four outcomes of one setting."""

    setting_index: int
    outcome_counts: tuple
    duration_tag: str = ""


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic counter-based generator for one (seed, key...) slot."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *key: int) -> int:
    """A fresh 64-bit seed deterministically derived from (seed, key...)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def born_probabilities(rho: DensityMatrix, pset: ProjectorSet, setting_index: int) -> np.ndarray:
    """The four outcome probabilities tr(rho Pi_k) of one setting, clipped at zero."""
    group = pset.setting_projectors(setting_index)  # raises IndexOutOfRange
    probs = np.real(np.einsum("kij,ji->k", group, rho.matrix))
    return np.clip(probs, 0.0, None)


def simulate_counts(
    rho: DensityMatrix, pset: ProjectorSet, acq: AcquisitionConfig
) -> list[CountRecord]:
    """Poisson counts for every setting; fully determined by acq.seed."""
    tag = f"pairs={acq.pairs_per_setting:g}"
    records = []
    for setting_index in range(pset.n_settings):
        probs = born_probabilities(rho, pset, setting_index)
        counts = []
        for outcome_index, p in enumerate(probs):
            mean = acq.pairs_per_setting * float(p) + acq.accidental_rate
            rng = stream(acq.seed, setting_index, outcome_index)
            counts.append(int(rng.poisson(mean)))
        records.append(
            CountRecord(setting_index=setting_index, outcome_counts=tuple(counts), duration_tag=tag)
        )
    return records


def visibility_scan(
    rho: DensityMatrix, hwp_angles, acq: AcquisitionConfig
) -> list[tuple[float, int]]:
    """Transmitted-transmitted counts versus signal HWP angle.

    QWPs stay at zero and the idler HWP is parked at -22.5 degrees; the
    noiseless means follow A + B cos(4 theta + theta0).
    """
    results = []
    for angle_index, angle in enumerate(hwp_angles):
        proj = analyzer_projectors(WaveplateSetting(0.0, float(angle)), CALIBRATION_IDLER)[0]
        p = max(0.0, float(np.real(np.trace(rho.matrix @ proj))))
        mean = acq.pairs_per_setting * p + acq.accidental_rate
        rng = stream(acq.seed, _SCAN_STREAM, angle_index)
        results.append((float(angle), int(rng.poisson(mean))))
    return results


def counts_to_csv(records) -> str:
    out = io.StringIO()
    out.write(COUNTS_CSV_HEADER + "\n")
    for record in records:
        for label, count in zip(OUTCOME_LABELS, record.outcome_counts):
            out.write(f"{record.setting_index},{label},{int(count)}\n")
    return out.getvalue()


def _count(value, where: str) -> int:
    """value, if it is a count or a setting index: an integer in [0, 2**63), never a bool."""
    if not (is_kind(value, int) and 0 <= value < 2**63):
        raise DataParse(f"{where}: expected an integer in [0, 2**63), got {value!r}")
    return value


def counts_from_csv(text: str) -> list[CountRecord]:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != COUNTS_CSV_HEADER:
        raise DataParse(f"counts CSV must start with header {COUNTS_CSV_HEADER!r}")
    per_setting: dict[int, dict[str, int]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise DataParse(f"counts CSV line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            setting_index = _count(int(parts[0]), f"counts CSV line {lineno}")
            count = _count(int(parts[2]), f"counts CSV line {lineno}")
        except ValueError as exc:
            raise DataParse(f"counts CSV line {lineno}: {exc}") from exc
        label = parts[1]
        if label not in OUTCOME_LABELS:
            raise DataParse(f"counts CSV line {lineno}: unknown outcome label {label!r}")
        slot = per_setting.setdefault(setting_index, {})
        if label in slot:
            raise DataParse(f"counts CSV line {lineno}: duplicate ({setting_index}, {label})")
        slot[label] = count
    records = []
    for setting_index in sorted(per_setting):
        slot = per_setting[setting_index]
        missing = [label for label in OUTCOME_LABELS if label not in slot]
        if missing:
            raise DataParse(f"setting {setting_index} is missing outcomes {missing}")
        records.append(
            CountRecord(
                setting_index=setting_index,
                outcome_counts=tuple(slot[label] for label in OUTCOME_LABELS),
            )
        )
    return records


def counts_to_json_dict(records) -> dict:
    return {
        "records": [
            {
                "setting_index": int(record.setting_index),
                "outcome_counts": [int(c) for c in record.outcome_counts],
                "duration_tag": record.duration_tag,
            }
            for record in records
        ]
    }


def counts_from_json_dict(data: dict) -> list[CountRecord]:
    with parsing("counts JSON"):
        return [
            CountRecord(
                setting_index=_count(entry["setting_index"], "counts JSON setting_index"),
                outcome_counts=tuple(
                    _count(c, "counts JSON count") for c in entry["outcome_counts"]
                ),
                duration_tag=str(entry.get("duration_tag", "")),
            )
            for entry in data["records"]
        ]


def write_counts_csv(path, records) -> None:
    write_text(path, counts_to_csv(records))


def read_counts_csv(path) -> list[CountRecord]:
    return counts_from_csv(read_text(path, "counts file"))


def write_counts_json(path, records) -> None:
    write_json(path, counts_to_json_dict(records))


def read_counts_json(path) -> list[CountRecord]:
    return counts_from_json_dict(read_json(path, "counts file"))


def validate_against(records, pset: ProjectorSet) -> None:
    """Raise MismatchedData unless records exactly cover the projector set."""
    seen = set()
    for record in records:
        if not 0 <= record.setting_index < pset.n_settings:
            raise MismatchedData(
                f"setting index {record.setting_index} outside projector set "
                f"(0..{pset.n_settings - 1})"
            )
        if record.setting_index in seen:
            raise MismatchedData(f"duplicate records for setting {record.setting_index}")
        if len(record.outcome_counts) != len(OUTCOME_LABELS):
            raise MismatchedData(
                f"setting {record.setting_index} has {len(record.outcome_counts)} outcomes, "
                f"expected {len(OUTCOME_LABELS)}"
            )
        seen.add(record.setting_index)
    missing = set(range(pset.n_settings)) - seen
    if missing:
        raise MismatchedData(f"records missing settings {sorted(missing)}")
