"""Born-rule probabilities and seeded Poisson coincidence-count simulation.

Counts are independent Poisson draws per outcome (pairs arrive in a fixed time
window; nothing constrains the per-setting total), with an optional flat
accidental background. Every outcome gets its own counter-based random stream
derived from (seed, setting, outcome), so simulating settings in any order or
in parallel yields identical results.

stream() defines that contract. Simulation derives the same Philox keys for
all outcomes and seeds of a batch in one vectorised pass, so each count is the
one stream() would draw.
"""

from __future__ import annotations

import io
import itertools
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

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words mixed with running multiplicative hash constants.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


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


def _hashmix(value, step: int, init: int, mult: int):
    """numpy's hashmix of uint32 words, at step `step` of the hash constant init * mult**step."""
    const = init * pow(mult, step, 2**32) % 2**32
    value = (value ^ np.uint32(const)) * np.uint32(const * mult % 2**32)
    return value ^ value >> 16


def _mix(x, y):
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    return result ^ result >> 16


def _philox_keys(seeds, keys) -> np.ndarray:
    """The Philox key of stream(seed, *key) for every seed and key pair: (B, K, 2) uint64.

    Slot [b, k] is SeedSequence(entropy=seeds[b], spawn_key=keys[k]).generate_state(2,
    np.uint64): numpy's hash of the words [lo, hi, 0, 0, *key] (padded to the pool
    size because a spawn key follows), step for step, on uint32 arrays.
    """
    if any(not 0 <= word < 2**32 for key in keys for word in key):
        raise OutOfRange(f"stream key words must be integers in [0, 2**32), got {keys!r}")
    step = itertools.count()
    entropy = [[seed & 0xFFFFFFFF, seed >> 32, 0, 0] for seed in map(int, seeds)]
    words = np.array(entropy, dtype=np.uint32).reshape(-1, 4).T
    pool = [_hashmix(word[:, None], next(step), _INIT_A, _MULT_A) for word in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(step), _INIT_A, _MULT_A))
    for word in np.array(keys, dtype=np.uint32).reshape(-1, 2).T:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hashmix(word, next(step), _INIT_A, _MULT_A))
    state = [_hashmix(word, i, _INIT_B, _MULT_B) for i, word in enumerate(pool)]
    return np.stack(state, axis=-1).astype("<u4").view("<u8")  # word pairs as uint64, lo first


def _poisson(means, seeds, keys) -> np.ndarray:
    """Counts (len(seeds), len(keys)); slot [b, k] is stream(seeds[b], *keys[k]).poisson(means[k]).

    One Philox is rekeyed for every draw, with the state of a fresh
    Philox(SeedSequence(...)): counter 0 and an empty buffer.
    """
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    counts = np.empty((len(seeds), len(keys)), dtype=np.int64)
    for b, row in enumerate(_philox_keys(seeds, keys)):
        for k, (key, mean) in enumerate(zip(row.tolist(), means)):
            state["state"]["key"] = key
            bitgen.state = state
            counts[b, k] = gen.poisson(mean)
    return counts


def born_probabilities(rho: DensityMatrix, pset: ProjectorSet, setting_index: int) -> np.ndarray:
    """The four outcome probabilities tr(rho Pi_k) of one setting, clipped at zero."""
    group = pset.setting_projectors(setting_index)  # raises IndexOutOfRange
    probs = np.real(np.einsum("kij,ji->k", group, rho.matrix))
    return np.clip(probs, 0.0, None)


def _simulate(rho: DensityMatrix, pset: ProjectorSet, acq: AcquisitionConfig, seeds) -> np.ndarray:
    """Counts (len(seeds), 4 * n_settings) in projector order: row b simulates at seeds[b]."""
    probs = np.concatenate([born_probabilities(rho, pset, s) for s in range(pset.n_settings)])
    keys = [(setting, outcome) for setting in range(pset.n_settings) for outcome in range(4)]
    return _poisson((acq.pairs_per_setting * probs + acq.accidental_rate).tolist(), seeds, keys)


def simulate_counts(
    rho: DensityMatrix, pset: ProjectorSet, acq: AcquisitionConfig
) -> list[CountRecord]:
    """Poisson counts for every setting; fully determined by acq.seed."""
    tag = f"pairs={acq.pairs_per_setting:g}"
    counts = _simulate(rho, pset, acq, [acq.seed]).reshape(pset.n_settings, 4)
    return [
        CountRecord(setting_index=setting_index, outcome_counts=tuple(row), duration_tag=tag)
        for setting_index, row in enumerate(counts.tolist())
    ]


def visibility_scan(
    rho: DensityMatrix, hwp_angles, acq: AcquisitionConfig
) -> list[tuple[float, int]]:
    """Transmitted-transmitted counts versus signal HWP angle.

    QWPs stay at zero and the idler HWP is parked at -22.5 degrees; the
    noiseless means follow A + B cos(4 theta + theta0).
    """
    angles = [float(angle) for angle in hwp_angles]
    means = []
    for angle in angles:
        proj = analyzer_projectors(WaveplateSetting(0.0, angle), CALIBRATION_IDLER)[0]
        p = max(0.0, float(np.real(np.trace(rho.matrix @ proj))))
        means.append(acq.pairs_per_setting * p + acq.accidental_rate)
    keys = [(_SCAN_STREAM, angle_index) for angle_index in range(len(angles))]
    return list(zip(angles, _poisson(means, [acq.seed], keys)[0].tolist()))


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
