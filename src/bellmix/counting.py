"""Born-rule probabilities and seeded Poisson coincidence-count simulation.

Counts are independent Poisson draws per outcome (pairs arrive in a fixed time
window; nothing constrains the per-setting total), with an optional flat
accidental background. Every outcome gets its own counter-based random stream
derived from (seed, setting, outcome), so simulating settings in any order or
in parallel yields identical results.

stream() defines that contract. Simulation draws a batch in one vectorised
pass that transcribes numpy's seed hash, Philox block and Poisson method, and
leaves to numpy each draw it cannot certify, so each count is the one stream()
would draw.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataParse, InvalidConfig, MismatchedData, OutOfRange
from .fileio import checked, is_kind, parsing, read_json, read_text, write_json, write_text
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

# The largest Poisson mean numpy draws (POISSON_LAM_MAX in numpy/random/_generator.pyx).
_POISSON_MAX = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)

# Philox4x64-10 (Salmon et al., SC'11; numpy/random/src/philox/philox.h): the
# multipliers of counter words 0 and 2, their 32-bit halves, and the key bumps.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_LO32 = np.uint64(0xFFFFFFFF)
_M_LO, _M_HI = _PHILOX_M & _LO32, _PHILOX_M >> np.uint64(32)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)

# numpy's random_loggam (numpy/random/src/distributions): Stirling coefficients, highest first.
_LOGGAM = [-1.39243221690590, 0.1796443723688307, -2.955065359477124e-02, 6.410256410256410e-03,
           -1.917526917526918e-03, 8.417508417508418e-04, -5.952380952380952e-04,
           7.936507936507937e-04, -2.777777777777778e-03, 8.333333333333333e-02]

# Relative margin, thousands of ulps, within which a Poisson decision is left to
# numpy: its C may differ by a few ulps (libm's log and exp, FMA contraction).
_SLACK = 1e-12


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
        """The fields present in data; an absent field keeps its default."""
        kinds = {"pairs_per_setting": float, "accidental_rate": float, "seed": int}
        checked(data, "acquisition", kinds)
        with parsing("acquisition", InvalidConfig):
            return cls(**{key: kinds[key](value) for key, value in data.items()})


@dataclass(frozen=True)
class CountRecord:
    """Coincidence counts of the four outcomes of one setting."""

    setting_index: int
    outcome_counts: tuple


def stream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic counter-based generator for one (seed, key...) slot."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *key: int) -> int:
    """A fresh 64-bit seed deterministically derived from (seed, key...).

    The reference definition: for a two-word key it is _philox_keys([seed], [key])[0, 0, 0],
    which derives the seeds of many (seed, key) pairs in one pass.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _hashmix(value, steps, init: int, mult: int):
    """numpy's hashmix of uint32 words at each step s of the hash constant init * mult**s.

    Returns (len(steps), ...): value, or row i of value, hashed at steps[i].
    """
    const = [init * pow(mult, step, 2**32) % 2**32 for step in steps]
    xor, times = np.array([const, [c * mult % 2**32 for c in const]], np.uint32)[..., None, None]
    value = (value ^ xor) * times
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
    entropy = [[seed & 0xFFFFFFFF, seed >> 32, 0, 0] for seed in map(int, seeds)]
    words = np.array(entropy, dtype=np.uint32).reshape(-1, 4).T[..., None]  # (4, B, 1)
    pool = _hashmix(words, range(4), _INIT_A, _MULT_A)
    for src in range(4):  # one source word's hashes mix into the other three words at once
        dst = [word for word in range(4) if word != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], range(4 + 3 * src, 7 + 3 * src),
                                             _INIT_A, _MULT_A))
    for index, word in enumerate(np.array(keys, dtype=np.uint32).reshape(-1, 2).T):
        pool = _mix(pool, _hashmix(word, range(16 + 4 * index, 20 + 4 * index), _INIT_A, _MULT_A))
    state = np.moveaxis(_hashmix(pool, range(4), _INIT_B, _MULT_B), 0, -1)
    return np.ascontiguousarray(state, "<u4").view("<u8")  # word pairs as uint64, lo first


def _philox_block(keys) -> np.ndarray:
    """The first Philox4x64-10 block (counter 1, as numpy draws it) of every key (N, 2) uint64.

    Returns (4, N) uint64. Each round multiplies counter words 0 and 2 into
    128 bits from 32-bit halves; the key is bumped before every round but the first.
    """
    key = keys.T.copy() - _PHILOX_W  # C order: keys.T is a strided view
    even, odd = np.zeros((2, 2, len(keys)), dtype=np.uint64)  # counter words 0, 2 and 1, 3
    even[0] = 1
    for _ in range(10):
        key += _PHILOX_W
        x_lo, x_hi = even & _LO32, even >> np.uint64(32)
        lh = _M_LO * x_hi
        cross = (_M_LO * x_lo >> np.uint64(32)) + (lh & _LO32) + _M_HI * x_lo
        hi = _M_HI * x_hi + (lh >> np.uint64(32)) + (cross >> np.uint64(32))
        even, odd = hi[::-1] ^ odd ^ key, (_PHILOX_M * even)[::-1]
    return np.stack([even, odd], axis=1).reshape(4, -1)


def _ptrs(lam: np.ndarray, u: np.ndarray) -> tuple:
    """numpy's random_poisson_ptrs (means >= 10) on doubles u (4, N): (counts, certified).

    Attempt 1 uses u[0:2] and attempt 2 u[2:4]. A draw is certified if an
    attempt accepts and every decision up to it is outside the margin.
    """
    b = 0.931 + 2.53 * np.sqrt(lam)
    a = -0.059 + 0.02483 * b
    vr = 0.9277 - 3.6224 / (b - 2)
    U, V = u[0::2] - 0.5, u[1::2]
    us = 0.5 - np.abs(U)
    spread = (2 * a / us + b) * U
    x = spread + lam + 0.43
    floor_ok = np.abs(x - np.round(x)) > _SLACK * (np.abs(spread) + lam + 1)
    k = np.where(floor_ok, np.floor(x), -1).astype(np.int64)
    fast = (us >= 0.07) & (V <= vr)
    rejected = ~fast & ((k < 0) | ((us < 0.013) & (V > us)))
    lhs = np.log(V) + np.log(1.1239 + 1.1328 / (b - 3.4)) - np.log(a / (us * us) + b)
    n = np.maximum(k, 6) + 1.0  # log(k!) for k >= 6 as numpy's random_loggam(n), to a few ulps
    log_factorial = (np.polyval(_LOGGAM, 1.0 / n * (1.0 / n)) / n + 0.5 * math.log(2 * math.pi)
                     + (n - 0.5) * np.log(n) - n)
    k_log_lam = k * np.log(lam)
    gap = lhs - (k_log_lam - lam - log_factorial)
    log_ok = (np.abs(gap) > _SLACK * (lam + np.abs(k_log_lam) + log_factorial)) & (k >= 6)
    certain = floor_ok & ((us < 0.07) | (np.abs(V - vr) > _SLACK)) & (fast | rejected | log_ok)
    accepted = fast | (~rejected & (gap <= 0))
    return (np.where(accepted[0], k[0], k[1]),
            certain[0] & (accepted[0] | certain[1] & accepted[1]))


def _multiplication(lam: np.ndarray, u: np.ndarray) -> tuple:
    """numpy's random_poisson_mult (means in (0, 10)) on doubles u (4, N): (counts, certified)."""
    enlam = np.exp(-lam)
    products = np.cumprod(u, axis=0)  # certified if the last is below and none is near enlam
    near = np.abs(products - enlam) <= _SLACK * enlam
    return (products > enlam).sum(axis=0), (products[3] <= enlam) & ~near.any(axis=0)


def _poisson(means, seeds, keys) -> np.ndarray:
    """Counts (len(seeds), len(keys)); slot [b, k] is stream(seeds[b], *keys[k]).poisson(mean).

    means is one row (len(keys),) for every seed, or one row per seed. Each
    draw that the vectorised pass cannot certify is drawn by numpy from one
    Philox rekeyed with the state of a fresh Philox(SeedSequence(...)):
    counter 0 and an empty buffer.
    """
    counts = np.zeros((len(seeds), len(keys)), dtype=np.int64)
    means = np.broadcast_to(np.asarray(means, dtype=float), counts.shape)
    too_large = means[means > _POISSON_MAX]
    if too_large.size:
        raise OutOfRange(f"Poisson mean {float(too_large.max())!r} is above "
                         f"{_POISSON_MAX!r}, the largest numpy can draw")
    lam, flat = means.ravel(), counts.reshape(-1)
    philox_keys = _philox_keys(seeds, keys).reshape(-1, 2)
    u = (_philox_block(philox_keys) >> np.uint64(11)) * 2.0**-53  # numpy's next_double
    certified = lam == 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for method, draws in ((_ptrs, lam >= 10), (_multiplication, (lam > 0) & (lam < 10))):
            flat[draws], certified[draws] = method(lam[draws], u[:, draws])
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = {"bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": None},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for draw in np.flatnonzero(~certified).tolist():
        state["state"]["key"] = philox_keys[draw].tolist()
        bitgen.state = state
        flat[draw] = gen.poisson(lam[draw])
    return counts


def born_probabilities(rho: DensityMatrix, pset: ProjectorSet, setting_index: int) -> np.ndarray:
    """The four outcome probabilities tr(rho Pi_k) of one setting, clipped at zero."""
    group = pset.setting_projectors(setting_index)  # raises IndexOutOfRange
    probs = np.real(np.einsum("kij,ji->k", group, rho.matrix))
    return np.clip(probs, 0.0, None)


def _means(rho: DensityMatrix, pset: ProjectorSet, acq: AcquisitionConfig) -> np.ndarray:
    """Poisson mean of every outcome (4 * n_settings,), in projector order."""
    probs = np.concatenate([born_probabilities(rho, pset, s) for s in range(pset.n_settings)])
    return acq.pairs_per_setting * probs + acq.accidental_rate


def _outcome_keys(pset: ProjectorSet) -> list:
    """The stream key (setting, outcome) of every outcome, in projector order."""
    return [(setting, outcome) for setting in range(pset.n_settings) for outcome in range(4)]


def _simulate(states, pset: ProjectorSet, acq: AcquisitionConfig, seeds) -> list:
    """simulate_counts of every state with acq at its own seed, drawn in one pass."""
    means = np.stack([_means(rho, pset, acq) for rho in states])
    return [[CountRecord(setting_index, tuple(row)) for setting_index, row in
             enumerate(counts.reshape(-1, 4).tolist())]
            for counts in _poisson(means, seeds, _outcome_keys(pset))]


def simulate_counts(
    rho: DensityMatrix, pset: ProjectorSet, acq: AcquisitionConfig
) -> list[CountRecord]:
    """Poisson counts for every setting; fully determined by acq.seed."""
    return _simulate([rho], pset, acq, [acq.seed])[0]


def visibility_scan(
    rho: DensityMatrix, hwp_angles, acq: AcquisitionConfig
) -> list[tuple[float, int]]:
    """Transmitted-transmitted counts versus signal HWP angle.

    QWPs stay at zero and the idler HWP is parked at -22.5 degrees; the
    noiseless means follow A + B cos(4 theta + theta0).
    """
    angles = [float(angle) for angle in hwp_angles]
    non_finite = [angle for angle in angles if not math.isfinite(angle)]
    if non_finite:
        raise OutOfRange(f"HWP angles must be finite, got {non_finite}")
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
        odd = [field for field in (parts[0], parts[2]) if not (field.isascii() and field.isdigit())]
        if odd:  # int() would also read '+1', ' 1', '1_0' and non-ASCII digits
            raise DataParse(f"counts CSV line {lineno}: expected ASCII digits, got {odd[0]!r}")
        try:
            setting_index = _count(int(parts[0]), f"counts CSV line {lineno}")
            count = _count(int(parts[2]), f"counts CSV line {lineno}")
        except ValueError as exc:  # more digits than int() converts
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
