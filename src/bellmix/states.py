"""State factory for the duty-cycled two-photon source.

The source emits beta|HH> - e^{i phi} gamma|VV> while the pump rotator sits at
low voltage and the sign-flipped state at high voltage. Averaging over the
square waveform mixes the two with weights set by the duty cycle alpha
(alpha = 0: pure low-voltage state, alpha = 1: pure high-voltage state). A
second rotator in the signal arm swaps H and V on that photon for a fraction
signal_dc of the time, which turns Phi-type states into Psi-type states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigParse, InvalidConfig, NotNormalized, OutOfRange
from .fileio import checked, read_json
from .linalg import DensityMatrix, hermitize

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# X on the signal photon, identity on the idler: swaps HH<->VH and HV<->VV.
_SIGNAL_FLIP = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2)).astype(complex)
_SIGNAL_Z = np.kron(np.diag([1.0, -1.0]), np.eye(2)).astype(complex)

_BELL_AMPLITUDES = {
    "phi+": (_INV_SQRT2, 0.0, 0.0, _INV_SQRT2),
    "phi-": (_INV_SQRT2, 0.0, 0.0, -_INV_SQRT2),
    "psi+": (0.0, _INV_SQRT2, _INV_SQRT2, 0.0),
    "psi-": (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0),
}


@dataclass(frozen=True)
class NoiseParams:
    """Two-parameter noise model: signal-arm H/V dephasing plus uniform depolarizing."""

    dephasing: float = 0.0
    depolarizing: float = 0.0

    def __post_init__(self) -> None:
        for name in ("dephasing", "depolarizing"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise OutOfRange(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class SourceConfig:
    """Pump and rotator parameters defining one generated state."""

    alpha: float = 0.0
    phi: float = 0.0
    beta: complex = _INV_SQRT2
    gamma: complex = _INV_SQRT2
    signal_dc: float = 0.0
    noise: NoiseParams = field(default_factory=NoiseParams)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise OutOfRange(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if not 0.0 <= self.signal_dc <= 1.0:
            raise OutOfRange(f"signal_dc must lie in [0, 1], got {self.signal_dc!r}")
        if not math.isfinite(self.phi):
            raise OutOfRange(f"phi must be finite, got {self.phi!r}")
        total = abs(self.beta) ** 2 + abs(self.gamma) ** 2
        if not abs(total - 1.0) <= 1e-12:  # also rejects NaN
            raise NotNormalized(f"|beta|^2 + |gamma|^2 = {total!r}, not 1 within 1e-12")

    @classmethod
    def from_json_dict(cls, data: dict) -> "SourceConfig":
        """A config from its JSON fields, all numbers; an absent field keeps cls()'s value."""
        d = cls()  # the JSON splits the pump amplitudes into *_re/*_im and flattens the noise
        defaults = {"alpha": d.alpha, "phi": d.phi, "beta_re": d.beta.real, "beta_im": d.beta.imag,
                    "gamma_re": d.gamma.real, "gamma_im": d.gamma.imag, "signal_dc": d.signal_dc,
                    "dephasing": d.noise.dephasing, "depolarizing": d.noise.depolarizing}
        checked(data, "config", dict.fromkeys(defaults, float))
        try:
            num = {key: float(value) for key, value in {**defaults, **data}.items()}
            return cls(
                alpha=num["alpha"],
                phi=num["phi"],
                beta=complex(num["beta_re"], num["beta_im"]),
                gamma=complex(num["gamma_re"], num["gamma_im"]),
                signal_dc=num["signal_dc"],
                noise=NoiseParams(dephasing=num["dephasing"], depolarizing=num["depolarizing"]),
            )
        except (OverflowError, OutOfRange, NotNormalized) as exc:
            raise InvalidConfig(str(exc)) from exc

    @classmethod
    def from_file(cls, path) -> "SourceConfig":
        return cls.from_json_dict(read_json(path, "config", ConfigParse))


def bell_state(kind: str) -> DensityMatrix:
    """One of the four maximally entangled states: 'phi+', 'phi-', 'psi+', 'psi-'."""
    try:
        amps = _BELL_AMPLITUDES[kind.lower()]
    except KeyError:
        raise OutOfRange(f"unknown Bell state {kind!r}; expected one of {sorted(_BELL_AMPLITUDES)}")
    ket = np.array(amps, dtype=complex)
    return DensityMatrix(np.outer(ket, ket.conj()))


def _pump_amplitudes(phi: float, beta: complex, gamma: complex, flip: bool) -> np.ndarray:
    # exp(1j*0.0) is exactly 1, so the default phase introduces no rounding.
    vv = (1.0 if flip else -1.0) * np.exp(1j * phi) * gamma
    amps = np.array([beta, 0.0, 0.0, vv], dtype=complex)
    return amps / np.sqrt(np.sum(np.abs(amps) ** 2))


def mix_duty_cycle(alpha: float) -> DensityMatrix:
    """Duty-cycle mixture of the two Phi Bell states.

    alpha = 0 gives phi-, alpha = 1 gives phi+; the HH/VV coherence is
    alpha - 1/2 and the diagonal stays (1/2, 0, 0, 1/2) throughout.
    """
    if not 0.0 <= alpha <= 1.0:
        raise OutOfRange(f"alpha must lie in [0, 1], got {alpha!r}")
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    m[0, 3] = m[3, 0] = alpha - 0.5
    return DensityMatrix(m)


def completely_mixed() -> DensityMatrix:
    """The four-dimensional completely mixed state, identity over 4."""
    return DensityMatrix(np.eye(4, dtype=complex) / 4.0)


def generate(config: SourceConfig) -> DensityMatrix:
    """Time-averaged state of the source for one configuration.

    The pump and signal rotators run on independent waveforms, so the average
    is a convex mixture over the four on/off branches:

        (1-alpha)(1-dc)  pump low,  signal off   (Phi-minus type)
        alpha(1-dc)      pump high, signal off   (Phi-plus type)
        (1-alpha) dc     pump low,  signal on    (Psi-minus type)
        alpha dc         pump high, signal on    (Psi-plus type)

    Dephasing then damps the signal-photon H/V coherences by (1 - dephasing)
    and depolarizing admixes the completely mixed state.
    """
    ket_low = _pump_amplitudes(config.phi, config.beta, config.gamma, flip=False)
    ket_high = _pump_amplitudes(config.phi, config.beta, config.gamma, flip=True)
    alpha, dc = config.alpha, config.signal_dc
    branches = (
        ((1.0 - alpha) * (1.0 - dc), ket_low),
        (alpha * (1.0 - dc), ket_high),
        ((1.0 - alpha) * dc, _SIGNAL_FLIP @ ket_low),
        (alpha * dc, _SIGNAL_FLIP @ ket_high),
    )
    rho = np.zeros((4, 4), dtype=complex)
    for weight, ket in branches:
        if weight > 0.0:
            rho += weight * np.outer(ket, ket.conj())

    d = config.noise.dephasing
    if d > 0.0:
        # Phase-flip channel on the signal photon: off-diagonal blocks shrink by (1-d).
        rho = (1.0 - 0.5 * d) * rho + 0.5 * d * (_SIGNAL_Z @ rho @ _SIGNAL_Z)
    p = config.noise.depolarizing
    if p > 0.0:
        rho = (1.0 - p) * rho + p * np.eye(4, dtype=complex) / 4.0

    return DensityMatrix(hermitize(rho))
