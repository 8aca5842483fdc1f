import math
from dataclasses import dataclass

import numpy as np
import pytest

from bellmix.errors import InvalidConfig, OutOfRange
from bellmix.linalg import DensityMatrix
from bellmix.metrics import visibility
from bellmix.states import (
    NoiseParams,
    SourceConfig,
    bell_state,
    completely_mixed,
    generate,
    mix_duty_cycle,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_bell_state_amplitudes():
    for kind, ket in (("phi-", [INV_SQRT2, 0, 0, -INV_SQRT2]), ("phi+", [INV_SQRT2, 0, 0, INV_SQRT2]),
                      ("psi-", [0, INV_SQRT2, -INV_SQRT2, 0]), ("psi+", [0, INV_SQRT2, INV_SQRT2, 0])):
        rho = bell_state(kind)
        assert isinstance(rho, DensityMatrix)
        assert np.allclose(rho.matrix, np.outer(ket, ket))


def test_bell_state_unknown_kind():
    with pytest.raises(OutOfRange):
        bell_state("omega+")


def test_pump_balanced_zero_phase_is_phi_minus():
    state = generate(SourceConfig(phi=0.0, beta=INV_SQRT2, gamma=INV_SQRT2))
    assert np.abs(state.matrix - bell_state("phi-").matrix).max() < 1e-12


def test_pump_pi_phase_is_phi_plus():
    state = generate(SourceConfig(phi=np.pi, beta=INV_SQRT2, gamma=INV_SQRT2))
    assert np.abs(state.matrix - bell_state("phi+").matrix).max() < 1e-12


def test_pump_product_limit():
    state = generate(SourceConfig(phi=0.0, beta=1.0, gamma=0.0))
    assert np.allclose(state.matrix, np.diag([1, 0, 0, 0]))


def test_mix_duty_cycle_endpoints_and_corner():
    assert np.abs(mix_duty_cycle(0.0).matrix - bell_state("phi-").matrix).max() <= 1e-12
    assert np.abs(mix_duty_cycle(1.0).matrix - bell_state("phi+").matrix).max() <= 1e-12
    half = mix_duty_cycle(0.5).matrix
    assert np.allclose(half, np.diag([0.5, 0.0, 0.0, 0.5]))
    quarter = mix_duty_cycle(0.25).matrix
    assert quarter[0, 3] == pytest.approx(-0.25, abs=1e-15)
    assert quarter[3, 0] == pytest.approx(-0.25, abs=1e-15)


def test_mix_duty_cycle_rejects_out_of_range():
    with pytest.raises(OutOfRange):
        mix_duty_cycle(1.5)
    with pytest.raises(OutOfRange):
        mix_duty_cycle(-0.1)


@pytest.mark.parametrize("make, value, message", [
    (mix_duty_cycle, True, r"^alpha must lie in \[0, 1\], got True$"),  # not alpha = 1, phi+
    (mix_duty_cycle, "0.5", r"^alpha must lie in \[0, 1\], got '0.5'$"),
    (mix_duty_cycle, None, r"^alpha must lie in \[0, 1\], got None$"),
    (bell_state, 5, r"^unknown Bell state 5; expected one of"),
    (bell_state, None, r"^unknown Bell state None; expected one of"),
], ids=["mix-bool", "mix-str", "mix-None", "bell-int", "bell-None"])
def test_state_factories_reject_arguments_of_the_wrong_kind(make, value, message):
    with pytest.raises(OutOfRange, match=message):
        make(value)


def test_mix_phase_flip_relation():
    # mix(alpha) and mix(1 - alpha) differ by a sign flip on VV.
    flip = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    for alpha in np.linspace(0.0, 1.0, 21):
        lhs = mix_duty_cycle(float(alpha)).matrix
        rhs = flip @ mix_duty_cycle(float(1.0 - alpha)).matrix @ flip
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_signal_rotator_maps_phi_to_psi():
    # The signal rotator held at half-wave (signal_dc = 1) swaps H and V on the signal photon.
    psi_minus = generate(SourceConfig(alpha=0.0, signal_dc=1.0))
    assert np.abs(psi_minus.matrix - bell_state("psi-").matrix).max() <= 1e-12
    psi_plus = generate(SourceConfig(alpha=1.0, signal_dc=1.0))
    assert np.abs(psi_plus.matrix - bell_state("psi+").matrix).max() <= 1e-12


def test_generate_completely_mixed():
    config = SourceConfig(alpha=0.5, signal_dc=0.5)
    rho = generate(config)
    assert np.abs(rho.matrix - completely_mixed().matrix).max() <= 1e-12


def test_generate_reduces_to_duty_cycle_mixture():
    for alpha in np.linspace(0.0, 1.0, 11):
        rho = generate(SourceConfig(alpha=float(alpha)))
        assert np.abs(rho.matrix - mix_duty_cycle(float(alpha)).matrix).max() <= 1e-12


def test_generate_dephasing_sets_visibility():
    rho = generate(SourceConfig(alpha=0.0, noise=NoiseParams(dephasing=0.027)))
    assert visibility(rho) == pytest.approx(0.973, abs=1e-9)


def test_generate_rank_two_without_signal_rotation():
    rng = np.random.default_rng(5)
    for _ in range(100):
        beta, gamma = rng.normal(size=2)
        norm = math.hypot(beta, gamma)
        config = SourceConfig(
            alpha=float(rng.uniform()),
            phi=float(rng.uniform(0, 2 * np.pi)),
            beta=beta / norm,
            gamma=gamma / norm,
        )
        w = np.linalg.eigvalsh(generate(config).matrix)
        assert w[1] <= 1e-12  # third-largest eigenvalue


def test_generate_always_physical():
    rng = np.random.default_rng(9)
    for _ in range(200):
        beta, gamma = rng.normal(size=2)
        norm = math.hypot(beta, gamma)
        config = SourceConfig(
            alpha=float(rng.uniform()),
            phi=float(rng.uniform(0, 2 * np.pi)),
            beta=beta / norm,
            gamma=gamma / norm,
            signal_dc=float(rng.uniform()),
            noise=NoiseParams(
                dephasing=float(rng.uniform()), depolarizing=float(rng.uniform())
            ),
        )
        rho = generate(config)  # the constructor enforces the invariants
        m = rho.matrix
        assert np.abs(m - m.conj().T).max() <= 1e-12
        assert abs(np.trace(m) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(m).min() >= -1e-10
        assert isinstance(rho, DensityMatrix)


def test_noise_params_range_checks():
    with pytest.raises(OutOfRange):
        NoiseParams(dephasing=1.2)
    with pytest.raises(OutOfRange):
        NoiseParams(depolarizing=-0.1)


def test_source_config_range_checks():
    with pytest.raises(OutOfRange):
        SourceConfig(alpha=1.5)
    with pytest.raises(OutOfRange):
        SourceConfig(signal_dc=-0.2)
    with pytest.raises(OutOfRange, match=r"\|beta\|\^2 \+ \|gamma\|\^2 = 2"):
        SourceConfig(beta=1.0, gamma=1.0)
    for beta in (1e200, np.float64(1e200)):  # too large to square, and numpy's would only warn
        with pytest.raises(OutOfRange, match=r"\|beta\|\^2 \+ \|gamma\|\^2 = inf"):
            SourceConfig(beta=beta, gamma=0.0)


def test_source_config_json_defaults_and_fields():
    config = SourceConfig.from_json_dict({})
    assert config.alpha == 0.0 and config.signal_dc == 0.0
    assert abs(config.beta - INV_SQRT2) < 1e-15 and abs(config.gamma - INV_SQRT2) < 1e-15

    config = SourceConfig.from_json_dict(
        {"alpha": 0.25, "phi": 0.1, "beta": 0.6, "gamma": 0.8, "noise": {"dephasing": 0.027}}
    )
    assert config.alpha == 0.25 and config.noise.dephasing == 0.027
    assert config.beta == 0.6 + 0.0j and config.gamma == 0.8 + 0.0j


def test_source_config_json_defaults_come_from_the_dataclass():
    assert SourceConfig.from_json_dict({}) == SourceConfig()
    partial = SourceConfig.from_json_dict({"alpha": 0.25, "noise": {"depolarizing": 0.1}})
    assert partial == SourceConfig(alpha=0.25, noise=NoiseParams(depolarizing=0.1))

    @dataclass(frozen=True)
    class Shifted(SourceConfig):
        alpha: float = 0.3
        beta: float = 0.6
        gamma: float = 0.8

    assert Shifted.from_json_dict({"phi": 0.5}) == Shifted(phi=0.5)


def test_source_config_json_rejects_bad_fields():
    with pytest.raises(OutOfRange, match="^alpha must be a finite number, got 'big'$"):
        SourceConfig.from_json_dict({"alpha": "big"})
    with pytest.raises(InvalidConfig):
        SourceConfig.from_json_dict({"alfa": 0.2})
    with pytest.raises(InvalidConfig, match=r"^unknown noise fields: \['dephase'\]$"):
        SourceConfig.from_json_dict({"noise": {"dephase": 0.1}})
    with pytest.raises(InvalidConfig, match="^noise must be a JSON object, got float$"):
        SourceConfig.from_json_dict({"noise": 0.1})
    with pytest.raises(OutOfRange, match=r"alpha must lie in \[0, 1\], got 1.5"):
        SourceConfig.from_json_dict({"alpha": 1.5})
    with pytest.raises(OutOfRange, match=r"\|beta\|\^2 \+ \|gamma\|\^2 = inf"):
        SourceConfig.from_json_dict({"alpha": 0.2, "beta": 1e308, "gamma": 1e308})


def test_real_amplitudes_lose_no_state():
    # The state complex amplitudes made is the one their moduli make with phi + arg gamma - arg
    # beta: rho is built by hand from the complex ket, as the source model did with one.
    signal_flip = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
    signal_z = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    rng = np.random.default_rng(12)
    for _ in range(300):
        beta, gamma = rng.normal(size=2) + 1j * rng.normal(size=2)
        norm = math.hypot(abs(beta), abs(gamma))
        beta, gamma = beta / norm, gamma / norm
        phi = rng.uniform(-2 * np.pi, 2 * np.pi)
        alpha, dc, d, p = rng.uniform(size=4)
        rho = np.zeros((4, 4), dtype=complex)
        branches = (((1 - alpha) * (1 - dc), -1.0, False), (alpha * (1 - dc), 1.0, False),
                    ((1 - alpha) * dc, -1.0, True), (alpha * dc, 1.0, True))
        for weight, sign, flip in branches:  # pump low or high, signal rotator off or on
            ket = np.array([beta, 0.0, 0.0, sign * np.exp(1j * phi) * gamma])
            ket = signal_flip @ ket if flip else ket
            rho += weight * np.outer(ket, ket.conj())
        rho = (1 - d / 2) * rho + d / 2 * (signal_z @ rho @ signal_z)
        rho = (1 - p) * rho + p * np.eye(4) / 4
        config = SourceConfig(alpha=alpha, phi=phi + np.angle(gamma) - np.angle(beta),
                              beta=abs(beta), gamma=abs(gamma), signal_dc=dc,
                              noise=NoiseParams(d, p))
        assert np.abs(generate(config).matrix - rho).max() <= 1e-14
