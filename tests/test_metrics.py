import numpy as np
import pytest

from bellmix.errors import DegenerateDenominator, InvalidState
from bellmix.fixtures import reference_quarter_dc
from bellmix.linalg import DensityMatrix
from bellmix.metrics import (
    MetricsReport,
    family_purity,
    family_tangle,
    family_visibility,
    fidelity,
    purity,
    report_for,
    tangle,
    visibility,
)
from bellmix.states import bell_state, completely_mixed, mix_duty_cycle
from helpers import random_density_matrix, random_local_unitary, rotate_state

ALPHA_GRID = np.linspace(0.0, 1.0, 101)


def test_purity_examples():
    assert purity(mix_duty_cycle(0.5)) == pytest.approx(0.5, abs=1e-12)
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        assert purity(bell_state(kind)) == pytest.approx(1.0, abs=1e-12)
    assert purity(completely_mixed()) == pytest.approx(0.25, abs=1e-12)


def test_purity_reference_matrix():
    assert purity(reference_quarter_dc()) == pytest.approx(0.6295, abs=0.005)


def test_tangle_examples():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        assert tangle(bell_state(kind)) == pytest.approx(1.0, abs=1e-10)
    assert tangle(mix_duty_cycle(0.5)) == pytest.approx(0.0, abs=1e-12)
    assert tangle(completely_mixed()) == pytest.approx(0.0, abs=1e-12)


def test_tangle_reference_matrix():
    assert tangle(reference_quarter_dc()) == pytest.approx(0.2476, abs=0.01)


def test_visibility_examples():
    assert visibility(mix_duty_cycle(0.0)) == pytest.approx(1.0, abs=1e-12)
    assert visibility(mix_duty_cycle(0.5)) == pytest.approx(0.0, abs=1e-12)
    assert visibility(mix_duty_cycle(0.25)) == pytest.approx(0.5, abs=1e-12)


def test_visibility_degenerate_denominator():
    # Idler polarized along D is orthogonal to both analysis states, so both
    # +-45 degree transmitted-transmitted rates vanish.
    ket = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2.0)
    with pytest.raises(DegenerateDenominator):
        visibility(DensityMatrix(np.outer(ket, ket.conj())))


def test_fidelity_examples():
    rho = mix_duty_cycle(0.3)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)
    assert fidelity(bell_state("phi+"), bell_state("phi-")) == pytest.approx(0.0, abs=1e-12)
    pure = bell_state("psi+")
    assert fidelity(completely_mixed(), pure) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_reference_matrix():
    value = fidelity(reference_quarter_dc(), mix_duty_cycle(0.25))
    assert value == pytest.approx(0.9814, abs=0.02)


def test_closed_form_agreement():
    for alpha in ALPHA_GRID:
        rho = mix_duty_cycle(float(alpha))
        assert abs(purity(rho) - family_purity(float(alpha))) <= 1e-12
        assert abs(tangle(rho) - family_tangle(float(alpha))) <= 1e-10
        assert abs(visibility(rho) - family_visibility(float(alpha))) <= 1e-10


def test_visibility_squared_equals_tangle_on_family():
    for alpha in ALPHA_GRID:
        rho = mix_duty_cycle(float(alpha))
        assert abs(visibility(rho) ** 2 - tangle(rho)) <= 1e-9


def test_fidelity_symmetry_on_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(200):
        rho, sigma = random_density_matrix(rng), random_density_matrix(rng)
        assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) <= 1e-9


def test_metrics_invariant_under_local_unitaries():
    # Visibility is basis-dependent by definition and stays out of this check.
    rng = np.random.default_rng(17)
    for _ in range(100):
        rho = random_density_matrix(rng)
        sigma = random_density_matrix(rng)
        u = random_local_unitary(rng)
        rho_u, sigma_u = rotate_state(rho, u), rotate_state(sigma, u)
        assert abs(purity(rho) - purity(rho_u)) <= 1e-9
        assert abs(tangle(rho) - tangle(rho_u)) <= 1e-9
        assert abs(fidelity(rho, sigma) - fidelity(rho_u, sigma_u)) <= 1e-9


def test_report_for_and_serialization():
    rho = mix_duty_cycle(0.25)
    report = report_for(rho, target=mix_duty_cycle(0.25), target_description="alpha=0.25")
    assert report.fidelity_to_target == pytest.approx(1.0, abs=1e-12)
    back = MetricsReport.from_json_dict(report.to_json_dict())
    assert back == report


def test_report_rejects_out_of_range_values():
    with pytest.raises(InvalidState):
        MetricsReport(
            purity=0.1, tangle=0.0, visibility=0.0, fidelity_to_target=1.0,
            target_description="bad",
        )
