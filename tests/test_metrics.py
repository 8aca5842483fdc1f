import numpy as np
import pytest

from bellmix.counting import AcquisitionConfig, simulate_counts
from bellmix.errors import InvalidState, OutOfRange
from bellmix.fixtures import reference_quarter_dc
from bellmix.linalg import DensityMatrix
from bellmix.metrics import (
    MetricsReport,
    _figures,
    family_purity,
    family_tangle,
    family_visibility,
    fidelity,
    purity,
    report_for,
    tangle,
    visibility,
)
from bellmix.optics import standard_projector_set
from bellmix.states import (
    NoiseParams,
    SourceConfig,
    bell_state,
    completely_mixed,
    generate,
    mix_duty_cycle,
)
from bellmix.tomography import mle_reconstruct
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
    with pytest.raises(InvalidState, match=r"both \+-45 degree coincidence rates vanish"):
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


@pytest.mark.parametrize("dephasing", [0.0, 0.027, 0.3, 1.0])
@pytest.mark.parametrize("depolarizing", [0.0, 0.05, 0.5, 1.0])
def test_noisy_closed_forms_match_generated_states(dephasing, depolarizing):
    for alpha in ALPHA_GRID.tolist():
        noise = NoiseParams(dephasing, depolarizing)
        state_purity, state_tangle, state_visibility, _ = _figures(
            generate(SourceConfig(alpha, noise=noise)).matrix)
        assert abs(family_purity(alpha, dephasing, depolarizing) - state_purity) <= 1e-12
        assert abs(family_tangle(alpha, dephasing, depolarizing) - state_tangle) <= 1e-12
        assert abs(family_visibility(alpha, dephasing, depolarizing) - state_visibility) <= 1e-12


@pytest.mark.parametrize("family", [family_purity, family_tangle, family_visibility])
@pytest.mark.parametrize("args, message", [
    ((float("nan"),), "alpha must be a finite number"),
    ((1.5,), "alpha must lie in"),
    ((0.25, -3.0), "dephasing must lie in"),
    ((0.5, 0.0, 2.0), "depolarizing must lie in"),
    ((0.5, float("inf")), "dephasing must be a finite number"),
], ids=["alpha=nan", "alpha=1.5", "dephasing=-3", "depolarizing=2", "dephasing=inf"])
def test_family_curves_reject_what_a_source_config_rejects(family, args, message):
    with pytest.raises(OutOfRange, match=message):
        family(*args)


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


def test_report_for_labels_its_target_as_a_reconstruction_does():
    rho = mix_duty_cycle(0.3)
    counts = simulate_counts(rho, standard_projector_set(), AcquisitionConfig(1e3, seed=3))
    for target, label in ((mix_duty_cycle(0.25), "target"), (None, "self")):
        assert report_for(rho, target=target).target_description == label
        fit = mle_reconstruct(counts, standard_projector_set(), target=target)
        assert fit.metrics.target_description == label
        assert report_for(rho, target, "named").target_description == "named"


@pytest.mark.parametrize("description", [5, ["x"], b"x"], ids=["int", "list", "bytes"])
def test_a_target_description_must_be_a_string(description):
    rho = mix_duty_cycle(0.3)
    counts = simulate_counts(rho, standard_projector_set(), AcquisitionConfig(1e3, seed=3))
    message = "^target_description must be a string, got "
    with pytest.raises(OutOfRange, match=message):
        report_for(rho, target_description=description)
    with pytest.raises(OutOfRange, match=message):
        mle_reconstruct(counts, standard_projector_set(), target_description=description)


def test_report_rejects_out_of_range_values():
    with pytest.raises(InvalidState):
        MetricsReport(
            purity=0.1, tangle=0.0, visibility=0.0, fidelity_to_target=1.0,
            target_description="bad",
        )
