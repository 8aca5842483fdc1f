import itertools
import re

import numpy as np
import pytest

from bellmix.errors import InvalidState
from bellmix.optics import (
    BASIS_ANGLES,
    BASIS_ORDER,
    HWP_RETARDANCE,
    OUTCOME_LABELS,
    QWP_RETARDANCE,
    ProjectorSet,
    WaveplateSetting,
    _born,
    analyzer_projectors,
    projector_set_from_json_dict,
    projector_set_to_json_dict,
    standard_projector_set,
    waveplate_jones,
)
from bellmix.states import bell_state, mix_duty_cycle
from helpers import broken_setting_zero, random_density_matrix, with_old_labels

INV_SQRT2 = 1.0 / np.sqrt(2.0)
KET_D = np.array([1.0, 1.0]) * INV_SQRT2
KET_A = np.array([1.0, -1.0]) * INV_SQRT2
KET_CIRC = np.array([1.0, 1.0j]) * INV_SQRT2


def test_hwp_at_zero_is_diag_1_minus_1():
    j = waveplate_jones(0.0, HWP_RETARDANCE)
    assert np.abs(j - np.diag([1.0, -1.0])).max() < 1e-12


def test_hwp_at_22_5_maps_h_to_diagonal():
    # Multiplying out R(22.5) diag(1,-1) R(-22.5) puts H onto (H+V)/sqrt(2).
    j = waveplate_jones(22.5, HWP_RETARDANCE)
    out = j @ np.array([1.0, 0.0])
    assert abs(abs(out.conj() @ KET_D) - 1.0) < 1e-12


def test_zero_retardance_is_identity():
    for angle in (0.0, 13.0, 45.0, 120.0):
        assert np.abs(waveplate_jones(angle, 0.0) - np.eye(2)).max() < 1e-12


def test_waveplates_are_unitary():
    rng = np.random.default_rng(2)
    for _ in range(200):
        j = waveplate_jones(float(rng.uniform(-180, 180)), float(rng.uniform(0, 2 * np.pi)))
        assert np.abs(j @ j.conj().T - np.eye(2)).max() <= 1e-12


def test_rest_setting_projects_computational_basis():
    rest = WaveplateSetting(0.0, 0.0)
    projectors = analyzer_projectors(rest, rest)
    basis = np.eye(4)
    for k in range(4):
        expected = np.outer(basis[:, k], basis[:, k])
        assert np.abs(projectors[k] - expected).max() < 1e-12


def test_da_setting_projects_diagonal_basis():
    t, r = [], []
    from bellmix.optics import analyzer_ports

    t, r = analyzer_ports(WaveplateSetting(0.0, 22.5))
    assert abs(abs(t.conj() @ KET_D) - 1.0) < 1e-12
    assert abs(abs(r.conj() @ KET_A) - 1.0) < 1e-12
    t, r = analyzer_ports(WaveplateSetting(0.0, -22.5))
    assert abs(abs(t.conj() @ KET_A) - 1.0) < 1e-12


def test_qwp_45_projects_circular_basis():
    from bellmix.optics import analyzer_ports

    t, r = analyzer_ports(WaveplateSetting(45.0, 0.0))
    overlap_t = abs(t.conj() @ KET_CIRC)
    overlap_r = abs(r.conj() @ KET_CIRC)
    assert abs(overlap_t - 1.0) < 1e-12 or abs(overlap_r - 1.0) < 1e-12
    assert abs(t.conj() @ r) < 1e-12


def test_standard_set_layout():
    pset = standard_projector_set()
    assert pset.n_settings == 9
    hh = np.zeros((4, 4), dtype=complex)
    hh[0, 0] = 1.0
    assert np.abs(pset.projectors[0, 0] - hh).max() < 1e-12
    for s, signal in enumerate(BASIS_ORDER):  # setting 3 s + i: signal basis slowest
        for i, idler in enumerate(BASIS_ORDER):
            expected = analyzer_projectors(BASIS_ANGLES[signal], BASIS_ANGLES[idler])
            assert np.array_equal(pset.projectors[3 * s + i], expected)


def test_standard_set_completeness():
    pset = standard_projector_set()
    total = pset.projectors.reshape(-1, 4, 4).sum(axis=0)
    assert np.abs(total - 9.0 * np.eye(4)).max() <= 1e-10
    for index in range(9):
        group_sum = pset.projectors[index].sum(axis=0)
        assert np.abs(group_sum - np.eye(4)).max() <= 1e-10


def test_projector_identities():
    pset = standard_projector_set()
    for proj in pset.projectors.reshape(-1, 4, 4):
        assert np.abs(proj - proj.conj().T).max() <= 1e-10
        assert np.abs(proj @ proj - proj).max() <= 1e-10
        assert abs(proj.trace() - 1.0) <= 1e-10


def _nan_entry():
    projectors = standard_projector_set().projectors.copy()
    projectors[2, 1, 0, 3] = np.nan
    return projectors


_BROKEN = {"setting 2: outcomes do not sum to identity": _nan_entry(),
           **broken_setting_zero(standard_projector_set().projectors)}


@pytest.mark.parametrize("message, projectors", _BROKEN.items(),
                         ids=["nan_entry", "not_idempotent", "not_hermitian", "not_unit_trace"])
def test_a_projector_set_is_checked_when_constructed(message, projectors):
    with pytest.raises(InvalidState, match=f"^{re.escape(message)}$"):
        ProjectorSet(projectors)


def test_diagonal_setting_probabilities_for_incoherent_mixture():
    # With the HH/VV coherence gone, every +-45 outcome is equally likely.
    pset = standard_projector_set()
    da_da = 3 * BASIS_ORDER.index("DA") + BASIS_ORDER.index("DA")
    rho = mix_duty_cycle(0.5).matrix
    probs = [float(np.real(np.trace(rho @ pset.projectors[da_da, k]))) for k in range(4)]
    assert np.allclose(probs, 0.25, atol=1e-12)


def test_probabilities_normalized_for_random_states():
    pset = standard_projector_set()
    rng = np.random.default_rng(31)
    rho = np.stack([random_density_matrix(rng).matrix for _ in range(100)])
    probs = _born(pset.flattened(), rho).reshape(100, 9, 4)
    assert probs.min() >= -1e-12
    assert np.abs(probs.sum(axis=2) - 1.0).max() <= 1e-10


def test_informational_completeness_gram_rank():
    # The standard set spans all 16 dimensions of a 4x4 matrix. Nine copies of
    # HV/HV (setting 0) span 4, and HV/HV alternated with DA/DA (setting 4) 7.
    standard = standard_projector_set().projectors
    for settings, rank in ((range(9), 16), ([0] * 9, 4), ([0, 4] * 4 + [0], 7)):
        flat = ProjectorSet(standard[list(settings)]).flattened()
        gram = flat @ flat.conj().T
        singular = np.linalg.svd(gram, compute_uv=False)
        assert singular[rank - 1] > 1e-6
        assert singular[rank] < 1e-10 * singular[0]


def test_projector_set_json_round_trip():
    pset = standard_projector_set()
    back = projector_set_from_json_dict(projector_set_to_json_dict(pset))
    assert np.array_equal(back.projectors, pset.projectors)
    assert [list(entry) for entry in projector_set_to_json_dict(pset)["settings"]] == [
        ["index", "projectors"]] * 9


@pytest.mark.parametrize("bases", [None, [("RL", "RL")] * 9], ids=["labelled", "mislabelled"])
def test_a_labelled_projector_set_reads_to_the_same_projectors(bases):
    # Older files name each setting's bases and waveplate angles; a reader ignores them.
    document = projector_set_to_json_dict(standard_projector_set())
    unlabelled = projector_set_from_json_dict(document).projectors
    labelled = projector_set_from_json_dict(with_old_labels(document, bases)).projectors
    assert labelled.tobytes() == unlabelled.tobytes()


def test_all_bases_pairwise_unbiased():
    # The three single-arm bases are mutually unbiased, which is what makes
    # nine settings informationally complete.
    from bellmix.optics import BASIS_ANGLES, analyzer_ports

    bases = {name: analyzer_ports(setting) for name, setting in BASIS_ANGLES.items()}
    for (n1, b1), (n2, b2) in itertools.combinations(bases.items(), 2):
        for u in b1:
            for v in b2:
                assert abs(abs(u.conj() @ v) - INV_SQRT2) < 1e-12
