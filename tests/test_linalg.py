import numpy as np
import pytest

from bellmix.errors import BellmixError, InvalidState
from bellmix.fixtures import REFERENCE_QUARTER_DC_RAW
from bellmix.linalg import (
    DensityMatrix,
    hermitian_eigen,
    matrix_from_json_dict,
    matrix_sqrt,
    matrix_to_json_dict,
    nearest_physical,
)
from bellmix.states import bell_state, mix_duty_cycle
from helpers import random_density_matrix, random_hermitian


def test_eigen_identity():
    w, v = hermitian_eigen(np.eye(4, dtype=complex))
    assert np.allclose(w, np.ones(4))
    assert np.abs(v @ v.conj().T - np.eye(4)).max() < 1e-12


def test_eigen_diagonal_sorted_descending():
    w, _ = hermitian_eigen(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex))
    assert np.allclose(w, [0.5, 0.3, 0.2, 0.0])


def test_eigen_quarter_mixture():
    # The HH/VV block of the alpha = 0.25 mixture is [[1/2, -1/4], [-1/4, 1/2]],
    # whose eigenvalues are 1/2 +- 1/4; the HV/VH block is zero.
    w, _ = hermitian_eigen(mix_duty_cycle(0.25).matrix)
    assert np.allclose(w, [0.75, 0.25, 0.0, 0.0], atol=1e-12)


def test_eigen_rejects_non_hermitian():
    m = np.eye(4, dtype=complex)
    m[0, 1] = 1e-6
    with pytest.raises(InvalidState, match="Hermitian symmetry"):
        hermitian_eigen(m)


@pytest.mark.parametrize("kernel", [hermitian_eigen, matrix_sqrt])
def test_kernels_reject_a_nan_entry_as_non_hermitian(kernel):
    m = np.eye(4, dtype=complex)
    m[1, 2] = np.nan
    with pytest.raises(InvalidState, match="Hermitian symmetry by nan"):
        kernel(m)


def test_eigen_reconstruction_property():
    rng = np.random.default_rng(20240801)
    for index in range(1000):
        dim = 2 if index % 3 == 0 else 4
        m = random_hermitian(rng, dim)
        w, v = hermitian_eigen(m)
        assert np.all(np.diff(w) <= 1e-12)
        assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-10
        assert np.abs(v @ v.conj().T - np.eye(dim)).max() <= 1e-10


def test_sqrt_identity():
    assert np.abs(matrix_sqrt(np.eye(4, dtype=complex)) - np.eye(4)).max() < 1e-12


def test_sqrt_diagonal():
    m = np.diag([4.0, 1.0, 0.0, 0.0]).astype(complex) / 5.0
    expected = np.diag([2.0, 1.0, 0.0, 0.0]) / np.sqrt(5.0)
    assert np.abs(matrix_sqrt(m) - expected).max() < 1e-12


def test_sqrt_rank_one_projector_is_fixed_point():
    proj = bell_state("phi+").matrix
    assert np.abs(matrix_sqrt(proj) - proj).max() < 1e-12


def test_sqrt_squares_back_property():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        rho = random_density_matrix(rng).matrix
        root = matrix_sqrt(rho)
        assert np.abs(root @ root - rho).max() <= 1e-8
        assert np.abs(root - root.conj().T).max() <= 1e-12


def test_sqrt_rejects_clearly_negative():
    with pytest.raises(InvalidState):
        matrix_sqrt(np.diag([1.0, 1.0, 1.0, -0.5]).astype(complex))


def test_nearest_physical_keeps_valid_state():
    rho = mix_duty_cycle(0.5).matrix
    assert np.abs(nearest_physical(rho).matrix - rho).max() <= 1e-12


def test_nearest_physical_clips_and_renormalizes():
    m = np.diag([1.01, -0.01, 0.0, 0.0]).astype(complex)
    out = nearest_physical(m).matrix
    assert np.abs(out - np.diag([1.0, 0.0, 0.0, 0.0])).max() <= 1e-12


def test_nearest_physical_reference_matrix_small_change():
    out = nearest_physical(REFERENCE_QUARTER_DC_RAW).matrix
    assert np.abs(out - REFERENCE_QUARTER_DC_RAW).max() <= 0.01


def test_nearest_physical_idempotent():
    rng = np.random.default_rng(11)
    samples = [REFERENCE_QUARTER_DC_RAW] + [random_hermitian(rng) / 4.0 for _ in range(50)]
    for m in samples:
        try:
            once = nearest_physical(m).matrix
        except InvalidState as exc:
            if str(exc) != "all eigenvalues clipped to zero":
                raise
            continue
        twice = nearest_physical(once).matrix
        assert np.abs(twice - once).max() <= 1e-12


def test_nearest_physical_rejects_an_infinite_entry():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 3] = np.inf
    with pytest.raises(InvalidState, match="non-finite"):
        nearest_physical(m)


def _symmetric_pair(diagonal, off_diagonal):
    m = diagonal * np.eye(4, dtype=complex)
    m[0, 1] = m[1, 0] = off_diagonal
    return m


@pytest.mark.parametrize("kernel", [hermitian_eigen, matrix_sqrt, nearest_physical, DensityMatrix])
@pytest.mark.parametrize("m", [_symmetric_pair(1.0, np.inf), _symmetric_pair(1e308, 1e308)],
                         ids=["infinite-pair", "sums-overflow"])
def test_kernels_reject_entries_that_cannot_be_summed(kernel, m):
    # Under warnings-as-errors a numpy RuntimeWarning would fail this test instead.
    with pytest.raises(BellmixError):
        kernel(m)


def test_nearest_physical_zero_trace():
    with pytest.raises(InvalidState, match="all eigenvalues clipped to zero"):
        nearest_physical(np.diag([-1.0, -0.5, 0.0, 0.0]).astype(complex))


def test_density_matrix_rejects_bad_inputs():
    with pytest.raises(InvalidState, match="Hermitian symmetry"):
        DensityMatrix(np.eye(4, dtype=complex) / 4 + 1e-8 * 1j * np.eye(4)[::-1])
    with pytest.raises(InvalidState):
        DensityMatrix(np.eye(4, dtype=complex) / 2)  # trace 2
    with pytest.raises(InvalidState):
        DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    nan_entry = np.eye(4, dtype=complex) / 4.0
    nan_entry[2, 2] = np.nan
    with pytest.raises(InvalidState, match="non-finite"):
        DensityMatrix(nan_entry)
    with pytest.raises(InvalidState, match="must be 4x4"):
        DensityMatrix(np.eye(3, dtype=complex) / 3.0)


def test_density_matrix_is_read_only():
    rho = mix_duty_cycle(0.25)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


def test_matrix_json_round_trip_is_exact():
    rng = np.random.default_rng(3)
    m = random_hermitian(rng, 4) + 1j * 0.3 * random_hermitian(rng, 4)
    back = matrix_from_json_dict(matrix_to_json_dict(m))
    assert np.array_equal(back, m)
