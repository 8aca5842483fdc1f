"""Shared random-sample builders and checks for the test suite."""

import numpy as np

from bellmix.linalg import DensityMatrix, hermitize


def random_hermitian(rng, dim=4):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitize(g)


def random_density_matrix(rng, rank=None) -> DensityMatrix:
    rank = rank or int(rng.integers(1, 5))
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    m = hermitize(m / np.trace(m).real)
    m[3, 3] += 1.0 - m.trace().real
    return DensityMatrix(m)


def random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_local_unitary(rng):
    return np.kron(random_unitary(rng, 2), random_unitary(rng, 2))


def rotate_state(rho: DensityMatrix, u) -> DensityMatrix:
    m = u @ rho.matrix @ u.conj().T
    m = hermitize(m)
    m[3, 3] += 1.0 - m.trace().real
    return DensityMatrix(m)


def assert_same_table(got, expected):
    """got is an int64 count table equal to expected."""
    assert got.dtype == np.int64 and got.shape == expected.shape
    assert got.tolist() == expected.tolist()
