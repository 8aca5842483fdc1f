"""Shared random-sample builders and checks for the test suite."""

import itertools
from dataclasses import asdict

import numpy as np

from bellmix.linalg import DensityMatrix, hermitize
from bellmix.optics import BASIS_ANGLES, BASIS_ORDER


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


def broken_setting_zero(projectors):
    """The projector array (n, 4, 4, 4) with setting 0 replaced three ways: {message: array}.

    Each replacement still sums to the identity, and fails the construction
    check that the InvalidState message names.
    """
    flat = projectors.copy()
    flat[0] = np.eye(4) / 4.0  # complete and Hermitian, not idempotent
    anti_hermitian = np.zeros((4, 4))
    anti_hermitian[0, 1], anti_hermitian[1, 0] = 1e-6, -1e-6
    skew = projectors.copy()
    skew[0, 1] += anti_hermitian
    skew[0, 2] -= anti_hermitian
    traces = projectors.copy()  # complete, Hermitian and idempotent, of traces 2, 1, 1, 0
    traces[0] = [np.diag(d) for d in ([1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0])]
    return {"projector (0,0) is not idempotent": flat,
            "projector (0,1) is not Hermitian": skew,
            "projector (0,0) does not have unit trace": traces}


def with_old_labels(document, bases=None):
    """A projector-set document with each setting given the labels older files carried.

    Setting s is labelled with the bases (signal, idler) of bases[s], by default the
    standard set's order HV, DA, RL, signal basis slowest, and those bases' waveplate angles.
    """
    bases = bases or list(itertools.product(BASIS_ORDER, repeat=2))
    settings = []
    for entry in document["settings"]:
        signal, idler = bases[entry["index"]]
        settings.append({**entry, "signal_basis": signal, "idler_basis": idler,
                         "signal_angles": asdict(BASIS_ANGLES[signal]),
                         "idler_angles": asdict(BASIS_ANGLES[idler])})
    return {"settings": settings}
