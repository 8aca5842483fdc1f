"""Dense Hermitian kernel for the 2x2 and 4x4 operators used by every other module.

Eigendecomposition is delegated to LAPACK through numpy.linalg.eigh; at these
sizes accuracy is the only concern and LAPACK's symmetric solvers deliver it.
Kernels take one matrix or a (..., n, n) stack, each matrix of which comes out
bit for bit as it would alone. All functions are pure and never mutate inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataParse, InvalidState
from .fileio import is_kind, parsing, read_json, write_json

HERMITIAN_TOL = 1e-10

# Eigenvalues in [-EIG_REJECT, 0) are treated as rounding noise and clipped to
# zero; anything more negative signals a bug in the caller, not rounding.
EIG_REJECT = 1e-6

_EPS = float(np.finfo(float).eps)

# No sum over a 4x4 matrix of entries this size (m + m^dagger, a trace) overflows.
_MAX_ENTRY = 1e300


def hermitize(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger)/2 of a matrix or of a stack of matrices."""
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def _require_summable(m: np.ndarray) -> None:
    """Raise InvalidState on an entry that is infinite or above _MAX_ENTRY; NaN passes."""
    largest = float(np.maximum(np.abs(m.real), np.abs(m.imag)).max(initial=0.0))
    if largest > _MAX_ENTRY:
        raise InvalidState(
            f"matrix entry of size {largest:.3e} exceeds {_MAX_ENTRY:.0e}; its sums would overflow"
        )


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> None:
    """Raise InvalidState if any matrix of a (..., n, n) stack is not Hermitian to tol."""
    _require_summable(m)
    defect = float(np.abs(m - m.conj().swapaxes(-1, -2)).max())
    if not defect <= tol:  # also NaN
        raise InvalidState(
            f"matrix deviates from Hermitian symmetry by {defect:.3e} (tolerance {tol:.1e})"
        )


def zero_clip(eigenvalues: np.ndarray) -> np.ndarray:
    """Clip negatives to zero and flush eigenvalues at rounding scale to exact zero.

    Each spectrum of a (..., n) stack is flushed relative to its own maximum.
    Flushing matters for downstream square roots: sqrt turns O(eps) noise on an
    exactly-zero eigenvalue into O(sqrt(eps)) error, which would dominate the
    error budget of concurrence and fidelity.
    """
    w = np.clip(eigenvalues, 0.0, None)
    w[w < 16.0 * _EPS * w.max(axis=-1, keepdims=True, initial=0.0)] = 0.0
    return w


def hermitian_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and orthonormal eigenvector columns of Hermitian matrices.

    Raises InvalidState if a symmetry defect exceeds the tolerance.
    """
    m = np.asarray(m, dtype=complex)
    require_hermitian(m)
    w, v = np.linalg.eigh(hermitize(m))  # ascending
    return w[..., ::-1], v[..., ::-1]


def matrix_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of a Hermitian PSD matrix or (..., n, n) stack.

    Negative eigenvalues above -EIG_REJECT are clipped to zero; anything below
    raises InvalidState.
    """
    w, v = hermitian_eigen(m)
    smallest = float(w[..., -1].min())
    if smallest < -EIG_REJECT:
        raise InvalidState(
            f"matrix has eigenvalue {smallest:.3e}; too negative to be a rounded PSD matrix"
        )
    root = (v * np.sqrt(zero_clip(w))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return hermitize(root)


def check_density(m: np.ndarray) -> None:
    """Raise InvalidState unless each matrix of a stack is finite, Hermitian, of trace 1 and PSD."""
    if not np.all(np.isfinite(m)):
        raise InvalidState("density matrix contains non-finite entries")
    require_hermitian(m, tol=1e-12)
    trace = m.trace(axis1=-2, axis2=-1)
    off = np.abs(trace - 1.0) > 1e-12
    if off.any():
        raise InvalidState(f"density matrix trace {trace[off].flat[0]} is not 1 within 1e-12")
    smallest = float(np.linalg.eigvalsh(hermitize(m)).min())
    if smallest < -1e-10:
        why = ("is far below zero; upstream bug, not rounding" if smallest < -EIG_REJECT
               else "below -1e-10; pass through nearest_physical first")
        raise InvalidState(f"eigenvalue {smallest:.3e} {why}")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """4x4 Hermitian, unit-trace, positive-semidefinite operator in the HV(x)HV basis.

    The constructor validates and never repairs; use nearest_physical to
    sanitize an approximately physical matrix first.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidState(f"density matrix must be 4x4, got shape {m.shape}")
        check_density(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __setstate__(self, state: dict) -> None:  # re-locks what pickling unlocked
        state["matrix"].setflags(write=False)
        vars(self).update(state)


def nearest_physical(m: np.ndarray) -> DensityMatrix:
    """Project an approximately Hermitian matrix onto the density-matrix cone.

    Symmetrizes, clips negative eigenvalues at zero, and renormalizes the
    trace. This is the sanitizer for rounded or reconstructed matrices, so it
    accepts arbitrarily negative eigenvalues. It raises InvalidState on an entry
    that is not finite or above 1e300, or if nothing positive survives the clip.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise InvalidState("matrix contains non-finite entries")
    _require_summable(m)
    w, v = np.linalg.eigh(hermitize(m))
    w = np.clip(w, 0.0, None)
    total = float(w.sum())
    if total <= 0.0:
        raise InvalidState("all eigenvalues clipped to zero")
    w /= total
    out = (v * w) @ v.conj().T
    out = hermitize(out)
    # Pin the trace exactly; eigh reconstruction leaves ~1e-16 drift.
    out[out.shape[0] - 1, out.shape[0] - 1] += 1.0 - out.trace().real
    return DensityMatrix(out)


def matrix_to_json_dict(m: np.ndarray) -> dict:
    """{"dim": 4, "re": [[...]], "im": [[...]]}, row-major; InvalidState unless m is 4x4."""
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise InvalidState(f"matrix JSON needs a 4x4 matrix, got shape {m.shape}")
    return {
        "dim": 4,
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def _is_4x4(value) -> bool:
    """Whether a JSON value is a 4 x 4 nested list of finite numbers."""
    return is_kind(value, list) and len(value) == 4 and all(
        is_kind(row, list) and len(row) == 4 and all(is_kind(x, float) for x in row)
        for row in value
    )


def matrix_from_json_dict(data: dict) -> np.ndarray:
    with parsing("matrix JSON"):
        dim, re, im = data["dim"], data["re"], data["im"]
        if not (is_kind(dim, int) and dim == 4 and _is_4x4(re) and _is_4x4(im)):
            raise DataParse("matrix JSON needs dim 4 and 4 x 4 lists of finite numbers "
                            f"re and im, got dim={dim!r}")
        m = np.array(re, dtype=complex)
        m.imag = im  # re + 1j * im would turn a -0.0 into +0.0
        return m


def write_state_json(path, rho: DensityMatrix) -> None:
    write_json(path, matrix_to_json_dict(rho.matrix))


def read_state_json(path) -> DensityMatrix:
    return DensityMatrix(matrix_from_json_dict(read_json(path, "state file")))
