"""Stacked kernels against their per-matrix calls.

Every linalg kernel, figure of merit and the Born product takes a stack, and the
bootstrap relies on each member coming out exactly as it would alone, so
these tests compare bytes, never with a tolerance.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellmix.errors import InvalidState
from bellmix.linalg import (
    DensityMatrix,
    check_density,
    hermitian_eigen,
    hermitize,
    matrix_sqrt,
    zero_clip,
)
from bellmix.metrics import (
    _LOWS,
    _SPIN_FLIP,
    MetricsReport,
    _figures,
    check_ranges,
    report_for,
)
from bellmix.optics import _born, standard_projector_set
from bellmix.states import completely_mixed
from helpers import random_density_matrix

# A member is a random state of rank 1, 2 or 4, or the completely mixed state (None).
_MEMBERS = st.lists(st.sampled_from((1, 2, 4, None)), min_size=1, max_size=6)


def _state(rng, rank) -> np.ndarray:
    return completely_mixed().matrix if rank is None else random_density_matrix(rng, rank).matrix


@st.composite
def _stacks(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.stack([_state(rng, rank) for rank in draw(_MEMBERS)])


def _equal(stacked, alone) -> bool:
    return stacked.tobytes() == np.stack(alone).tobytes()


@settings(max_examples=40, deadline=None)
@given(stack=_stacks())
def test_stacked_linalg_equals_per_matrix_calls(stack):
    spectra = np.linalg.eigvalsh(stack)
    assert _equal(zero_clip(spectra), [zero_clip(w) for w in spectra])
    w, v = hermitian_eigen(stack)
    alone = [hermitian_eigen(m) for m in stack]
    assert _equal(w, [pair[0] for pair in alone]) and _equal(v, [pair[1] for pair in alone])
    assert _equal(matrix_sqrt(stack), [matrix_sqrt(m) for m in stack])
    flat = standard_projector_set().flattened()
    assert _equal(_born(flat, stack), [_born(flat, m[None])[0] for m in stack])
    check_density(stack)


@settings(max_examples=40, deadline=None)
@given(stack=_stacks(), targets=_stacks())
def test_stacked_figures_equal_per_state_metrics(stack, targets):
    for target in (None, DensityMatrix(targets[0])):
        figures = _figures(stack, None if target is None else target.matrix)
        check_ranges(*figures)
        alone = [report_for(DensityMatrix(m), target=target) for m in stack]
        for values, name in zip(figures, _LOWS):
            assert _equal(values, [getattr(report, name) for report in alone])


@settings(max_examples=25, deadline=None)
@given(stack=_stacks())
def test_report_for_equals_a_batch_of_one(stack):
    rho, target = DensityMatrix(stack[0]), DensityMatrix(stack[-1])
    for sigma in (None, target):
        report = report_for(rho, target=sigma, target_description="t")
        batch = _figures(stack[:1], None if sigma is None else stack[-1:])
        assert report == MetricsReport(*(float(values[0]) for values in batch), "t")


def test_stacked_tangle_squares_as_a_float_does():
    # The scalar tangle squared a Python float, which calls C pow; x * x
    # differs from that in the last bit for about 1 in 1000 concurrences, and
    # this set holds such a case, so the comparison can tell the two apart.
    rng = np.random.default_rng(2026)
    stack = np.stack([random_density_matrix(rng, 2).matrix for _ in range(2000)])
    concurrences = []
    for m in stack:
        root = matrix_sqrt(m)
        w, _ = hermitian_eigen(hermitize(root @ (_SPIN_FLIP @ m.conj() @ _SPIN_FLIP) @ root))
        lam = np.sqrt(zero_clip(w))
        concurrences.append(max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3])))
    assert any(c * c != c**2 for c in concurrences)
    assert _figures(stack)[1].tolist() == [c**2 for c in concurrences]


def _pair(bad: np.ndarray) -> np.ndarray:
    return np.stack([completely_mixed().matrix, bad])


def test_one_bad_member_raises_what_it_raises_alone():
    skewed = completely_mixed().matrix.copy()
    skewed[0, 1] = 1e-6
    negative = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)  # eigenvalue < -1e-6
    heavy = np.eye(4, dtype=complex) / 2.0  # trace 2
    ket = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2.0)
    dark = DensityMatrix(np.outer(ket, ket.conj())).matrix

    for kernel in (hermitian_eigen, matrix_sqrt, check_density):
        with pytest.raises(InvalidState, match="Hermitian symmetry"):
            kernel(skewed)
        with pytest.raises(InvalidState, match="Hermitian symmetry"):
            kernel(_pair(skewed))
    with pytest.raises(InvalidState):
        matrix_sqrt(negative)
    with pytest.raises(InvalidState):
        matrix_sqrt(_pair(negative))
    for bad in (negative, heavy):
        with pytest.raises(InvalidState):
            DensityMatrix(bad)
        with pytest.raises(InvalidState):
            check_density(_pair(bad))
    with pytest.raises(InvalidState, match=r"both \+-45 degree coincidence rates vanish"):
        report_for(DensityMatrix(dark))
    with pytest.raises(InvalidState, match=r"both \+-45 degree coincidence rates vanish"):
        _figures(_pair(dark))
    with pytest.raises(InvalidState):
        MetricsReport(0.1, 0.0, 0.0, 1.0, "bad")
    with pytest.raises(InvalidState):
        check_ranges(np.array([0.5, 0.1]), np.zeros(2), np.zeros(2), np.ones(2))
