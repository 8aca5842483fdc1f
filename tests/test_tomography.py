import itertools
import json
from dataclasses import replace

import numpy as np
import pytest

from bellmix.counting import (
    _BOOTSTRAP_STREAM,
    AcquisitionConfig,
    derive_seed,
    simulate_counts,
    write_counts_csv,
)
from bellmix.errors import DataParse, InvalidState, OutOfRange
from bellmix.linalg import DensityMatrix, nearest_physical
from bellmix.metrics import report_for
from bellmix import optics
from bellmix.cli import main
from bellmix.optics import (
    BASIS_ANGLES,
    BASIS_ORDER,
    ProjectorSet,
    analyzer_projectors,
    standard_projector_set,
    write_projector_set_json,
)
from bellmix.states import NoiseParams, SourceConfig, bell_state, generate, mix_duty_cycle
from bellmix import tomography
from bellmix.tomography import (
    _bootstrap_batch,
    _count_vector,
    _mle_batch,
    _STACK_SAMPLES,
    _reconstruct_batch,
    bootstrap_errors,
    log_likelihood,
    mle_reconstruct,
    read_result_json,
    result_from_json_dict,
    result_to_json_dict,
)
from helpers import random_density_matrix, random_hermitian, random_local_unitary

PSET = standard_projector_set()


# ---------------------------------------------------------------------------
# Independent oracle, written before the estimator it checks: a brute-force
# likelihood search over diagonal density matrices diag(p1, p2, p3, p4).
# It never touches the iterative reconstruction code path.
# ---------------------------------------------------------------------------

_DIAGONALS = np.real(
    np.stack([np.diagonal(proj) for proj in PSET.projectors.reshape(-1, 4, 4)])
)  # (36, 4): outcome probabilities of basis states


def _best_diagonal(counts, candidates):
    """Highest-likelihood population vector among candidate rows (N, 4)."""
    probs = np.clip(candidates @ _DIAGONALS.T, 1e-15, None)
    mask = counts > 0
    scores = np.log(probs[:, mask]) @ counts[mask]
    return candidates[int(np.argmax(scores))]


def _simplex_candidates(p1_values, p2_values, p3_values):
    g1, g2, g3 = np.meshgrid(p1_values, p2_values, p3_values, indexing="ij")
    pops = np.stack([g1, g2, g3, 1.0 - g1 - g2 - g3], axis=-1).reshape(-1, 4)
    return pops[pops.min(axis=1) >= -1e-12]


def diagonal_grid_search(counts, coarse=0.02, refinements=(0.002, 0.0002)):
    """Best diagonal state by exhaustive grid search over the 3-simplex."""
    counts = np.asarray(counts, dtype=float).reshape(-1)
    grid = np.arange(0.0, 1.0 + 1e-9, coarse)
    best = _best_diagonal(counts, _simplex_candidates(grid, grid, grid))
    for step in refinements:
        offsets = np.arange(-10, 11) * step
        best = _best_diagonal(
            counts,
            _simplex_candidates(best[0] + offsets, best[1] + offsets, best[2] + offsets),
        )
    return nearest_physical(np.diag(np.clip(best, 0.0, None)).astype(complex))


# ---------------------------------------------------------------------------
# log-likelihood
# ---------------------------------------------------------------------------


def _expected_counts(rho, pairs):
    """The expected count table (9, 4) of rho: float, since the fit accepts any counts."""
    flat = PSET.flattened()
    probs = np.real(flat @ rho.matrix.T.reshape(16))
    return (pairs * probs).reshape(9, 4)


def test_log_likelihood_all_zero_counts():
    counts = np.zeros((9, 4))
    assert log_likelihood(mix_duty_cycle(0.3), counts, PSET) == 0.0


def test_log_likelihood_certain_outcome():
    hh = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    values = np.zeros(36)
    values[0] = 100  # HV/HV setting, TT outcome, probability exactly 1
    counts = values.reshape(9, 4)
    assert log_likelihood(hh, counts, PSET) == 0.0


def test_log_likelihood_gibbs_inequality():
    rng = np.random.default_rng(29)
    rho0 = random_density_matrix(rng, rank=3)
    counts = _expected_counts(rho0, 1e6)
    baseline = log_likelihood(rho0, counts, PSET)
    for _ in range(100):
        scale = float(rng.uniform(1e-3, 0.3))
        perturbed = nearest_physical(rho0.matrix + scale * random_hermitian(rng))
        assert baseline >= log_likelihood(perturbed, counts, PSET)


def test_log_likelihood_mismatched_records():
    with pytest.raises(DataParse, match="do not match the projector set"):
        log_likelihood(mix_duty_cycle(0.3), np.ones((5, 4)), PSET)


# ---------------------------------------------------------------------------
# MLE reconstruction
# ---------------------------------------------------------------------------


def test_mle_recovers_state_from_exact_counts():
    truth = mix_duty_cycle(0.25)
    counts = _expected_counts(truth, 1e6)
    result = mle_reconstruct(counts, PSET, target=truth)
    assert result.converged
    assert result.metrics.fidelity_to_target >= 1.0 - 1e-6


def test_mle_uniform_counts_give_maximally_mixed():
    counts = np.full((9, 4), 500.0)
    result = mle_reconstruct(counts, PSET)
    assert np.abs(result.rho_hat.matrix - np.eye(4) / 4.0).max() <= 1e-6


def test_mle_simulated_bell_state():
    truth = bell_state("phi-")
    acq = AcquisitionConfig(pairs_per_setting=1e5, seed=42)
    counts = simulate_counts(truth, PSET, acq)
    result = mle_reconstruct(counts, PSET, target=truth)
    assert result.converged
    assert result.metrics.fidelity_to_target >= 0.999
    assert result.floored_outcomes == 0  # healthy data never pins an observed outcome


def test_mle_likelihood_monotone_and_iterates_physical():
    truth = mix_duty_cycle(0.75)
    counts = simulate_counts(truth, PSET, AcquisitionConfig(pairs_per_setting=1e4, seed=6))
    likelihoods = []
    for cap in (1, 2, 5, 10, 20, 40, 80, None):
        kwargs = {} if cap is None else {"max_iterations": cap}
        result = mle_reconstruct(counts, PSET, **kwargs)
        rho = result.rho_hat.matrix
        assert np.abs(rho - rho.conj().T).max() <= 1e-10
        assert abs(np.trace(rho).real - 1.0) <= 1e-10
        assert np.linalg.eigvalsh(rho).min() >= -1e-10
        likelihoods.append(result.log_likelihood)
    assert np.all(np.diff(likelihoods) >= 0.0)
    assert likelihoods[-1] > likelihoods[0]
    assert result.iterations <= 10000


def test_mle_non_convergence_is_flagged():
    counts = simulate_counts(
        bell_state("phi+"), PSET, AcquisitionConfig(pairs_per_setting=1e5, seed=2)
    )
    result = mle_reconstruct(counts, PSET, max_iterations=2)
    assert not result.converged
    assert result.iterations == 2


def test_mle_rejects_empty_and_mismatched():
    with pytest.raises(DataParse, match="all counts are zero"):
        mle_reconstruct(np.zeros((9, 4)), PSET)
    with pytest.raises(DataParse, match="do not match the projector set"):
        mle_reconstruct(np.ones((3, 4)), PSET)


@pytest.mark.parametrize("bad", [float("inf"), -5.0, float("nan")])
def test_fits_reject_non_finite_and_negative_counts(bad):
    counts = simulate_counts(
        mix_duty_cycle(0.25), PSET, AcquisitionConfig(pairs_per_setting=1e5, seed=4)
    ).astype(float)
    counts[4, 2] = bad
    with pytest.raises(DataParse, match="counts must be finite and >= 0"):
        mle_reconstruct(counts, PSET)
    with pytest.raises(DataParse, match="counts must be finite and >= 0"):
        log_likelihood(mix_duty_cycle(0.25), counts, PSET)


@pytest.mark.parametrize("entry, total", [(1e307, "inf"), (1e299, "3.6")],
                         ids=["total_overflows", "total_above_1e300"])
def test_fits_reject_a_count_total_above_1e300(entry, total):
    # Under filterwarnings = error, a numpy overflow warning on the way would fail this too.
    counts = np.full((9, 4), entry)
    with pytest.raises(DataParse, match=f"counts must total at most 1e300, got {total}"):
        mle_reconstruct(counts, PSET)
    with pytest.raises(DataParse, match=f"counts must total at most 1e300, got {total}"):
        log_likelihood(mix_duty_cycle(0.25), counts, PSET)


def test_mle_fits_a_count_total_just_below_1e300():
    result = mle_reconstruct(np.full((9, 4), 2.7e298), PSET)  # total 9.72e299
    assert result.converged
    assert np.isfinite(result.log_likelihood)
    assert result.log_likelihood == log_likelihood(result.rho_hat, np.full((9, 4), 2.7e298), PSET)


def test_mle_consistency_across_duty_cycles():
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        truth = mix_duty_cycle(alpha)
        for seed in (0, 1, 2):
            counts = simulate_counts(
                truth, PSET, AcquisitionConfig(pairs_per_setting=1e5, seed=seed)
            )
            result = mle_reconstruct(counts, PSET, target=truth)
            assert result.metrics.fidelity_to_target >= 0.99


# ---------------------------------------------------------------------------
# Oracle equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("settings, rank", [([0] * 9, 4), ([0, 4] * 4 + [0], 7)],
                         ids=["hv_hv_nine_times", "hv_hv_and_da_da"])
def test_a_projector_set_that_identifies_no_state_is_refused(settings, rank):
    # Settings 0 and 4 of the standard set are HV/HV and DA/DA.
    pset = ProjectorSet(PSET.projectors[settings])
    counts = simulate_counts(mix_duty_cycle(0.25), pset, AcquisitionConfig(1e5, seed=3))
    with pytest.raises(InvalidState, match=f"^projector set spans {rank} of 16 dimensions; "
                                           "no state is identifiable$"):
        mle_reconstruct(counts, pset)


def test_a_locally_rotated_standard_set_still_reconstructs():
    u = random_local_unitary(np.random.default_rng(17))
    pset = ProjectorSet(u @ PSET.projectors @ u.conj().T)
    truth = mix_duty_cycle(0.25)
    counts = simulate_counts(truth, pset, AcquisitionConfig(1e5, seed=3))
    result = mle_reconstruct(counts, pset, target=truth)
    assert result.converged
    assert result.metrics.fidelity_to_target >= 0.999


def test_a_retardance_perturbed_complete_set_still_reconstructs(tmp_path, monkeypatch):
    # Quarter-wave plates 2 % off a quarter wave move only the RL settings, and the set still
    # spans all 16 dimensions. Not standard_projector_set(), which is cached.
    monkeypatch.setattr(optics, "QWP_RETARDANCE", 1.02 * optics.QWP_RETARDANCE)
    pset = ProjectorSet(np.array([analyzer_projectors(BASIS_ANGLES[signal], BASIS_ANGLES[idler])
                                  for signal, idler in itertools.product(BASIS_ORDER, repeat=2)]))
    assert np.linalg.matrix_rank(pset.flattened()) == 16
    truth = mix_duty_cycle(0.25)
    counts = simulate_counts(truth, pset, AcquisitionConfig(1e5, seed=3))
    result = mle_reconstruct(counts, pset, target=truth)
    assert result.converged
    # Fitted under the unperturbed standard set, these counts give fidelity 0.99986.
    assert result.metrics.fidelity_to_target >= 0.99999
    projectors, counts_csv, recon = (tmp_path / name for name in ("p.json", "c.csv", "r.json"))
    write_projector_set_json(projectors, pset)
    write_counts_csv(counts_csv, counts)
    assert main(["reconstruct", str(counts_csv), "--projectors", str(projectors), "--alpha", "0.25",
                 "--out", str(recon)]) == 0
    assert json.loads(recon.read_text(encoding="utf-8"))["iterations"] == result.iterations


def test_mle_matches_diagonal_oracle_exact_counts():
    truth = DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))
    counts = _expected_counts(truth, 1e5)
    oracle = diagonal_grid_search(counts)
    result = mle_reconstruct(counts, PSET)
    assert report_for(result.rho_hat, target=oracle).fidelity_to_target >= 1.0 - 1e-4


def test_mle_matches_diagonal_oracle_noisy_counts():
    truth = DensityMatrix(np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex))
    counts = simulate_counts(truth, PSET, AcquisitionConfig(pairs_per_setting=1e5, seed=123))
    oracle = diagonal_grid_search(counts)
    result = mle_reconstruct(counts, PSET)
    assert report_for(result.rho_hat, target=oracle).fidelity_to_target >= 1.0 - 1e-4


# ---------------------------------------------------------------------------
# Bootstrap error bars
# ---------------------------------------------------------------------------


def test_bootstrap_deterministic():
    truth = mix_duty_cycle(0.25)
    acq = AcquisitionConfig(pairs_per_setting=1e4, seed=55)
    counts = simulate_counts(truth, PSET, acq)
    result = mle_reconstruct(counts, PSET, target=truth)
    first = bootstrap_errors(result, PSET, acq, 20)
    second = bootstrap_errors(result, PSET, acq, 20)
    assert first == second
    assert set(first) == {"purity", "tangle", "visibility", "fidelity"}
    assert all(v >= 0.0 for v in first.values())


def test_bootstrap_errors_shrink_with_huge_counts():
    truth = mix_duty_cycle(0.25)
    acq = AcquisitionConfig(pairs_per_setting=1e8, seed=13)
    counts = simulate_counts(truth, PSET, acq)
    result = mle_reconstruct(counts, PSET, target=truth)
    errors = bootstrap_errors(result, PSET, acq, 100)
    assert all(v <= 1e-3 for v in errors.values())


def test_bootstrap_fidelity_error_matches_reported_magnitudes():
    # Reported fidelity errors (a few 1e-4) arise for estimates displaced from
    # the target, as the lab states were; a residual pump phase plus dephasing
    # reproduces that displacement (fidelity ~0.98 against the ideal mixture).
    config = SourceConfig(alpha=0.25, phi=0.8, noise=NoiseParams(dephasing=0.027))
    acq = AcquisitionConfig(pairs_per_setting=1e5, seed=11)
    counts = simulate_counts(generate(config), PSET, acq)
    result = mle_reconstruct(counts, PSET, target=mix_duty_cycle(0.25))
    assert 0.96 <= result.metrics.fidelity_to_target <= 0.99
    errors = bootstrap_errors(result, PSET, acq, 100)
    assert 1e-4 <= errors["fidelity"] <= 5e-3


def test_a_resample_without_counts_names_the_bootstrap():
    # The estimate's counts are not all zero, but at 0.5 pairs per setting a
    # resample of 50 draws none.
    acq = AcquisitionConfig(pairs_per_setting=0.5, seed=1)
    result = mle_reconstruct(simulate_counts(mix_duty_cycle(0.25), PSET, acq), PSET)
    with pytest.raises(DataParse, match="^bootstrap resample: all counts are zero; "
                                        "nothing to reconstruct$"):
        bootstrap_errors(result, PSET, acq, 50)


def test_bootstrap_requires_two_resamples():
    truth = mix_duty_cycle(0.5)
    acq = AcquisitionConfig(pairs_per_setting=1e3, seed=1)
    counts = simulate_counts(truth, PSET, acq)
    result = mle_reconstruct(counts, PSET)
    for resamples in (1, 0, -1, 2.5, True):  # range(2.5) would fail only after the fits
        with pytest.raises(OutOfRange, match=f"at least 2 resamples, got {resamples}$"):
            bootstrap_errors(result, PSET, acq, resamples)
    numpy_int = bootstrap_errors(result, PSET, acq, np.int64(2))
    assert numpy_int == bootstrap_errors(result, PSET, acq, 2)



@pytest.mark.parametrize("stop", [
    {"tolerance": float("inf")}, {"tolerance": float("nan")}, {"tolerance": 0.0},
    {"tolerance": -1.0}, {"max_iterations": -5}, {"max_iterations": 2.5},
    {"max_iterations": None}, {"max_iterations": True},
    {"tolerance": True}, {"tolerance": "1e-10"}, {"tolerance": None},
], ids=["tolerance-inf", "tolerance-nan", "tolerance-0", "tolerance-neg", "max_iterations-neg",
        "max_iterations-float", "max_iterations-None", "max_iterations-bool", "tolerance-bool",
        "tolerance-str", "tolerance-None"])
def test_fits_reject_stop_settings_that_cannot_stop_right(stop):
    acq = AcquisitionConfig(pairs_per_setting=1e3, seed=1)
    counts = simulate_counts(mix_duty_cycle(0.5), PSET, acq)
    with pytest.raises(OutOfRange, match=next(iter(stop))):
        mle_reconstruct(counts, PSET, **stop)
    result = mle_reconstruct(counts, PSET)
    with pytest.raises(OutOfRange, match=next(iter(stop))):
        bootstrap_errors(result, PSET, acq, 3, **stop)
    for cap in (0, np.int64(0)):
        assert mle_reconstruct(counts, PSET, max_iterations=cap).iterations == 0

# ---------------------------------------------------------------------------
# Batched reconstruction equals one-at-a-time reconstruction, bit for bit
# ---------------------------------------------------------------------------


def _scalar_rrr(counts, max_iterations=10000, tolerance=1e-10):
    """The one-sample diluted RρR loop the batched routine replaced, kept as reference.

    Returns the estimate, its log-likelihood, the iteration count, whether it
    converged, how many steps it rejected and whether its dilution stalled.
    """
    counts = _count_vector(counts, PSET)
    total, flat, eye = counts.sum(), PSET.flattened(), np.eye(4, dtype=complex)
    mask = counts > 0

    def probs_of(m):
        return np.real(flat @ m.T.reshape(16))

    def ll_of(m):
        return float(counts[mask] @ np.log(np.clip(probs_of(m)[mask], 1e-15, None)))

    rho, eps, iterations, converged = eye / 4.0, 1.0, 0, False
    ll, rejected, stalled = ll_of(rho), 0, False
    while iterations < max_iterations:
        iterations += 1
        r_op = ((counts / (total * np.clip(probs_of(rho), 1e-15, None))) @ flat).reshape(4, 4)
        step = eye + eps * r_op
        candidate = step @ rho @ step.conj().T
        candidate = 0.5 * (candidate + candidate.conj().T)
        candidate /= np.real(np.trace(candidate))
        ll_new = ll_of(candidate)
        if ll_new < ll:
            rejected += 1
            eps *= 0.5
            if eps < 1e-10:
                converged = stalled = True
                break
            continue
        gain, rho, ll = ll_new - ll, candidate, ll_new
        if gain / max(abs(ll_new), 1.0) < tolerance:
            converged = True
            break
    return rho, ll, iterations, converged, rejected, stalled


# At the smallest positive tolerance only a step that leaves the likelihood
# unchanged stops a fit, so rounding-level downhill steps are rejected and
# diluted. Measured with _scalar_rrr: (pairs, alpha, seed) = (1e2, 0.25, 22)
# rejects 34 steps and stalls; (1e4, 0.5, 1) rejects 12, (1e2, 0.0, 0)
# rejects 3, and (1e4, 0.1, 1) and (1e6, 0.25, 0) reject none.
_TINY_TOLERANCE = 5e-324
_STALLS = (1e2, 0.25, 22)
_REJECTS = ((1e4, 0.5, 1), (1e2, 0.0, 0))
_REJECTS_NONE = ((1e4, 0.1, 1), (1e6, 0.25, 0))


def _duty_cycle_counts(pairs, alpha, seed):
    return simulate_counts(mix_duty_cycle(alpha), PSET,
                           AcquisitionConfig(pairs_per_setting=pairs, seed=seed))


def test_mle_matches_scalar_reference_loop():
    cases = [
        (bell_state("phi+"), 40.0, 0, 10000, 1e-10),
        (mix_duty_cycle(0.25), 1e5, 1, 10000, 1e-10),
        (mix_duty_cycle(0.6), 1e7, 2, 10000, 1e-10),
        (bell_state("phi+"), 1e5, 3, 30, 1e-10),
    ] + [(mix_duty_cycle(alpha), pairs, seed, 10000, _TINY_TOLERANCE)
         for pairs, alpha, seed in (_STALLS, *_REJECTS, *_REJECTS_NONE)]
    dilutions = []
    for truth, pairs, seed, cap, tolerance in cases:
        counts = simulate_counts(truth, PSET, AcquisitionConfig(pairs_per_setting=pairs, seed=seed))
        rho, ll, iterations, converged, *dilution = _scalar_rrr(counts, cap, tolerance)
        result = mle_reconstruct(counts, PSET, max_iterations=cap, tolerance=tolerance)
        assert result.rho_hat.matrix.tobytes() == rho.tobytes()
        assert result.log_likelihood == ll
        assert (result.iterations, result.converged) == (iterations, converged)
        dilutions.append(dilution)
    rejected, stalled = zip(*dilutions)
    assert sum(rejected) > 0 and any(stalled)  # the dilution branch ran, to a stall


def _batch(tables, target=None, description="self", **stop):
    """One result per count table, from a single batched reconstruction."""
    n = len(tables)
    return _reconstruct_batch(tables, PSET, [target] * n, [description] * n, **stop)


def _resample_counts(result, acq, resamples):
    """Reference bootstrap resamples: simulate_counts at each derived resample seed."""
    return [
        simulate_counts(result.rho_hat, PSET,
                        replace(acq, seed=derive_seed(acq.seed, _BOOTSTRAP_STREAM, index)))
        for index in range(resamples)
    ]


def _assert_same_fit(batched, alone):
    assert batched.rho_hat.matrix.tobytes() == alone.rho_hat.matrix.tobytes()
    assert batched.iterations == alone.iterations
    assert batched.converged == alone.converged
    assert batched.log_likelihood == alone.log_likelihood
    assert batched.floored_outcomes == alone.floored_outcomes
    assert batched.metrics == alone.metrics


def test_batch_matches_single_fits_with_differing_zero_masks():
    truth = bell_state("phi+")
    acq = AcquisitionConfig(pairs_per_setting=40.0, seed=77)
    result = mle_reconstruct(simulate_counts(truth, PSET, acq), PSET, target=truth)
    resampled = list(_resample_counts(result, acq, 12))
    masks = {tuple(_count_vector(counts, PSET) > 0) for counts in resampled}
    assert len({sum(mask) for mask in masks}) > 1  # several nonzero-count groups
    fits = _batch(resampled, target=truth, description="phi+")
    for counts, fit in zip(resampled, fits):
        _assert_same_fit(fit, mle_reconstruct(counts, PSET, target=truth, target_description="phi+"))
        assert log_likelihood(fit.rho_hat, counts, PSET) == fit.log_likelihood


def test_batch_matches_single_fits_when_some_hit_the_cap():
    uniform = np.full((9, 4), 250)
    hard = simulate_counts(bell_state("phi+"), PSET,
                           AcquisitionConfig(pairs_per_setting=1e5, seed=2))
    mixed = simulate_counts(mix_duty_cycle(0.3), PSET, AcquisitionConfig(pairs_per_setting=1e3, seed=4))
    tables = [hard, uniform, mixed, hard, uniform]
    fits = _batch(tables, max_iterations=25)
    assert [fit.converged for fit in fits] == [False, True, False, False, True]
    assert {fit.iterations for fit in fits if not fit.converged} == {25}
    for counts, fit in zip(tables, fits):
        _assert_same_fit(fit, mle_reconstruct(counts, PSET, max_iterations=25))


def test_a_fit_capped_at_zero_iterations_is_its_start_state():
    mixed = simulate_counts(mix_duty_cycle(0.3), PSET, AcquisitionConfig(1e3, seed=4))
    for fit in _batch([np.full((9, 4), 250), mixed], max_iterations=0):
        assert fit.iterations == 0 and not fit.converged
        assert fit.rho_hat.matrix.tobytes() == (np.eye(4, dtype=complex) / 4.0).tobytes()


def test_batch_matches_single_fits_that_reject_steps_and_stall():
    cases = [_REJECTS_NONE[0], _STALLS, *_REJECTS, _REJECTS_NONE[1]]
    tables = [_duty_cycle_counts(*case) for case in cases]
    dilution = [_scalar_rrr(counts, tolerance=_TINY_TOLERANCE)[4:] for counts in tables]
    assert dilution[1] == (34, True)  # stalls while the others still run
    assert all(rejected > 0 for rejected, _ in dilution[2:4])
    assert dilution[0][0] == dilution[4][0] == 0
    fits = _batch(tables, tolerance=_TINY_TOLERANCE)
    for counts, fit in zip(tables, fits):
        _assert_same_fit(fit, mle_reconstruct(counts, PSET, tolerance=_TINY_TOLERANCE))


def test_public_log_likelihood_equals_reconstruction_value():
    for alpha, seed in ((0.0, 3), (0.25, 5), (0.9, 8)):
        counts = simulate_counts(mix_duty_cycle(alpha), PSET,
                                  AcquisitionConfig(pairs_per_setting=1e5, seed=seed))
        result = mle_reconstruct(counts, PSET)
        assert log_likelihood(result.rho_hat, counts, PSET) == result.log_likelihood


def test_bootstrap_errors_equal_one_at_a_time_resamples():
    truth = mix_duty_cycle(0.25)
    acq = AcquisitionConfig(pairs_per_setting=1e3, seed=31)
    result = mle_reconstruct(simulate_counts(truth, PSET, acq), PSET, target=truth,
                             target_description="alpha=0.25")
    errors = bootstrap_errors(result, PSET, acq, 9, max_iterations=60)
    singles = [
        mle_reconstruct(counts, PSET, max_iterations=60, target=truth,
                        target_description="alpha=0.25").metrics
        for counts in _resample_counts(result, acq, 9)
    ]
    attributes = {"purity": "purity", "tangle": "tangle", "visibility": "visibility",
                  "fidelity": "fidelity_to_target"}
    assert list(errors) == list(attributes)
    for name, attr in attributes.items():
        assert errors[name] == float(np.std([getattr(m, attr) for m in singles], ddof=1))


def test_bootstrap_errors_are_pinned():
    # Recorded with one stream per (resample, setting, outcome).
    acq = AcquisitionConfig(pairs_per_setting=1e4, seed=2026)
    result = mle_reconstruct(simulate_counts(mix_duty_cycle(0.2), PSET, acq), PSET)
    assert bootstrap_errors(result, PSET, acq, 5) == {
        "purity": 0.0030936242408401986,
        "tangle": 0.006240023718924662,
        "visibility": 0.0076704938803779064,
        "fidelity": 5.83751672555241e-05,
    }


_NOISES = ((NoiseParams(depolarizing=0.01), 5),
           (NoiseParams(dephasing=0.027, depolarizing=0.05), 7))


def _noisy_counts(alpha, noise, seed):
    state = generate(SourceConfig(alpha=alpha, noise=noise))
    return simulate_counts(state, PSET, AcquisitionConfig(pairs_per_setting=1e5, seed=seed))


def test_a_depolarized_fit_is_pinned():
    # Recorded with the relative-gain stop at tolerance 1e-10.
    result = mle_reconstruct(_noisy_counts(0.0, NoiseParams(depolarizing=0.01), 5), PSET)
    assert (result.iterations, result.converged) == (1390, True)
    assert result.log_likelihood == -1048146.0693163219
    assert np.linalg.eigvalsh(result.rho_hat.matrix).min() > 1e-3


def test_reconstruct_batch_equals_single_reconstructions():
    phi = bell_state("phi+")
    zeros = simulate_counts(phi, PSET, AcquisitionConfig(pairs_per_setting=40.0, seed=3))
    points = [
        (simulate_counts(mix_duty_cycle(0.1), PSET, AcquisitionConfig(1e6, seed=1)),
         mix_duty_cycle(0.1), "alpha=0.1"),
        (zeros, phi, "phi+"),
        (simulate_counts(mix_duty_cycle(0.5), PSET, AcquisitionConfig(1e3, seed=2)), None, None),
        (np.full((9, 4), 250), None, "uniform"),
        (simulate_counts(phi, PSET, AcquisitionConfig(1e5, seed=4)), phi, None),
        # Depolarized states are full rank, and so are their fits.
        *((_noisy_counts(alpha, noise, seed), None, None)
          for noise, seed in _NOISES for alpha in (0.0, 0.25)),
    ]
    tables, targets, descriptions = (list(column) for column in zip(*points))
    assert min(_count_vector(zeros, PSET)) == 0
    batch = _reconstruct_batch(tables, PSET, targets, descriptions)
    singles = [mle_reconstruct(counts, PSET, target=target, target_description=description)
               for counts, target, description in points]
    assert len({result.iterations for result in singles}) == len(points)
    for batched, alone in zip(batch, singles):
        assert result_to_json_dict(batched) == result_to_json_dict(alone)


def test_bootstrap_batch_equals_single_bootstraps():
    points = []
    for index, alpha in enumerate((0.0, 0.3, 0.5, 0.8, 1.0)):
        acq = AcquisitionConfig(pairs_per_setting=1e3, seed=500 + index)
        target = mix_duty_cycle(alpha) if index != 2 else None
        points.append((mle_reconstruct(simulate_counts(mix_duty_cycle(alpha), PSET, acq), PSET,
                                       target=target), acq))
    # At 70 and 230 resamples a stack of _STACK_SAMPLES splits points; at 230 one
    # point's resamples span two stacks.
    for resamples in (50, 70, 230):
        assert len(points) * resamples > _STACK_SAMPLES  # more than one stack
        results = [result for result, _ in points]
        _bootstrap_batch(results, PSET, AcquisitionConfig(1e3), [acq.seed for _, acq in points],
                         resamples)
        batch = [result.metric_errors for result in results]
        assert batch == [bootstrap_errors(result, PSET, acq, resamples) for result, acq in points]


def test_bootstrap_stacks_hold_at_most_stack_samples(monkeypatch):
    sizes = []

    def recording_mle_batch(counts, *args, **kwargs):
        sizes.append(len(counts))
        return _mle_batch(counts, *args, **kwargs)

    acqs = [AcquisitionConfig(pairs_per_setting=1e3, seed=600 + index) for index in range(3)]
    results = [mle_reconstruct(simulate_counts(mix_duty_cycle(0.3), PSET, acq), PSET)
               for acq in acqs]
    monkeypatch.setattr(tomography, "_mle_batch", recording_mle_batch)
    _bootstrap_batch(results, PSET, AcquisitionConfig(1e3), [acq.seed for acq in acqs], 230)
    assert sum(sizes) == 3 * 230
    assert max(sizes) <= _STACK_SAMPLES
    assert all(result.converged for result in results)


def test_capped_resamples_mark_only_their_point_not_converged():
    # Measured: the alpha=0 resamples stop within 89 iterations, the alpha=0.25 ones after 157.
    acq = AcquisitionConfig(pairs_per_setting=1e3, seed=1)
    results = [mle_reconstruct(simulate_counts(mix_duty_cycle(alpha), PSET, acq), PSET)
               for alpha in (0.0, 0.25)]
    assert all(result.converged for result in results)
    _bootstrap_batch(results, PSET, acq, [acq.seed, acq.seed], 4, max_iterations=100)
    assert [result.converged for result in results] == [True, False]


def test_bootstrap_errors_of_a_point_across_two_stacks_are_pinned():
    # Recorded when a point's 230 resamples were fitted as one stack.
    truth = mix_duty_cycle(0.25)
    acq = AcquisitionConfig(pairs_per_setting=1e3, seed=230)
    result = mle_reconstruct(simulate_counts(truth, PSET, acq), PSET, target=truth)
    assert bootstrap_errors(result, PSET, acq, 230) == {
        "purity": 0.011077342861525634,
        "tangle": 0.0221090672316874,
        "visibility": 0.025360669701941643,
        "fidelity": 0.0004216216262410538,
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_result_json_round_trip():
    truth = mix_duty_cycle(0.25)
    acq = AcquisitionConfig(pairs_per_setting=1e4, seed=21)
    counts = simulate_counts(truth, PSET, acq)
    result = mle_reconstruct(counts, PSET, target=truth, target_description="alpha=0.25")
    assert bootstrap_errors(result, PSET, acq, 5) is result.metric_errors
    back = result_from_json_dict(result_to_json_dict(result))
    assert np.array_equal(back.rho_hat.matrix, result.rho_hat.matrix)
    assert back.log_likelihood == result.log_likelihood
    assert back.iterations == result.iterations
    assert back.converged == result.converged
    assert back.metrics == result.metrics
    assert back.metric_errors == result.metric_errors
    assert back.floored_outcomes == result.floored_outcomes
    assert np.array_equal(back.target.matrix, result.target.matrix)



def _uniform_result_dict():
    return result_to_json_dict(mle_reconstruct(np.full((9, 4), 250), PSET))


@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe{", b"{", b"[1, 2]", {"metric_errors": [1.0]}, {"iterations": float("inf")},
     {"converged": "false"}, {"iterations": 3.7}, {"metrics": {"purity": "0.9"}},
     {"log_likelihood": float("nan")}, {"floored_outcomes": -1},
     {"metric_errors": {"purity": -1.0, "bogus": 2.0}},
     {"metric_errors": {"purity": -1.0, "tangle": 0.1, "visibility": 0.1, "fidelity": 0.1}},
     {"metric_errors": {"purity": 0.1, "tangle": 0.1, "visibility": 0.1, "fidelity": 0.1,
                        "bogus": 2.0}},
     {"metric_errors": {}}],
)
def test_read_result_json_rejects_bad_files(tmp_path, content):
    if isinstance(content, dict):  # one field of a valid result replaced
        data = _uniform_result_dict()
        for key, value in content.items():
            data[key] = {**(data[key] or {}), **value} if isinstance(value, dict) else value
        content = json.dumps(data).encode()
    path = tmp_path / "recon.json"
    path.write_bytes(content)
    with pytest.raises(DataParse):
        read_result_json(path)
    with pytest.raises(DataParse):
        read_result_json(tmp_path / "missing.json")


def test_result_json_keys_and_an_older_file_with_a_trace(tmp_path):
    data = _uniform_result_dict()
    assert list(data) == ["rho_hat", "log_likelihood", "iterations", "converged", "metrics",
                          "metric_errors", "target", "floored_outcomes"]
    older = {"ll_trace": [data["log_likelihood"]], **data}
    path = tmp_path / "recon.json"
    path.write_text(json.dumps(older), encoding="utf-8")
    assert result_to_json_dict(read_result_json(path)) == data


def test_read_result_json_without_floored_outcomes(tmp_path):
    data = _uniform_result_dict()
    del data["floored_outcomes"]
    path = tmp_path / "recon.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert read_result_json(path).floored_outcomes == 0
