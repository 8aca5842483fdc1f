"""Maximum-likelihood reconstruction from 36-outcome coincidence counts.

The estimator is the diluted fixed-point iteration: with R(rho) built from the
count-weighted projectors, the update

    rho <- N[(1 + eps R) rho (1 + eps R)]

never leaves the physical cone, fixes exactly the likelihood maximizers, and,
from eps = 1 with eps halved whenever a step would lower the likelihood, is
monotone. The per-setting count totals are treated as fixed normalizations,
so only the within-setting Born probabilities enter the likelihood.

One routine, _mle_batch, runs the iteration on a batch of count vectors at
once, each with its own eps, likelihood and stop. It returns a _Fit, one record
of per-sample arrays (states, log-likelihoods, iteration counts, convergence
flags) that callers read by name. A sweep reconstructs all its points as one
batch, and a single reconstruction is a batch of one. Every kernel is
elementwise or a stacked matmul, so each sample of a batch comes out bit for
bit as it would alone.

Error bars are parametric bootstrap: resimulate counts from the estimate, fit
the resamples as the estimate was, and store each metric's sample standard
deviation over them as the result's metric_errors; a resample that did not
converge makes its result not converged. All points' resamples, in order, are
fitted in stacks of at most _STACK_SAMPLES that may split a point, so memory
stays bounded for any grid and resample count. Every resample has a derived
seed, so the result is independent of any parallel schedule or stacking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import _BOOTSTRAP_STREAM, AcquisitionConfig, _count, _philox_keys, _simulate
from .errors import DataError, DataParse, InvalidState, OutOfRange
from .fileio import is_kind, parsing, read_json, typed, write_json
from .linalg import (
    DensityMatrix,
    check_density,
    hermitize,
    matrix_from_json_dict,
    matrix_to_json_dict,
)
from .metrics import MetricsReport, _described, _figures, check_ranges
from .optics import ProjectorSet, _born

PROBABILITY_FLOOR = 1e-15

# Default iteration cap and relative likelihood gain per step of every reconstruction.
MAX_ITERATIONS = 10000
TOLERANCE = 1e-10

# Most bootstrap resamples reconstructed in one stack, of one point or of consecutive points.
_STACK_SAMPLES = 200

# The keys of metric_errors, in recon.json order, which is _figures order.
_ERROR_NAMES = ("purity", "tangle", "visibility", "fidelity")


@dataclass(eq=False)
class ReconstructionResult:
    """Estimate, convergence diagnostics, figures of merit, and error bars.

    floored_outcomes counts observed outcomes whose fitted probability sits at
    the numerical floor; anything nonzero signals model mismatch between the
    counts and the projector set.
    """

    rho_hat: DensityMatrix
    log_likelihood: float
    iterations: int
    converged: bool
    metrics: MetricsReport
    metric_errors: dict | None = None
    target: DensityMatrix | None = None
    floored_outcomes: int = 0


def _count_vector(counts, pset: ProjectorSet) -> np.ndarray:
    """A count table (n_settings, 4) of pset as a flat float vector in projector order."""
    counts = np.asarray(counts)
    if counts.shape != (pset.n_settings, 4):
        raise DataParse(f"counts of shape {counts.shape} do not match the projector "
                        f"set's ({pset.n_settings}, 4)")
    vector = counts.reshape(-1).astype(float)
    bad = vector[~(np.isfinite(vector) & (vector >= 0.0))]
    if bad.size:
        raise DataParse(f"counts must be finite and >= 0, got {float(bad[0])!r}")
    total = sum(vector.tolist())  # a Python sum overflows to inf without a numpy warning
    if not total <= 1e300:  # with p floored at 1e-15, each n log p >= -34.6 n: log L is finite
        raise DataParse(f"counts must total at most 1e300, got {total!r}")
    return vector


def _probabilities(flat: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Born probabilities (B, n_outcomes) of states rho (B, 4, 4), floored."""
    return np.maximum(_born(flat, rho), PROBABILITY_FLOOR)


def _nonzero_groups(counts: np.ndarray) -> list:
    """Samples grouped by their number k of nonzero counts.

    Each group is (rows, flat indices (G, k, 1) of the nonzero outcomes,
    their counts (G, 1, k)), so its log-likelihoods are one stacked
    (1, k) @ (k, 1) dot: the same sum in the same order as a lone sample's
    masked dot. A zero-padded dot over all outcomes would differ in the last
    digits.
    """
    mask = counts > 0
    nonzero = mask.sum(axis=1)
    groups = []
    for k in sorted(set(nonzero.tolist())):  # not np.unique: its first call imports numpy.ma
        rows = np.flatnonzero(nonzero == k)
        cols = np.nonzero(mask[rows])[1].reshape(len(rows), k, 1)
        index = rows[:, None, None] * counts.shape[1] + cols
        groups.append((rows, index, counts.reshape(-1)[index].swapaxes(1, 2)))
    return groups


def _log_likelihoods(groups: list, probs: np.ndarray) -> np.ndarray:
    """Sum of n_j log p_j per sample of floored probabilities, omitting n_j = 0."""
    flat_probs = probs.reshape(-1)
    out = np.empty(len(probs))
    for rows, index, counts in groups:
        out[rows] = (counts @ np.log(flat_probs[index]))[:, 0, 0]
    return out


def log_likelihood(rho: DensityMatrix, counts, pset: ProjectorSet) -> float:
    """Sum of n_j log p_j(rho) over all outcomes, omitting n_j = 0 terms."""
    counts = _count_vector(counts, pset)[None]
    probs = _probabilities(pset.flattened(), rho.matrix[None])
    return float(_log_likelihoods(_nonzero_groups(counts), probs)[0])


@dataclass(frozen=True)
class _Fit:
    """What _mle_batch returns: per-sample arrays, in batch order.

    rho (B, 4, 4) holds the final states, each exactly Hermitian, and
    log_likelihood, iterations and converged (B,) the fit of each.
    """

    rho: np.ndarray
    log_likelihood: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _mle_batch(
    counts: np.ndarray,
    flat: np.ndarray,
    *,
    max_iterations: int = MAX_ITERATIONS,
    tolerance: float = TOLERANCE,
) -> _Fit:
    """Diluted RρR on every row of counts (B, n_outcomes) at once, as a _Fit.

    All samples start from the completely mixed state (full rank, so every
    probability is positive at the first step) at eps = 1. Each iterates until
    its relative likelihood gain per accepted step drops below `tolerance`,
    its dilution stalls, or `max_iterations` is exhausted; the last is
    reported as converged=False, never silently. The record starts as the
    start state; a sample is written into it once, when it leaves the
    working arrays at the end of the iteration that stopped or capped it.
    Projectors flat (n_outcomes, 16) spanning fewer than 16 dimensions
    identify no state, and raise InvalidState.
    """
    if not (is_kind(tolerance, float) and tolerance > 0.0):
        raise OutOfRange(f"tolerance must be finite and > 0, got {tolerance!r}")
    if not is_kind(max_iterations, int) or max_iterations < 0:
        raise OutOfRange(f"max_iterations must be >= 0, got {max_iterations!r}")
    rank = np.linalg.matrix_rank(flat)
    if rank < 16:
        raise InvalidState(f"projector set spans {rank} of 16 dimensions; "
                           "no state is identifiable")
    n = len(counts)
    totals = counts.sum(axis=1)[:, None]
    if not (totals > 0).all():
        raise DataParse("all counts are zero; nothing to reconstruct")
    eye = np.eye(4, dtype=complex)
    rho = np.repeat((eye / 4.0)[None], n, axis=0)
    probs = _probabilities(flat, rho)
    groups = _nonzero_groups(counts)
    ll = _log_likelihoods(groups, probs)
    eps = np.ones((n, 1, 1))

    # Working arrays hold the running samples; rows maps them to the batch.
    rows = np.arange(n)
    fit = _Fit(rho.copy(), ll.copy(), np.zeros(n, dtype=int), np.zeros(n, dtype=bool))
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, max_iterations + 1):
            weights = counts / (totals * probs)
            r_op = (weights[:, None, :] @ flat).reshape(-1, 4, 4)
            step = eye + eps * r_op
            candidate = hermitize(step @ rho @ step.conj().swapaxes(1, 2))
            candidate /= candidate.trace(axis1=1, axis2=2).real[:, None, None]
            candidate_probs = _probabilities(flat, candidate)
            ll_new = _log_likelihoods(groups, candidate_probs)

            downhill = ~(ll_new >= ll)  # also a step that overflowed to NaN
            stop = (ll_new - ll) / np.maximum(np.abs(ll_new), 1.0) < tolerance
            if np.count_nonzero(downhill):
                # Dilute and retry from the same iterate; monotonicity is kept by
                # never accepting a downhill step. The masked writes are skipped
                # when every step went uphill: they cost a fifth of a lone
                # sample's iteration.
                eps[downhill] *= 0.5
                stop[downhill] = eps[downhill, 0, 0] < 1e-10
                candidate[downhill], candidate_probs[downhill] = rho[downhill], probs[downhill]
                ll_new[downhill] = ll[downhill]
            # The accepted candidate's probabilities are the next iterate's.
            rho, probs, ll = candidate, candidate_probs, ll_new
            leave = stop | (it == max_iterations)  # the cap is the third way out, not converged
            if np.count_nonzero(leave):  # the leaving samples are recorded, once
                done = rows[leave]
                fit.rho[done], fit.log_likelihood[done] = rho[leave], ll[leave]
                fit.iterations[done], fit.converged[done] = it, stop[leave]
                keep = ~leave
                if not keep.any():
                    break
                rows, rho, probs, ll, eps, counts, totals = (a[keep] for a in (
                    rows, rho, probs, ll, eps, counts, totals))
                groups = _nonzero_groups(counts)
    return fit


def _reconstruct_batch(count_tables: list, pset: ProjectorSet, targets: list,
                       descriptions: list, **stop) -> list:
    """mle_reconstruct of every count table, with its target and description, as one batch."""
    counts = np.stack([_count_vector(table, pset) for table in count_tables])
    flat = pset.flattened()
    fit = _mle_batch(counts, flat, **stop)
    floored = ((counts > 0) & (_probabilities(flat, fit.rho) <= PROBABILITY_FLOOR)).sum(axis=1)
    rho_hats = [DensityMatrix(m) for m in fit.rho]
    # Fidelity is to the target, else to the estimate itself.
    sigma = np.stack([m if t is None else t.matrix for m, t in zip(fit.rho, targets)])
    figures = [values.tolist() for values in _figures(fit.rho, sigma)]
    return [ReconstructionResult(
        rho_hat=rho_hats[b],
        log_likelihood=float(fit.log_likelihood[b]),
        iterations=int(fit.iterations[b]),
        converged=bool(fit.converged[b]),
        metrics=MetricsReport(*(values[b] for values in figures),
                              _described(target, descriptions[b])),
        target=target,
        floored_outcomes=int(floored[b]),
    ) for b, target in enumerate(targets)]


def mle_reconstruct(
    counts,
    pset: ProjectorSet,
    *,
    max_iterations: int = MAX_ITERATIONS,
    tolerance: float = TOLERANCE,
    target: DensityMatrix | None = None,
    target_description: str | None = None,
) -> ReconstructionResult:
    """Reconstruct the state maximizing the likelihood of the count table (n_settings, 4).

    A batch of one through the diluted RρR iteration.
    """
    return _reconstruct_batch(
        [counts], pset, [target], [target_description],
        max_iterations=max_iterations, tolerance=tolerance,
    )[0]


def check_resamples(resamples: int) -> None:
    """A configured bootstrap size is an integer, 0 (no error bars) or at least 2."""
    if not is_kind(resamples, int) or resamples < 0 or resamples == 1:
        raise OutOfRange(f"resamples must be 0 (no error bars) or >= 2, got {resamples!r}")


def _bootstrap_batch(results: list, pset: ProjectorSet, acq: AcquisitionConfig, seeds: list,
                     resamples: int, **stop) -> None:
    """bootstrap_errors of every result with acq at its own seed, in stacks of _STACK_SAMPLES."""
    if not is_kind(resamples, int) or resamples < 2:
        raise OutOfRange(f"bootstrap needs at least 2 resamples, got {resamples!r}")
    # Resample i of a point is seeded with derive_seed(seed, _BOOTSTRAP_STREAM, i).
    keys = [(_BOOTSTRAP_STREAM, index) for index in range(resamples)]
    sample_seeds = _philox_keys(seeds, keys)[..., 0].ravel()
    point = np.arange(len(sample_seeds)) // resamples
    rho_hats, targets = np.array([(result.rho_hat.matrix, (result.target or result.rho_hat).matrix)
                                  for result in results]).swapaxes(0, 1)
    figures, converged = np.empty((len(_ERROR_NAMES), len(point))), np.empty(len(point), bool)
    try:  # a data error from a resample's fit or figures says it came from a resample
        for first in range(0, len(point), _STACK_SAMPLES):
            rows = slice(first, first + _STACK_SAMPLES)
            counts = _simulate(rho_hats[point[rows]], pset, acq, sample_seeds[rows])
            fit = _mle_batch(counts.reshape(len(counts), -1).astype(float), pset.flattened(),
                             **stop)
            converged[rows] = fit.converged
            check_density(fit.rho)
            figures[:, rows] = _figures(fit.rho, targets[point[rows]])
        check_ranges(*figures)
    except DataError as exc:
        raise type(exc)(f"bootstrap resample: {exc}") from exc
    errors = np.std(figures.reshape(len(_ERROR_NAMES), -1, resamples), axis=2, ddof=1)
    for result, all_converged, point_errors in zip(
            results, converged.reshape(-1, resamples).all(axis=1), errors.T.tolist()):
        result.converged = result.converged and bool(all_converged)
        result.metric_errors = dict(zip(_ERROR_NAMES, point_errors))


def bootstrap_errors(
    result: ReconstructionResult,
    pset: ProjectorSet,
    acq: AcquisitionConfig,
    resamples: int,
    *,
    max_iterations: int = MAX_ITERATIONS,
    tolerance: float = TOLERANCE,
) -> dict:
    """Parametric-bootstrap standard deviations of the four metrics, stored as result.metric_errors.

    Counts are resimulated from result.rho_hat with per-resample derived seeds,
    fitted and checked as the estimate was (a resample that hits max_iterations
    clears result.converged), and scored against the original target (else
    rho_hat itself). A batch of one point; resamples must be at least 2.
    """
    _bootstrap_batch([result], pset, acq, [acq.seed], resamples,
                     max_iterations=max_iterations, tolerance=tolerance)
    return result.metric_errors


def result_to_json_dict(result: ReconstructionResult) -> dict:
    return {
        "rho_hat": matrix_to_json_dict(result.rho_hat.matrix),
        "log_likelihood": float(result.log_likelihood),
        "iterations": int(result.iterations),
        "converged": bool(result.converged),
        "metrics": result.metrics.to_json_dict(),
        "metric_errors": (
            {k: float(v) for k, v in result.metric_errors.items()}
            if result.metric_errors is not None
            else None
        ),
        "target": (
            matrix_to_json_dict(result.target.matrix) if result.target is not None else None
        ),
        "floored_outcomes": int(result.floored_outcomes),
    }


def result_from_json_dict(data: dict) -> ReconstructionResult:
    """The result in data, every field of its JSON kind; floored_outcomes may be absent.

    Numbers must be finite, and metric_errors, if present, holds an error
    bar >= 0 for each metric and nothing else.
    """
    what = "reconstruction JSON field"
    with parsing("reconstruction JSON"):
        target, errors = data.get("target"), data.get("metric_errors")
        if errors is not None:
            errors = {key: float(typed(value, float, f"{what} 'metric_errors' entry"))
                      for key, value in typed(errors, dict, f"{what} 'metric_errors'").items()}
            if set(errors) != set(_ERROR_NAMES) or min(errors.values()) < 0.0:
                raise DataParse(f"{what} 'metric_errors' must hold an error >= 0 for each of "
                                f"{list(_ERROR_NAMES)} and nothing else, got {errors}")
        return ReconstructionResult(
            rho_hat=DensityMatrix(matrix_from_json_dict(data["rho_hat"])),
            log_likelihood=float(typed(data["log_likelihood"], float, f"{what} 'log_likelihood'")),
            iterations=_count(data["iterations"], f"{what} 'iterations'"),
            converged=typed(data["converged"], bool, f"{what} 'converged'"),
            metrics=MetricsReport.from_json_dict(data["metrics"]),
            metric_errors=errors,
            target=(None if target is None else DensityMatrix(matrix_from_json_dict(target))),
            floored_outcomes=_count(data.get("floored_outcomes", 0), f"{what} 'floored_outcomes'"),
        )


def write_result_json(path, result: ReconstructionResult) -> None:
    write_json(path, result_to_json_dict(result))


def read_result_json(path) -> ReconstructionResult:
    return result_from_json_dict(read_json(path, "reconstruction file"))
