"""Maximum-likelihood reconstruction from 36-outcome coincidence counts.

The estimator is the diluted fixed-point iteration: with R(rho) built from the
count-weighted projectors, the update

    rho <- N[(1 + eps R) rho (1 + eps R)]

never leaves the physical cone, fixes exactly the likelihood maximizers, and
with dilution (halving eps whenever a step would lower the likelihood) is
monotone. The per-setting count totals are treated as fixed normalizations,
so only the within-setting Born probabilities enter the likelihood.

One routine runs the iteration on a batch of count vectors at once, each with
its own dilution, likelihood, trace and stop; a single reconstruction is a
batch of one. Every kernel is elementwise or a stacked matmul, so each sample
of a batch comes out bit for bit as it would alone.

Error bars are parametric bootstrap: resimulate counts from the estimate,
reconstruct all resamples as one batch, and take the sample standard
deviation of each metric over the resamples. Every resample has a derived
seed, so the result is deterministic and independent of any parallel schedule.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .counting import (
    _BOOTSTRAP_STREAM,
    AcquisitionConfig,
    _simulate,
    derive_seed,
    validate_against,
)
from .errors import NoCounts, OutOfRange
from .fileio import parsing, read_json, write_json
from .linalg import (
    DensityMatrix,
    hermitize,
    matrix_from_json_dict,
    matrix_to_json_dict,
)
from .metrics import MetricsReport, report_for
from .optics import ProjectorSet

PROBABILITY_FLOOR = 1e-15

# Error-bar name -> MetricsReport attribute, in recon.json order.
_METRICS = {"purity": "purity", "tangle": "tangle", "visibility": "visibility",
            "fidelity": "fidelity_to_target"}


@dataclass
class ReconstructionResult:
    """Estimate, convergence diagnostics, figures of merit, and error bars.

    floored_outcomes counts observed outcomes whose fitted probability sits at
    the numerical floor; anything nonzero signals model mismatch between the
    counts and the projector set.
    """

    rho_hat: DensityMatrix
    log_likelihood: float
    ll_trace: list
    iterations: int
    converged: bool
    metrics: MetricsReport
    metric_errors: dict | None = None
    target: DensityMatrix | None = None
    floored_outcomes: int = 0


def _count_vector(records, pset: ProjectorSet) -> np.ndarray:
    """Counts as a flat (4 * n_settings,) vector in projector order."""
    validate_against(records, pset)
    ordered = sorted(records, key=lambda r: r.setting_index)
    return np.array(
        [float(c) for record in ordered for c in record.outcome_counts], dtype=float
    )


def _probabilities(flat: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Born probabilities (B, n_outcomes) of states rho (B, 4, 4), floored."""
    probs = (flat @ rho.swapaxes(1, 2).reshape(-1, 16, 1)).real[..., 0]
    return np.maximum(probs, PROBABILITY_FLOOR)


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


def log_likelihood(rho: DensityMatrix, records, pset: ProjectorSet) -> float:
    """Sum of n_j log p_j(rho) over all outcomes, omitting n_j = 0 terms."""
    counts = _count_vector(records, pset)[None]
    probs = _probabilities(pset.flattened(), rho.matrix[None])
    return float(_log_likelihoods(_nonzero_groups(counts), probs)[0])


def _mle_batch(
    counts: np.ndarray,
    flat: np.ndarray,
    *,
    max_iterations: int,
    tolerance: float,
    dilution: float,
    target: DensityMatrix | None,
    target_description: str,
    on_iterate=None,
) -> Iterator[ReconstructionResult]:
    """Diluted RρR on every row of counts (B, n_outcomes) at once.

    All samples start from the completely mixed state (full rank, so every
    probability is positive at the first step). Each iterates until its
    relative likelihood gain per accepted step drops below `tolerance`, its
    dilution stalls, or `max_iterations` is exhausted; the last is reported
    as converged=False, never silently. A stopped sample leaves the working
    arrays, which are compacted only on iterations where one stopped.

    Results are yielded in batch order once every sample has stopped, so a
    caller that keeps only their metrics holds one full result at a time.
    """
    n = len(counts)
    totals = counts.sum(axis=1)[:, None]
    if not (totals > 0).all():
        raise NoCounts("all counts are zero; nothing to reconstruct")
    all_counts = counts
    eye = np.eye(4, dtype=complex)
    rho = np.repeat((eye / 4.0)[None], n, axis=0)
    probs = _probabilities(flat, rho)
    groups = _nonzero_groups(counts)
    ll = _log_likelihoods(groups, probs)
    traces = [array("d", [value]) for value in ll.tolist()]  # 8 bytes per step
    eps = np.full((n, 1, 1), float(dilution))

    # Working arrays hold the active samples; rows maps them to the batch.
    rows, active_traces = np.arange(n), list(traces)
    final_rho, final_ll, final_probs = np.empty_like(rho), np.empty_like(ll), np.empty_like(probs)
    iterations = np.zeros(n, dtype=int)
    converged = np.zeros(n, dtype=bool)
    stop = np.zeros(n, dtype=bool)
    it = 0
    while True:
        capped = it >= max_iterations
        if capped or np.count_nonzero(stop):
            converged[rows[stop]] = True
            if capped:
                stop[:] = True
            done = rows[stop]
            final_rho[done], final_ll[done], final_probs[done] = rho[stop], ll[stop], probs[stop]
            iterations[done] = it
            keep = ~stop
            if not keep.any():
                break
            rows, rho, probs, ll, eps, counts, totals = (
                a[keep] for a in (rows, rho, probs, ll, eps, counts, totals)
            )
            active_traces = [t for t, kept in zip(active_traces, keep) if kept]
            groups = _nonzero_groups(counts)
        it += 1

        weights = counts / (totals * probs)
        r_op = (weights[:, None, :] @ flat).reshape(-1, 4, 4)
        step = eye + eps * r_op
        candidate = hermitize(step @ rho @ step.conj().swapaxes(1, 2))
        candidate /= candidate.trace(axis1=1, axis2=2).real[:, None, None]
        candidate_probs = _probabilities(flat, candidate)
        ll_new = _log_likelihoods(groups, candidate_probs)

        downhill = ll_new < ll
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
        for j, (value, rejected) in enumerate(zip(ll.tolist(), downhill.tolist())):
            if not rejected:
                active_traces[j].append(value)
                if on_iterate is not None:
                    on_iterate(rho[j], value)

    floored = ((all_counts > 0) & (final_probs <= PROBABILITY_FLOOR)).sum(axis=1)
    for b in range(n):
        rho_hat = DensityMatrix(hermitize(final_rho[b]))
        yield ReconstructionResult(
            rho_hat=rho_hat,
            log_likelihood=float(final_ll[b]),
            ll_trace=traces[b].tolist(),
            iterations=int(iterations[b]),
            converged=bool(converged[b]),
            metrics=report_for(rho_hat, target=target, target_description=target_description),
            target=target,
            floored_outcomes=int(floored[b]),
        )


def mle_reconstruct(
    records,
    pset: ProjectorSet,
    *,
    max_iterations: int = 10000,
    tolerance: float = 1e-10,
    dilution: float = 1.0,
    target: DensityMatrix | None = None,
    target_description: str | None = None,
    on_iterate=None,
) -> ReconstructionResult:
    """Reconstruct the state maximizing the likelihood of the observed counts.

    A batch of one through the diluted RρR iteration; on_iterate(rho, log L)
    fires on every accepted step.
    """
    if not (math.isfinite(dilution) and dilution > 0.0):
        raise OutOfRange(f"dilution must be finite and > 0, got {dilution!r}")
    description = target_description or ("target" if target is not None else "self")
    return next(_mle_batch(
        _count_vector(records, pset)[None],
        pset.flattened(),
        max_iterations=max_iterations,
        tolerance=tolerance,
        dilution=dilution,
        target=target,
        target_description=description,
        on_iterate=on_iterate,
    ))


def check_resamples(resamples: int) -> None:
    """A configured bootstrap size is 0 (no error bars) or at least 2."""
    if resamples < 0 or resamples == 1:
        raise OutOfRange(f"resamples must be 0 (no error bars) or >= 2, got {resamples}")


def bootstrap_errors(
    result: ReconstructionResult,
    pset: ProjectorSet,
    acq: AcquisitionConfig,
    resamples: int,
    *,
    max_iterations: int = 10000,
    tolerance: float = 1e-10,
) -> dict:
    """Parametric-bootstrap standard deviations of the four metrics.

    Counts are resimulated from result.rho_hat with per-resample derived
    seeds, reconstructed as one batch, and the metrics recomputed against the
    original target (rho_hat itself when no target was supplied).
    """
    if resamples < 2:
        raise NoCounts(f"bootstrap needs at least 2 resamples, got {resamples}")
    seeds = [derive_seed(acq.seed, _BOOTSTRAP_STREAM, index) for index in range(resamples)]
    counts = _simulate(result.rho_hat, pset, acq, seeds).astype(float)
    reports = [fit.metrics for fit in _mle_batch(
        counts,
        pset.flattened(),
        max_iterations=max_iterations,
        tolerance=tolerance,
        dilution=1.0,
        target=result.target if result.target is not None else result.rho_hat,
        target_description=result.metrics.target_description,
    )]
    return {
        name: float(np.std([getattr(report, attr) for report in reports], ddof=1))
        for name, attr in _METRICS.items()
    }


def result_to_json_dict(result: ReconstructionResult) -> dict:
    return {
        "rho_hat": matrix_to_json_dict(result.rho_hat.matrix),
        "log_likelihood": float(result.log_likelihood),
        "ll_trace": [float(x) for x in result.ll_trace],
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
    with parsing("reconstruction JSON"):
        target = data.get("target")
        errors = data.get("metric_errors")
        return ReconstructionResult(
            rho_hat=DensityMatrix(matrix_from_json_dict(data["rho_hat"])),
            log_likelihood=float(data["log_likelihood"]),
            ll_trace=[float(x) for x in data["ll_trace"]],
            iterations=int(data["iterations"]),
            converged=bool(data["converged"]),
            metrics=MetricsReport.from_json_dict(data["metrics"]),
            metric_errors=({k: float(v) for k, v in errors.items()} if errors else None),
            target=(DensityMatrix(matrix_from_json_dict(target)) if target else None),
            floored_outcomes=int(data.get("floored_outcomes", 0)),
        )


def write_result_json(path, result: ReconstructionResult) -> None:
    write_json(path, result_to_json_dict(result))


def read_result_json(path) -> ReconstructionResult:
    return result_from_json_dict(read_json(path, "reconstruction file"))
