"""Duty-cycle sweep orchestration: generate, acquire, reconstruct, tabulate.

A sweep writes one directory per point (state.json, counts.csv, recon.json)
plus a top-level sweep.csv whose rows carry the reconstructed metrics, their
bootstrap error bars, and the closed-form theory columns.

The spec builds its points once. The calling process generates them, draws
their counts in one pass and fits them as one batch. Only bootstrapping and
writing split, into N interleaved shares (point i goes to share i % N): the
caller finishes share 0 and a forked child each other one. Every point derives
its seed from (master seed, point index) and every sample of a batch comes out
as it would alone, so batching and workers change no byte.

A sweep that fails on a data error is rerun one point at a time, computing
only, to name the first point in grid order that fails: a batch fails exactly
when one of its points fails alone. Only data errors are rerun: a point file
that cannot be written fails the sweep at once, without recomputing the grid.
A failed sweep leaves its point directories and any points a share finished,
but no sweep.csv, not even an earlier run's.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal
import sys
from dataclasses import dataclass, field, replace
from functools import cached_property, partial

import numpy as np

from .counting import (
    _POISSON_MAX,
    _SWEEP_STREAM,
    AcquisitionConfig,
    _philox_keys,
    _simulate,
    write_counts_csv,
)
from .errors import DataError, InvalidConfig, OutOfRange
from .fileio import check_fields, from_json, is_kind, read_json, write_text, writing
from .linalg import write_state_json
from .metrics import family_purity, family_tangle, family_visibility
from .optics import standard_projector_set
from .states import NoiseParams, SourceConfig, completely_mixed, generate, mix_duty_cycle
from .tomography import (
    ReconstructionResult,
    _bootstrap_batch,
    _reconstruct_batch,
    check_resamples,
    write_result_json,
)

SWEEP_CSV_HEADER = (
    "alpha,visibility,tangle,purity,fidelity,"
    "visibility_err,tangle_err,purity_err,fidelity_err,"
    "theory_visibility,theory_tangle,theory_purity,source"
)


@dataclass(frozen=True)
class SweepSpec:
    """Grid of duty cycles plus acquisition, noise, and output settings.

    resamples is the bootstrap size: 0 for no error bars, else at least 2.
    """

    alphas: tuple[float, ...]
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    noise: NoiseParams = field(default_factory=NoiseParams)
    outputs: str = "sweep_out"
    include_completely_mixed: bool = False
    resamples: int = 25

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.alphas:
            raise OutOfRange("sweep needs at least one alpha value")
        check_resamples(self.resamples)
        if not self.outputs:
            raise InvalidConfig("sweep outputs must name a directory, got ''")
        acq = self.acquisition  # summed in Python floats, which do not warn on overflow
        if float(acq.pairs_per_setting) + float(acq.accidental_rate) > _POISSON_MAX:
            raise OutOfRange("pairs_per_setting + accidental_rate must be at most "
                             f"{_POISSON_MAX!r}, the largest Poisson mean numpy draws")
        # alpha_{alpha:g} keeps 6 significant digits, so 0.1 and 0.1000001 share alpha_0.1.
        names = [point.directory for point in self.points]
        shared = sorted({name for name in names if names.count(name) > 1})
        if shared:
            raise InvalidConfig(f"sweep points would share the directories {shared}")

    @cached_property
    def points(self) -> tuple:
        """A SweepPoint for every point, in point order (duty cycles, then two_vpr), built once."""
        points = [
            SweepPoint(index, "pump_vpr", f"alpha_{alpha:g}",
                       SourceConfig(alpha=alpha, noise=self.noise), partial(mix_duty_cycle, alpha),
                       f"duty-cycle mixture alpha={alpha:g}",
                       tuple(family(alpha, self.noise.dephasing, self.noise.depolarizing)
                             for family in (family_visibility, family_tangle, family_purity)))
            for index, alpha in enumerate(map(float, self.alphas))
        ]
        if self.include_completely_mixed:  # I/4 at any noise
            points.append(SweepPoint(len(points), "two_vpr", "completely_mixed",
                                     SourceConfig(alpha=0.5, signal_dc=0.5, noise=self.noise),
                                     partial(completely_mixed), "identity/4", (0.0, 0.0, 0.25)))
        return tuple(points)

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepSpec":
        return from_json(cls, data, "sweep spec")

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        return cls.from_json_dict(read_json(path, "sweep spec", InvalidConfig))


@dataclass(frozen=True, eq=False)
class SweepPoint:
    """One sweep point as SweepSpec.points fixes it and, as run_sweep returns it, its result."""

    index: int
    source: str
    directory: str
    config: SourceConfig  # its alpha is the point's duty cycle
    make_target: partial  # called by run_sweep: building a SweepSpec never calls LAPACK
    description: str  # of the target
    theory: tuple  # closed-form (visibility, tangle, purity) of config's state
    result: ReconstructionResult | None = None


def _format(value) -> str:
    return repr(float(value))


def _fit(spec: SweepSpec, points, resamples: int = 0) -> tuple:
    """Generate, draw, fit and bootstrap the points as one batch: seeds, results, states, tables."""
    pset = standard_projector_set()
    states = [generate(point.config) for point in points]
    keys = [(_SWEEP_STREAM, point.index) for point in points]  # derive_seed(master, *key) each
    seeds = _philox_keys([spec.acquisition.seed], keys)[0, :, 0]
    tables = _simulate(np.stack([state.matrix for state in states]), pset, spec.acquisition, seeds)
    results = _reconstruct_batch(list(tables), pset, [point.make_target() for point in points],
                                 [point.description for point in points])
    if resamples:
        _bootstrap_batch(results, pset, spec.acquisition, seeds, resamples)
    return seeds, results, states, tables


def _finish(spec: SweepSpec, points, fitted: tuple, share: int, shares: int) -> list:
    """Bootstrap and write the points[share::shares] that _fit fitted; return their results."""
    seeds, results, states, tables = (column[share::shares] for column in fitted)
    if spec.resamples:
        _bootstrap_batch(results, standard_projector_set(), spec.acquisition, seeds, spec.resamples)
    for point, result, state, counts in zip(points[share::shares], results, states, tables):
        point_dir = os.path.join(spec.outputs, point.directory)
        write_state_json(os.path.join(point_dir, "state.json"), state)
        write_counts_csv(os.path.join(point_dir, "counts.csv"), counts)
        write_result_json(os.path.join(point_dir, "recon.json"), result)
    return results


def _finish_shares(spec: SweepSpec, points, fitted: tuple, shares: int) -> list:
    """_finish share 0 here and every other share in a forked child; return results in order.

    A child pickles its results, or its exception, to a pipe. Every child is
    reaped, and killed first only if this process is interrupted.
    """
    results, children, payloads, statuses = [None] * len(points), [], [], []
    try:
        for share in range(1, shares):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child never returns into the caller's code
                try:
                    try:
                        payload = pickle.dumps(_finish(spec, points, fitted, share, shares))
                    except BaseException as exc:  # the parent raises it
                        try:
                            payload = pickle.dumps(exc)
                        except Exception:  # noqa: BLE001 - an exception that cannot be pickled
                            payload = pickle.dumps(RuntimeError(repr(exc)))
                    with open(write_end, "wb") as pipe:
                        pipe.write(payload)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write_end)
            children.append((pid, open(read_end, "rb")))
        results[0::shares] = _finish(spec, points, fitted, 0, shares)
        payloads = [pipe.read() for _pid, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()  # a child still writing its payload then exits on EPIPE
            if not payloads and not isinstance(sys.exc_info()[1], Exception):  # interrupted
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for share, (payload, status) in enumerate(zip(payloads, statuses), start=1):
        outcome = pickle.loads(payload) if payload else RuntimeError(  # bytes our child wrote
            f"sweep share {share} reported nothing; exit status {status}")
        if isinstance(outcome, BaseException):
            raise outcome
        results[share::shares] = outcome
    return results


def run_sweep(spec: SweepSpec, parallel: int = 0) -> list[SweepPoint]:
    """Run the sweep (on `parallel` workers if > 1) into spec.outputs; return the run points."""
    if not is_kind(parallel, int) or parallel < 0:
        raise OutOfRange(f"parallel must be >= 0 (0 and 1 run serially), got {parallel}")
    points = spec.points
    for point in points:  # an unwritable outputs fails before any compute
        point_dir = os.path.join(spec.outputs, point.directory)
        with writing(point_dir):
            os.makedirs(point_dir, exist_ok=True)
    table = os.path.join(spec.outputs, "sweep.csv")
    with writing(table), contextlib.suppress(FileNotFoundError):
        os.remove(table)  # a sweep.csv found after a run is that run's
    shares = max(1, min(parallel, len(points)))
    try:
        results = _finish_shares(spec, points, _fit(spec, points), shares)
    except DataError:  # only writing raises a ConfigError once SweepSpec has checked the spec
        for point in points:
            try:
                _fit(spec, [point], spec.resamples)
            except DataError as exc:
                alpha = point.config.alpha
                raise type(exc)(f"sweep point alpha={alpha:g} ({point.source}): {exc}") from exc
        raise

    rows = [SWEEP_CSV_HEADER]
    for point, result in zip(points, results):
        metrics, errors = result.metrics, result.metric_errors
        estimates = [point.config.alpha, metrics.visibility, metrics.tangle, metrics.purity,
                     metrics.fidelity_to_target]
        bars = [_format(errors[name]) if errors else ""
                for name in ("visibility", "tangle", "purity", "fidelity")]
        row = [*map(_format, estimates), *bars, *map(_format, point.theory), point.source]
        rows.append(",".join(row))
    write_text(table, "\n".join(rows) + "\n")
    return [replace(point, result=result) for point, result in zip(points, results)]
