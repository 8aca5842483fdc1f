"""Duty-cycle sweep orchestration: generate, acquire, reconstruct, tabulate.

A sweep writes one directory per point (state.json, counts.csv, recon.json)
plus a top-level sweep.csv whose rows carry the reconstructed metrics, their
bootstrap error bars, and the closed-form theory columns.

Each point is generated, all are simulated in one draw, reconstructed as one
batch and bootstrapped in stacks of whole points, then written. With workers,
the grid splits into interleaved shares (point i goes to share i % workers),
each run and written this way by its own forked child. The coordinator makes
every point directory first and writes sweep.csv last, from the points the
children send back. Every point derives its seed from (master seed, point
index) and every sample of a batch comes out as it would alone, so output
bytes do not depend on batching or on the workers.

A sweep that fails on a data error is rerun one point at a time, computing
only, to name the first point in grid order that fails: a batch fails exactly
when one of its points fails alone. Only data errors are rerun: a point file
that cannot be written fails the sweep at once, without recomputing the grid.
A failed sweep leaves its point directories and any points a share finished,
but no sweep.csv.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .counting import (
    _POISSON_MAX,
    _SWEEP_STREAM,
    AcquisitionConfig,
    _simulate,
    derive_seed,
    write_counts_csv,
)
from .errors import ConfigParse, DataError, InvalidConfig, OutOfRange
from .fileio import checked, is_kind, parsing, read_json, write_text, writing
from .linalg import DensityMatrix, write_state_json
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

    alphas: tuple
    acquisition: AcquisitionConfig = field(default_factory=AcquisitionConfig)
    noise: NoiseParams = field(default_factory=NoiseParams)
    outputs: str = "sweep_out"
    include_completely_mixed: bool = False
    resamples: int = 25

    def __post_init__(self) -> None:
        if not self.alphas:
            raise OutOfRange("sweep needs at least one alpha value")
        for alpha in self.alphas:
            if not 0.0 <= alpha <= 1.0:
                raise OutOfRange(f"sweep alpha {alpha!r} outside [0, 1]")
        check_resamples(self.resamples)
        if not self.outputs:
            raise InvalidConfig("sweep outputs must name a directory, got ''")
        if self.acquisition.pairs_per_setting + self.acquisition.accidental_rate > _POISSON_MAX:
            raise OutOfRange("pairs_per_setting + accidental_rate must be at most "
                             f"{_POISSON_MAX!r}, the largest Poisson mean numpy draws")
        # alpha_{alpha:g} keeps 6 significant digits, so 0.1 and 0.1000001 share alpha_0.1.
        names = [point.directory for point in self.points()]
        shared = sorted({name for name in names if names.count(name) > 1})
        if shared:
            raise InvalidConfig(f"sweep points would share the directories {shared}")

    def points(self) -> list:
        """A new SweepPoint for every point, in point order: the duty cycles, then two_vpr."""
        points = [
            SweepPoint(index, alpha, "pump_vpr", f"alpha_{alpha:g}",
                       SourceConfig(alpha=alpha, noise=self.noise), partial(mix_duty_cycle, alpha),
                       f"duty-cycle mixture alpha={alpha:g}",
                       tuple(family(alpha, self.noise.dephasing, self.noise.depolarizing)
                             for family in (family_visibility, family_tangle, family_purity)))
            for index, alpha in enumerate(map(float, self.alphas))
        ]
        if self.include_completely_mixed:  # I/4 at any noise
            points.append(SweepPoint(len(points), 0.5, "two_vpr", "completely_mixed",
                                     SourceConfig(alpha=0.5, signal_dc=0.5, noise=self.noise),
                                     partial(completely_mixed), "identity/4", (0.0, 0.0, 0.25)))
        return points

    @classmethod
    def from_json_dict(cls, data: dict) -> "SweepSpec":
        checked(data, "sweep spec", {
            "alphas": list, "acquisition": dict, "noise": dict, "outputs": str,
            "include_completely_mixed": bool, "resamples": int,
        })
        if "alphas" not in data or not all(is_kind(a, float) for a in data["alphas"]):
            raise InvalidConfig("sweep spec needs 'alphas' as a JSON list of numbers")
        noise_data = checked(
            data.get("noise", {}), "noise", {"dephasing": float, "depolarizing": float}
        )
        # Absent fields, here and in noise and acquisition, keep their dataclass defaults.
        options = {key: data[key] for key in ("outputs", "include_completely_mixed", "resamples")
                   if key in data}
        with parsing("sweep spec", InvalidConfig):
            return cls(
                alphas=tuple(float(a) for a in data["alphas"]),
                acquisition=AcquisitionConfig.from_json_dict(data.get("acquisition", {})),
                noise=NoiseParams(**{key: float(value) for key, value in noise_data.items()}),
                **options,
            )

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        return cls.from_json_dict(read_json(path, "sweep spec", ConfigParse))


@dataclass
class SweepPoint:
    """One sweep point as SweepSpec.points() fixes it and, once _run, its data and result."""

    index: int
    alpha: float
    source: str
    directory: str
    config: SourceConfig
    make_target: partial  # called where the point runs: a pool's coordinator never calls LAPACK
    description: str  # of the target
    theory: tuple  # closed-form (visibility, tangle, purity) of config's state
    state: DensityMatrix | None = None
    counts: np.ndarray | None = None
    result: ReconstructionResult | None = None


def _format(value) -> str:
    return repr(float(value))


def _run(spec: SweepSpec, points: list) -> list:
    """Generate each point, then simulate, reconstruct and bootstrap them all as batches."""
    pset = standard_projector_set()
    for point in points:
        point.state = generate(point.config)
    seeds = [derive_seed(spec.acquisition.seed, _SWEEP_STREAM, point.index) for point in points]
    states = np.stack([point.state.matrix for point in points])
    tables = _simulate(states, pset, spec.acquisition, seeds)
    results = _reconstruct_batch(list(tables), pset, [point.make_target() for point in points],
                                 [point.description for point in points])
    if spec.resamples:
        all_errors = _bootstrap_batch(results, pset, spec.acquisition, seeds, spec.resamples)
        for result, errors in zip(results, all_errors):
            result.metric_errors = errors
    for point, counts, result in zip(points, tables, results):
        point.counts, point.result = counts, result
    return points


def _run_and_write(spec: SweepSpec, points: list) -> list:
    """_run the points, then write each one's state.json, counts.csv and recon.json."""
    for point in _run(spec, points):
        point_dir = os.path.join(spec.outputs, point.directory)
        write_state_json(os.path.join(point_dir, "state.json"), point.state)
        write_counts_csv(os.path.join(point_dir, "counts.csv"), point.counts)
        write_result_json(os.path.join(point_dir, "recon.json"), point.result)
    return points


def _fork_shares(spec: SweepSpec, points: list, shares: int) -> None:
    """Run and write each share points[i::shares] in a forked child, then fill in its points.

    A child pickles the state, counts and result of its points, or its exception,
    to a pipe. Every child is reaped, after a SIGKILL if this process raised first.
    """
    children, payloads, statuses = [], [], []
    try:
        for share in range(shares):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child never returns into the caller's code
                try:
                    try:
                        payload = pickle.dumps([(point.state, point.counts, point.result) for point
                                                in _run_and_write(spec, points[share::shares])])
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
        payloads = [pipe.read() for _pid, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            if not payloads:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for share, (payload, status) in enumerate(zip(payloads, statuses)):
        outcome = pickle.loads(payload) if payload else RuntimeError(  # bytes our child wrote
            f"sweep share {share} reported nothing; exit status {status}")
        if isinstance(outcome, BaseException):
            raise outcome
        for point, (state, counts, result) in zip(points[share::shares], outcome):
            point.state, point.counts, point.result = state, counts, result


def run_sweep(spec: SweepSpec, parallel: int = 0) -> list[SweepPoint]:
    """Run the sweep (on `parallel` workers if > 1), write it to spec.outputs, return the points."""
    if parallel < 0:
        raise OutOfRange(f"parallel must be >= 0 (0 and 1 run serially), got {parallel}")
    points = spec.points()
    for point in points:  # an unwritable outputs fails before any compute
        point_dir = os.path.join(spec.outputs, point.directory)
        with writing(point_dir):
            os.makedirs(point_dir, exist_ok=True)
    shares = max(1, min(parallel, len(points)))
    try:
        if shares > 1:
            _fork_shares(spec, points, shares)
        else:
            _run_and_write(spec, points)
    except DataError:  # only writing raises a ConfigError once SweepSpec has checked the spec
        for point in points:
            try:
                _run(spec, [point])
            except DataError as exc:
                raise type(exc)(f"sweep point alpha={point.alpha:g} ({point.source}): {exc}") from exc
        raise

    rows = [SWEEP_CSV_HEADER]
    for point in points:
        metrics, errors = point.result.metrics, point.result.metric_errors
        estimates = [point.alpha, metrics.visibility, metrics.tangle, metrics.purity,
                     metrics.fidelity_to_target]
        bars = [_format(errors[name]) if errors else ""
                for name in ("visibility", "tangle", "purity", "fidelity")]
        row = [*map(_format, estimates), *bars, *map(_format, point.theory), point.source]
        rows.append(",".join(row))
    write_text(os.path.join(spec.outputs, "sweep.csv"), "\n".join(rows) + "\n")
    return points
