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

A sweep that fails is rerun one point at a time, computing only, to name the
first point in grid order that fails: a batch fails exactly when one of its
points fails alone. It leaves its point directories and any points a share
finished, but no sweep.csv.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, field

from .counting import (
    _POISSON_MAX,
    _SWEEP_STREAM,
    AcquisitionConfig,
    _simulate,
    derive_seed,
    write_counts_csv,
)
from .errors import BellmixError, ConfigParse, InvalidConfig, OutOfRange
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


def _directory(alpha: float, source: str) -> str:
    """A point's directory name; SweepSpec rejects a grid where two points share one.

    alpha keeps 6 significant digits, so 0.1 and 0.1000001 both give alpha_0.1.
    """
    return "completely_mixed" if source == "two_vpr" else f"alpha_{alpha:g}"


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
        names = [_directory(alpha, source) for alpha, source in self.grid()]
        shared = sorted({name for name in names if names.count(name) > 1})
        if shared:
            raise InvalidConfig(f"sweep points would share the directories {shared}")

    def grid(self) -> list:
        """(alpha, source) of every point, in point order."""
        grid = [(float(alpha), "pump_vpr") for alpha in self.alphas]
        if self.include_completely_mixed:
            grid.append((0.5, "two_vpr"))
        return grid

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
    """One sweep point: its place on the grid, its simulated data and, once run, its result."""

    index: int
    alpha: float
    source: str
    state: DensityMatrix | None = None
    records: list | None = None
    theory: tuple = ()
    result: ReconstructionResult | None = None


def _format(value) -> str:
    return repr(float(value))


def _run(spec: SweepSpec, points: list) -> list:
    """Generate each point, then simulate, reconstruct and bootstrap them all as batches."""
    pset = standard_projector_set()
    targets, descriptions, seeds = [], [], []
    for point in points:
        alpha = point.alpha
        if point.source == "two_vpr":
            config = SourceConfig(alpha=alpha, signal_dc=0.5, noise=spec.noise)
            targets.append(completely_mixed())
            descriptions.append("identity/4")
            point.theory = (0.0, 0.0, 0.25)
        else:
            config = SourceConfig(alpha=alpha, noise=spec.noise)
            targets.append(mix_duty_cycle(alpha))
            descriptions.append(f"duty-cycle mixture alpha={alpha:g}")
            point.theory = (family_visibility(alpha), family_tangle(alpha), family_purity(alpha))
        seeds.append(derive_seed(spec.acquisition.seed, _SWEEP_STREAM, point.index))
        point.state = generate(config)
    states = [point.state for point in points]
    for point, records in zip(points, _simulate(states, pset, spec.acquisition, seeds)):
        point.records = records
    results = _reconstruct_batch([point.records for point in points], pset, targets, descriptions)
    if spec.resamples:
        all_errors = _bootstrap_batch(results, pset, spec.acquisition, seeds, spec.resamples)
        for result, errors in zip(results, all_errors):
            result.metric_errors = errors
    for point, result in zip(points, results):
        point.result = result
    return points


def _run_and_write(spec: SweepSpec, points: list) -> list:
    """_run the points, then write each one's state.json, counts.csv and recon.json."""
    for point in _run(spec, points):
        point_dir = os.path.join(spec.outputs, _directory(point.alpha, point.source))
        write_state_json(os.path.join(point_dir, "state.json"), point.state)
        write_counts_csv(os.path.join(point_dir, "counts.csv"), point.records)
        write_result_json(os.path.join(point_dir, "recon.json"), point.result)
    return points


def _fork_shares(spec: SweepSpec, points: list, shares: int) -> None:
    """Run and write each share points[i::shares] in a forked child, then take its points back.

    A child pickles its points, or the exception it raised, to a pipe. Every
    child is reaped, after a SIGKILL if this process raised first.
    """
    children, payloads, statuses = [], [], []
    try:
        for share in range(shares):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child never returns into the caller's code
                try:
                    try:
                        payload = pickle.dumps(_run_and_write(spec, points[share::shares]))
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
        points[share::shares] = outcome


def run_sweep(spec: SweepSpec, parallel: int = 0) -> list[SweepPoint]:
    """Run the sweep (on `parallel` workers if > 1), write it to spec.outputs, return the points."""
    if parallel < 0:
        raise OutOfRange(f"parallel must be >= 0 (0 and 1 run serially), got {parallel}")
    points = [SweepPoint(index, alpha, source) for index, (alpha, source) in enumerate(spec.grid())]
    for point in points:  # an unwritable outputs fails before any compute
        point_dir = os.path.join(spec.outputs, _directory(point.alpha, point.source))
        with writing(point_dir):
            os.makedirs(point_dir, exist_ok=True)
    shares = max(1, min(parallel, len(points)))
    try:
        if shares > 1:
            _fork_shares(spec, points, shares)
        else:
            _run_and_write(spec, points)
    except BellmixError:
        for point in points:
            try:
                _run(spec, [point])
            except BellmixError as exc:
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
