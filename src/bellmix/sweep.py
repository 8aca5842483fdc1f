"""Duty-cycle sweep orchestration: generate, acquire, reconstruct, tabulate.

A sweep writes one directory per point (state.json, counts.csv, recon.json)
plus a top-level sweep.csv whose rows carry the reconstructed metrics, their
bootstrap error bars, and the closed-form theory columns.

The points run in stages, each over all of them at once: set-up (generate
and simulate), reconstruction as one batch, and the bootstrap, whose
resamples are reconstructed in stacks of whole points. A process pool splits
the grid into interleaved shares (point i goes to share i % workers), and
each worker runs every stage over its share. Every point derives its seed
from (master seed, point index) and every sample of a batch comes out as it
would alone, and all files are written by the coordinating process in point
order, so output bytes do not depend on batching or on the pool.

A failing sweep raises the error of the first point, in grid order, that
fails at any stage, named after that point, as a sweep run one point at a
time would; serial and pooled runs name the same point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import partial

from .counting import (
    _SWEEP_STREAM,
    AcquisitionConfig,
    derive_seed,
    simulate_counts,
    write_counts_csv,
)
from .errors import BellmixError, ConfigParse, InvalidConfig, OutOfRange
from .fileio import checked, is_kind, parsing, read_json, read_text, write_text
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
    acq: AcquisitionConfig | None = None
    state: DensityMatrix | None = None
    records: list | None = None
    target: DensityMatrix | None = None
    description: str = ""
    theory: tuple = ()
    result: ReconstructionResult | None = None


def _format(value) -> str:
    return repr(float(value))


def _set_up(points: list, spec: SweepSpec, pset) -> None:
    """Each point's source, target, seed, state and simulated counts."""
    for point in points:
        alpha = point.alpha
        if point.source == "two_vpr":
            config = SourceConfig(alpha=alpha, signal_dc=0.5, noise=spec.noise)
            point.target = completely_mixed()
            point.description = "identity/4"
            point.theory = (0.0, 0.0, 0.25)
        else:
            config = SourceConfig(alpha=alpha, noise=spec.noise)
            point.target = mix_duty_cycle(alpha)
            point.description = f"duty-cycle mixture alpha={alpha:g}"
            point.theory = (family_visibility(alpha), family_tangle(alpha), family_purity(alpha))
        point.acq = replace(spec.acquisition,
                            seed=derive_seed(spec.acquisition.seed, _SWEEP_STREAM, point.index))
        point.state = generate(config)
        point.records = simulate_counts(point.state, pset, point.acq)


def _reconstruct(points: list, pset) -> None:
    results = _reconstruct_batch([point.records for point in points], pset,
                                 [point.target for point in points],
                                 [point.description for point in points])
    for point, result in zip(points, results):
        point.result = result


def _bootstrap(points: list, pset, resamples: int) -> None:
    errors = _bootstrap_batch([point.result for point in points], pset,
                              [point.acq for point in points], resamples)
    for point, metric_errors in zip(points, errors):
        point.result.metric_errors = metric_errors


def _run_share(spec: SweepSpec, points: list) -> tuple:
    """Run every stage over points; returns (points, None), or (points, failure) if one fails.

    A failure is (point index, error). Only the points before a failing one
    go on to later stages, and they are the points returned, so the failure
    is that of the first point that fails at any stage. A
    stage that fails is repeated point by point only to name the point: each
    sample of a batch comes out as it would alone, so the batch fails exactly
    when one of its points does.
    """
    pset = standard_projector_set()
    stages = [partial(_set_up, spec=spec, pset=pset), partial(_reconstruct, pset=pset)]
    if spec.resamples:
        stages.append(partial(_bootstrap, pset=pset, resamples=spec.resamples))
    failure = None
    for stage in stages:
        try:
            stage(points)
        except BellmixError:
            for position, point in enumerate(points):
                try:
                    stage([point])
                except BellmixError as exc:
                    named = type(exc)(f"sweep point alpha={point.alpha:g} ({point.source}): {exc}")
                    named.__cause__ = exc
                    failure, points = (point.index, named), points[:position]
                    break
            else:
                raise
            if not points:
                break
    return points, failure


def run_sweep(spec: SweepSpec, parallel: int = 0) -> list[SweepPoint]:
    """Execute the sweep and write all artifacts to spec.outputs; returns the points in order."""
    points = [SweepPoint(index, alpha, source) for index, (alpha, source) in enumerate(spec.grid())]
    shares = max(1, min(parallel, len(points)))
    if shares > 1:
        from concurrent.futures import ProcessPoolExecutor  # only pooled sweeps pay its import

        with ProcessPoolExecutor(max_workers=shares) as pool:
            outcomes = list(pool.map(partial(_run_share, spec),
                                     [points[share::shares] for share in range(shares)]))
    else:
        outcomes = [_run_share(spec, points)]
    failures = [failure for _, failure in outcomes if failure is not None]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    for share, (share_points, _) in enumerate(outcomes):
        points[share::shares] = share_points

    outdir = spec.outputs
    os.makedirs(outdir, exist_ok=True)
    rows = [SWEEP_CSV_HEADER]
    for point in points:
        point_dir = os.path.join(outdir, _directory(point.alpha, point.source))
        os.makedirs(point_dir, exist_ok=True)
        write_state_json(os.path.join(point_dir, "state.json"), point.state)
        write_counts_csv(os.path.join(point_dir, "counts.csv"), point.records)
        write_result_json(os.path.join(point_dir, "recon.json"), point.result)

        metrics = point.result.metrics
        errors = point.result.metric_errors
        row = [
            _format(point.alpha),
            _format(metrics.visibility),
            _format(metrics.tangle),
            _format(metrics.purity),
            _format(metrics.fidelity_to_target),
            _format(errors["visibility"]) if errors else "",
            _format(errors["tangle"]) if errors else "",
            _format(errors["purity"]) if errors else "",
            _format(errors["fidelity"]) if errors else "",
            _format(point.theory[0]),
            _format(point.theory[1]),
            _format(point.theory[2]),
            point.source,
        ]
        rows.append(",".join(row))

    write_text(os.path.join(outdir, "sweep.csv"), "\n".join(rows) + "\n")
    return points


def load_sweep_csv(path) -> list[dict]:
    """Parse sweep.csv back into dictionaries keyed by the header columns."""
    lines = [line for line in read_text(path, "sweep table").splitlines() if line.strip()]
    header = lines[0].split(",")
    out = []
    for line in lines[1:]:
        parts = line.split(",")
        entry = {}
        for key, value in zip(header, parts):
            if key == "source":
                entry[key] = value
            else:
                entry[key] = float(value) if value else None
        out.append(entry)
    return out
