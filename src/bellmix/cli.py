"""Command-line front end.

Subcommands: generate, simulate, reconstruct, metrics, sweep, paper-fixtures.
Exit codes: 0 success, 1 a paper-fixtures check failed, 2 configuration
error, 3 data error, 4 reconstruction did not converge. A sweep takes its seed
from its spec; any other seed comes only from --seed, else from its default.

The `bellmix` command enters through run(); main(argv) is the in-process
function, which returns the exit code.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace
from functools import partial

from . import fixtures
from .counting import AcquisitionConfig, read_counts_csv, simulate_counts, write_counts_csv
from .errors import ConfigError, DataError
from .fileio import write_json
from .linalg import read_state_json, write_state_json
from .metrics import report_for
from .optics import read_projector_set_json, standard_projector_set, write_projector_set_json
from .states import SourceConfig, generate, mix_duty_cycle
from .sweep import SweepSpec, run_sweep
from .tomography import MAX_ITERATIONS, TOLERANCE, bootstrap_errors, check_resamples
from .tomography import mle_reconstruct, write_result_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NO_CONVERGENCE = 4


def _load_source_config(path) -> SourceConfig:
    if path is None:
        return SourceConfig()
    return SourceConfig.from_file(path)


def _cmd_generate(args) -> int:
    config = _load_source_config(args.config)
    rho = generate(config)
    write_state_json(args.out, rho)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = _load_source_config(args.config)
    acq = AcquisitionConfig(
        pairs_per_setting=args.pairs,
        accidental_rate=args.accidentals,
        seed=args.seed,
    )
    pset = standard_projector_set()
    counts = simulate_counts(generate(config), pset, acq)
    write_counts_csv(args.out, counts)  # stdout if no --out
    if args.projectors_out is not None:
        write_projector_set_json(args.projectors_out, pset)
    return EXIT_OK


def _resolve_target(args):
    if args.target is not None:
        return read_state_json(args.target), f"state file {args.target}"
    if args.alpha is not None:
        return mix_duty_cycle(args.alpha), f"duty-cycle mixture alpha={args.alpha:g}"
    return None, None


def _cmd_reconstruct(args) -> int:
    check_resamples(args.resamples)
    counts = read_counts_csv(args.counts)
    pset = (
        read_projector_set_json(args.projectors)
        if args.projectors is not None
        else standard_projector_set()
    )
    target, description = _resolve_target(args)
    # The bootstrap's acquisition comes first, so a bad seed exits before the fit, bootstrap or not.
    acq = AcquisitionConfig(  # an exact int sum: int64 would wrap above 2**63
        pairs_per_setting=max(1.0, sum(counts.reshape(-1).tolist()) / len(counts)),
        seed=args.seed,
    )
    result = mle_reconstruct(
        counts,
        pset,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        target=target,
        target_description=description,
    )
    if args.resamples:  # stores result.metric_errors
        bootstrap_errors(result, pset, acq, args.resamples,
                         max_iterations=args.max_iterations, tolerance=args.tolerance)
    write_result_json(args.out, result)
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_metrics(args) -> int:
    rho = read_state_json(args.state)
    target, description = _resolve_target(args)
    report = report_for(rho, target=target, target_description=description)
    write_json(args.out, report.to_json_dict())
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = SweepSpec.from_file(args.spec)
    spec = replace(spec, outputs=spec.outputs if args.out is None else args.out)
    points = run_sweep(spec, parallel=args.parallel)
    print(f"sweep written to {spec.outputs}")
    return EXIT_OK if all(point.result.converged for point in points) else EXIT_NO_CONVERGENCE


def _cmd_paper_fixtures(args) -> int:
    checks = fixtures.run_fixture_checks(pairs_per_setting=args.pairs, seed=args.seed)
    for check in checks:
        print(check.describe())
    return EXIT_OK if all(check.passed for check in checks) else 1


def build_parser() -> argparse.ArgumentParser:
    new_parser = partial(argparse.ArgumentParser, allow_abbrev=False)  # a prefix names no flag
    parser = new_parser(
        prog="bellmix",
        description=(
            "Simulate a duty-cycled two-photon mixed-state source, run the "
            "36-outcome tomography, reconstruct by maximum likelihood, and "
            "compute figures of merit."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=new_parser)

    p = sub.add_parser("generate", help="emit the configured source state as matrix JSON")
    p.add_argument("--config", help="source config JSON (defaults apply if omitted)")
    p.add_argument("--out", help="output path (stdout if omitted)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("simulate", help="simulate coincidence counts for the configured state")
    p.add_argument("--config", help="source config JSON")
    p.add_argument("--pairs", type=float, default=AcquisitionConfig.pairs_per_setting,
                   help="mean detected pairs per setting")
    p.add_argument("--accidentals", type=float, default=AcquisitionConfig.accidental_rate,
                   help="flat accidental mean per outcome")
    p.add_argument("--seed", type=int, default=AcquisitionConfig.seed, help="simulation seed")
    p.add_argument("--out", help="counts CSV path (stdout if omitted)")
    p.add_argument("--projectors-out", help="also write the projector set JSON here")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="maximum-likelihood reconstruction from counts")
    p.add_argument("counts", help="counts CSV file")
    p.add_argument("--projectors", help="projector set JSON (bundled standard set if omitted)")
    target = p.add_mutually_exclusive_group()  # giving both exits 2
    target.add_argument("--target", help="target state JSON for the fidelity metric")
    target.add_argument("--alpha", type=float, help="target the duty-cycle mixture at this alpha")
    p.add_argument("--max-iterations", type=int, default=MAX_ITERATIONS)
    p.add_argument("--tolerance", type=float, default=TOLERANCE)
    p.add_argument("--resamples", type=int, default=0,
                   help="bootstrap resamples (0 disables, else >= 2)")
    p.add_argument("--seed", type=int, default=AcquisitionConfig.seed, help="bootstrap seed")
    p.add_argument("--out", help="result JSON path (stdout if omitted)")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("metrics", help="figures of merit of a stored state")
    p.add_argument("--state", required=True, help="state JSON file")
    target = p.add_mutually_exclusive_group()
    target.add_argument("--target", help="target state JSON for fidelity")
    target.add_argument("--alpha", type=float, help="target the duty-cycle mixture at this alpha")
    p.add_argument("--out", help="metrics JSON path (stdout if omitted)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("sweep", help="run a duty-cycle sweep from a spec file")
    p.add_argument("--spec", required=True, help="sweep spec JSON")
    p.add_argument("--out", help="output directory (overrides the spec's outputs)")
    p.add_argument("--parallel", type=int, default=0, help="processes incl. this one (0/1: serial)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("paper-fixtures", help="check the bundled reference fixtures")
    p.add_argument("--pairs", type=float, default=1e5, help="pairs per setting for the band check")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=_cmd_paper_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    """The `bellmix` process: exit with main()'s code on sys.argv.

    The heap left by importing numpy and bellmix lives until exit, so it is
    frozen out of the cyclic collector, whose collections at exit would walk it.
    A stdout whose reader has gone exits 2 with one error line.
    """
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # As in the "Note on SIGPIPE" of Python's signal docs: stdout goes to devnull,
        # so the interpreter's flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc.strerror}", file=sys.stderr)
        code = EXIT_CONFIG
    sys.exit(code)


if __name__ == "__main__":
    run()
