"""Benchmark entry point: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload sweep_readme --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its `src/`.
With --trace 0 it measures the end-to-end metrics with tracing off; with
--trace 1 it makes the traced run that gives the per-layer metrics. The last
line of standard output is the result object; the full run record goes to
.perfbench_runs/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
# Nominal wall time of a fresh interpreter that imports numpy (see setup_seconds).
REFERENCE_PROCESS_S = 0.2
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_readme", "sweep_pool2_1e7", "cli_reconstruct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare inputs and warm up, then exit (one setup_s sample)")
    return parser.parse_args(argv)


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_op(cal, ledger, op, inline=False):
    """Run op() in a calibration window and record it in the ledger.

    Any exception fails the op. Returns the outcome and the op's
    reference-speed wall time.
    """
    from workloads import OpOutcome

    def guarded():
        try:
            return op()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, and the loop goes on
            return OpOutcome(False, f"{type(exc).__name__}: {exc}")

    outcome, seconds, scale, cpu = cal.measure(guarded, inline)
    ledger.record(seconds, seconds * scale, cpu * scale, outcome.ok, outcome.reconstructions,
                  outcome.reason, outcome.gate)
    return outcome, seconds * scale


def setup_seconds(args):
    """setup_s: fresh interpreters that import bellmix, prepare inputs and warm up.

    Set-up is process start and imports more than computation, so it is
    scaled by a reference process instead of the calibration kernel: each
    set-up child is paired with a child that only imports numpy, and the
    result is REFERENCE_PROCESS_S * median(set-up) / median(reference).
    Returns (setup_s, details, errors).
    """
    from harness import median, run_child

    argv = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    reference = [sys.executable, "-c", "import numpy"]
    env = dict(os.environ)
    setup, ref, errors = [], [], []
    for _ in range(SETUP_SAMPLES):
        for samples, child in ((setup, argv), (ref, reference)):
            t0 = time.perf_counter()
            code, _out, err = run_child(child, env, ROOT)
            samples.append(time.perf_counter() - t0)
            if code != 0:
                errors.append(f"{child[1]} exit {code}: {err.strip()[-200:]}")
    value = REFERENCE_PROCESS_S * median(setup) / median(ref)
    return value, {"setup_unscaled_s": setup, "reference_process_s": ref}, errors


def e2e_run(args, ctx, workload, cal):
    from harness import Ledger, finite_or_none, median, peak_rss_mb, tail_percentile

    setup, setup_details, setup_errors = setup_seconds(args)
    workload.prepare(ctx)
    workload.warm_up(ctx)
    ledger = Ledger()
    start = time.perf_counter()
    while ledger.attempted == 0 or time.perf_counter() - start < args.seconds:
        measure_op(cal, ledger, lambda: workload.op(ctx), workload.inline)
    tail = tail_percentile(ledger.latencies)
    scaled_total = sum(ledger.scaled)
    metrics = {
        "setup_s": (setup, "s"),
        "op_p50_ms": (median(ledger.latencies) * 1e3, "ms"),
        "reconstructions_per_s": (ledger.reconstructions / scaled_total, "1/s"),
        "cpu_ms_per_reconstruction": (
            sum(ledger.cpu) * 1e3 / ledger.reconstructions if ledger.reconstructions else None,
            "ms",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        **setup_details,
        "setup_errors": setup_errors,
        "op_latencies_ms": [finite_or_none(x * 1e3) for x in ledger.latencies],
        "op_unscaled_ms": [x * 1e3 for x in ledger.raw],
        "op_unscaled_p50_ms": median(ledger.raw) * 1e3,
        "op_tail": (
            {"percentile": tail[0], "ms": finite_or_none(tail[1] * 1e3), "samples": tail[2]}
            if tail else {"omitted": f"{len(ledger.latencies)} ops: fewer than 10 beyond the median"}
        ),
    }
    return ledger, metrics, details, not setup_errors


def setup_only(ctx, workload) -> int:
    workload.prepare(ctx)
    workload.warm_up(ctx)
    return 0


def environment(ctx) -> dict:
    import numpy

    from harness import src_lines

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {key: os.environ.get(key) for key in THREAD_ENV},
        "commit": git_commit(ROOT),
        "code.src_lines": src_lines(ctx.src),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bellmix", "__init__.py")):
        print(f"error: {SRC}/bellmix not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # numpy starts one OpenBLAS thread per process unless told otherwise; pin
    # before anything imports it, so every child inherits the same setting.
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, SRC)
    import bellmix

    if not os.path.realpath(bellmix.__file__).startswith(os.path.realpath(SRC) + os.sep):
        print(f"error: bellmix imported from {bellmix.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import Calibrator, finite_or_none, median
    from workloads import WORKLOADS, Context

    os.makedirs(TMP_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    try:
        ctx = Context(ROOT, args.seed, tmp)
        workload = WORKLOADS[args.workload]()
        if args.setup_only:
            return setup_only(ctx, workload)
        cal = Calibrator()
        if args.trace:
            from traced import traced_run

            ledger, metrics, details, ok = traced_run(args, ctx, workload, cal)
        else:
            ledger, metrics, details, ok = e2e_run(args, ctx, workload, cal)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass

    correct = ok and ledger.failed == 0 and all(
        finite_or_none(value) is not None for value, _unit in metrics.values()
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(ctx),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "fail_ratio": ledger.fail_ratio,
        "failures": ledger.failures[:10],
        "gate": ledger.gate_summary(),
        "calibration_p50_s": median(cal.readings),
        "details": details,
        "metrics": {name: {"value": finite_or_none(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    os.makedirs(RUNS_DIR, exist_ok=True)
    record_path = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value!r:>24} {unit}" if value is not None else f"{name:48s} n/a {unit}")
    gate = record["gate"]
    print(f"attempted {ledger.attempted}, failed {ledger.failed}, "
          f"fail_ratio {ledger.fail_ratio:.3f}; gate passed {gate['passed']}/{gate['checked']}, "
          f"max deviation {gate['max_deviation']}")
    print(f"record: {os.path.relpath(record_path, ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
