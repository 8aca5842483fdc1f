"""The traced run: per-layer metrics from spans the benchmark records itself.

Spans wrap the benchmark's own calls into each module's public functions;
nothing in the program is patched. Each round pairs an untraced op with a
traced one on the same inputs, so trace.overhead_ratio compares like with
like. A layer a workload never calls reports zero work (and a pool speedup
of 1 where there is no pool).
"""

from __future__ import annotations

import json
import os
import sys
import time

from harness import GateResult, Ledger, Tracer, compare_tree, median, run_child, src_lines
from run import BENCH_DIR, ROOT, RUNS_DIR, measure_op
from workloads import CliWorkload, OpOutcome, cli_op

PROBE_SAMPLES = 5
CLI_CHILD = os.path.join(BENCH_DIR, "cli_child.py")

# Layers whose busy time run_sweep spends outside its own orchestration.
SWEEP_LAYERS = (
    "optics.standard_projector_set",
    "states.generate",
    "counting.simulate_counts",
    "tomography.mle_reconstruct",
    "tomography.bootstrap_errors",
    "linalg.write_state_json",
    "counting.write_counts_csv",
    "tomography.write_result_json",
)


def _p50(values, factor=1.0) -> float:
    return median(values) * factor if values else 0.0


def interpreter_probes(ctx, cal) -> dict:
    """Fresh interpreters: bare start-up, then import numpy / bellmix.cli / first projector set."""
    probe = {"interpreter": [], "import_numpy": [], "import_bellmix": [], "first_call": []}
    for _ in range(PROBE_SAMPLES):
        _result, seconds, scale, _cpu = cal.measure(
            lambda: run_child([sys.executable, "-c", "pass"], ctx.env, ctx.root))
        probe["interpreter"].append(seconds * scale)
        (code, out, err), _seconds, scale, _cpu = cal.measure(
            lambda: run_child([sys.executable, CLI_CHILD], ctx.env, ctx.root))
        if code != 0:
            raise RuntimeError(f"import probe exited {code}: {err.strip()[-200:]}")
        data = json.loads(out.splitlines()[-1])
        probe["import_numpy"].append(data["import_numpy_s"] * scale)
        probe["import_bellmix"].append(data["import_bellmix_s"] * scale)
        probe["first_call"].append(data["projector_set_first_call_s"] * scale)
    return probe


def _guarded(fn, rest):
    """fn() or, if it raises, a failed OpOutcome followed by the placeholders in `rest`."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - a failed probe is a failed op
        return (OpOutcome(False, f"{type(exc).__name__}: {exc}"), *rest)


def traced(cal, tracer, fn, inline=False):
    """Run fn() in a calibration window and scale the spans it records; returns (result, s)."""
    first = len(tracer.spans)
    result, seconds, scale, _cpu = cal.measure(fn, inline)
    tracer.rescale(first, scale)
    return result, seconds * scale


def _mle_metrics(tracer, per_op: float, distinct) -> dict:
    """mle_reconstruct metrics; iteration counts are summed over the distinct inputs."""
    spans = tracer.named("tomography.mle_reconstruct")
    busy = tracer.busy("tomography.mle_reconstruct")
    iterations_all = sum(s.attrs["iterations"] for s in spans)
    return {
        "tomography.mle_reconstruct.calls": (len(spans) / per_op, "count"),
        "tomography.mle_reconstruct.busy_s": (busy / per_op, "s"),
        "tomography.mle_reconstruct.p50_ms": (_p50(tracer.durations("tomography.mle_reconstruct"), 1e3), "ms"),
        "tomography.mle_reconstruct.iterations_total": (sum(s.attrs["iterations"] for s in distinct), "count"),
        "tomography.mle_reconstruct.iterations_p50": (_p50([s.attrs["iterations"] for s in distinct]), "count"),
        "tomography.mle_reconstruct.us_per_iteration": (
            busy / iterations_all * 1e6 if iterations_all else 0.0, "us"),
        "tomography.mle_reconstruct.not_converged": (sum(1 for s in distinct if not s.attrs["converged"]), "count"),
        "tomography.mle_reconstruct.floored_outcomes": (sum(s.attrs["floored_outcomes"] for s in distinct), "count"),
    }


def _common_metrics(tracer, probe, ctx, per_op, per_setup) -> dict:
    return {
        "counting.simulate_counts.calls": (len(tracer.named("counting.simulate_counts")) / per_setup, "count"),
        "counting.simulate_counts.busy_s": (tracer.busy("counting.simulate_counts") / per_setup, "s"),
        "counting.simulate_counts.p50_us": (_p50(tracer.durations("counting.simulate_counts"), 1e6), "us"),
        "counting.stream.p50_us": (_p50(tracer.durations("counting.stream"), 1e6), "us"),
        "counting.read_counts_csv.p50_us": (_p50(tracer.durations("counting.read_counts_csv"), 1e6), "us"),
        "tomography.write_result_json.p50_us": (_p50(tracer.durations("tomography.write_result_json"), 1e6), "us"),
        "metrics.report_for.calls": (len(tracer.named("metrics.report_for")) / per_op, "count"),
        "metrics.report_for.busy_s": (tracer.busy("metrics.report_for") / per_op, "s"),
        "metrics.report_for.p50_us": (_p50(tracer.durations("metrics.report_for"), 1e6), "us"),
        "states.generate.busy_ms": (tracer.busy("states.generate") / per_setup * 1e3, "ms"),
        "optics.standard_projector_set.first_call_ms": (_p50(probe["first_call"], 1e3), "ms"),
        "linalg.write_state_json.p50_us": (_p50(tracer.durations("linalg.write_state_json"), 1e6), "us"),
        "cli.interpreter_ms": (_p50(probe["interpreter"], 1e3), "ms"),
        "cli.import_numpy_ms": (_p50(probe["import_numpy"], 1e3), "ms"),
        "cli.import_bellmix_ms": (_p50(probe["import_bellmix"], 1e3), "ms"),
        "code.src_lines": (src_lines(ctx.src), "count"),
    }


def _tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _s, files in os.walk(path) for f in files)


def trace_sweep(args, ctx, workload, cal):
    tracer, ledger = Tracer(), Ledger()
    probe = interpreter_probes(ctx, cal)
    workload.prepare(ctx)
    workload.warm_up(ctx)
    pooled = workload.parallel > 1
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        outcome, wall_u = measure_op(cal, ledger, lambda: workload.op(ctx), workload.inline)
        # The traced pass is serial; a pooled workload also times an untraced
        # serial sweep so the tracing overhead compares serial with serial.
        serial_s = wall_u
        if pooled:
            serial_s = measure_op(cal, ledger, lambda: workload.op(ctx, parallel=0), True)[1]
        first = len(tracer.spans)
        (result, payload, outdir), traced_s = traced(
            cal, tracer, lambda: _guarded(lambda: workload.traced_pass(ctx, tracer), (0, "")),
            inline=True)
        ledger.record(traced_s, traced_s, 0.0, result.ok, result.reconstructions, result.reason,
                      result.gate)
        rounds.append({
            "untraced_s": wall_u,
            "serial_s": serial_s,
            "traced_s": traced_s,
            "layer_busy_s": sum(s.duration for s in tracer.spans[first:] if s.name in SWEEP_LAYERS),
            "payload_bytes": payload,
            "tree_bytes": _tree_bytes(outcome.outdir) if outcome.outdir else 0,
        })
        if outdir:
            traced(cal, tracer, lambda: workload.probes(ctx, tracer, outdir))

    passes = len(rounds)
    points = tracer.named("tomography.mle_reconstruct")[: workload.points]
    boot = tracer.busy("tomography.bootstrap_errors")
    boot_calls = len(tracer.named("tomography.bootstrap_errors"))
    metrics = _common_metrics(tracer, probe, ctx, passes, passes)
    metrics.update(_mle_metrics(tracer, passes, points))
    metrics.update({
        "tomography.bootstrap_errors.busy_s": (boot / passes, "s"),
        "tomography.bootstrap_errors.ms_per_resample": (
            boot / (boot_calls * workload.resamples) * 1e3 if boot_calls else 0.0, "ms"),
        "sweep.write.busy_s": (tracer.busy("sweep.write") / passes, "s"),
        "sweep.write.bytes": (median(r["tree_bytes"] for r in rounds), "bytes"),
        "sweep.orchestration.self_s": (median(r["serial_s"] - r["layer_busy_s"] for r in rounds), "s"),
        "sweep.pool.overhead_s": (
            median(r["untraced_s"] - r["traced_s"] / 2 for r in rounds) if pooled else 0.0, "s"),
        "sweep.pool.speedup": (
            median(r["traced_s"] / r["untraced_s"] for r in rounds) if pooled else 1.0, "ratio"),
        "sweep.pool.result_bytes": (median(r["payload_bytes"] for r in rounds) if pooled else 0, "bytes"),
        "cli.main.p50_ms": (0.0, "ms"),
        "trace.overhead_ratio": (
            median(r["traced_s"] for r in rounds) / median(r["serial_s"] for r in rounds), "ratio"),
    })
    details = {"rounds": rounds, "probe": probe}
    return tracer, ledger, metrics, details


def trace_cli(args, ctx, workload: CliWorkload, cal):
    from bellmix import mix_duty_cycle, mle_reconstruct, report_for, standard_projector_set
    from bellmix.counting import read_counts_csv, stream
    from bellmix.tomography import write_result_json

    tracer, ledger = Tracer(), Ledger()
    probe = interpreter_probes(ctx, cal)
    traced(cal, tracer, lambda: workload.prepare(ctx, tracer))
    workload.warm_up(ctx)
    pset = standard_projector_set()

    def in_process(key, path, alpha):
        """The op's layers, called in-process on the same counts file and gated."""
        target = mix_duty_cycle(alpha)
        description = f"duty-cycle mixture alpha={alpha:g}"
        with tracer.span("counting.read_counts_csv"):
            records = read_counts_csv(path)
        with tracer.span("tomography.mle_reconstruct") as span:
            result = mle_reconstruct(records, pset, target=target, target_description=description)
        span.attrs.update(iterations=result.iterations, converged=result.converged,
                          floored_outcomes=result.floored_outcomes)
        with tracer.span("metrics.report_for"):
            report_for(result.rho_hat, target=target, target_description=description)
        out = os.path.join(ctx.fresh_dir(), "recon.json")
        with tracer.span("tomography.write_result_json"):
            write_result_json(out, result)
        for setting in range(9):
            for outcome in range(4):
                with tracer.span("counting.stream"):
                    stream(workload.sim_seeds(ctx.seed)[0], setting, outcome)
        with open(out, encoding="utf-8") as fh:
            ok, deviation, reason = compare_tree(json.load(fh), workload.golden[key])
        return OpOutcome(ok, reason, gate=GateResult(ok, deviation, reason)), span

    rounds, main_s, distinct = [], [], {}
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        item = workload.next_input()
        key, path, alpha = item
        wall_u = measure_op(cal, ledger, lambda: workload.op(ctx, item))[1]

        out = os.path.join(ctx.fresh_dir(), "recon.json")
        argv = [sys.executable, CLI_CHILD, *workload.argv(path, alpha, out)]
        result, seconds, scale, _cpu = cal.measure(lambda: cli_op(argv, ctx, out, workload.golden[key]))
        ledger.record(seconds, seconds * scale, 0.0, result.ok, result.reconstructions,
                      result.reason, result.gate)
        if result.ok:
            main_s.append(json.loads(result.stdout.splitlines()[-1])["main_s"] * scale)
        rounds.append({"untraced_s": wall_u, "traced_s": seconds * scale})

        (probe_result, span), _s = traced(
            cal, tracer, lambda: _guarded(lambda: in_process(*item), (None,)))
        if span is not None:
            distinct.setdefault(key, span)
        if not probe_result.ok:
            ledger.record(0.0, 0.0, 0.0, False, reason=f"in-process probe: {probe_result.reason}")

    ops = len(rounds)
    metrics = _common_metrics(tracer, probe, ctx, ops, 1)
    metrics.update(_mle_metrics(tracer, ops, list(distinct.values())))
    metrics.update({
        "tomography.bootstrap_errors.busy_s": (0.0, "s"),
        "tomography.bootstrap_errors.ms_per_resample": (0.0, "ms"),
        "sweep.write.busy_s": (0.0, "s"),
        "sweep.write.bytes": (0, "bytes"),
        "sweep.orchestration.self_s": (0.0, "s"),
        "sweep.pool.overhead_s": (0.0, "s"),
        "sweep.pool.speedup": (1.0, "ratio"),
        "sweep.pool.result_bytes": (0, "bytes"),
        "cli.main.p50_ms": (_p50(main_s, 1e3), "ms"),
        "trace.overhead_ratio": (
            median(r["traced_s"] for r in rounds) / median(r["untraced_s"] for r in rounds), "ratio"),
    })
    details = {"rounds": rounds, "probe": probe, "distinct_inputs": len(distinct)}
    return tracer, ledger, metrics, details


def traced_run(args, ctx, workload, cal):
    if isinstance(workload, CliWorkload):
        tracer, ledger, metrics, details = trace_cli(args, ctx, workload, cal)
    else:
        tracer, ledger, metrics, details = trace_sweep(args, ctx, workload, cal)
    os.makedirs(RUNS_DIR, exist_ok=True)
    spans_path = os.path.join(RUNS_DIR, f"{args.workload}-seed{args.seed}-spans.json")
    tracer.dump(spans_path)
    details["spans"] = os.path.relpath(spans_path, ROOT)
    return ledger, dict(sorted(metrics.items())), details, True
