"""The three workloads, each a closed loop with one client.

An op starts when the previous one has finished. Every op drives bellmix only
from outside, through its public functions or its command line, and every op
passes through the output gate before it counts as done.

- sweep_readme: one serial run_sweep of the README spec per op.
- sweep_pool2_1e7: one run_sweep(parallel=2) at 1e7 pairs per op; its golden
  data come from a serial run, so each op also checks that pooled and serial
  sweeps agree.
- cli_reconstruct: one fresh `python -m bellmix.cli reconstruct` per op.

Golden data exist for GOLDEN_SLOTS input sets; `--seed n` selects set
n % GOLDEN_SLOTS, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import json
import os
import pickle
import random
import sys
from dataclasses import dataclass

from harness import GateResult, compare_csv, compare_tree, run_child, sha256_text

GOLDEN_SLOTS = 8
README_SEED = 2026
README_ALPHAS = tuple(i / 10 for i in range(11))

CLI_ALPHAS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0)
CLI_PAIRS = 1e5
CLI_SEED_BASE = 7000

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
GOLDEN_DIR = os.path.join(BENCH_DIR, "golden")


@dataclass
class OpOutcome:
    ok: bool
    reason: str = ""
    reconstructions: int = 0
    gate: GateResult | None = None
    outdir: str = ""
    stdout: str = ""


class Context:
    """Where one run keeps its inputs and outputs, and how it starts children."""

    def __init__(self, root: str, seed: int, tmp: str) -> None:
        self.root = root
        self.src = os.path.join(root, "src")
        self.seed = seed
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self._dirs = itertools.count()

    def fresh_dir(self) -> str:
        path = os.path.join(self.tmp, f"out{next(self._dirs):05d}")
        os.mkdir(path)
        return path


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# -------------------------------------------------------------------- sweeps


class SweepWorkload:
    """run_sweep over the README grid: 11 duty cycles plus the mixed point."""

    def __init__(self, name: str, pairs: float, resamples: int, parallel: int) -> None:
        self.name = name
        self.pairs = pairs
        self.resamples = resamples
        self.parallel = parallel
        # A serial sweep runs in this process, so the calibrator samples during it.
        self.inline = parallel <= 1
        self.points = len(README_ALPHAS) + 1
        self.reconstructions_per_op = self.points * (1 + resamples)
        self.golden = ""

    def master_seed(self, seed: int) -> int:
        return README_SEED + seed % GOLDEN_SLOTS

    def spec(self, seed: int, outdir: str, alphas=README_ALPHAS, mixed=True, resamples=None):
        from bellmix import AcquisitionConfig, SweepSpec

        return SweepSpec(
            alphas=tuple(alphas),
            acquisition=AcquisitionConfig(pairs_per_setting=self.pairs, seed=self.master_seed(seed)),
            outputs=outdir,
            include_completely_mixed=mixed,
            resamples=self.resamples if resamples is None else resamples,
        )

    def golden_path(self, seed: int) -> str:
        return os.path.join(GOLDEN_DIR, self.name, f"sweep_seed{self.master_seed(seed)}.csv")

    def prepare(self, ctx: Context) -> None:
        self.golden = _read_text(self.golden_path(ctx.seed))

    def warm_up(self, ctx: Context) -> None:
        """A two-point sweep with the op's pairs and pool, into a throwaway dir."""
        from bellmix import run_sweep

        run_sweep(self.spec(ctx.seed, ctx.fresh_dir(), alphas=(0.25, 0.75), mixed=False,
                            resamples=2), parallel=self.parallel)

    def op(self, ctx: Context, parallel=None) -> OpOutcome:
        """One sweep; `parallel` overrides the workload's pool size."""
        from bellmix import run_sweep

        outdir = ctx.fresh_dir()
        run_sweep(self.spec(ctx.seed, outdir),
                  parallel=self.parallel if parallel is None else parallel)
        outcome = self.check_tree(outdir)
        outcome.outdir = outdir
        return outcome

    def check_tree(self, outdir: str) -> OpOutcome:
        """Gate sweep.csv against the golden copy; a non-converged point fails like exit 4."""
        text = _read_text(os.path.join(outdir, "sweep.csv"))
        ok, deviation, reason = compare_csv(text, self.golden)
        gate = GateResult(ok, deviation, reason, sha256_text(text))
        if not ok:
            return OpOutcome(False, f"gate: {reason}", gate=gate)
        for entry in sorted(os.listdir(outdir)):
            recon = os.path.join(outdir, entry, "recon.json")
            if os.path.isfile(recon):
                with open(recon, encoding="utf-8") as fh:
                    if json.load(fh).get("converged") is not True:
                        return OpOutcome(False, f"{entry}: reconstruction did not converge", gate=gate)
        return OpOutcome(True, reconstructions=self.reconstructions_per_op, gate=gate)

    def traced_pass(self, ctx: Context, tracer) -> tuple[OpOutcome, int, str]:
        """The sweep's per-point stages as separate public calls, each in a span.

        Mirrors run_sweep's serial path: same seeds, same targets, same files.
        The rows it produces go through the same gate as an op, so the pass
        is known to do the op's work. Returns (outcome, pickled point bytes,
        output dir).
        """
        from bellmix import (
            AcquisitionConfig,
            NoiseParams,
            SourceConfig,
            bootstrap_errors,
            completely_mixed,
            derive_seed,
            family_purity,
            family_tangle,
            family_visibility,
            generate,
            mix_duty_cycle,
            mle_reconstruct,
            report_for,
            simulate_counts,
            standard_projector_set,
        )
        from bellmix.counting import _SWEEP_STREAM, write_counts_csv
        from bellmix.linalg import write_state_json
        from bellmix.sweep import SWEEP_CSV_HEADER
        from bellmix.tomography import write_result_json

        outdir = ctx.fresh_dir()
        master = self.master_seed(ctx.seed)
        grid = [(i, a, "pump_vpr") for i, a in enumerate(README_ALPHAS)]
        grid.append((len(grid), 0.5, "two_vpr"))
        rows = [SWEEP_CSV_HEADER]
        payload = 0
        noise = NoiseParams()
        with tracer.span("sweep.traced_pass"):
            for index, alpha, source in grid:
                if source == "two_vpr":
                    config = SourceConfig(alpha=alpha, signal_dc=0.5, noise=noise)
                    target, description = completely_mixed(), "identity/4"
                    theory, directory = (0.0, 0.0, 0.25), "completely_mixed"
                else:
                    config = SourceConfig(alpha=alpha, noise=noise)
                    target = mix_duty_cycle(alpha)
                    description = f"duty-cycle mixture alpha={alpha:g}"
                    theory = (family_visibility(alpha), family_tangle(alpha), family_purity(alpha))
                    directory = f"alpha_{alpha:g}"
                acq = AcquisitionConfig(pairs_per_setting=self.pairs,
                                        seed=derive_seed(master, _SWEEP_STREAM, index))
                with tracer.span("sweep.point", alpha=alpha):
                    with tracer.span("optics.standard_projector_set"):
                        pset = standard_projector_set()
                    with tracer.span("states.generate"):
                        state = generate(config)
                    with tracer.span("counting.simulate_counts"):
                        records = simulate_counts(state, pset, acq)
                    with tracer.span("tomography.mle_reconstruct") as span:
                        result = mle_reconstruct(records, pset, target=target,
                                                 target_description=description)
                    span.attrs.update(iterations=result.iterations, converged=result.converged,
                                      floored_outcomes=result.floored_outcomes)
                    with tracer.span("tomography.bootstrap_errors", resamples=self.resamples):
                        errors = bootstrap_errors(result, pset, acq, self.resamples)
                    result.metric_errors = errors
                # report_for already ran inside mle_reconstruct; this call
                # times it on the same state and sits outside the point span.
                with tracer.span("metrics.report_for"):
                    report_for(result.rho_hat, target=target, target_description=description)
                payload += len(pickle.dumps((state, records, result, errors)))
                point_dir = os.path.join(outdir, directory)
                os.makedirs(point_dir, exist_ok=True)
                with tracer.span("sweep.write"):
                    with tracer.span("linalg.write_state_json"):
                        write_state_json(os.path.join(point_dir, "state.json"), state)
                    with tracer.span("counting.write_counts_csv"):
                        write_counts_csv(os.path.join(point_dir, "counts.csv"), records)
                    with tracer.span("tomography.write_result_json"):
                        write_result_json(os.path.join(point_dir, "recon.json"), result)
                m = result.metrics
                values = (alpha, m.visibility, m.tangle, m.purity, m.fidelity_to_target,
                          errors["visibility"], errors["tangle"], errors["purity"],
                          errors["fidelity"], *theory)
                rows.append(",".join([*(repr(float(v)) for v in values), source]))
        text = "\n".join(rows) + "\n"
        ok, deviation, reason = compare_csv(text, self.golden)
        gate = GateResult(ok, deviation, reason, sha256_text(text))
        outcome = OpOutcome(ok, "" if ok else f"traced pass gate: {reason}",
                            self.reconstructions_per_op if ok else 0, gate)
        return outcome, payload, outdir

    def probes(self, ctx: Context, tracer, outdir: str) -> None:
        """Read back the counts files a traced pass wrote, and build the streams of one point."""
        from bellmix.counting import read_counts_csv, stream

        for entry in sorted(os.listdir(outdir)):
            with tracer.span("counting.read_counts_csv"):
                read_counts_csv(os.path.join(outdir, entry, "counts.csv"))
        for setting in range(9):
            for outcome in range(4):
                with tracer.span("counting.stream"):
                    stream(self.master_seed(ctx.seed), setting, outcome)


# ----------------------------------------------------------------------- cli


def cli_op(argv, ctx: Context, out_path: str, golden: dict) -> OpOutcome:
    """Run one CLI reconstruction in a fresh interpreter and gate its recon.json.

    Any nonzero exit, 4 (not converged) included, fails the op.
    """
    code, stdout, stderr = run_child(argv, ctx.env, ctx.root)
    if code != 0:
        return OpOutcome(False, f"exit {code}: {stderr.strip()[-200:]}", stdout=stdout)
    with open(out_path, encoding="utf-8") as fh:
        recon = json.load(fh)
    ok, deviation, reason = compare_tree(recon, golden)
    gate = GateResult(ok, deviation, reason, sha256_text(json.dumps(recon, sort_keys=True)))
    return OpOutcome(ok, "" if ok else f"gate: {reason}", 1 if ok else 0, gate, stdout=stdout)


def golden_recon(recon: dict) -> dict:
    """The part of recon.json the gate checks."""
    return {key: recon[key] for key in ("metrics", "log_likelihood", "iterations", "converged")}


class CliWorkload:
    """`bellmix reconstruct` on 1e5-pair counts files, cycled in a seeded order."""

    name = "cli_reconstruct"
    reconstructions_per_op = 1
    inline = False

    def __init__(self) -> None:
        self.inputs = []
        self.golden = {}
        self._cycle = None

    @staticmethod
    def sim_seeds(seed: int) -> tuple[int, int]:
        slot = seed % GOLDEN_SLOTS
        return CLI_SEED_BASE + 2 * slot, CLI_SEED_BASE + 2 * slot + 1

    @staticmethod
    def key(alpha: float, sim_seed: int) -> str:
        return f"alpha={alpha:g},seed={sim_seed}"

    def make_inputs(self, ctx: Context, tracer=None) -> list:
        """Simulate the counts files; with a tracer, time the layers this uses.

        Returns (golden key, counts path, alpha) per file, in cycling order.
        """
        from contextlib import nullcontext

        from bellmix import AcquisitionConfig, SourceConfig, generate, simulate_counts
        from bellmix import standard_projector_set
        from bellmix.counting import write_counts_csv

        def span(name):
            return tracer.span(name) if tracer is not None else nullcontext()

        pset = standard_projector_set()
        indir = ctx.fresh_dir()
        inputs = []
        for sim_seed in self.sim_seeds(ctx.seed):
            for alpha in CLI_ALPHAS:
                with span("states.generate"):
                    state = generate(SourceConfig(alpha=alpha))
                acq = AcquisitionConfig(pairs_per_setting=CLI_PAIRS, seed=sim_seed)
                with span("counting.simulate_counts"):
                    records = simulate_counts(state, pset, acq)
                path = os.path.join(indir, f"counts_{alpha:g}_{sim_seed}.csv")
                write_counts_csv(path, records)
                inputs.append((self.key(alpha, sim_seed), path, alpha))
        random.Random(ctx.seed).shuffle(inputs)
        return inputs

    def prepare(self, ctx: Context, tracer=None) -> None:
        with open(os.path.join(GOLDEN_DIR, "cli_reconstruct.json"), encoding="utf-8") as fh:
            all_golden = json.load(fh)
        self.inputs = self.make_inputs(ctx, tracer)
        self.golden = {key: all_golden[key] for key, _path, _alpha in self.inputs}
        self._cycle = itertools.cycle(self.inputs)

    def next_input(self):
        return next(self._cycle)

    @staticmethod
    def argv(path: str, alpha: float, out: str) -> list[str]:
        return ["reconstruct", path, "--alpha", repr(alpha), "--out", out]

    def warm_up(self, ctx: Context) -> None:
        self.op(ctx)

    def op(self, ctx: Context, item=None) -> OpOutcome:
        """One reconstruct of `item`, or of the next input in the cycle."""
        key, path, alpha = item or self.next_input()
        out = os.path.join(ctx.fresh_dir(), "recon.json")
        argv = [sys.executable, "-m", "bellmix.cli", *self.argv(path, alpha, out)]
        return cli_op(argv, ctx, out, self.golden[key])


WORKLOADS = {
    "sweep_readme": lambda: SweepWorkload("sweep_readme", pairs=1e6, resamples=50, parallel=0),
    "sweep_pool2_1e7": lambda: SweepWorkload("sweep_pool2_1e7", pairs=1e7, resamples=10, parallel=2),
    "cli_reconstruct": CliWorkload,
}
