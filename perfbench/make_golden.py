"""Regenerate the golden outputs the benchmark gates every op against.

Run from the repository root:

    python3 perfbench/make_golden.py

Both sweep workloads get their sweep.csv from a serial run_sweep, so the
pooled workload's gate also checks that pooled and serial sweeps agree. The
CLI golden holds the gated part of recon.json for every counts file of every
input set. Regenerate only when a change is meant to alter the program's
numbers, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from workloads import (  # noqa: E402
    GOLDEN_DIR,
    GOLDEN_SLOTS,
    WORKLOADS,
    CliWorkload,
    Context,
    golden_recon,
)


def main() -> int:
    from bellmix import run_sweep
    from bellmix.cli import main as cli_main

    scratch = tempfile.mkdtemp(prefix="golden-", dir=ROOT)
    try:
        for name in ("sweep_readme", "sweep_pool2_1e7"):
            workload = WORKLOADS[name]()
            os.makedirs(os.path.join(GOLDEN_DIR, name), exist_ok=True)
            for slot in range(GOLDEN_SLOTS):
                outdir = os.path.join(scratch, f"{name}-{slot}")
                run_sweep(workload.spec(slot, outdir), parallel=0)
                shutil.copyfile(os.path.join(outdir, "sweep.csv"), workload.golden_path(slot))
                print(f"{name} slot {slot}: {workload.golden_path(slot)}", flush=True)

        golden = {}
        workload = CliWorkload()
        for slot in range(GOLDEN_SLOTS):
            ctx = Context(ROOT, slot, os.path.join(scratch, f"cli-{slot}"))
            os.mkdir(ctx.tmp)
            for key, counts, alpha in workload.make_inputs(ctx):
                recon = os.path.join(ctx.fresh_dir(), "recon.json")
                code = cli_main(workload.argv(counts, alpha, recon))
                if code != 0:
                    raise SystemExit(f"reconstruct exited {code} on {key}")
                with open(recon, encoding="utf-8") as fh:
                    golden[key] = golden_recon(json.load(fh))
        with open(os.path.join(GOLDEN_DIR, "cli_reconstruct.json"), "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"cli_reconstruct: {len(golden)} entries", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
