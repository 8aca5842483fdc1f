import copy
import csv
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import fields, is_dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bellmix.cli import main
from bellmix.counting import (
    AcquisitionConfig,
    counts_to_json_dict,
    read_counts_csv,
    simulate_counts,
    write_counts_csv,
)
from bellmix.linalg import matrix_from_json_dict, matrix_to_json_dict
from bellmix.optics import (
    CALIBRATION_IDLER,
    analyzer_ports,
    projector_set_to_json_dict,
    standard_projector_set,
)
from bellmix.states import NoiseParams, bell_state, mix_duty_cycle
from bellmix.errors import NoCounts, OutOfRange
from bellmix import sweep
from bellmix.sweep import SweepSpec, run_sweep
from bellmix.tomography import bootstrap_errors, mle_reconstruct
from helpers import broken_setting_zero


def write_json(path, data):
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def read_matrix(path):
    return matrix_from_json_dict(json.loads(path.read_text(encoding="utf-8")))


def test_generate_defaults_is_phi_minus(tmp_path, capsys):
    assert main(["generate"]) == 0
    data = json.loads(capsys.readouterr().out)
    m = matrix_from_json_dict(data)
    assert np.abs(m - bell_state("phi-").matrix).max() <= 1e-12


def test_generate_two_rotator_mixed_state(tmp_path):
    config = tmp_path / "config.json"
    write_json(config, {"alpha": 0.5, "signal_dc": 0.5})
    out = tmp_path / "state.json"
    assert main(["generate", "--config", str(config), "--out", str(out)]) == 0
    assert np.abs(read_matrix(out) - np.eye(4) / 4.0).max() <= 1e-12


def test_generate_rejects_out_of_range_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    write_json(config, {"alpha": 1.5})
    assert main(["generate", "--config", str(config)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_generate_rejects_unparsable_config(tmp_path):
    config = tmp_path / "config.json"
    config.write_text("{not json", encoding="utf-8")
    assert main(["generate", "--config", str(config)]) == 2


def test_simulate_then_reconstruct_round_trip(tmp_path):
    counts = tmp_path / "counts.csv"
    recon = tmp_path / "recon.json"
    assert main(["simulate", "--pairs", "1e5", "--seed", "42", "--out", str(counts)]) == 0
    code = main(["reconstruct", str(counts), "--alpha", "0", "--out", str(recon)])
    assert code == 0
    result = json.loads(recon.read_text(encoding="utf-8"))
    assert result["converged"] is True
    assert result["metrics"]["fidelity_to_target"] >= 0.999


def test_reconstruct_with_exported_projectors(tmp_path):
    counts = tmp_path / "counts.csv"
    projectors = tmp_path / "projectors.json"
    config = tmp_path / "config.json"
    write_json(config, {"alpha": 0.25})
    assert (
        main(
            [
                "simulate", "--config", str(config), "--pairs", "2e4", "--seed", "5",
                "--out", str(counts), "--projectors-out", str(projectors),
            ]
        )
        == 0
    )
    # A setting is placed by its index, not by its position in the file.
    reversed_projectors = tmp_path / "reversed.json"
    document = json.loads(projectors.read_text(encoding="utf-8"))
    write_json(reversed_projectors, {"settings": document["settings"][::-1]})
    recons = []
    for path in (projectors, reversed_projectors):
        out = tmp_path / f"recon_{path.stem}.json"
        argv = ["reconstruct", str(counts), "--projectors", str(path), "--alpha", "0.25"]
        assert main(argv + ["--out", str(out)]) == 0
        recons.append(out.read_bytes())
    assert recons[0] == recons[1]
    assert json.loads(recons[0])["metrics"]["fidelity_to_target"] >= 0.999


def test_reconstruct_malformed_counts(tmp_path, capsys):
    bad = tmp_path / "counts.csv"
    bad.write_text("setting_index,outcome_label,count\n0,TT,banana\n", encoding="utf-8")
    assert main(["reconstruct", str(bad)]) == 3
    assert "line 2" in capsys.readouterr().err


def test_reconstruct_uniform_counts(tmp_path):
    counts_path = tmp_path / "uniform.csv"
    write_counts_csv(counts_path, np.full((9, 4), 250))
    out = tmp_path / "recon.json"
    assert main(["reconstruct", str(counts_path), "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    rho = matrix_from_json_dict(result["rho_hat"])
    assert np.abs(rho - np.eye(4) / 4.0).max() <= 1e-6
    assert result["metrics"]["tangle"] <= 1e-9


def test_reconstruct_non_convergence_exit_code(tmp_path):
    counts = tmp_path / "counts.csv"
    assert main(["simulate", "--pairs", "1e5", "--seed", "9", "--out", str(counts)]) == 0
    assert main(["reconstruct", str(counts), "--max-iterations", "2"]) == 4


def test_reconstruct_json_counts_and_bootstrap(tmp_path):
    counts = tmp_path / "counts.json"
    recon = tmp_path / "recon.json"
    assert main(["simulate", "--pairs", "2e4", "--seed", "12", "--out", str(counts)]) == 0
    code = main(
        [
            "reconstruct", str(counts), "--alpha", "0",
            "--resamples", "3", "--seed", "8", "--out", str(recon),
        ]
    )
    assert code == 0
    result = json.loads(recon.read_text(encoding="utf-8"))
    errors = result["metric_errors"]
    assert set(errors) == {"purity", "tangle", "visibility", "fidelity"}
    assert all(v >= 0.0 for v in errors.values())


def test_reconstruct_fits_resamples_with_the_estimate_settings(tmp_path):
    counts = tmp_path / "counts.csv"
    recon = tmp_path / "recon.json"
    assert main(["simulate", "--pairs", "1e4", "--seed", "5", "--out", str(counts)]) == 0
    assert main(["reconstruct", str(counts), "--max-iterations", "8", "--tolerance", "1e-6",
                 "--resamples", "5", "--out", str(recon)]) == 4
    pset = standard_projector_set()
    table = read_counts_csv(counts)
    result = mle_reconstruct(table, pset, max_iterations=8, tolerance=1e-6)
    acq = AcquisitionConfig(pairs_per_setting=int(table.sum()) / 9)
    capped = bootstrap_errors(result, pset, acq, 5, max_iterations=8, tolerance=1e-6)
    assert capped != bootstrap_errors(result, pset, acq, 5)
    assert json.loads(recon.read_text(encoding="utf-8"))["metric_errors"] == capped


def test_simulate_writes_csv_to_stdout(capsys):
    assert main(["simulate", "--pairs", "1e3", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("setting_index,outcome_label,count\n")
    assert len(out.splitlines()) == 37


@pytest.mark.parametrize("command", ["reconstruct", "metrics"])
def test_target_and_alpha_together_exit_2(tmp_path, capsys, command):
    state = tmp_path / "state.json"
    write_json(state, matrix_to_json_dict(np.eye(4) / 4.0))
    counts = tmp_path / "counts.csv"
    write_counts_csv(counts, np.full((9, 4), 250))
    inputs = [str(counts)] if command == "reconstruct" else ["--state", str(state)]
    with pytest.raises(SystemExit) as exit_:
        main([command, *inputs, "--target", str(state), "--alpha", "0.3"])
    assert exit_.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_metrics_with_target_file(tmp_path, capsys):
    state = tmp_path / "state.json"
    target = tmp_path / "target.json"
    config = tmp_path / "config.json"
    write_json(config, {"alpha": 0.25})
    assert main(["generate", "--config", str(config), "--out", str(state)]) == 0
    assert main(["generate", "--out", str(target)]) == 0  # phi-minus
    assert main(["metrics", "--state", str(state), "--target", str(target)]) == 0
    report = json.loads(capsys.readouterr().out)
    # overlap of the alpha=0.25 mixture with the phi- projector is 0.75
    assert report["fidelity_to_target"] == pytest.approx(np.sqrt(0.75), abs=1e-9)


def test_metrics_command(tmp_path, capsys):
    state = tmp_path / "state.json"
    assert main(["generate", "--out", str(state)]) == 0
    assert main(["metrics", "--state", str(state), "--alpha", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["purity"] == pytest.approx(1.0, abs=1e-9)
    assert report["tangle"] == pytest.approx(1.0, abs=1e-9)
    assert report["visibility"] == pytest.approx(1.0, abs=1e-9)
    assert report["fidelity_to_target"] == pytest.approx(1.0, abs=1e-9)


def test_seed_and_fit_settings_come_only_from_flags(tmp_path, capsys, monkeypatch):
    plain, with_env = tmp_path / "plain.csv", tmp_path / "env.csv"
    monkeypatch.delenv("BELLMIX_SEED", raising=False)
    assert main(["simulate", "--pairs", "1e4", "--seed", "1", "--out", str(plain)]) == 0
    monkeypatch.setenv("BELLMIX_SEED", "777")  # no longer read: --seed 1 stands
    assert main(["simulate", "--pairs", "1e4", "--seed", "1", "--out", str(with_env)]) == 0
    assert with_env.read_bytes() == plain.read_bytes()
    with pytest.raises(SystemExit) as exited:  # every fit starts at eps = 1
        main(["reconstruct", str(plain), "--dilution", "1"])
    assert exited.value.code == 2
    assert "--dilution" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--seed", "-4"]], ids=["negative_seed"])
def test_reconstruct_rejects_its_bootstrap_seed_before_the_fit(tmp_path, capsys, monkeypatch,
                                                               flags):
    def fit(*args, **kwargs):
        raise AssertionError("the fit ran before the seed was checked")

    monkeypatch.setattr("bellmix.cli.mle_reconstruct", fit)
    counts = tmp_path / "counts.csv"
    write_counts_csv(counts, np.full((9, 4), 250))
    assert main(["reconstruct", str(counts), "--resamples", "3", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err.lower() and err.count("\n") == 1


def _sweep_spec(tmp_path, outputs, seed=404):
    spec = {
        "alphas": [0.0, 0.5, 0.9],
        "acquisition": {"pairs_per_setting": 2e4, "seed": seed},
        "noise": {"dephasing": 0.0},
        "outputs": str(outputs),
        "include_completely_mixed": True,
        "resamples": 3,
    }
    path = tmp_path / "spec.json"
    write_json(path, spec)
    return path


def _tree_bytes(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            full = os.path.join(dirpath, name)
            out[os.path.relpath(full, root)] = Path(full).read_bytes()
    return out


def test_sweep_outputs_and_determinism(tmp_path):
    spec = _sweep_spec(tmp_path, tmp_path / "out1")
    assert main(["sweep", "--spec", str(spec)]) == 0
    first = _tree_bytes(tmp_path / "out1")
    expected = {
        "sweep.csv",
        "alpha_0/state.json", "alpha_0/counts.csv", "alpha_0/recon.json",
        "alpha_0.5/state.json", "alpha_0.5/counts.csv", "alpha_0.5/recon.json",
        "alpha_0.9/state.json", "alpha_0.9/counts.csv", "alpha_0.9/recon.json",
        "completely_mixed/state.json", "completely_mixed/counts.csv",
        "completely_mixed/recon.json",
    }
    assert set(first) == expected

    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out2")]) == 0
    second = _tree_bytes(tmp_path / "out2")
    assert first == second

    assert (
        main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "out3"), "--parallel", "2"])
        == 0
    )
    third = _tree_bytes(tmp_path / "out3")
    assert first == third


@pytest.mark.parametrize("alphas, parallel", [
    ([0.0, 0.2, 0.5, 0.8], 2),
    ([0.0, 0.2, 0.5, 0.8], 3),
    ([0.3], 4),  # two points, so two of four workers would get an empty share
])
def test_pooled_shares_write_the_serial_tree(tmp_path, alphas, parallel):
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": alphas, "acquisition": {"pairs_per_setting": 1e3, "seed": 9},
                      "include_completely_mixed": True, "resamples": 3})
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "serial")]) == 0
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "pooled"),
                 "--parallel", str(parallel)]) == 0
    serial = _tree_bytes(tmp_path / "serial")
    assert len(serial) == 1 + 3 * (len(alphas) + 1)
    assert _tree_bytes(tmp_path / "pooled") == serial


def _same(a, b):
    """a and b hold the same values: arrays bit for bit, dataclasses and partials field by field."""
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, partial):
        return a.func is b.func and _same(a.args, b.args) and _same(a.keywords, b.keywords)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[key], b[key]) for key in a)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("parallel", [2, 3])
def test_pooled_run_sweep_returns_the_serial_points(tmp_path, parallel):
    spec = SweepSpec(alphas=(0.0, 0.2, 0.5, 0.8), noise=NoiseParams(dephasing=0.1),
                     acquisition=AcquisitionConfig(pairs_per_setting=1e3, seed=9),
                     include_completely_mixed=True, resamples=3)
    serial = run_sweep(replace(spec, outputs=str(tmp_path / "serial")))
    pooled = run_sweep(replace(spec, outputs=str(tmp_path / "pooled")), parallel=parallel)
    assert [point.index for point in pooled] == list(range(5))
    for mine, theirs in zip(pooled, serial):
        for name in (f.name for f in fields(sweep.SweepPoint)):
            assert _same(getattr(mine, name), getattr(theirs, name)), (mine.index, name)


@pytest.mark.parametrize("parallel", [0, 2])
@pytest.mark.parametrize("pairs, seed, first", [
    (1e-9, 1, "alpha=0 (pump_vpr)"),  # no point has counts
    # Point 0 has counts but a resample without any; point 1 has none. The
    # first point to fail is named, although its bootstrap stage runs last.
    (0.1, 7, "alpha=0 (pump_vpr)"),
    (0.1, 11, "alpha=0.5 (pump_vpr)"),  # point 0 and its resamples all have counts
])
def test_sweep_error_names_the_first_failing_point(tmp_path, capsys, parallel, pairs, seed, first):
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.0, 0.5, 1.0, 0.25], "resamples": 3,
                      "acquisition": {"pairs_per_setting": pairs, "seed": seed},
                      "outputs": str(tmp_path / "out")})
    assert main(["sweep", "--spec", str(spec), "--parallel", str(parallel)]) == 3
    assert capsys.readouterr().err.startswith(f"error: sweep point {first}: all counts are zero")
    with pytest.raises(NoCounts, match=rf"^sweep point {re.escape(first)}: "):
        run_sweep(SweepSpec.from_file(spec), parallel=parallel)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _raise(exc):
    raise exc


@pytest.mark.parametrize("misbehave, message", [
    (lambda: _raise(RuntimeError("share blew up")), r"^share blew up$"),
    # An exception holding a lock cannot be pickled, so its repr comes back instead.
    (lambda: _raise(ValueError(threading.Lock())), r"^ValueError\(<unlocked"),
    (lambda: os._exit(3), r"^sweep share 0 reported nothing; exit status 3$"),
], ids=["raises", "raises-unpicklable", "exits"])
def test_a_failing_share_child_fails_the_pooled_sweep(tmp_path, monkeypatch, misbehave, message):
    parent, real_run = os.getpid(), sweep._run

    def run(spec, points):
        if os.getpid() != parent:
            misbehave()
        return real_run(spec, points)

    monkeypatch.setattr(sweep, "_run", run)
    spec = SweepSpec.from_file(_sweep_spec(tmp_path, tmp_path / "out"))
    with pytest.raises(RuntimeError, match=message):
        run_sweep(spec, parallel=2)
    _assert_no_child_left()
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_a_pooled_sweep_leaves_no_child(tmp_path):
    spec = SweepSpec.from_file(_sweep_spec(tmp_path, tmp_path / "out"))
    run_sweep(spec, parallel=3)
    _assert_no_child_left()
    with pytest.raises(NoCounts):  # no point has counts
        run_sweep(replace(spec, acquisition=AcquisitionConfig(pairs_per_setting=1e-9)), parallel=3)
    _assert_no_child_left()


def test_an_interrupted_pooled_sweep_kills_its_children(tmp_path, monkeypatch):
    parent, real_run = os.getpid(), sweep._run

    def run(spec, points):
        if os.getpid() != parent:
            time.sleep(60)
        return real_run(spec, points)

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    monkeypatch.setattr(sweep, "_run", run)
    spec = SweepSpec.from_file(_sweep_spec(tmp_path, tmp_path / "out"))
    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, parallel=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_readme_sweep_csv_is_pinned(tmp_path):
    # The sweep spec printed in README.md, serial; the digest is that of the
    # benchmark's golden sweep.csv for master seed 2026.
    spec = tmp_path / "spec.json"
    write_json(spec, {
        "alphas": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
        "acquisition": {"pairs_per_setting": 1e6, "accidental_rate": 0.0, "seed": 2026},
        "noise": {"dephasing": 0.0, "depolarizing": 0.0},
        "outputs": str(tmp_path / "out"), "include_completely_mixed": True, "resamples": 50,
    })
    assert main(["sweep", "--spec", str(spec)]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "sweep.csv").read_bytes()).hexdigest()
    assert digest == "f0ca74f49fc056f1946c0f98f61e3734813cd0a192a359922c1baca604babbb0"


def test_sweep_csv_theory_columns_match_closed_forms(tmp_path):
    from bellmix.metrics import family_purity, family_tangle, family_visibility

    spec = _sweep_spec(tmp_path, tmp_path / "out")
    assert main(["sweep", "--spec", str(spec)]) == 0
    with open(tmp_path / "out" / "sweep.csv", newline="") as fh:
        rows = [{key: value if key == "source" else float(value) for key, value in row.items()}
                for row in csv.DictReader(fh)]
    assert len(rows) == 4
    for row in rows:
        if row["source"] == "two_vpr":
            assert row["theory_visibility"] == 0.0
            assert row["theory_tangle"] == 0.0
            assert row["theory_purity"] == 0.25
        else:
            alpha = row["alpha"]
            assert row["theory_visibility"] == family_visibility(alpha)
            assert row["theory_tangle"] == family_tangle(alpha)
            assert row["theory_purity"] == family_purity(alpha)
        assert row["fidelity_err"] is not None and row["fidelity_err"] >= 0.0


@pytest.mark.parametrize("parallel", ["0", "2"])
def test_noisy_serial_and_pooled_sweeps_give_noisy_theory_columns(tmp_path, parallel):
    from bellmix.metrics import family_purity, family_tangle, family_visibility

    noise = (0.027, 0.05)
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.0, 0.25, 0.5, 1.0], "acquisition": {"pairs_per_setting": 1e3},
                      "noise": {"dephasing": noise[0], "depolarizing": noise[1]},
                      "include_completely_mixed": True, "resamples": 0})
    out = tmp_path / "out"
    assert main(["sweep", "--spec", str(spec), "--out", str(out), "--parallel", parallel]) == 0
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    theory = [tuple(float(row[f"theory_{name}"]) for name in ("visibility", "tangle", "purity"))
              for row in rows]
    assert theory == [
        *((family_visibility(alpha, *noise), family_tangle(alpha, *noise),
           family_purity(alpha, *noise)) for alpha in (0.0, 0.25, 0.5, 1.0)),
        (0.0, 0.0, 0.25),
    ]
    assert theory[0] != (1.0, 1.0, 1.0)


def test_sweep_artifacts_round_trip(tmp_path):
    from bellmix.counting import read_counts_csv
    from bellmix.linalg import read_state_json, write_state_json
    from bellmix.tomography import read_result_json, write_result_json

    spec = _sweep_spec(tmp_path, tmp_path / "out")
    assert main(["sweep", "--spec", str(spec)]) == 0
    point = tmp_path / "out" / "alpha_0.5"

    state = read_state_json(point / "state.json")
    copy_path = tmp_path / "state_copy.json"
    write_state_json(copy_path, state)
    assert (point / "state.json").read_bytes() == copy_path.read_bytes()

    counts = read_counts_csv(point / "counts.csv")
    copy_path = tmp_path / "counts_copy.csv"
    write_counts_csv(copy_path, counts)
    assert (point / "counts.csv").read_bytes() == copy_path.read_bytes()

    result = read_result_json(point / "recon.json")
    copy_path = tmp_path / "recon_copy.json"
    write_result_json(copy_path, result)
    assert (point / "recon.json").read_bytes() == copy_path.read_bytes()


def test_sweep_pairs_flag_writes_the_tree_of_a_spec_with_those_pairs(tmp_path):
    spec = _sweep_spec(tmp_path, tmp_path / "flag")
    assert main(["sweep", "--spec", str(spec), "--pairs", "3e4"]) == 0
    document = json.loads(spec.read_text(encoding="utf-8"))
    document["acquisition"]["pairs_per_setting"] = 3e4
    document["outputs"] = str(tmp_path / "spec")
    write_json(spec, document)
    assert main(["sweep", "--spec", str(spec)]) == 0
    assert _tree_bytes(tmp_path / "flag") == _tree_bytes(tmp_path / "spec")


def test_sweep_bad_spec(tmp_path):
    path = tmp_path / "spec.json"
    write_json(path, {"alphas": []})
    assert main(["sweep", "--spec", str(path)]) == 2
    write_json(path, {"alphas": [2.0]})
    assert main(["sweep", "--spec", str(path)]) == 2


def test_sweep_spec_absent_fields_take_dataclass_defaults():
    assert SweepSpec.from_json_dict({"alphas": [0.5]}) == SweepSpec(alphas=(0.5,))
    assert AcquisitionConfig.from_json_dict({}) == AcquisitionConfig()
    spec = SweepSpec.from_json_dict(
        {"alphas": [0.5], "noise": {"depolarizing": 0.1}, "acquisition": {"seed": 9}}
    )
    assert spec == SweepSpec(alphas=(0.5,), noise=NoiseParams(depolarizing=0.1),
                             acquisition=AcquisitionConfig(seed=9))


def test_import_cli_leaves_process_pool_unloaded():
    code = "import sys, bellmix.cli; assert 'concurrent.futures' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize(
    "changes",
    [
        {"alphas": "01"},
        {"alphas": [0.5, "0.7"]},
        {"alphas": [True]},
        {"noise": [0.1]},
        {"noise": {"dephasing": 0.1, "dephase": 0.2}},
        {"noise": {"dephasing": "0.1"}},
        {"acquisition": 1e5},
        {"acquisition": {"pairs_per_setting": 1e5, "pairs": 2e5}},
        {"acquisition": {"pairs_per_setting": float("inf")}},
        {"acquisition": {"accidental_rate": float("nan")}},
        {"acquisition": {"seed": 1.5}},
        {"resamples": 1},
        {"resamples": -2},
        {"resamples": "3"},
        {"resamples": 2.5},
        {"resamples": True},
        {"include_completely_mixed": "false"},
        {"outputs": 5},
        {"alphas": [0.1, 0.1000001]},
        {"alphas": [0.3, 0.3]},
        {"acquisition": {"pairs_per_setting": 1e20}},  # a Poisson mean numpy cannot draw
        {"outputs": ""},  # would write into the current directory
    ],
)
def test_sweep_spec_escapes_exit_2(tmp_path, capsys, monkeypatch, changes):
    monkeypatch.chdir(tmp_path)
    spec = {"alphas": [0.5], "acquisition": {"pairs_per_setting": 1e3}, "resamples": 0,
            "outputs": str(tmp_path / "out")}
    spec.update(changes)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")  # inf and nan as Infinity and NaN
    assert main(["sweep", "--spec", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()
    assert os.listdir(tmp_path) == ["spec.json"]


def test_sweep_empty_out_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    spec = _sweep_spec(tmp_path, tmp_path / "out")
    assert main(["sweep", "--spec", str(spec), "--out", ""]) == 2
    assert "outputs must name a directory" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["spec.json"]


def test_resamples_one_is_rejected(tmp_path, capsys):
    spec = _sweep_spec(tmp_path, tmp_path / "out")
    assert main(["sweep", "--spec", str(spec), "--resamples", "1"]) == 2
    assert "resamples" in capsys.readouterr().err
    counts = tmp_path / "counts.csv"
    assert main(["simulate", "--pairs", "1e3", "--seed", "4", "--out", str(counts)]) == 0
    for value in ("1", "-1"):
        assert main(["reconstruct", str(counts), "--resamples", value]) == 2
        assert "resamples" in capsys.readouterr().err
    assert main(["reconstruct", str(counts), "--resamples", "0", "--out", str(tmp_path / "r.json")]) == 0


def test_paper_fixtures_command(capsys):
    assert main(["paper-fixtures", "--pairs", "2e4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line]
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_paper_fixtures_exits_1_when_a_check_fails(capsys):
    # At 10 pairs per setting the simulated mixture is far from its closed-form purity.
    assert main(["paper-fixtures", "--pairs", "10", "--seed", "7"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("pairs, code", [("1e300", 2), ("1e19", 0)])
def test_simulate_rejects_a_mean_numpy_cannot_draw(capsys, pairs, code):
    # At 1e19 pairs the largest mean is 5e18, below numpy's limit of about 9.2e18.
    assert main(["simulate", "--pairs", pairs]) == code
    assert ("Poisson mean" in capsys.readouterr().err) == (code == 2)


@pytest.mark.parametrize("flag, value", [
    ("--tolerance", "inf"), ("--tolerance", "nan"), ("--tolerance", "0"), ("--tolerance", "-1"),
    ("--max-iterations", "-5"),
])
def test_reconstruct_rejects_stop_settings_that_cannot_stop_right(tmp_path, capsys, flag, value):
    counts = tmp_path / "counts.csv"
    assert main(["simulate", "--pairs", "1e4", "--seed", "1", "--out", str(counts)]) == 0
    assert main(["reconstruct", str(counts), flag, value]) == 2
    assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
    assert main(["reconstruct", str(counts), "--max-iterations", "0"]) == 4


def test_sweep_rejects_a_negative_worker_count(tmp_path, capsys):
    out = tmp_path / "out"
    spec = _sweep_spec(tmp_path, out)
    assert main(["sweep", "--spec", str(spec), "--parallel", "-2"]) == 2
    assert "parallel must be >= 0" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(OutOfRange, match="parallel"):
        run_sweep(SweepSpec.from_file(spec), parallel=-1)


def test_unwritable_outputs_exit_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("a regular file, not a directory", encoding="utf-8")
    counts = tmp_path / "counts.csv"
    assert main(["simulate", "--pairs", "1e3", "--seed", "4", "--out", str(counts)]) == 0
    runs = [
        ["reconstruct", str(counts), "--out", str(blocker / "r.json")],
        ["generate", "--out", str(blocker / "state.json")],
        ["simulate", "--pairs", "1e3", "--out", str(blocker / "counts.json")],
        ["sweep", "--spec", str(_sweep_spec(tmp_path, blocker / "out")), "--resamples", "0"],
        ["sweep", "--spec", str(_sweep_spec(tmp_path, blocker)), "--resamples", "0"],
    ]
    for argv in runs:
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocker}") and err.count("\n") == 1


@pytest.mark.parametrize("parallel", ["0", "2"])
def test_unwritable_outputs_exit_2_before_any_compute(tmp_path, capsys, parallel):
    # With counts this low every point raises NoCounts once computed, which exits 3.
    blocker = tmp_path / "file"
    blocker.write_text("a regular file, not a directory", encoding="utf-8")
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.0, 0.5], "acquisition": {"pairs_per_setting": 1e-9},
                      "outputs": str(blocker / "out"), "resamples": 0})
    assert main(["sweep", "--spec", str(spec), "--parallel", parallel]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {blocker}")


@pytest.mark.parametrize("parallel, runs", [("0", [3]), ("2", [])], ids=["serial", "pooled"])
def test_unwritable_outputs_of_a_point_exit_2_without_recomputing(tmp_path, capsys, monkeypatch,
                                                                   parallel, runs):
    parent, real_run, sizes = os.getpid(), sweep._run, []

    def run(spec, points):
        if os.getpid() == parent:
            sizes.append(len(points))
        return real_run(spec, points)

    monkeypatch.setattr(sweep, "_run", run)
    blocked = tmp_path / "out" / "alpha_1" / "recon.json"
    blocked.mkdir(parents=True)  # a directory where the point's recon.json goes
    spec = tmp_path / "spec.json"
    write_json(spec, {"alphas": [0.0, 0.5, 1.0], "acquisition": {"pairs_per_setting": 1e3},
                      "outputs": str(tmp_path / "out"), "resamples": 3})
    assert main(["sweep", "--spec", str(spec), "--parallel", parallel]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {blocked}")
    assert sizes == runs  # one serial run of the grid, or none in the pooled parent


def test_sweep_exit_code_ignores_stale_points(tmp_path):
    out = tmp_path / "out"
    spec = _sweep_spec(tmp_path, out)
    for name, recon in (("alpha_0.3", "{not json"), ("alpha_0.7", '{"converged": false}')):
        (out / name).mkdir(parents=True)
        (out / name / "recon.json").write_text(recon, encoding="utf-8")
    assert main(["sweep", "--spec", str(spec)]) == 0


# Every CLI input that names a file: the file's name, the exit code for a bad
# one, and the command line, where {dir} is a scratch directory.
_FILE_INPUTS = {
    "counts_csv": ("counts.csv", 3, ["reconstruct", "{file}"]),
    "counts_json": ("counts.json", 3, ["reconstruct", "{file}"]),
    "projectors": ("projectors.json", 3,
                   ["reconstruct", "{dir}/uniform.csv", "--projectors", "{file}"]),
    "state": ("state.json", 3, ["metrics", "--state", "{file}"]),
    "spec": ("spec.json", 2, ["sweep", "--spec", "{file}", "--out", "{dir}/sweep",
                              "--pairs", "1e3", "--resamples", "0"]),
    "config": ("config.json", 2, ["generate", "--config", "{file}",
                                  "--out", "{dir}/generated.json"]),
}

_UNIFORM = np.full((9, 4), 250)
_VALID = {
    "counts_json": counts_to_json_dict(_UNIFORM),
    "projectors": projector_set_to_json_dict(standard_projector_set()),
    "state": matrix_to_json_dict(np.eye(4) / 4.0),
    "spec": {"alphas": [0.5], "acquisition": {"pairs_per_setting": 1e3, "accidental_rate": 0.0,
                                              "seed": 1},
             "noise": {"dephasing": 0.0, "depolarizing": 0.0}, "resamples": 0},
    "config": {"alpha": 0.25, "phi": 0.0, "beta_re": 0.6, "beta_im": 0.0, "gamma_re": 0.8,
               "gamma_im": 0.0, "signal_dc": 0.0, "dephasing": 0.0, "depolarizing": 0.0},
}


def _numeric_paths(value, path=()):
    """Paths to the numeric fields of a JSON document, through the first list item only."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numeric_paths(item, path + (key,))
    elif isinstance(value, list) and value:
        yield from _numeric_paths(value[0], path + (0,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def _with_literal(document, path, literal):
    """document as JSON bytes with the field at path written as the literal JSON text."""
    document = copy.deepcopy(document)
    node = document
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@literal@"
    return json.dumps(document).replace('"@literal@"', literal).encode()


def _dark_state():
    """Orthogonal to both +-22.5 degree TT projectors: the visibility is 0/0."""
    ket = np.kron([1.0, 0.0], analyzer_ports(CALIBRATION_IDLER)[1])
    return json.dumps(matrix_to_json_dict(np.outer(ket, ket.conj()))).encode()


def _overflowing_state():
    """1e308 on the diagonal and on one off-diagonal pair: finite, but its sums overflow."""
    m = 1e308 * np.eye(4)
    m[0, 1] = m[1, 0] = 1e308
    return json.dumps(matrix_to_json_dict(m)).encode()


def _projector_file(projectors):
    """The standard set's file with its projectors replaced by projectors (9, 4, 4, 4)."""
    document = copy.deepcopy(_VALID["projectors"])
    for entry, group in zip(document["settings"], projectors):
        entry["projectors"] = {label: matrix_to_json_dict(m)
                               for label, m in zip(entry["projectors"], group)}
    return json.dumps(document).encode()


def _json_keys(value):
    if isinstance(value, dict):
        return set(value) | {k for item in value.values() for k in _json_keys(item)}
    if isinstance(value, list):
        return {k for item in value for k in _json_keys(item)}
    return set()


def _counts_csv(settings):
    return "setting_index,outcome_label,count\n" + "".join(
        f"{setting},{label},250\n" for setting in settings for label in ("TT", "TR", "RT", "RR"))


def _counts_json(records):
    return json.dumps({"records": [{"setting_index": setting, "outcome_counts": counts}
                                   for setting, counts in records]})


# (kind, content, exit code) for the explicit examples.
_EXAMPLES = [
    *((kind, b"\xff\xfe{\x80", code) for kind, (_, code, _) in _FILE_INPUTS.items()),
    *((kind, b"[1, 2]", code) for kind, (_, code, _) in _FILE_INPUTS.items()),
    *((kind, _with_literal(doc, path, "1e400"), _FILE_INPUTS[kind][1])
      for kind, doc in _VALID.items() for path in _numeric_paths(doc)),
    # A projector set places its settings by index: integers 0..n-1, each once, in any order.
    *(("projectors", _with_literal(_VALID["projectors"], ("settings", 3, field), literal), 3)
      for field, literal in (("index", "8"), ("index", "9"), ("index", "true"), ("index", '"3"'),
                             ("index", "3.0"), ("signal_basis", "null"), ("idler_basis", "7"))),
    *(("projectors", _with_literal(_VALID["projectors"], ("settings", 3, "signal_angles", field),
                                   literal), 3)
      for field in ("qwp_angle", "hwp_angle") for literal in ("Infinity", "NaN", '"22.5"')),
    # Every projector I/4, so no setting is a measurement; or one of setting 0's checks fails.
    ("projectors", _projector_file(np.full((9, 4, 4, 4), np.eye(4) / 4.0)), 3),
    *(("projectors", _projector_file(projectors), 3)
      for projectors in broken_setting_zero(standard_projector_set().projectors).values()),
    *(("state", _with_literal(_VALID["state"], path, literal), 3)
      for path, literal in ((("dim",), "4.7"), (("dim",), "true"), (("dim",), '"4"'),
                            (("re", 0, 0), '"0.25"'), (("im", 1, 2), "true"),
                            (("re", 3), "[0.25, 0, 0]"), (("im",), "0"))),
    *(("counts_json", _with_literal(_VALID["counts_json"], ("records", 0, "outcome_counts", 0),
                                    literal), 3)
      for literal in ("-50", "100.7", "true", str(10**400))),
    ("counts_csv", b"setting_index,outcome_label,count\n0,TT,1e400\n", 3),
    ("counts_csv", b"setting_index,outcome_label,count\n0,TT,-50\n", 3),
    ("counts_csv", ("setting_index,outcome_label,count\n0,TT,%d\n" % 10**400).encode(), 3),
    ("counts_csv", b"setting_index,outcome_label,count\n0,TT\n", 3),
    ("counts_csv", (_counts_csv(range(9)) + "4,RT,250\n").encode(), 3),
    ("counts_csv", ("setting_index,outcome_label,count\n%s,TT,1\n" % ("1" * 5000)).encode(), 3),
    # A count table needs settings 0..n-1, each once, with four counts each.
    ("counts_csv", _counts_csv([*range(8), 9]).encode(), 3),
    ("counts_csv", b"setting_index,outcome_label,count\n9223372036854775806,TT,1\n", 3),
    *(("counts_json", _counts_json(records).encode(), 3) for records in (
        [(setting, [250] * 4) for setting in (*range(8), 9)],
        [(setting, [250] * 4) for setting in (*range(9), 3)],
        [(setting, [250] * (3 if setting == 3 else 4)) for setting in range(9)])),
    ("state", _dark_state(), 3),
    ("state", _overflowing_state(), 3),
    ("state", b"[" * 100000, 3),  # nested past the recursion limit
    ("config", b'{"alpha": 0.2, "beta_re": 1e308, "gamma_re": 1e308}', 2),  # |beta|^2 overflows
]

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(sorted(_json_keys(_VALID))), inner, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def file_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("file_inputs")
    write_counts_csv(path / "uniform.csv", _UNIFORM)
    return path


def _with_examples(test):
    for kind, content, code in _EXAMPLES:
        test = example(kind=kind, content=content, code=code)(test)
    return test


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    kind=st.sampled_from(sorted(_FILE_INPUTS)),
    content=st.binary(max_size=200) | _JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    code=st.none(),
)
@_with_examples
def test_any_file_content_exits_with_a_documented_code(file_dir, capsys, kind, content, code):
    """Whatever a file holds, the CLI exits 0, 2, 3 or 4 with at most a one-line error.

    The explicit examples also name the exit code they must reach.
    """
    name, _, argv = _FILE_INPUTS[kind]
    path = file_dir / name
    path.write_bytes(content)
    capsys.readouterr()
    returned = main([arg.format(file=path, dir=file_dir) for arg in argv])
    assert returned in ((0, 2, 3, 4) if code is None else (code,))
    if returned in (2, 3):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
